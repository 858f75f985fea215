//! Synthetic respiration-signal generator.
//!
//! The paper's input comes from the MUSEIC analog front-end; we substitute a
//! controllable synthetic waveform: a slow
//! breathing oscillation whose rate and depth are modulated, with additive
//! noise, quantised to `q15`.  The application's compute cost depends only
//! on the sample count and kernel sizes, so the synthetic signal exercises
//! the same code paths as recorded data.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator of respiration-like `q15` sample windows.
///
/// # Example
///
/// ```
/// use vwr2a_bioapp::signal::RespirationGenerator;
///
/// let mut generator = RespirationGenerator::new(42);
/// let window = generator.window(512);
/// assert_eq!(window.len(), 512);
/// assert!(window.iter().any(|&v| v != 0));
/// ```
#[derive(Debug, Clone)]
pub struct RespirationGenerator {
    rng: StdRng,
    /// Breathing rate in cycles per window of 512 samples.
    rate: f64,
    /// Peak amplitude as a fraction of full scale.
    depth: f64,
    /// Noise amplitude as a fraction of full scale.
    noise: f64,
}

impl RespirationGenerator {
    /// Creates a generator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            rate: 6.0,
            depth: 0.55,
            noise: 0.03,
        }
    }

    /// Sets the breathing rate (cycles per 512-sample window).
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Sets the breathing depth (fraction of full scale).
    pub fn with_depth(mut self, depth: f64) -> Self {
        self.depth = depth;
        self
    }

    /// Generates one window of `n` `q15` samples.
    pub fn window(&mut self, n: usize) -> Vec<i32> {
        let jitter: f64 = self.rng.gen_range(-0.2..0.2);
        let rate = self.rate + jitter;
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                let breath = (std::f64::consts::TAU * rate * t).sin();
                let drift = 0.05 * (std::f64::consts::TAU * 0.7 * t).sin();
                let noise = self.rng.gen_range(-self.noise..self.noise);
                let v = self.depth * breath + drift + noise;
                (v.clamp(-0.999, 0.999) * 32768.0) as i32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_reproducible_per_seed() {
        let a = RespirationGenerator::new(7).window(256);
        let b = RespirationGenerator::new(7).window(256);
        let c = RespirationGenerator::new(8).window(256);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn samples_stay_in_q15_range_and_oscillate() {
        let mut generator = RespirationGenerator::new(1).with_rate(8.0).with_depth(0.7);
        let w = generator.window(512);
        assert!(w.iter().all(|&v| v > -32768 && v < 32768));
        let positive = w.iter().filter(|&&v| v > 8000).count();
        let negative = w.iter().filter(|&&v| v < -8000).count();
        assert!(positive > 50 && negative > 50, "signal should oscillate");
    }
}
