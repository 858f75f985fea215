//! Delineation reference for the MBioTracker application.
//!
//! The paper's delineation step detects the alternating maxima and minima of
//! the filtered respiration signal (Sec. 4.4.2): a linear scan with many
//! data-dependent branches (Sec. 5.2.2).  [`delineate_alternating`] is the
//! integer-domain reference that the CPU-baseline delineation kernel is
//! tested against.

/// An extremum found by [`delineate_alternating`] on integer samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtremumI32 {
    /// Sample index of the extremum.
    pub index: usize,
    /// Signal value at the extremum.
    pub value: i32,
    /// `true` for a local maximum, `false` for a local minimum.
    pub is_max: bool,
}

/// Integer-domain delineation with strict max/min alternation.
///
/// This is the exact policy implemented by the CPU-baseline delineation
/// kernel: a candidate extremum is accepted only if it is of
/// the opposite kind to the previously accepted one and differs from it by
/// at least `min_prominence` (the first extremum uses `|value| >=
/// min_prominence`).  It never replaces an already accepted extremum, which
/// keeps the hardware kernels single-pass.
///
/// # Example
///
/// ```
/// use vwr2a_dsp::stats::delineate_alternating;
///
/// let signal: Vec<i32> = (0..300)
///     .map(|i| (32768.0 * (std::f64::consts::TAU * i as f64 / 100.0).sin()) as i32)
///     .collect();
/// let extrema = delineate_alternating(&signal, 16_384);
/// assert!(extrema.len() >= 5);
/// for pair in extrema.windows(2) {
///     assert_ne!(pair[0].is_max, pair[1].is_max);
/// }
/// ```
pub fn delineate_alternating(signal: &[i32], min_prominence: i32) -> Vec<ExtremumI32> {
    let mut out: Vec<ExtremumI32> = Vec::new();
    if signal.len() < 3 {
        return out;
    }
    for i in 1..signal.len() - 1 {
        let (prev, cur, next) = (signal[i - 1], signal[i], signal[i + 1]);
        let is_max = cur >= prev && cur > next;
        let is_min = cur <= prev && cur < next;
        if !is_max && !is_min {
            continue;
        }
        match out.last() {
            None => {
                if cur.saturating_abs() >= min_prominence {
                    out.push(ExtremumI32 {
                        index: i,
                        value: cur,
                        is_max,
                    });
                }
            }
            Some(last) => {
                if last.is_max == is_max {
                    continue;
                }
                if (cur - last.value).saturating_abs() >= min_prominence {
                    out.push(ExtremumI32 {
                        index: i,
                        value: cur,
                        is_max,
                    });
                }
            }
        }
    }
    out
}
