//! `biosignal-app`: one `Vwr2aPipeline`, one closed-loop client calling
//! `run_window` on seeded 512-sample respiration windows.

use std::time::Instant;

use vwr2a_bench::SplitMix64;
use vwr2a_bioapp::pipeline::{run_cpu_with_vwr2a, AppReport, Vwr2aPipeline, WINDOW};
use vwr2a_bioapp::signal::RespirationGenerator;

use crate::common::{Modelled, Round, Workload};
use crate::trace;

const WINDOWS: usize = 1000;
/// Windows checked against a fresh single-window pipeline.
const SAMPLE: usize = 64;

pub struct Biosignal {
    windows: Vec<Vec<i32>>,
    /// `(window, prediction)` of the seeded sample, from fresh pipelines.
    reference: Vec<(usize, i32)>,
    reference_s: f64,
}

impl Biosignal {
    pub fn new(seed: u64) -> Self {
        let mut generator = RespirationGenerator::new(seed);
        let windows: Vec<Vec<i32>> = (0..WINDOWS).map(|_| generator.window(WINDOW)).collect();
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        let start = Instant::now();
        let reference = (0..SAMPLE)
            .map(|_| {
                let w = rng.next_below(WINDOWS as u64) as usize;
                // A window the reference itself cannot run cannot be
                // predicted right; `i32::MIN` is never a prediction.
                let prediction = run_cpu_with_vwr2a(&windows[w]).map_or(i32::MIN, |r| r.prediction);
                (w, prediction)
            })
            .collect();
        Self {
            windows,
            reference,
            reference_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// Times one set-up (kernels and runtime objects) and drops it.
pub fn setup_s() -> f64 {
    let start = Instant::now();
    let pipeline = Vwr2aPipeline::new().expect("pipeline builds");
    let elapsed = start.elapsed().as_secs_f64();
    drop(pipeline);
    elapsed
}

impl Workload for Biosignal {
    fn round(&mut self, traced: bool) -> Round {
        let mut pipeline = Vwr2aPipeline::new().expect("pipeline builds");

        let mut reports: Vec<Option<AppReport>> = Vec::with_capacity(self.windows.len());
        let mut gaps_us = Vec::with_capacity(self.windows.len());
        let timed = Instant::now();
        for window in &self.windows {
            let call = Instant::now();
            let report = trace::top(|| pipeline.run_window(window));
            gaps_us.push(call.elapsed().as_secs_f64() * 1e6);
            reports.push(report.map_err(|e| eprintln!("biosignal-app: {e}")).ok());
        }
        let host_s = timed.elapsed().as_secs_f64();
        let spans = traced.then(trace::finish_round);

        let verify = Instant::now();
        let failed_calls = reports.iter().filter(|r| r.is_none()).count();
        let wrong = self
            .reference
            .iter()
            .filter(|&&(w, want)| {
                reports[w]
                    .as_ref()
                    .is_some_and(|got| got.prediction != want)
            })
            .count();
        let ok: Vec<&AppReport> = reports.iter().flatten().collect();
        let per_window = |total: f64| total / ok.len().max(1) as f64;
        let step = |name: &str| per_window(ok.iter().map(|r| r.step_cycles(name) as f64).sum());
        let step_nj = |name: &str| {
            per_window(
                ok.iter()
                    .flat_map(|r| &r.steps)
                    .filter(|s| s.name == name)
                    .map(|s| s.energy.total_uj() * 1e3)
                    .sum(),
            )
        };
        let array_cycles: u64 = ok
            .iter()
            .map(|r| r.step_cycles("preprocessing") + r.step_cycles("feature extraction"))
            .sum();
        let session = pipeline.session();
        let busy = session.busy();
        let layers = vec![
            ("bioapp.preprocessing_cycles", step("preprocessing")),
            ("bioapp.delineation_cycles", step("delineation")),
            ("bioapp.features_cycles", step("feature extraction")),
            ("core.replay_hits", session.accelerator().replays() as f64),
            ("core.compute_cycles", per_window(busy.compute as f64)),
            (
                "core.config_load_cycles",
                per_window(busy.config_load as f64),
            ),
            ("core.dma_cycles", per_window(busy.dma as f64)),
            (
                "energy.array_nj_per_window",
                step_nj("preprocessing") + step_nj("feature extraction"),
            ),
            ("energy.cpu_nj_per_window", step_nj("delineation")),
            ("runtime.evictions", session.evictions() as f64),
        ];
        let modelled = Modelled {
            windows: ok.len() as u64,
            latencies: ok.iter().map(|r| r.total_cycles()).collect(),
            deadlined: 0,
            misses: 0,
            energy_nj: ok.iter().map(|r| r.total_energy_uj() * 1e3).sum(),
            // One client, one call at a time: the windows run back to back.
            wall_cycles: ok.iter().map(|r| r.total_cycles()).sum(),
            array_cycles,
            layers,
        };
        let mut mismatches = Vec::new();
        if let Some(spans) = &spans {
            crate::common::check_spans(spans, &mut mismatches);
        }
        Round {
            host_s,
            gaps_us,
            jobs: self.windows.len() as u64,
            failed: (failed_calls + wrong) as u64,
            modelled,
            verify_s: verify.elapsed().as_secs_f64(),
            spans,
            mismatches,
        }
    }

    fn reference_s(&self) -> f64 {
        self.reference_s
    }
}
