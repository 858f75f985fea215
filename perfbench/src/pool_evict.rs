//! `pool-evict`: closed batches of FIR-256 jobs fanned out by
//! `Pool::run_batch`'s path (`Pool::run_stream`) over four arrays whose
//! two-program configuration memories cannot hold the twelve-program
//! working set, so the fleet keeps evicting.

use std::borrow::Borrow;
use std::time::Instant;

use vwr2a_bench::SplitMix64;
use vwr2a_core::geometry::Geometry;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_runtime::testing::constrained_sessions;
use vwr2a_runtime::{FleetReport, Kernel, Pool};

use crate::common::{
    array_cycles, fir, fleet_layers, reconcile, signal, timed_stream, Modelled, Round, Timed,
    Workload,
};
use crate::trace::{self, Tagged, Traced};

/// Jobs per round, submitted as `WAVES` closed batches.
const JOBS: usize = 1500;
const WAVES: usize = 20;
const PROGRAMS: usize = 12;
const ARRAYS: usize = 4;
const N: usize = 256;

struct JobSpec {
    pick: usize,
    windows: Vec<Vec<i32>>,
}

pub struct PoolEvict {
    specs: Vec<JobSpec>,
    reference: Vec<Vec<Vec<i32>>>,
    reference_s: f64,
}

fn kernels() -> Vec<FirKernel> {
    (0..PROGRAMS)
        .map(|k| fir(0.04 + 0.035 * k as f64, N))
        .collect()
}

/// The fleet with the default cost-aware placement and LRU eviction;
/// `first` sizes the two-program configuration memories.
fn pool<K: Kernel>(first: &K) -> Pool {
    let words = first
        .program(&Geometry::paper())
        .expect("program builds")
        .config_words();
    Pool::with_sessions(constrained_sessions(ARRAYS, 2 * words))
        .expect("constrained sessions share one geometry")
}

impl PoolEvict {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let specs: Vec<JobSpec> = (0..JOBS)
            .map(|_| {
                let pick = rng.next_below(PROGRAMS as u64) as usize;
                let count = 1 + rng.next_below(4) as usize;
                JobSpec {
                    pick,
                    windows: (0..count).map(|_| signal(&mut rng, N)).collect(),
                }
            })
            .collect();
        let start = Instant::now();
        let kernels = kernels();
        let (reference, _) = Pool::run_serial_reference(
            specs
                .iter()
                .map(|s| (&kernels[s.pick], s.windows.iter().map(Vec::as_slice))),
        )
        .expect("serial reference runs");
        Self {
            specs,
            reference,
            reference_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Runs every wave in turn; job ids are global across waves.
    fn fan_out<'a, K, W>(
        &'a self,
        pool: &mut Pool,
        kernels: &'a [K],
        tag: impl Fn(usize, &'a [i32]) -> W + Copy + 'a,
    ) -> Vec<Timed<Vec<i32>, FleetReport>>
    where
        K: Kernel<Output = Vec<i32>>,
        W: Borrow<K::Input>,
    {
        let per_wave = JOBS.div_ceil(WAVES);
        let waves: Vec<Vec<_>> = self
            .specs
            .chunks(per_wave)
            .enumerate()
            .map(|(w, chunk)| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let job = w * per_wave + i;
                        (
                            &kernels[s.pick],
                            s.windows.iter().map(move |x| tag(job, x.as_slice())),
                        )
                    })
                    .collect()
            })
            .collect();
        waves
            .into_iter()
            .map(|jobs| timed_stream(jobs.len(), |sink| pool.run_stream(jobs, sink)))
            .collect()
    }
}

/// Times one set-up (kernels and runtime objects) and drops it.
pub fn setup_s() -> f64 {
    let start = Instant::now();
    let kernels = kernels();
    let pool = pool(&kernels[0]);
    let elapsed = start.elapsed().as_secs_f64();
    drop((kernels, pool));
    elapsed
}

impl Workload for PoolEvict {
    fn round(&mut self, traced: bool) -> Round {
        let kernels = kernels();
        let wrapped: Vec<Traced<'_, FirKernel>> = kernels.iter().map(Traced::new).collect();
        let mut pool = if traced {
            pool(&wrapped[0])
        } else {
            pool(&kernels[0])
        };
        let waves = if traced {
            self.fan_out(&mut pool, &wrapped, |job, input| Tagged { job, input })
        } else {
            self.fan_out(&mut pool, &kernels, |_, input| input)
        };
        let spans = traced.then(trace::finish_round);

        let verify = Instant::now();
        let jobs = self.specs.len() as u64;
        let mut round = Round {
            jobs,
            ..Round::default()
        };
        let mut fleet: Option<FleetReport> = None;
        let mut latencies = Vec::with_capacity(waves.len());
        let mut wall_cycles = 0;
        let mut job = 0;
        for wave in waves {
            round.host_s += wave.host_s;
            round.gaps_us.extend(wave.gaps_us);
            let expected = &self.reference[job..job + wave.outputs.len()];
            job += wave.outputs.len();
            match wave.result {
                Ok(report) => {
                    round.failed += wave
                        .outputs
                        .iter()
                        .zip(expected)
                        .filter(|(got, want)| got != want)
                        .count() as u64;
                    // A closed batch: every job arrives at cycle 0, so the
                    // batch's latency is the fleet wall clock it took.
                    latencies.push(report.wall_cycles());
                    wall_cycles += report.wall_cycles();
                    match &mut fleet {
                        Some(total) => total.absorb(&report),
                        None => fleet = Some(report),
                    }
                }
                Err(err) => {
                    eprintln!("pool-evict: a batch failed: {err}");
                    round.failed += wave.outputs.len() as u64;
                }
            }
        }
        if let Some(fleet) = fleet {
            round.mismatches = reconcile(&pool, &fleet, spans.as_ref());
            round.modelled = Modelled {
                windows: fleet.invocations(),
                latencies,
                deadlined: 0,
                misses: 0,
                energy_nj: fleet.energy_nj() as f64,
                wall_cycles,
                array_cycles: array_cycles(&fleet),
                layers: fleet_layers(&pool, &fleet),
            };
        }
        round.spans = spans;
        round.verify_s = verify.elapsed().as_secs_f64();
        round
    }

    fn reference_s(&self) -> f64 {
        self.reference_s
    }
}
