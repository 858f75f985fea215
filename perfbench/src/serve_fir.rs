//! `serve-fir`: an open-loop, multi-tenant Poisson stream of FIR-256 jobs
//! served by weighted-fair scheduling + stealing + the lookahead planner
//! over ARC eviction, on four arrays with two-program configuration
//! memories.

use std::borrow::Borrow;
use std::time::Instant;

use vwr2a_bench::{poisson_arrivals, SplitMix64};
use vwr2a_core::geometry::Geometry;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_runtime::testing::constrained_sessions;
use vwr2a_runtime::{
    ArcPolicy, CostAware, Kernel, Objective, Pool, ServeJob, ServeReport, Server, WeightedFair,
};

use crate::common::{fir, reconcile, serve_modelled, signal, timed_stream, Round, Timed, Workload};
use crate::trace::{self, Tagged, Traced};

/// Jobs per round; one in five belongs to the chatty tenant.  The mix
/// and load keep the fleet below saturation with a few per cent of
/// interactive deadlines missed, and put the median on the interactive
/// jobs, so the latency percentiles hold steady from seed to seed.
const JOBS: usize = 4000;
const MEAN_GAP: f64 = 900.0;
/// Interactive deadline: arrival + this many cycles.
const SLACK: u64 = 5_000;
const PROGRAMS: usize = 6;
const ARRAYS: usize = 4;
const N: usize = 256;
/// The chatty batch tenant; tenants 1..=3 are interactive.
const CHATTY: u32 = 0;

struct JobSpec {
    pick: usize,
    windows: Vec<Vec<i32>>,
    tenant: u32,
    arrival: u64,
    priority: u8,
    deadline: Option<u64>,
}

pub struct ServeFir {
    specs: Vec<JobSpec>,
    reference: Vec<Vec<Vec<i32>>>,
    reference_s: f64,
}

fn kernels() -> Vec<FirKernel> {
    (0..PROGRAMS)
        .map(|k| fir(0.05 + 0.04 * k as f64, N))
        .collect()
}

/// The serving stack; `first` sizes the two-program configuration
/// memories (its program is built here, as part of set-up).
fn server<K: Kernel>(first: &K) -> Server {
    let words = first
        .program(&Geometry::paper())
        .expect("program builds")
        .config_words();
    let mut sessions = constrained_sessions(ARRAYS, 2 * words);
    for session in &mut sessions {
        session.set_eviction_policy(ArcPolicy::new());
    }
    let pool = Pool::with_sessions(sessions)
        .expect("constrained sessions share one geometry")
        .with_placement(CostAware::with_objective(Objective::Cycles));
    Server::new(pool)
        .with_policy(WeightedFair::new())
        .with_stealing(true)
        .with_lookahead(true)
}

impl ServeFir {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let arrivals = poisson_arrivals(&mut rng, JOBS, MEAN_GAP);
        let specs: Vec<JobSpec> = arrivals
            .into_iter()
            .map(|arrival| {
                let chatty = rng.next_below(5) == 0;
                let (tenant, count, priority, deadline) = if chatty {
                    (CHATTY, 4 + rng.next_below(4) as usize, 0, None)
                } else {
                    (1 + rng.next_below(3) as u32, 1, 1, Some(arrival + SLACK))
                };
                JobSpec {
                    pick: rng.next_below(PROGRAMS as u64) as usize,
                    windows: (0..count).map(|_| signal(&mut rng, N)).collect(),
                    tenant,
                    arrival,
                    priority,
                    deadline,
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

    fn serve<'a, K, W>(
        &'a self,
        server: &mut Server,
        kernels: &'a [K],
        tag: impl Fn(usize, &'a [i32]) -> W + Copy + 'a,
    ) -> Timed<Vec<i32>, ServeReport>
    where
        K: Kernel<Output = Vec<i32>>,
        W: Borrow<K::Input>,
    {
        let jobs: Vec<_> = self
            .specs
            .iter()
            .enumerate()
            .map(|(j, s)| ServeJob {
                kernel: &kernels[s.pick],
                windows: s.windows.iter().map(move |w| tag(j, w.as_slice())),
                tenant: s.tenant,
                arrival_cycle: s.arrival,
                priority: s.priority,
                deadline_cycle: s.deadline,
            })
            .collect();
        timed_stream(jobs.len(), |sink| server.run_stream(jobs, sink))
    }
}

/// Times one set-up (kernels and runtime objects) and drops it.
pub fn setup_s() -> f64 {
    let start = Instant::now();
    let kernels = kernels();
    let server = server(&kernels[0]);
    let elapsed = start.elapsed().as_secs_f64();
    drop((kernels, server));
    elapsed
}

impl Workload for ServeFir {
    fn round(&mut self, traced: bool) -> Round {
        let kernels = kernels();
        let wrapped: Vec<Traced<'_, FirKernel>> = kernels.iter().map(Traced::new).collect();
        let mut server = if traced {
            server(&wrapped[0])
        } else {
            server(&kernels[0])
        };
        let timed = if traced {
            self.serve(&mut server, &wrapped, |job, input| Tagged { job, input })
        } else {
            self.serve(&mut server, &kernels, |_, input| input)
        };
        let spans = traced.then(trace::finish_round);

        let verify = Instant::now();
        let jobs = self.specs.len() as u64;
        let mut round = Round {
            host_s: timed.host_s,
            gaps_us: timed.gaps_us,
            jobs,
            ..Round::default()
        };
        let deadlined = self.specs.iter().filter(|s| s.deadline.is_some()).count() as u64;
        match timed.result {
            Ok(report) => {
                let wrong: Vec<usize> = (0..self.specs.len())
                    .filter(|&j| timed.outputs[j] != self.reference[j])
                    .collect();
                round.failed = wrong.len() as u64;
                round.mismatches = reconcile(server.pool(), &report.fleet, spans.as_ref());
                round.modelled = serve_modelled(server.pool(), &report, deadlined);
                // A wrong output misses its deadline however early it came.
                round.modelled.misses += wrong
                    .iter()
                    .filter(|&&j| {
                        self.specs[j].deadline.is_some()
                            && report.latencies.get(j).is_some_and(|l| l.deadline_met)
                    })
                    .count() as u64;
            }
            Err(err) => {
                eprintln!("serve-fir: the run failed: {err}");
                round.failed = jobs;
                round.modelled.deadlined = deadlined;
                round.modelled.misses = deadlined;
            }
        }
        round.spans = spans;
        round.verify_s = verify.elapsed().as_secs_f64();
        round
    }

    fn reference_s(&self) -> f64 {
        self.reference_s
    }
}
