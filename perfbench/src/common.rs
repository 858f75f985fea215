//! What every workload hands back per round, and the helpers the
//! runtime-driven workloads share.

use std::time::Instant;

use vwr2a_bench::SplitMix64;
use vwr2a_dsp::fir::design_lowpass;
use vwr2a_dsp::fixed::Q15;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_runtime::{BackendKind, FleetReport, Pool, Result as RtResult, ServeReport};

use crate::trace::{self, SpanSummary};

/// Modelled outcome of one round.  The simulator is deterministic, so
/// every round of a seed must produce exactly the same value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Modelled {
    /// Windows served.
    pub windows: u64,
    /// Modelled latency samples in cycles (per job, per closed batch or
    /// per application window, as the workload defines them).
    pub latencies: Vec<u64>,
    /// Jobs that carried a deadline, and those that missed it.
    pub deadlined: u64,
    pub misses: u64,
    /// Energy of everything served, in nanojoules.
    pub energy_nj: f64,
    /// Wall cycles the served windows took on the modelled platform.
    pub wall_cycles: u64,
    /// Modelled array cycles (the simulator's work behind the windows).
    pub array_cycles: u64,
    /// Report-derived per-layer values (counts, cycles, joules).
    pub layers: Vec<(&'static str, f64)>,
}

/// One round: a fresh set-up, then the whole workload once.
#[derive(Debug, Default)]
pub struct Round {
    /// Host seconds of the timed phase.
    pub host_s: f64,
    /// Host microseconds between consecutive outputs (or per call).
    pub gaps_us: Vec<f64>,
    /// Jobs attempted, and those that failed or came out wrong.
    pub jobs: u64,
    pub failed: u64,
    pub modelled: Modelled,
    /// Host seconds spent checking this round's outputs.
    pub verify_s: f64,
    /// Span summary, for traced rounds.
    pub spans: Option<SpanSummary>,
    /// Accounting identities that did not hold.
    pub mismatches: Vec<String>,
}

/// A workload the benchmark can run round after round.
pub trait Workload {
    /// Runs one round, traced or not.
    fn round(&mut self, traced: bool) -> Round;
    /// Host seconds spent computing the reference so far.
    fn reference_s(&self) -> f64;
}

/// Outputs and host timing of one timed call into the runtime.
pub struct Timed<O, R> {
    pub outputs: Vec<Vec<O>>,
    pub result: RtResult<R>,
    pub host_s: f64,
    pub gaps_us: Vec<f64>,
}

/// Times `run` (a `run_stream` call handed the sink) inside a top span,
/// collecting outputs by job and the host gap before each output.
pub fn timed_stream<O, R>(
    jobs: usize,
    run: impl FnOnce(&mut dyn FnMut(usize, O) -> RtResult<()>) -> RtResult<R>,
) -> Timed<O, R> {
    let mut outputs: Vec<Vec<O>> = (0..jobs).map(|_| Vec::new()).collect();
    let mut stamps: Vec<Instant> = Vec::with_capacity(4 * jobs);
    let start = Instant::now();
    let result = trace::top(|| {
        run(&mut |job, output| {
            stamps.push(Instant::now());
            outputs[job].push(output);
            Ok(())
        })
    });
    let host_s = start.elapsed().as_secs_f64();
    let mut prev = start;
    let gaps_us = stamps
        .into_iter()
        .map(|stamp| {
            let gap = stamp.duration_since(prev).as_secs_f64() * 1e6;
            prev = stamp;
            gap
        })
        .collect();
    Timed {
        outputs,
        result,
        host_s,
        gaps_us,
    }
}

/// A low-pass FIR kernel over `n` samples with 11 `q15` taps.
pub fn fir(cutoff: f64, n: usize) -> FirKernel {
    let taps: Vec<i32> = design_lowpass(11, cutoff)
        .expect("valid filter design")
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect();
    FirKernel::new(&taps, n).expect("valid kernel")
}

/// A seeded `q15` test window: two tones of random frequency and phase
/// plus uniform noise, well inside full scale.
pub fn signal(rng: &mut SplitMix64, n: usize) -> Vec<i32> {
    let (f1, f2) = (0.01 + 0.2 * rng.next_f64(), 0.2 + 0.25 * rng.next_f64());
    let (p1, p2) = (6.3 * rng.next_f64(), 6.3 * rng.next_f64());
    (0..n)
        .map(|s| {
            let t = s as f64;
            let noise = rng.next_f64() - 0.5;
            (5000.0 * (f1 * t + p1).sin() + 2500.0 * (f2 * t + p2).sin() + 600.0 * noise) as i32
        })
        .collect()
}

/// Nearest-rank percentile (the definition `ServeReport::percentile`
/// uses); `0` for no samples.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of host samples; `0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values every runtime-driven workload derives from its fleet
/// accounting (`FleetReport`), normalised per served window where the
/// name says so.
pub fn fleet_layers(pool: &Pool, fleet: &FleetReport) -> Vec<(&'static str, f64)> {
    let sessions: Vec<_> = (0..pool.arrays())
        .filter_map(|i| pool.backend(i).as_session())
        .collect();
    let averted: u64 = sessions.iter().map(|s| s.evictions_averted()).sum();
    // Evictions the sessions made that the fleet report does not carry
    // (a speculative prefetch that evicts and then gives up).
    let session_evictions: u64 = sessions.iter().map(|s| s.evictions()).sum();
    let unreported = session_evictions.saturating_sub(fleet.evictions());
    let windows = fleet.invocations() as f64;
    let wall = fleet.wall_cycles() as f64;
    let arrays: Vec<_> = fleet
        .arrays
        .iter()
        .filter(|a| a.kind == BackendKind::Array)
        .map(|a| &a.report)
        .collect();
    let launches: u64 = arrays.iter().map(|r| r.launches()).sum();
    let array_windows: u64 = arrays.iter().map(|r| r.invocations).sum();
    let busy = arrays
        .iter()
        .fold(vwr2a_runtime::Occupancy::default(), |acc, r| acc + r.busy);
    let per_kind = fleet.per_kind();
    let kind = |k: BackendKind| per_kind.iter().find(|s| s.kind == k);
    let occupancy = |k: BackendKind| {
        kind(k).map_or(0.0, |s| {
            ratio(s.busy.compute as f64, s.backends as f64 * wall)
        })
    };
    let jobs = |k: BackendKind| kind(k).map_or(0.0, |s| s.jobs as f64);
    let energy = |k: BackendKind| kind(k).map_or(0.0, |s| ratio(s.energy_nj as f64, windows));
    let prefetch_nj: u64 = fleet
        .arrays
        .iter()
        .map(|a| a.report.prefetch_energy_nj)
        .sum();
    vec![
        ("runtime.cold_reloads", fleet.cold_reloads() as f64),
        ("runtime.hidden_reloads", fleet.hidden_reloads() as f64),
        ("runtime.prefetches", fleet.prefetched() as f64),
        ("runtime.evictions", fleet.evictions() as f64),
        ("runtime.evictions_averted", averted as f64),
        ("runtime.unreported_evictions", unreported as f64),
        ("runtime.occupancy.array", occupancy(BackendKind::Array)),
        ("runtime.occupancy.fft", occupancy(BackendKind::FftAccel)),
        ("runtime.occupancy.cpu", occupancy(BackendKind::Cpu)),
        ("runtime.jobs.array", jobs(BackendKind::Array)),
        ("runtime.jobs.fft", jobs(BackendKind::FftAccel)),
        ("runtime.jobs.cpu", jobs(BackendKind::Cpu)),
        ("core.array_launches", launches as f64),
        ("core.replay_hits", fleet.replayed() as f64),
        (
            "core.replay_hit_ratio",
            ratio(fleet.replayed() as f64, launches as f64),
        ),
        (
            "core.compute_cycles",
            ratio(busy.compute as f64, array_windows as f64),
        ),
        (
            "core.config_load_cycles",
            ratio(busy.config_load as f64, array_windows as f64),
        ),
        (
            "core.dma_cycles",
            ratio(busy.dma as f64, array_windows as f64),
        ),
        ("energy.array_nj_per_window", energy(BackendKind::Array)),
        ("energy.fft_nj_per_window", energy(BackendKind::FftAccel)),
        ("energy.cpu_nj_per_window", energy(BackendKind::Cpu)),
        ("energy.prefetch_nj", ratio(prefetch_nj as f64, windows)),
    ]
}

/// Modelled array cycles behind a fleet's windows.
pub fn array_cycles(fleet: &FleetReport) -> u64 {
    fleet
        .arrays
        .iter()
        .filter(|a| a.kind == BackendKind::Array)
        .map(|a| a.report.cycles)
        .sum()
}

/// Checks the fleet accounting against what the array sessions
/// themselves counted (replays, prefetches) and, for traced
/// rounds, against the kernel callbacks the adapter saw.
pub fn reconcile(pool: &Pool, fleet: &FleetReport, spans: Option<&SpanSummary>) -> Vec<String> {
    let mut out = Vec::new();
    let sessions: Vec<_> = (0..pool.arrays())
        .filter_map(|i| pool.backend(i).as_session())
        .collect();
    let mut check = |what: &str, seen: u64, reported: u64| {
        if seen != reported {
            out.push(format!("{what}: observed {seen}, reported {reported}"));
        }
    };
    check(
        "replayed launches",
        sessions.iter().map(|s| s.accelerator().replays()).sum(),
        fleet.replayed(),
    );
    check(
        "prefetches",
        sessions.iter().map(|s| s.prefetches()).sum(),
        fleet.prefetched(),
    );
    if let Some(spans) = spans {
        let per_kind = fleet.per_kind();
        let invocations = |k: BackendKind| {
            per_kind
                .iter()
                .find(|s| s.kind == k)
                .map_or(0, |s| s.invocations)
        };
        check(
            "array windows",
            spans.execute.0,
            invocations(BackendKind::Array),
        );
        check(
            "engine windows",
            spans.execute_fft.0,
            invocations(BackendKind::FftAccel),
        );
        check(
            "cpu windows",
            spans.execute_cpu.0,
            invocations(BackendKind::Cpu),
        );
        let reloads: u64 = fleet
            .arrays
            .iter()
            .filter(|a| a.kind == BackendKind::Array)
            .map(|a| a.report.cold_launches + a.report.prefetched)
            .sum();
        // Every reload builds its program once; a speculative prefetch
        // that gives up has built one too, so builds may exceed reloads.
        if spans.program_in_top < reloads {
            out.push(format!(
                "program builds while serving: observed {}, reloads reported {reloads}",
                spans.program_in_top
            ));
        }
        check_spans(spans, &mut out);
    }
    out
}

/// The span identities every traced round must satisfy: each window
/// execution is tagged and inside a top span, kernel callbacks do not
/// overlap, and top-span self time plus callback time is the top span.
pub fn check_spans(spans: &SpanSummary, out: &mut Vec<String>) {
    if spans.untagged_windows > 0 {
        out.push(format!(
            "{} window span(s) without a job or top span",
            spans.untagged_windows
        ));
    }
    if spans.escaped > 0 {
        out.push(format!(
            "{} kernel span(s) outside their top span",
            spans.escaped
        ));
    }
    if spans.covered_ns != spans.child_ns {
        out.push(format!(
            "kernel callbacks overlap: {} ns summed, {} ns covered",
            spans.child_ns, spans.covered_ns
        ));
    }
    if spans.self_ns() + spans.covered_ns != spans.top_ns {
        out.push("top-span self time plus callback time is not the top span".into());
    }
}

/// The modelled view of one `Server` run: per-job latencies, deadline
/// hits, fleet energy and wall clock, and the serving-layer counters.
pub fn serve_modelled(pool: &Pool, report: &ServeReport, deadlined: u64) -> Modelled {
    let queue: Vec<u64> = report.latencies.iter().map(|l| l.queue_cycles).collect();
    let service: Vec<u64> = report.latencies.iter().map(|l| l.service_cycles).collect();
    let mut layers = fleet_layers(pool, &report.fleet);
    layers.extend([
        (
            "runtime.queue_wait_cycles_p50",
            percentile(&queue, 50.0) as f64,
        ),
        (
            "runtime.queue_wait_cycles_p99",
            percentile(&queue, 99.0) as f64,
        ),
        (
            "runtime.service_cycles_p50",
            percentile(&service, 50.0) as f64,
        ),
        ("runtime.steals", report.steals as f64),
        ("runtime.affinity_runs", report.plan.affinity_runs as f64),
    ]);
    Modelled {
        windows: report.fleet.invocations(),
        latencies: report.latencies.iter().map(|l| l.total).collect(),
        deadlined,
        misses: report.deadline_misses(),
        energy_nj: report.fleet.energy_nj() as f64,
        wall_cycles: report.fleet.wall_cycles(),
        array_cycles: array_cycles(&report.fleet),
        layers,
    }
}
