//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-fir|hetero-fft|pool-evict|biosignal-app|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run builds the workload's inputs and its reference from the seed
//! (untimed), then repeats *rounds* — a fresh set-up (kernels, sessions,
//! pool/server or pipeline) and the whole workload once — until
//! `--seconds` have passed, checking every round's outputs.  With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced rounds and prints the per-layer
//! metrics.  The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for every metric's clock and meaning.

mod biosignal;
mod common;
mod hetero_fft;
mod pool_evict;
mod serve_fir;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use common::{median, percentile, Round, Workload};

const WORKLOADS: [&str; 4] = ["serve-fir", "hetero-fft", "pool-evict", "biosignal-app"];

/// Set-up samples, each the mean of `SETUP_BATCH` consecutive set-ups,
/// taken before the first round and after every round, so that they
/// spread over the run like the host-clock measurements; `setup_s` is
/// their median.
const SETUP_SAMPLES_FIRST: usize = 10;
const SETUP_SAMPLES_PER_ROUND: usize = 5;
const SETUP_BATCH: usize = 10;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 9] = [
    ("host_windows_per_s", "windows/s"),
    ("host_window_us_p50", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("latency_p50_cycles", "cycles"),
    ("latency_p99_cycles", "cycles"),
    ("deadline_met_ratio", "ratio"),
    ("energy_nj_per_window", "nJ/window"),
    ("modelled_windows_per_mcycle", "windows/Mcycle"),
];

/// Per-layer metrics (`--trace 1`), with units.  A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("runtime.self_us_per_window", "us/window"),
    ("runtime.queue_wait_cycles_p50", "cycles"),
    ("runtime.queue_wait_cycles_p99", "cycles"),
    ("runtime.service_cycles_p50", "cycles"),
    ("runtime.cold_reloads", "count"),
    ("runtime.hidden_reloads", "count"),
    ("runtime.prefetches", "count"),
    ("runtime.evictions", "count"),
    ("runtime.evictions_averted", "count"),
    ("runtime.unreported_evictions", "count"),
    ("runtime.steals", "count"),
    ("runtime.affinity_runs", "count"),
    ("runtime.occupancy.array", "ratio"),
    ("runtime.occupancy.fft", "ratio"),
    ("runtime.occupancy.cpu", "ratio"),
    ("runtime.jobs.array", "count"),
    ("runtime.jobs.fft", "count"),
    ("runtime.jobs.cpu", "count"),
    ("runtime.array_fft_windows", "count"),
    ("kernels.program_builds", "count"),
    ("kernels.program_us", "us"),
    ("kernels.array_window_us", "us"),
    ("core.array_launches", "count"),
    ("core.replay_hits", "count"),
    ("core.replay_hit_ratio", "ratio"),
    ("core.sim_cycles_per_host_us", "cycles/us"),
    ("core.compute_cycles", "cycles/window"),
    ("core.config_load_cycles", "cycles/window"),
    ("core.dma_cycles", "cycles/window"),
    ("fftaccel.windows", "count"),
    ("fftaccel.window_us", "us"),
    ("soc.windows", "count"),
    ("soc.window_us", "us"),
    ("energy.array_nj_per_window", "nJ/window"),
    ("energy.fft_nj_per_window", "nJ/window"),
    ("energy.cpu_nj_per_window", "nJ/window"),
    ("energy.prefetch_nj", "nJ/window"),
    ("bioapp.preprocessing_cycles", "cycles/window"),
    ("bioapp.delineation_cycles", "cycles/window"),
    ("bioapp.features_cycles", "cycles/window"),
    ("deadline_miss_ratio", "ratio"),
    ("error_rate", "ratio"),
    ("bench.verify_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Times one set-up of `workload`.
fn setup_s(workload: &str) -> f64 {
    match workload {
        "serve-fir" => serve_fir::setup_s(),
        "hetero-fft" => hetero_fft::setup_s(),
        "pool-evict" => pool_evict::setup_s(),
        _ => biosignal::setup_s(),
    }
}

fn make(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "serve-fir" => Box::new(serve_fir::ServeFir::new(seed)),
        "hetero-fft" => Box::new(hetero_fft::HeteroFft::new(seed)),
        "pool-evict" => Box::new(pool_evict::PoolEvict::new(seed)),
        _ => Box::new(biosignal::Biosignal::new(seed)),
    }
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Windows per host second over `rounds`.
fn host_rate<'a>(rounds: impl Iterator<Item = &'a Round>) -> f64 {
    let (windows, seconds) = rounds.fold((0u64, 0f64), |(w, s), r| {
        (w + r.modelled.windows, s + r.host_s)
    });
    if seconds > 0.0 {
        windows as f64 / seconds
    } else {
        0.0
    }
}

fn end_to_end(rounds: &[Round], setups: &[f64]) -> Vec<(&'static str, f64)> {
    let m = &rounds[0].modelled;
    let gaps: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.gaps_us.iter().copied())
        .collect();
    let met = if m.deadlined > 0 {
        1.0 - m.misses as f64 / m.deadlined as f64
    } else {
        1.0
    };
    let per_window = |v: f64| v / m.windows.max(1) as f64;
    vec![
        ("host_windows_per_s", host_rate(rounds.iter())),
        ("host_window_us_p50", median(&gaps)),
        ("setup_s", median(setups)),
        ("peak_rss_mib", peak_rss_mib()),
        ("latency_p50_cycles", percentile(&m.latencies, 50.0) as f64),
        ("latency_p99_cycles", percentile(&m.latencies, 99.0) as f64),
        ("deadline_met_ratio", met),
        ("energy_nj_per_window", per_window(m.energy_nj)),
        (
            "modelled_windows_per_mcycle",
            m.windows as f64 * 1e6 / m.wall_cycles.max(1) as f64,
        ),
    ]
}

fn per_layer(
    workload: &str,
    plain: &[&Round],
    traced: &[&Round],
    attempted: u64,
    failed: u64,
    verify_s: f64,
) -> Vec<(&'static str, f64)> {
    let m = &traced[0].modelled;
    let mut out: Vec<(&'static str, f64)> = m.layers.clone();
    let rounds = traced.len() as f64;
    let mut sum = trace::SpanSummary::default();
    for round in traced {
        sum.absorb(round.spans.as_ref().expect("traced rounds carry spans"));
    }
    let mean_us = |(count, ns): (u64, u64)| {
        if count > 0 {
            ns as f64 / count as f64 / 1e3
        } else {
            0.0
        }
    };
    let windows = m.windows as f64 * rounds;
    // The pipeline owns its kernels: its top span is the application
    // call, there is no runtime layer above the kernels to attribute.
    let runtime_self = if workload == "biosignal-app" {
        0.0
    } else {
        sum.self_ns() as f64 / 1e3 / windows.max(1.0)
    };
    // Host time of the spans that simulate the array's cycles.
    let sim_ns = if workload == "biosignal-app" {
        sum.top_ns
    } else {
        sum.execute.1
    };
    let sim_rate = if sim_ns > 0 {
        m.array_cycles as f64 * rounds / (sim_ns as f64 / 1e3)
    } else {
        0.0
    };
    let deadline_miss = if m.deadlined > 0 {
        m.misses as f64 / m.deadlined as f64
    } else {
        0.0
    };
    // Rounds alternate untraced, traced: compare each pair, which ran
    // under the same host conditions, and take the median.
    let pair_ratios: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(u, t)| host_rate(std::iter::once(*u)) / host_rate(std::iter::once(*t)))
        .filter(|r| r.is_finite())
        .collect();
    let overhead = if pair_ratios.is_empty() {
        0.0
    } else {
        (median(&pair_ratios) - 1.0) * 100.0
    };
    out.extend([
        ("runtime.self_us_per_window", runtime_self),
        ("kernels.program_builds", sum.program.0 as f64 / rounds),
        ("kernels.program_us", mean_us(sum.program)),
        ("kernels.array_window_us", mean_us(sum.execute)),
        ("core.sim_cycles_per_host_us", sim_rate),
        ("fftaccel.windows", sum.execute_fft.0 as f64 / rounds),
        ("fftaccel.window_us", mean_us(sum.execute_fft)),
        ("soc.windows", sum.execute_cpu.0 as f64 / rounds),
        ("soc.window_us", mean_us(sum.execute_cpu)),
        ("deadline_miss_ratio", deadline_miss),
        ("error_rate", failed as f64 / attempted.max(1) as f64),
        ("bench.verify_s", verify_s),
        ("bench.trace_overhead_pct", overhead),
    ]);
    out
}

/// Formats a measured value for JSON: every digit, never NaN.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &[(&'static str, f64)],
) {
    let value = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    for (name, unit) in table {
        println!("  {name:<30} {:>18.4} {unit}", value(name));
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value(name))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn run(args: &Args) {
    let workload = args.workload.as_str();
    let sample = || (0..SETUP_BATCH).map(|_| setup_s(workload)).sum::<f64>() / SETUP_BATCH as f64;
    let mut setups: Vec<f64> = (0..SETUP_SAMPLES_FIRST).map(|_| sample()).collect();
    let mut bench = make(workload, args.seed);

    let begin = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    loop {
        // Trace mode alternates untraced and traced rounds, so drift on
        // the host hits both alike.
        let traced = args.trace && rounds.len() % 2 == 1;
        trace::set_enabled(traced);
        let round = bench.round(traced);
        trace::set_enabled(false);
        setups.extend((0..SETUP_SAMPLES_PER_ROUND).map(|_| sample()));
        eprintln!(
            "{workload}: round {}{}: {:.3} s timed, {:.1} windows/s",
            rounds.len(),
            if traced { " (traced)" } else { "" },
            round.host_s,
            round.modelled.windows as f64 / round.host_s,
        );
        rounds.push((traced, round));
        let enough = !args.trace || rounds.len() >= 2;
        if enough && begin.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
    }

    let attempted: u64 = rounds.iter().map(|(_, r)| r.jobs).sum();
    let failed: u64 = rounds.iter().map(|(_, r)| r.failed).sum();
    let mut mismatches: Vec<String> = rounds
        .iter()
        .flat_map(|(_, r)| r.mismatches.iter().cloned())
        .collect();
    if rounds
        .iter()
        .any(|(_, r)| r.modelled != rounds[0].1.modelled)
    {
        mismatches.push("modelled numbers differ between rounds of one seed".into());
    }
    for mismatch in &mismatches {
        eprintln!("{workload}: accounting mismatch: {mismatch}");
    }
    let correct = failed == 0 && mismatches.is_empty();
    let verify_s = bench.reference_s() + rounds.iter().map(|(_, r)| r.verify_s).sum::<f64>();

    let m = &rounds[0].1.modelled;
    println!(
        "{workload} (seed {}): {} round(s), {} window(s) and {} latency sample(s) per round, \
         {attempted} job(s) attempted, {failed} failed",
        args.seed,
        rounds.len(),
        m.windows,
        m.latencies.len(),
    );
    if args.trace {
        let spans = trace::take_archive();
        let path =
            PathBuf::from(".perfbench_out").join(format!("spans-{workload}-seed{}.tsv", args.seed));
        match trace::write_spans(&path, &spans) {
            Ok(()) => eprintln!(
                "{workload}: {} span(s) written to {}",
                spans.len(),
                path.display()
            ),
            Err(err) => eprintln!("{workload}: cannot write {}: {err}", path.display()),
        }
        let plain: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
        let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        let values = per_layer(workload, &plain, &traced, attempted, failed, verify_s);
        print_result(correct, attempted, failed, &PER_LAYER, &values);
    } else {
        let plain: Vec<Round> = rounds.into_iter().map(|(_, r)| r).collect();
        let values = end_to_end(&plain, &setups);
        print_result(correct, attempted, failed, &END_TO_END, &values);
    }
}

/// `--workload all`: every workload in a process of its own (so each
/// reports its own peak RSS), one after the other.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("cannot locate the benchmark binary: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // A printed result exits 0 whatever it says: `correct` carries the
    // verdict.
    run(&args);
    ExitCode::SUCCESS
}
