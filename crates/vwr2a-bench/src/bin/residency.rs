//! Configuration-memory residency sweep: how the cold-reload rate and the
//! cycle overhead grow as the configuration memory shrinks below the
//! working set of distinct kernel programs — and how the eviction policy
//! changes the bill on a mixed-size working set.
//!
//! Part 1 interleaves four 11-tap FIR kernels with different baked-in
//! taps — four distinct configuration-memory programs of equal size — over
//! a fixed window stream.  A `Session` with the default LRU policy evicts
//! cold programs instead of failing, so every capacity completes the same
//! workload with bit-identical outputs; what changes is how often a launch
//! has to re-stream configuration words (`cold / launches`) and the cycles
//! that costs.
//!
//! Part 2 compares `LruPolicy`, `LfuPolicy`, `SizeAwareLru` and the
//! adaptive `ArcPolicy` on a working set that mixes three small (3-tap)
//! programs with two large (11-tap) ones under pressure: the size-aware
//! policy prefers evicting one large coldish program over cascading
//! through the small warm ones, and the frequency-aware policy protects
//! the hot small working set from rarely-launched interlopers that
//! recency alone would keep.
//!
//! Part 3 is the adaptive policy's home turf: one continuous workload
//! that *changes character* halfway — a recency-heavy drift phase (the
//! working set keeps moving, so recency wins and launch counts mislead)
//! followed by a frequency-heavy serving phase (a hot pair launched
//! between streams of one-shot interlopers, so launch counts win and
//! recency misleads).  Every static policy is wrong in one of the two
//! phases; `ArcPolicy` watches its ghost lists and moves its
//! recency/frequency balance across the change.  The binary *fails fast*
//! (non-zero exit) if ArcPolicy pays more cold launches than the best
//! static policy on the mixed working set, or is not strictly better
//! than every static policy on the phase-change workload.
//!
//! Run with `--smoke` for the fast CI configuration.

use vwr2a_bench::lowpass_q15;
use vwr2a_core::geometry::Geometry;
use vwr2a_core::Vwr2a;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_runtime::{
    ArcPolicy, EvictionPolicy, Kernel, LfuPolicy, LruPolicy, RunReport, Session, SizeAwareLru,
};

const N: usize = 256;

fn fir(taps: usize, fc: f64) -> FirKernel {
    FirKernel::new(&lowpass_q15(taps, fc), N).expect("valid kernel")
}

fn kernels() -> Vec<FirKernel> {
    [0.08, 0.12, 0.2, 0.3]
        .iter()
        .map(|&fc| fir(11, fc))
        .collect()
}

fn window(i: usize) -> Vec<i32> {
    (0..N)
        .map(|s| (5000.0 * ((s + 17 * i) as f64 * 0.19).sin()) as i32)
        .collect()
}

fn program_words(kernel: &FirKernel) -> usize {
    kernel
        .program(&Geometry::paper())
        .expect("program builds")
        .config_words()
}

/// Runs `invocations` windows over `pick`-selected kernels on a session
/// whose configuration memory holds `capacity_words` words, returning the
/// aggregated report.
fn run_workload(
    kernels: &[FirKernel],
    capacity_words: usize,
    policy: impl EvictionPolicy + 'static,
    invocations: usize,
    pick: impl Fn(usize) -> usize,
) -> RunReport {
    let mut geometry = Geometry::paper();
    geometry.config_words = capacity_words;
    let accel = Vwr2a::with_geometry(geometry).expect("valid geometry");
    let mut session = Session::with_policy(accel, policy);
    let mut total = RunReport::new("fir-mixed");
    for i in 0..invocations {
        let kernel = &kernels[pick(i)];
        let (_, report) = session
            .run(kernel, window(i).as_slice())
            .expect("eviction must absorb capacity pressure");
        total.absorb(&report);
    }
    total
}

fn capacity_sweep(invocations: usize) {
    let kernels = kernels();
    let program_words = program_words(&kernels[0]);
    let working_set = kernels.len() * program_words;

    println!(
        "Residency sweep: {invocations} invocations over {} distinct FIR programs",
        kernels.len()
    );
    println!("({program_words} configuration words per program, {working_set}-word working set)");
    println!();
    println!("  capacity   resident  evictions  cold  warm  cold-rate  cycles     vs. roomy");
    println!("  ---------  --------  ---------  ----  ----  ---------  ---------  ---------");

    let roomy_capacity = Geometry::paper().config_words;
    let capacities: Vec<usize> = (1..=kernels.len())
        .map(|k| k * program_words)
        .chain([roomy_capacity])
        .collect();
    let pick = |i: usize| i % kernels.len();
    let roomy = run_workload(&kernels, roomy_capacity, LruPolicy, invocations, pick);
    for &capacity in &capacities {
        let report = if capacity == roomy_capacity {
            roomy.clone()
        } else {
            run_workload(&kernels, capacity, LruPolicy, invocations, pick)
        };
        let cold_rate = report.cold_launches as f64 / report.launches() as f64;
        let overhead = report.cycles as f64 / roomy.cycles as f64 - 1.0;
        println!(
            "  {:>9}  {:>8}  {:>9}  {:>4}  {:>4}  {:>8.1}%  {:>9}  {:>+8.2}%",
            capacity,
            capacity / program_words,
            report.evictions,
            report.cold_launches,
            report.warm_launches,
            100.0 * cold_rate,
            report.cycles,
            100.0 * overhead,
        );
    }
    println!();
    println!("Every row computes bit-identical outputs; smaller configuration memories");
    println!("only pay more cold configuration-word streaming after LRU evictions.");
}

/// Cold-launch counts of part 2, returned so `main` can gate on them.
struct PolicyColds {
    lru: u64,
    lfu: u64,
    size_aware: u64,
    arc: u64,
}

fn policy_comparison(invocations: usize) -> PolicyColds {
    // Three small programs — one touched rarely (once per 16), two hot —
    // plus two large programs that alternate.  When a large program
    // returns, the recency order ranks a hot small program oldest (its
    // next launch is imminent), so pure LRU evicts it and pays a cold
    // reload every cycle.  The frequency-aware policy sees the launch
    // counts and sacrifices the rare small program and the cold large one
    // instead, keeping the hot working set resident; the size-aware
    // policy attacks the same cascade from the size axis, preferring one
    // large eviction over several small ones.
    let mixed: Vec<FirKernel> = vec![
        fir(3, 0.08),  // s0: hot (head of the cycle, oldest at evictions)
        fir(3, 0.15),  // s1: hot
        fir(3, 0.25),  // s2: rare interloper, recent when evictions hit
        fir(11, 0.1),  // L1
        fir(11, 0.22), // L2
    ];
    let small = program_words(&mixed[0]);
    let large = program_words(&mixed[3]);
    // All three small programs plus one large program fit; the second
    // large program forces evictions.
    let capacity = 3 * small + large;
    let pick = |i: usize| match i % 16 {
        0 | 7 | 8 | 13 | 15 => 0,
        3 | 11 => 3,
        5 => 2,
        6 | 14 => 4,
        _ => 1,
    };

    println!();
    println!(
        "Eviction-policy comparison: 3 small ({small}-word) + 2 large ({large}-word) programs"
    );
    println!("in a {capacity}-word configuration memory, {invocations} invocations");
    println!();
    println!("  policy        evictions  cold  warm  cold-rate  cycles");
    println!("  ------------  ---------  ----  ----  ---------  ---------");
    let lru = run_workload(&mixed, capacity, LruPolicy, invocations, pick);
    let lfu = run_workload(&mixed, capacity, LfuPolicy, invocations, pick);
    let size_aware = run_workload(&mixed, capacity, SizeAwareLru, invocations, pick);
    let arc = run_workload(&mixed, capacity, ArcPolicy::new(), invocations, pick);
    for (name, report) in [
        ("LruPolicy", &lru),
        ("LfuPolicy", &lfu),
        ("SizeAwareLru", &size_aware),
        ("ArcPolicy", &arc),
    ] {
        println!(
            "  {:<12}  {:>9}  {:>4}  {:>4}  {:>8.1}%  {:>9}",
            name,
            report.evictions,
            report.cold_launches,
            report.warm_launches,
            100.0 * report.cold_launches as f64 / report.launches() as f64,
            report.cycles,
        );
    }
    println!();
    println!("SizeAwareLru spends one eviction on the large coldish program instead of");
    println!("cascading through the small warm working set; LfuPolicy protects the");
    println!("frequently-launched programs from recent-but-rare interlopers; ArcPolicy");
    println!("learns the same protection online from its ghost lists.");
    PolicyColds {
        lru: lru.cold_launches,
        lfu: lfu.cold_launches,
        size_aware: size_aware.cold_launches,
        arc: arc.cold_launches,
    }
}

/// The phase-change workload: a recency-heavy drift phase, then a
/// frequency-heavy serving phase, as one continuous launch schedule over
/// equal-size programs in a three-program configuration memory.
///
/// * Drift phase: a stale-but-frequent anchor program (many early
///   launches, never used again) followed by a working set of three
///   programs that is replayed once and then *moves on*.  Recency is the
///   truth here: LRU drops the anchor and serves the drift warm; a
///   frequency-first policy keeps the anchor resident and cascades cold
///   through every drift program.
/// * Serving phase: a hot pair launched between pairs of one-shot
///   interlopers.  Launch counts are the truth here: LFU drops the spent
///   interlopers and keeps the pair warm; a recency-first policy sees the
///   pair as oldest at every interloper load and cascades cold through
///   the hot set.
///
/// Each static policy is right in one phase and wrong in the other;
/// ArcPolicy pays a couple of adaptation reloads at each transition (the
/// ghost-list hits that move its balance) and beats every static policy
/// on the total.
fn phase_change() -> Vec<(&'static str, RunReport)> {
    // 21 equal-size 11-tap programs: 0 = anchor, 1..=6 = drift sets,
    // 7..=8 = the hot pair, 9.. = one-shot interlopers.
    let kernels: Vec<FirKernel> = (0..21).map(|k| fir(11, 0.04 + 0.02 * k as f64)).collect();
    let words = program_words(&kernels[0]);
    let capacity = 3 * words;

    let mut schedule: Vec<usize> = Vec::new();
    schedule.extend([0; 6]); // the anchor earns its launch count
    schedule.extend([1, 2, 3, 1, 2, 3]); // drift: replayed once, then gone
    schedule.extend([4, 5, 6, 4, 5, 6]);
    schedule.extend([7, 8, 7, 8]); // the hot pair earns its launch count
    for j in 0..6 {
        // Two fresh interlopers, then the pair again.
        schedule.extend([9 + 2 * j, 10 + 2 * j, 7, 8]);
    }

    let invocations = schedule.len();
    let pick = move |i: usize| schedule[i];
    println!();
    println!(
        "Phase change: {invocations} invocations over {} equal-size ({words}-word) programs",
        kernels.len()
    );
    println!("in a {capacity}-word (3-program) memory: drift phase (recency wins), then hot pair");
    println!("+ one-shot interlopers (frequency wins)");
    println!();
    println!("  policy        evictions  cold  warm  cold-rate  cycles");
    println!("  ------------  ---------  ----  ----  ---------  ---------");
    let rows = vec![
        (
            "LruPolicy",
            run_workload(&kernels, capacity, LruPolicy, invocations, &pick),
        ),
        (
            "LfuPolicy",
            run_workload(&kernels, capacity, LfuPolicy, invocations, &pick),
        ),
        (
            "SizeAwareLru",
            run_workload(&kernels, capacity, SizeAwareLru, invocations, &pick),
        ),
        (
            "ArcPolicy",
            run_workload(&kernels, capacity, ArcPolicy::new(), invocations, &pick),
        ),
    ];
    for (name, report) in &rows {
        println!(
            "  {:<12}  {:>9}  {:>4}  {:>4}  {:>8.1}%  {:>9}",
            name,
            report.evictions,
            report.cold_launches,
            report.warm_launches,
            100.0 * report.cold_launches as f64 / report.launches() as f64,
            report.cycles,
        );
    }
    println!();
    println!("LRU wins the drift and loses the serving phase; LFU the reverse.  ArcPolicy");
    println!("re-balances at the transition and pays the fewest cold launches overall.");
    rows
}

fn main() {
    let host = std::time::Instant::now();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let invocations = if smoke { 16 } else { 64 };
    capacity_sweep(invocations);
    let mixed = policy_comparison(invocations);
    let phased = phase_change();
    println!();
    println!(
        "Host time: {:.0} us (modelled cycles above are simulator output)",
        host.elapsed().as_secs_f64() * 1e6
    );

    // Fail-fast gates for the adaptive policy: never worse than the best
    // static policy on the mixed working set, strictly better than every
    // static policy across the phase change.
    let mut failures = Vec::new();
    let best_static = mixed.lru.min(mixed.lfu).min(mixed.size_aware);
    if mixed.arc > best_static {
        failures.push(format!(
            "mixed working set: ArcPolicy cold launches {} worse than best static {}",
            mixed.arc, best_static
        ));
    }
    let arc_phased = phased
        .iter()
        .find(|(name, _)| *name == "ArcPolicy")
        .expect("ArcPolicy row present")
        .1
        .cold_launches;
    for (name, report) in &phased {
        if *name != "ArcPolicy" && arc_phased >= report.cold_launches {
            failures.push(format!(
                "phase change: ArcPolicy cold launches {arc_phased} not strictly below \
                 {name}'s {}",
                report.cold_launches
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!();
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
