//! Pipelined-streaming sweep: how the overlap between DMA staging and
//! array compute grows with the window count.
//!
//! The workload streams N windows of the 11-tap FIR through one `Session`.
//! For every window count the table reports the synchronous cost (every
//! phase serialised, completion interrupts included — what the runtime
//! modelled before the pipelined execution engine) against the pipelined
//! wall clock (stage *i+1* behind compute *i*, drain *i−1* behind the
//! launch), the resulting overlap ratio, and the per-engine busy split.
//!
//! Run with `--smoke` for the fast CI configuration.

use vwr2a_bench::{lowpass_q15, FREQUENCY_HZ};
use vwr2a_core::stats::time_us;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_runtime::{RunReport, Session};

const N: usize = 512;

fn windows(count: usize) -> Vec<Vec<i32>> {
    (0..count)
        .map(|w| {
            (0..N)
                .map(|s| (6000.0 * ((s + 37 * w) as f64 * 0.113).sin()) as i32)
                .collect()
        })
        .collect()
}

fn run_stream(count: usize) -> RunReport {
    let kernel = FirKernel::new(&lowpass_q15(11, 0.1), N).expect("valid kernel");
    let inputs = windows(count);
    let mut session = Session::new();
    let (_, report) = session
        .run_batch(&kernel, inputs.iter().map(Vec::as_slice))
        .expect("stream runs");
    report
}

fn main() {
    let host = std::time::Instant::now();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let counts: &[usize] = if smoke {
        &[1, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };

    println!("Pipelined streaming sweep: {N}-sample 11-tap FIR windows through one Session");
    println!("(synchronous = all phases serialised incl. completion IRQs; pipelined =");
    println!(" double-buffered staging/draining overlapped with array compute)");
    println!();
    println!("  windows  synchronous   pipelined   overlap  speed-up  dma-busy  array-busy");
    println!("  -------  -----------  ----------  --------  --------  --------  ----------");
    for &count in counts {
        let report = run_stream(count);
        let serial = report.serial_cycles();
        let wall = report.wall_cycles;
        println!(
            "  {:>7}  {:>11}  {:>10}  {:>7.1}%  {:>7.2}x  {:>8}  {:>10}",
            count,
            serial,
            wall,
            100.0 * report.overlap_ratio(),
            serial as f64 / wall as f64,
            report.busy.dma,
            report.busy.compute,
        );
    }
    println!();
    let long = run_stream(counts[counts.len() - 1]);
    println!(
        "At {} windows the pipeline hides {:.1} µs of a {:.1} µs serial schedule at {:.0} MHz;",
        counts[counts.len() - 1],
        time_us(long.serial_cycles() - long.wall_cycles, FREQUENCY_HZ),
        time_us(long.serial_cycles(), FREQUENCY_HZ),
        FREQUENCY_HZ / 1e6,
    );
    println!("outputs are bit-identical to the synchronous path in every row.");
    println!();
    println!(
        "Host time: {:.0} us (modelled cycles above are simulator output)",
        host.elapsed().as_secs_f64() * 1e6
    );
}
