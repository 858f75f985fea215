//! Ablation experiments for the design choices discussed in Sec. 3.2 of the
//! paper: the cost of the kernel-launch configuration reload that
//! session-resident programs avoid, and the sensitivity of the energy
//! results to the wide-memory coefficients.

use vwr2a_bench::{lowpass_q15, run_fft_comparison, run_fir_stream};
use vwr2a_dsp::fixed::to_q16;
use vwr2a_energy::coefficients::Vwr2aCoefficients;
use vwr2a_energy::vwr2a_energy_with;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_runtime::Session;

fn main() {
    let host = std::time::Instant::now();
    println!("Ablation 1: VWR/SPM access energy sensitivity (512-point real FFT)");
    println!();
    let row = run_fft_comparison(512, true);
    let v = row.vwr2a.expect("supported size");
    println!(
        "  calibrated wide-memory coefficients : {:>7.3} µJ",
        v.energy.total_uj()
    );
    // Re-evaluate the same activity with narrower-memory-style coefficients:
    // the VWR word access priced like a narrow SPM word access (what a
    // register-file/cache organisation would pay).
    let kernel = FirKernel::new(&lowpass_q15(11, 0.1), 512).expect("valid kernel");
    let input: Vec<i32> = (0..512)
        .map(|i| to_q16(((i % 64) as f64 - 32.0) / 64.0) >> 16)
        .collect();
    let mut session = Session::new();
    let (_, report) = session.run(&kernel, input.as_slice()).expect("kernel runs");
    let calibrated = Vwr2aCoefficients::calibrated();
    let mut narrow = calibrated;
    narrow.vwr_word_pj = calibrated.spm_word_pj;
    let base = vwr2a_energy_with(&report.counters, &calibrated).total_uj();
    let worse = vwr2a_energy_with(&report.counters, &narrow).total_uj();
    println!();
    println!("Ablation 2: replacing the VWR word-access energy by a narrow SPM access");
    println!("            (what a conventional register-file path would cost), FIR 512:");
    println!("  very-wide registers : {base:>7.3} µJ");
    println!(
        "  narrow accesses     : {worse:>7.3} µJ  ({:+.0} %)",
        (worse / base - 1.0) * 100.0
    );
    println!();
    println!("Ablation 3: per-launch configuration reload vs session-resident program");
    println!("            (8 x 256-point FIR windows through one Session):");
    let stream = run_fir_stream(256, 8);
    let per_window_warm = stream.cycles / stream.invocations;
    println!(
        "  {} windows, {} cold / {} warm launches, {} cycles total",
        stream.invocations, stream.cold_launches, stream.warm_launches, stream.cycles
    );
    println!(
        "  configuration words streamed once: {} (would be {} if reloaded per window)",
        stream.counters.config_words_loaded,
        stream.counters.config_words_loaded * stream.invocations
    );
    println!("  ≈{per_window_warm} cycles per warm window");
    println!();
    println!(
        "Host time: {:.0} us (modelled cycles above are simulator output)",
        host.elapsed().as_secs_f64() * 1e6
    );
}
