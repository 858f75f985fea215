//! The biosignal-processing SoC.
//!
//! [`BiosignalSoc`] assembles what the CPU baseline of Sec. 4.1 needs: the
//! Cortex-M4-like CPU, the 192 KiB SRAM and the platform clock.
//! Accelerators (the fixed-function FFT engine and VWR2A) live in their own
//! crates; the `vwr2a-bioapp` crate drives the whole platform for the
//! application-level experiments.

use crate::cpu::{Cpu, CpuInstr, CpuRunStats};
use crate::error::Result;
use crate::sram::Sram;

/// The assembled SoC platform.
///
/// # Example
///
/// ```
/// use vwr2a_soc::soc::BiosignalSoc;
/// use vwr2a_soc::cpu::CpuInstr;
///
/// # fn main() -> Result<(), vwr2a_soc::error::SocError> {
/// let mut soc = BiosignalSoc::new();
/// let program = vec![
///     CpuInstr::Li { rd: 1, imm: 7 },
///     CpuInstr::Sw { rs2: 1, rs1: 0, offset: 0 },
///     CpuInstr::Halt,
/// ];
/// let stats = soc.run_cpu_program(&program)?;
/// assert_eq!(soc.sram().dump(0, 1)?[0], 7);
/// assert!(stats.cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BiosignalSoc {
    cpu: Cpu,
    sram: Sram,
    frequency_hz: f64,
}

impl BiosignalSoc {
    /// The platform clock frequency used in the paper (80 MHz).
    pub const PAPER_FREQUENCY_HZ: f64 = 80.0e6;

    /// Creates the platform with the paper's configuration.
    pub fn new() -> Self {
        Self {
            cpu: Cpu::new(),
            sram: Sram::paper(),
            frequency_hz: Self::PAPER_FREQUENCY_HZ,
        }
    }

    /// The CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable access to the CPU (setting argument registers).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The SRAM.
    pub fn sram(&self) -> &Sram {
        &self.sram
    }

    /// Mutable access to the SRAM (seeding inputs, reading results).
    pub fn sram_mut(&mut self) -> &mut Sram {
        &mut self.sram
    }

    /// The platform clock frequency in hertz.
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz
    }

    /// Runs a CPU program to completion against the SRAM.
    ///
    /// # Errors
    ///
    /// Propagates CPU and SRAM errors.
    pub fn run_cpu_program(&mut self, program: &[CpuInstr]) -> Result<CpuRunStats> {
        self.cpu.run(program, &mut self.sram)
    }

    /// Converts a cycle count to microseconds at the platform frequency.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / self.frequency_hz * 1e6
    }
}

impl Default for BiosignalSoc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::kernels::fir_q15_program;
    use vwr2a_dsp::fir::design_lowpass;
    use vwr2a_dsp::fixed::Q15;

    #[test]
    fn cpu_program_reports_its_memory_traffic() {
        let mut soc = BiosignalSoc::new();
        let program = vec![
            CpuInstr::Li { rd: 1, imm: 3 },
            CpuInstr::Sw {
                rs2: 1,
                rs1: 0,
                offset: 5,
            },
            CpuInstr::Lw {
                rd: 2,
                rs1: 0,
                offset: 5,
            },
            CpuInstr::Halt,
        ];
        let stats = soc.run_cpu_program(&program).unwrap();
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(soc.cpu().reg(2).unwrap(), 3);
        assert!(soc.cycles_to_us(80) > 0.99 && soc.cycles_to_us(80) < 1.01);
    }

    #[test]
    fn fir_kernel_runs_end_to_end_on_the_soc() {
        let mut soc = BiosignalSoc::new();
        let n = 64;
        let taps = design_lowpass(11, 0.1).unwrap();
        let taps_q: Vec<i32> = taps.iter().map(|&v| Q15::from_f64(v).0 as i32).collect();
        let input: Vec<i32> = (0..n).map(|i| ((i % 16) as i32 - 8) * 100).collect();
        soc.sram_mut().load(0, &input).unwrap();
        soc.sram_mut().load(n, &taps_q).unwrap();
        let program = fir_q15_program(n, 11, 0, n, n + 16).unwrap();
        let stats = soc.run_cpu_program(&program).unwrap();
        assert!(stats.cycles > 1000);
        let out = soc.sram().dump(n + 16, n).unwrap();
        assert!(out.iter().any(|&v| v != 0));
    }
}
