//! On-chip SRAM: 192 KiB of word-addressed data memory.
//!
//! The platform of Sec. 4.1 has 192 KiB of SRAM divided into six banks.  The
//! model stores the data and bounds-checks every access; the CPU baseline's
//! energy is priced from its [`CpuRunStats`](crate::cpu::CpuRunStats), so
//! the SRAM keeps no access counters of its own.

use crate::error::{Result, SocError};
use serde::{Deserialize, Serialize};

/// The SoC SRAM.
///
/// # Example
///
/// ```
/// use vwr2a_soc::sram::Sram;
///
/// # fn main() -> Result<(), vwr2a_soc::error::SocError> {
/// let mut sram = Sram::paper();           // 6 banks × 32 KiB
/// sram.write_word(0, 123)?;
/// assert_eq!(sram.read_word(0)?, 123);
/// assert_eq!(sram.words(), 6 * 32 * 1024 / 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sram {
    words: Vec<i32>,
}

impl Sram {
    /// Creates an SRAM with `banks` banks of `bank_bytes` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `bank_bytes` is not a multiple of 4.
    pub fn new(banks: usize, bank_bytes: usize) -> Self {
        assert!(banks > 0, "sram needs at least one bank");
        assert!(
            bank_bytes.is_multiple_of(4),
            "bank size must be whole words"
        );
        Self {
            words: vec![0; banks * bank_bytes / 4],
        }
    }

    /// The paper's configuration: six banks of 32 KiB (192 KiB total).
    pub fn paper() -> Self {
        Self::new(6, 32 * 1024)
    }

    /// Capacity in 32-bit words.
    pub fn words(&self) -> usize {
        self.words.len()
    }

    fn out_of_range(&self, addr: usize) -> SocError {
        SocError::AddressOutOfRange {
            addr,
            capacity: self.words.len(),
        }
    }

    /// Reads one word.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::AddressOutOfRange`] if the address is outside the
    /// memory.
    pub fn read_word(&self, word_addr: usize) -> Result<i32> {
        self.words
            .get(word_addr)
            .copied()
            .ok_or_else(|| self.out_of_range(word_addr))
    }

    /// Writes one word.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::AddressOutOfRange`] if the address is outside the
    /// memory.
    pub fn write_word(&mut self, word_addr: usize, value: i32) -> Result<()> {
        if word_addr >= self.words.len() {
            return Err(self.out_of_range(word_addr));
        }
        self.words[word_addr] = value;
        Ok(())
    }

    /// Bulk host-side write (test/seed helper).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::AddressOutOfRange`] if the slice does not fit.
    pub fn load(&mut self, word_addr: usize, data: &[i32]) -> Result<()> {
        let end = word_addr
            .checked_add(data.len())
            .filter(|&e| e <= self.words.len())
            .ok_or_else(|| self.out_of_range(word_addr + data.len()))?;
        self.words[word_addr..end].copy_from_slice(data);
        Ok(())
    }

    /// Bulk host-side read.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::AddressOutOfRange`] if the range does not fit.
    pub fn dump(&self, word_addr: usize, len: usize) -> Result<Vec<i32>> {
        let end = word_addr
            .checked_add(len)
            .filter(|&e| e <= self.words.len())
            .ok_or_else(|| self.out_of_range(word_addr + len))?;
        Ok(self.words[word_addr..end].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration() {
        let sram = Sram::paper();
        assert_eq!(sram.words(), 6 * 32 * 1024 / 4);
    }

    #[test]
    fn read_write_round_trip() {
        let mut sram = Sram::new(2, 1024);
        sram.write_word(10, -3).unwrap();
        assert_eq!(sram.read_word(10).unwrap(), -3);
        assert_eq!(sram.words(), 512);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut sram = Sram::new(1, 1024);
        assert!(sram.read_word(256).is_err());
        assert!(sram.write_word(1000, 0).is_err());
        assert!(sram.load(200, &[0; 100]).is_err());
        assert!(sram.dump(0, 1000).is_err());
    }

    #[test]
    fn bulk_load_dump_round_trip() {
        let mut sram = Sram::new(1, 4096);
        let data: Vec<i32> = (0..512).map(|i| i * 2 - 512).collect();
        sram.load(100, &data).unwrap();
        assert_eq!(sram.dump(100, 512).unwrap(), data);
    }
}
