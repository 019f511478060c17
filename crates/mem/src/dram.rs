//! External DDR3 model (LiteDRAM-style controller).

use crate::device::{check_bounds, BusDevice};
use crate::error::MemError;

/// Timing parameters for the DDR3 model, in *system* clock cycles.
///
/// Defaults approximate an Arty A7-35T running LiteDRAM at 100 MHz system
/// clock against DDR3-800: ~20+ cycle miss penalty, fast streaming within
/// an open row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ddr3Timing {
    /// Cycles for an access that hits the currently open row (CAS + bus).
    pub row_hit: u64,
    /// Cycles for an access that must close and open a row
    /// (precharge + activate + CAS).
    pub row_miss: u64,
    /// Extra cycles per additional 32-bit beat of a burst.
    pub per_beat: u64,
    /// Bytes per DRAM row (determines hit locality).
    pub row_bytes: u32,
    /// Number of banks (independent open rows).
    pub banks: u32,
}

impl Default for Ddr3Timing {
    fn default() -> Self {
        Ddr3Timing { row_hit: 6, row_miss: 22, per_beat: 1, row_bytes: 2048, banks: 8 }
    }
}

/// External DDR3 memory with a per-bank open-row model.
///
/// This is the Arty A7 board's 256 MB main memory. The MobileNetV2 case
/// study holds its working set here; conv kernels stream weights and
/// activations, so open-row hits dominate once the access pattern is
/// regular.
#[derive(Debug, Clone)]
pub struct Ddr3 {
    data: Vec<u8>,
    timing: Ddr3Timing,
    open_rows: Vec<Option<u32>>,
    /// `log2(row_bytes)` — validated power of two; keeps the per-access
    /// row math free of integer divides.
    row_shift: u32,
    /// `banks - 1` when the bank count is a power of two (the common
    /// case); `None` falls back to `%`.
    bank_mask: Option<u32>,
}

impl Ddr3 {
    /// Creates a zeroed DDR3 of `size` bytes with default timing.
    pub fn new(size: u32) -> Self {
        Self::with_timing(size, Ddr3Timing::default())
    }

    /// Creates a DDR3 with explicit timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if `timing.banks` is zero or `timing.row_bytes` is not a
    /// power of two.
    pub fn with_timing(size: u32, timing: Ddr3Timing) -> Self {
        assert!(timing.banks > 0, "need at least one bank");
        assert!(timing.row_bytes.is_power_of_two(), "row size must be a power of two");
        Ddr3 {
            data: vec![0; size as usize],
            timing,
            open_rows: vec![None; timing.banks as usize],
            row_shift: timing.row_bytes.trailing_zeros(),
            bank_mask: timing.banks.is_power_of_two().then(|| timing.banks - 1),
        }
    }

    fn bank_of(&self, row: u32) -> usize {
        match self.bank_mask {
            Some(m) => (row & m) as usize,
            None => (row % self.timing.banks) as usize,
        }
    }

    /// The configured timing parameters.
    pub fn timing(&self) -> Ddr3Timing {
        self.timing
    }

    fn access_cycles(&mut self, offset: u32, len: usize) -> u64 {
        let row = offset >> self.row_shift;
        let bank = self.bank_of(row);
        let first = if self.open_rows[bank] == Some(row) {
            self.timing.row_hit
        } else {
            self.open_rows[bank] = Some(row);
            self.timing.row_miss
        };
        let beats = len.div_ceil(4) as u64;
        first + beats.saturating_sub(1) * self.timing.per_beat
    }
}

impl BusDevice for Ddr3 {
    fn size(&self) -> u32 {
        self.data.len() as u32
    }

    fn read(&mut self, offset: u32, buf: &mut [u8]) -> Result<u64, MemError> {
        check_bounds(self.size(), offset, buf.len())?;
        let n = buf.len();
        let cycles = self.access_cycles(offset, n);
        buf.copy_from_slice(&self.data[offset as usize..offset as usize + n]);
        Ok(cycles)
    }

    fn peek(&mut self, offset: u32, buf: &mut [u8]) -> Result<(), MemError> {
        check_bounds(self.size(), offset, buf.len())?;
        buf.copy_from_slice(&self.data[offset as usize..offset as usize + buf.len()]);
        Ok(())
    }

    fn write(&mut self, offset: u32, data: &[u8]) -> Result<u64, MemError> {
        check_bounds(self.size(), offset, data.len())?;
        let cycles = self.access_cycles(offset, data.len());
        self.data[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(cycles)
    }

    fn read_cost_run(&mut self, offset: u32, len: u32, count: u32) -> Result<u64, MemError> {
        if count == 0 {
            return Ok(0);
        }
        let span = len.checked_mul(count).ok_or(MemError::OutOfBounds { addr: offset, len: 0 })?;
        check_bounds(self.size(), offset, span as usize)?;
        // An ascending contiguous run touches each row at most once (the
        // model charges by an access's *starting* offset): walk the row
        // segments, paying the open-row check once per segment and a
        // guaranteed hit for every further access inside it.
        let beats_extra = ((len as usize).div_ceil(4) as u64 - 1) * self.timing.per_beat;
        let mut total = u64::from(count) * beats_extra;
        let mut k = 0u32;
        while k < count {
            let seg_off = offset + k * len;
            let row = seg_off >> self.row_shift;
            // Accesses whose starting offset stays inside `row` (row end
            // in u64: the last row of a 4 GiB device ends at 1 << 32).
            let row_end = u64::from(row + 1) << self.row_shift;
            let in_row =
                (((row_end - u64::from(seg_off)).div_ceil(u64::from(len))) as u32).min(count - k);
            let bank = self.bank_of(row);
            total += if self.open_rows[bank] == Some(row) {
                self.timing.row_hit
            } else {
                self.open_rows[bank] = Some(row);
                self.timing.row_miss
            };
            total += u64::from(in_row - 1) * self.timing.row_hit;
            k += in_row;
        }
        Ok(total)
    }

    fn poke(&mut self, offset: u32, data: &[u8]) -> Result<(), MemError> {
        check_bounds(self.size(), offset, data.len())?;
        self.data[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn write_latency_bound(&self, len: u32) -> Option<u64> {
        // A row miss is the worst a write can meet; beats past the first
        // add `per_beat` each, exactly as `access_cycles` charges them.
        let beats = u64::from(len.div_ceil(4));
        Some(
            self.timing.row_miss.max(self.timing.row_hit)
                + beats.saturating_sub(1) * self.timing.per_beat,
        )
    }

    fn reset_timing(&mut self) {
        self.open_rows.fill(None);
    }

    fn save_timing(&self, out: &mut Vec<u64>) -> bool {
        out.extend(self.open_rows.iter().map(|r| r.map_or(0, |row| u64::from(row) + 1)));
        true
    }

    fn restore_timing(&mut self, saved: &[u64]) {
        for (open, &word) in self.open_rows.iter_mut().zip(saved) {
            *open = word.checked_sub(1).map(|row| row as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_cheaper_than_miss() {
        let mut d = Ddr3::new(1 << 20);
        let mut b = [0u8; 4];
        let miss = d.read(0, &mut b).unwrap();
        let hit = d.read(4, &mut b).unwrap();
        assert_eq!(miss, Ddr3Timing::default().row_miss);
        assert_eq!(hit, Ddr3Timing::default().row_hit);
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let t = Ddr3Timing::default();
        let mut d = Ddr3::new(1 << 20);
        let mut b = [0u8; 4];
        d.read(0, &mut b).unwrap(); // opens row 0, bank 0
                                    // Row banks*row_bytes maps to bank 0 again, different row → miss.
        let conflicting = t.banks * t.row_bytes;
        assert_eq!(d.read(conflicting, &mut b).unwrap(), t.row_miss);
        // ...and the original row now misses too.
        assert_eq!(d.read(0, &mut b).unwrap(), t.row_miss);
    }

    #[test]
    fn adjacent_rows_use_different_banks() {
        let t = Ddr3Timing::default();
        let mut d = Ddr3::new(1 << 20);
        let mut b = [0u8; 4];
        d.read(0, &mut b).unwrap();
        d.read(t.row_bytes, &mut b).unwrap(); // row 1 → bank 1
                                              // Row 0 is still open in bank 0.
        assert_eq!(d.read(8, &mut b).unwrap(), t.row_hit);
    }

    #[test]
    fn burst_charges_per_beat() {
        let t = Ddr3Timing::default();
        let mut d = Ddr3::new(1 << 20);
        let mut line = [0u8; 32];
        let cycles = d.read(0, &mut line).unwrap();
        assert_eq!(cycles, t.row_miss + 7 * t.per_beat);
    }

    #[test]
    fn saved_timing_restores_open_rows() {
        let t = Ddr3Timing::default();
        let mut d = Ddr3::new(1 << 20);
        let mut b = [0u8; 4];
        d.read(t.row_bytes, &mut b).unwrap();
        let mut saved = Vec::new();
        assert!(d.save_timing(&mut saved));
        assert_eq!(saved.len(), t.banks as usize);
        d.reset_timing();
        assert_eq!(d.read(t.row_bytes + 4, &mut b).unwrap(), t.row_miss);
        d.reset_timing();
        d.restore_timing(&saved);
        assert_eq!(d.read(t.row_bytes + 4, &mut b).unwrap(), t.row_hit);
    }

    #[test]
    fn peek_copies_without_opening_a_row() {
        let mut d = Ddr3::new(4096);
        d.poke(100, &[9, 8, 7]).unwrap();
        let mut b = [0u8; 3];
        d.peek(100, &mut b).unwrap();
        assert_eq!(b, [9, 8, 7]);
        let mut saved = Vec::new();
        assert!(d.save_timing(&mut saved));
        assert!(saved.iter().all(|&row| row == 0), "{saved:?}");
        assert!(d.peek(4094, &mut b).is_err());
    }

    #[test]
    fn data_roundtrip() {
        let mut d = Ddr3::new(4096);
        d.write(100, &[9, 8, 7]).unwrap();
        let mut b = [0u8; 3];
        d.read(100, &mut b).unwrap();
        assert_eq!(b, [9, 8, 7]);
    }
}
