//! On-chip block-RAM model.

use crate::device::{check_bounds, BusDevice};
use crate::error::MemError;

/// On-chip SRAM (FPGA block RAM): single-cycle access at any address.
///
/// Fomu's 128 kB "SPRAM" and the LiteX integrated SRAM both behave this
/// way. The KWS case study moves hot kernels and model weights here from
/// flash (`SRAM Ops and Model`, 7.84× cumulative speedup).
#[derive(Debug, Clone)]
pub struct Sram {
    data: Vec<u8>,
    access_cycles: u64,
}

impl Sram {
    /// Creates a zeroed SRAM of `size` bytes with 1-cycle access.
    pub fn new(size: u32) -> Self {
        Sram { data: vec![0; size as usize], access_cycles: 1 }
    }

    /// Creates an SRAM with a non-default access latency (e.g. 2-cycle
    /// registered BRAM outputs on slow corners).
    pub fn with_latency(size: u32, access_cycles: u64) -> Self {
        Sram { data: vec![0; size as usize], access_cycles }
    }
}

impl BusDevice for Sram {
    fn size(&self) -> u32 {
        self.data.len() as u32
    }

    #[inline]
    fn read(&mut self, offset: u32, buf: &mut [u8]) -> Result<u64, MemError> {
        check_bounds(self.size(), offset, buf.len())?;
        let n = buf.len();
        let src = &self.data[offset as usize..offset as usize + n];
        if n <= 4 {
            // Bus words: a byte loop compiles to direct loads where the
            // runtime-length memcpy of `copy_from_slice` costs a call.
            for (d, s) in buf.iter_mut().zip(src) {
                *d = *s;
            }
        } else {
            buf.copy_from_slice(src);
        }
        // One access per 32-bit beat.
        Ok(self.access_cycles * n.div_ceil(4) as u64)
    }

    #[inline]
    fn read_cost_run(&mut self, offset: u32, len: u32, count: u32) -> Result<u64, MemError> {
        if count == 0 {
            return Ok(0);
        }
        let span = len.checked_mul(count).ok_or(MemError::OutOfBounds { addr: offset, len: 0 })?;
        check_bounds(self.size(), offset, span as usize)?;
        Ok(self.access_cycles * (len as usize).div_ceil(4) as u64 * u64::from(count))
    }

    #[inline]
    fn timing_stateless(&self) -> bool {
        true
    }

    #[inline]
    fn write(&mut self, offset: u32, data: &[u8]) -> Result<u64, MemError> {
        check_bounds(self.size(), offset, data.len())?;
        self.data[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(self.access_cycles * data.len().div_ceil(4) as u64)
    }

    fn poke(&mut self, offset: u32, data: &[u8]) -> Result<(), MemError> {
        check_bounds(self.size(), offset, data.len())?;
        self.data[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn write_latency_bound(&self, len: u32) -> Option<u64> {
        Some(self.access_cycles * u64::from(len.div_ceil(4)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut s = Sram::new(64);
        s.write(8, &[1, 2, 3, 4]).unwrap();
        let mut b = [0u8; 4];
        let cycles = s.read(8, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3, 4]);
        assert_eq!(cycles, 1);
    }

    #[test]
    fn wide_access_counts_beats() {
        let mut s = Sram::new(64);
        let mut line = [0u8; 32];
        assert_eq!(s.read(0, &mut line).unwrap(), 8);
    }

    #[test]
    fn bounds() {
        let mut s = Sram::new(8);
        assert!(s.write(6, &[0; 4]).is_err());
        assert!(s.write(4, &[0; 4]).is_ok());
    }

    #[test]
    fn custom_latency() {
        let mut s = Sram::with_latency(16, 2);
        let mut b = [0u8; 4];
        assert_eq!(s.read(0, &mut b).unwrap(), 2);
    }
}
