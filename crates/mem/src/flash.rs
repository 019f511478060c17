//! Execute-in-place (XIP) SPI NOR flash model.

use crate::device::{check_bounds, BusDevice};
use crate::error::MemError;

/// Number of data lines used by the SPI flash controller.
///
/// Upgrading the controller from [`Single`](SpiWidth::Single) to
/// [`Quad`](SpiWidth::Quad) is the paper's first Keyword-Spotting
/// optimization (`QuadSPI`, 3.04× overall speedup on Fomu).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpiWidth {
    /// Classic 1-bit SPI: 8 SCK cycles per byte.
    #[default]
    Single,
    /// Dual SPI: 4 SCK cycles per byte.
    Dual,
    /// Quad SPI: 2 SCK cycles per byte.
    Quad,
}

impl SpiWidth {
    /// SPI clock cycles needed to transfer one byte of data.
    pub fn sck_per_byte(self) -> u64 {
        match self {
            SpiWidth::Single => 8,
            SpiWidth::Dual => 4,
            SpiWidth::Quad => 2,
        }
    }

    /// SPI clock cycles for the command + 24-bit address + dummy phase of a
    /// random (non-sequential) read. The command byte is always sent on one
    /// line; address and dummy ride the configured width.
    pub fn command_overhead(self) -> u64 {
        let cmd = 8; // command byte, always 1-bit
        let addr = 3 * self.sck_per_byte();
        let dummy = 8; // typical fast-read dummy cycles
        cmd + addr + dummy
    }
}

/// XIP SPI NOR flash: the code/weight store of small boards such as Fomu
/// (2 MB part).
///
/// Timing model: a read that continues exactly where the previous one ended
/// streams at [`SpiWidth::sck_per_byte`]; any other read pays a full
/// command/address/dummy sequence first. System cycles are SPI cycles
/// multiplied by [`clock_ratio`](SpiFlash::set_clock_ratio) (the SPI clock
/// usually runs at half the system clock).
///
/// Only the programmed prefix of the array is stored: every byte past
/// the highest byte ever programmed reads as erased (`0xFF`), so a large
/// part costs memory only for its image.
///
/// # Example
///
/// ```
/// use cfu_mem::{BusDevice, SpiFlash, SpiWidth};
/// let mut single = SpiFlash::new(1 << 20, SpiWidth::Single);
/// let mut quad = SpiFlash::new(1 << 20, SpiWidth::Quad);
/// let mut buf = [0u8; 4];
/// let slow = single.read(0, &mut buf).unwrap();
/// let fast = quad.read(0, &mut buf).unwrap();
/// assert!(slow > 2 * fast, "quad SPI must be >2x faster on random reads");
/// ```
#[derive(Debug, Clone)]
pub struct SpiFlash {
    /// The programmed prefix; bytes from `data.len()` to `size` are erased.
    data: Vec<u8>,
    size: u32,
    width: SpiWidth,
    clock_ratio: u64,
    next_seq: Option<u32>,
}

impl SpiFlash {
    /// Creates an erased (0xFF-filled) flash of `size` bytes.
    pub fn new(size: u32, width: SpiWidth) -> Self {
        SpiFlash { data: Vec::new(), size, width, clock_ratio: 1, next_seq: None }
    }

    /// Creates a flash initialized with `image` (padded with 0xFF; bytes
    /// past `size` are dropped).
    pub fn with_image(size: u32, width: SpiWidth, image: &[u8]) -> Self {
        let mut flash = Self::new(size, width);
        flash.data = image[..image.len().min(size as usize)].to_vec();
        flash
    }

    /// Copies the bytes at `offset` into `buf` (bounds already checked):
    /// the programmed prefix, then erased bytes.
    fn copy_out(&self, offset: u32, buf: &mut [u8]) {
        let start = (offset as usize).min(self.data.len());
        let end = (offset as usize + buf.len()).min(self.data.len());
        let (programmed, erased) = buf.split_at_mut(end - start);
        programmed.copy_from_slice(&self.data[start..end]);
        erased.fill(0xFF);
    }

    /// The configured SPI width.
    pub fn width(&self) -> SpiWidth {
        self.width
    }

    /// Sets the system-clock : SPI-clock ratio (default 1: the LiteX
    /// spiflash PHY clocks SCK at the system clock).
    pub fn set_clock_ratio(&mut self, ratio: u64) {
        assert!(ratio >= 1, "clock ratio must be at least 1");
        self.clock_ratio = ratio;
    }

    fn spi_to_sys(&self, spi_cycles: u64) -> u64 {
        spi_cycles * self.clock_ratio
    }
}

impl BusDevice for SpiFlash {
    fn size(&self) -> u32 {
        self.size
    }

    fn read(&mut self, offset: u32, buf: &mut [u8]) -> Result<u64, MemError> {
        check_bounds(self.size, offset, buf.len())?;
        let n = buf.len();
        self.copy_out(offset, buf);
        let mut spi = self.width.sck_per_byte() * n as u64;
        if self.next_seq != Some(offset) {
            spi += self.width.command_overhead();
        }
        self.next_seq = Some(offset + n as u32);
        Ok(self.spi_to_sys(spi))
    }

    fn read_cost_run(&mut self, offset: u32, len: u32, count: u32) -> Result<u64, MemError> {
        if count == 0 {
            return Ok(0);
        }
        let span = len.checked_mul(count).ok_or(MemError::OutOfBounds { addr: offset, len: 0 })?;
        check_bounds(self.size, offset, span as usize)?;
        // First access pays the command/address/dummy sequence unless it
        // continues the tracked burst; each subsequent read starts
        // exactly where the previous ended, so it streams data-only.
        let mut spi = self.width.sck_per_byte() * u64::from(span);
        if self.next_seq != Some(offset) {
            spi += self.width.command_overhead();
        }
        self.next_seq = Some(offset + span);
        Ok(self.spi_to_sys(spi))
    }

    fn write(&mut self, offset: u32, _data: &[u8]) -> Result<u64, MemError> {
        Err(MemError::ReadOnly { addr: offset })
    }

    fn is_rom(&self) -> bool {
        true
    }

    fn peek(&mut self, offset: u32, buf: &mut [u8]) -> Result<(), MemError> {
        check_bounds(self.size, offset, buf.len())?;
        self.copy_out(offset, buf);
        Ok(())
    }

    fn poke(&mut self, offset: u32, data: &[u8]) -> Result<(), MemError> {
        check_bounds(self.size, offset, data.len())?;
        let (start, end) = (offset as usize, offset as usize + data.len());
        if end > self.data.len() {
            self.data.resize(end, 0xFF);
        }
        self.data[start..end].copy_from_slice(data);
        Ok(())
    }

    fn reset_timing(&mut self) {
        self.next_seq = None;
    }

    fn save_timing(&self, out: &mut Vec<u64>) -> bool {
        out.push(self.next_seq.map_or(0, |next| u64::from(next) + 1));
        true
    }

    fn restore_timing(&mut self, saved: &[u64]) {
        self.next_seq = saved[0].checked_sub(1).map(|next| next as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reads_are_cheaper() {
        let mut f = SpiFlash::new(4096, SpiWidth::Single);
        let mut b = [0u8; 4];
        let first = f.read(0, &mut b).unwrap();
        let seq = f.read(4, &mut b).unwrap();
        assert!(seq < first);
        // Jumping elsewhere pays the command overhead again.
        let random = f.read(1024, &mut b).unwrap();
        assert_eq!(random, first);
    }

    #[test]
    fn quad_is_faster_than_single() {
        let mut s = SpiFlash::new(4096, SpiWidth::Single);
        let mut q = SpiFlash::new(4096, SpiWidth::Quad);
        let mut b = [0u8; 64];
        // Stream 64 bytes sequentially: quad should approach 4x.
        s.read(0, &mut b).unwrap();
        q.read(0, &mut b).unwrap();
        let s2 = s.read(64, &mut b).unwrap();
        let q2 = q.read(64, &mut b).unwrap();
        assert_eq!(s2, 8 * 64);
        assert_eq!(q2, 2 * 64);
    }

    #[test]
    fn rom_rejects_writes_but_allows_poke() {
        let mut f = SpiFlash::new(64, SpiWidth::Quad);
        assert_eq!(f.write(0, &[1]), Err(MemError::ReadOnly { addr: 0 }));
        f.poke(0, &[0xAB]).unwrap();
        let mut b = [0u8; 1];
        f.read(0, &mut b).unwrap();
        assert_eq!(b[0], 0xAB);
    }

    #[test]
    fn bounds_checked() {
        let mut f = SpiFlash::new(16, SpiWidth::Single);
        let mut b = [0u8; 4];
        assert!(f.read(13, &mut b).is_err());
        assert!(f.read(12, &mut b).is_ok());
    }

    #[test]
    fn image_initialization() {
        let mut f = SpiFlash::with_image(16, SpiWidth::Quad, &[1, 2, 3]);
        let mut b = [0u8; 4];
        f.read(0, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3, 0xFF]);
    }

    #[test]
    fn peek_copies_without_touching_the_burst() {
        let mut f = SpiFlash::new(4096, SpiWidth::Quad);
        f.poke(8, &[1, 2, 3, 4]).unwrap();
        let mut b = [0u8; 4];
        let first = f.read(0, &mut b).unwrap();
        f.peek(8, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3, 4]);
        // The burst from the read at 0 continues at 4.
        assert!(f.read(4, &mut b).unwrap() < first);
        assert!(f.peek(4093, &mut b).is_err());
    }

    #[test]
    fn reset_timing_forgets_burst_state() {
        let mut f = SpiFlash::new(4096, SpiWidth::Quad);
        let mut b = [0u8; 4];
        let first = f.read(0, &mut b).unwrap();
        f.read(4, &mut b).unwrap();
        f.reset_timing();
        // After reset the "sequential" address pays full cost again.
        let again = f.read(8, &mut b).unwrap();
        assert_eq!(again, first);
    }
}
