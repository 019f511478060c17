//! The device abstraction shared by all memory models.

use std::fmt;

use crate::error::MemError;

/// Result of a timed read: the bytes were written into the caller's buffer,
/// and the device reports how many cycles the access took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult<T> {
    /// The value read.
    pub value: T,
    /// Cycles the access occupied the device, per its timing model.
    pub cycles: u64,
}

/// A memory-mapped storage or peripheral device with a timing model.
///
/// Offsets passed to devices are relative to the device's base address.
/// `read`/`write` return the number of cycles the access takes; devices
/// with bursty behaviour (XIP flash, DRAM) keep internal state (last
/// address, open rows) to distinguish sequential from random accesses.
pub trait BusDevice: fmt::Debug {
    /// Size of the device's address window in bytes.
    fn size(&self) -> u32;

    /// Reads `buf.len()` bytes starting at `offset` and returns the access
    /// latency in cycles.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] when the access runs past
    /// [`size`](Self::size).
    fn read(&mut self, offset: u32, buf: &mut [u8]) -> Result<u64, MemError>;

    /// Copies `buf.len()` bytes starting at `offset` into `buf`, for a
    /// reader that wants only the contents. Whether the device's timing
    /// state moves is unspecified: [`crate::Bus::peek`] resets it
    /// afterwards. The default is a [`read`](Self::read) whose cycles
    /// are dropped; devices whose read does more than copy bytes
    /// override it with a plain copy.
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read).
    fn peek(&mut self, offset: u32, buf: &mut [u8]) -> Result<(), MemError> {
        self.read(offset, buf).map(drop)
    }

    /// Writes `data` starting at `offset` and returns the access latency.
    ///
    /// # Errors
    ///
    /// [`MemError::ReadOnly`] for ROMs, [`MemError::OutOfBounds`] past the
    /// end of the device.
    fn write(&mut self, offset: u32, data: &[u8]) -> Result<u64, MemError>;

    /// `true` when the device rejects stores (flash/ROM).
    fn is_rom(&self) -> bool {
        false
    }

    /// Back-door write that bypasses write protection and timing — used by
    /// loaders to install code/weights into ROM images.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] past the end of the device.
    fn poke(&mut self, offset: u32, data: &[u8]) -> Result<(), MemError>;

    /// Timing of `count` back-to-back reads of `len` bytes each, the
    /// k-th starting at `offset + k*len` (a contiguous ascending burst),
    /// without transferring data. For an in-bounds run this must be
    /// *bit-identical* — in returned cycles and in timing-state
    /// evolution — to calling [`read`](Self::read) `count` times; the
    /// default does exactly that. Devices whose burst behaviour has a
    /// closed form override this so timing-only consumers (cache-line
    /// fills, trace replay) charge long sequential stretches in O(1).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] when the run leaves the device;
    /// overrides may detect this up front rather than at the first
    /// failing access.
    fn read_cost_run(&mut self, offset: u32, len: u32, count: u32) -> Result<u64, MemError> {
        let mut total = 0u64;
        let mut scratch = [0u8; 64];
        for k in 0..count {
            let off = offset + k * len;
            total += if (len as usize) <= scratch.len() {
                self.read(off, &mut scratch[..len as usize])?
            } else {
                self.read(off, &mut vec![0u8; len as usize])?
            };
        }
        Ok(total)
    }

    /// `true` when the device's access *timing* is a pure function of
    /// the access length: independent of history AND of the address,
    /// with [`reset_timing`](Self::reset_timing) a no-op. Stateless
    /// devices commute with accesses to other regions and their
    /// per-length cost can be memoized, which lets a trace replayer
    /// reorder and batch charges around them without changing any
    /// observable cycle count.
    fn timing_stateless(&self) -> bool {
        false
    }

    /// An upper bound on the cycles [`write`](Self::write) returns for
    /// any in-bounds write of `len` bytes (1, 2 or 4), whatever the
    /// offset and the timing state. Trace replay uses it to prove that a
    /// store finds the write buffer already drained. The default, `None`,
    /// claims no bound; every buffered store to such a device is then
    /// timed exactly.
    fn write_latency_bound(&self, _len: u32) -> Option<u64> {
        None
    }

    /// Resets timing-related state (sequential-burst trackers, open rows)
    /// without touching contents. Called between measured runs.
    fn reset_timing(&mut self) {}

    /// Appends the device's timing state (open rows, burst trackers) to
    /// `out` and returns `true`, such that two devices of the same type
    /// and parameters whose appended words are equal charge every future
    /// access sequence identically. A device that cannot express its
    /// state returns `false` (the default for timing-stateful devices),
    /// and callers then never compare or restore it. Contents are not
    /// part of the timing state.
    fn save_timing(&self, _out: &mut Vec<u64>) -> bool {
        self.timing_stateless()
    }

    /// Restores a timing state that [`save_timing`](Self::save_timing)
    /// appended as `saved` (exactly those words). Contents are untouched.
    fn restore_timing(&mut self, _saved: &[u64]) {}

    /// Downcast support for peripherals whose host-side state must be
    /// inspected after a run (e.g. a UART's transmit buffer). Devices
    /// that opt in return `self`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Bounds-checks an access and returns the device-relative range.
pub(crate) fn check_bounds(size: u32, offset: u32, len: usize) -> Result<(), MemError> {
    let end = u64::from(offset) + len as u64;
    if end > u64::from(size) {
        Err(MemError::OutOfBounds { addr: offset, len })
    } else {
        Ok(())
    }
}
