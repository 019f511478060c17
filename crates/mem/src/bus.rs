//! The system bus: an address map routing accesses to devices.

use std::any::Any;
use std::fmt;

use crate::device::{BusDevice, ReadResult};
use crate::sram::Sram;

use crate::error::MemError;

/// Opaque handle identifying a mapped region on a [`Bus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(usize);

/// Description of one mapped region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// Region name (e.g. `"rom"`, `"sram"`, `"main_ram"`).
    pub name: String,
    /// First address of the region.
    pub base: u32,
    /// Size in bytes.
    pub size: u32,
    /// `true` when the device rejects stores.
    pub rom: bool,
}

impl RegionInfo {
    /// `true` when `addr` falls inside this region.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && u64::from(addr) < u64::from(self.base) + u64::from(self.size)
    }

    /// One-past-the-last address (as u64 to avoid overflow at 4 GiB).
    pub fn end(&self) -> u64 {
        u64::from(self.base) + u64::from(self.size)
    }
}

/// Per-device traffic counters, used by the profiler to attribute memory
/// time the way the paper's profiling step does ("flash ROM accesses were
/// slower than they should be").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Number of read transactions.
    pub reads: u64,
    /// Number of write transactions.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Total device cycles spent in reads.
    pub read_cycles: u64,
    /// Total device cycles spent in writes.
    pub write_cycles: u64,
}

impl DeviceStats {
    /// The traffic accumulated since `earlier`, an earlier reading of the
    /// same region's statistics.
    pub fn since(&self, earlier: &DeviceStats) -> DeviceStats {
        DeviceStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            read_cycles: self.read_cycles - earlier.read_cycles,
            write_cycles: self.write_cycles - earlier.write_cycles,
        }
    }

    /// Total cycles across reads and writes.
    pub fn total_cycles(&self) -> u64 {
        self.read_cycles + self.write_cycles
    }
}

/// The device behind a region. Plain SRAM backs nearly every hot access
/// (fetch peeks, load/store data, cache-line fills) and its accesses are
/// cheaper than a `dyn` indirect call, so it gets its own statically
/// dispatched arm; everything else stays behind the trait object. The
/// split is invisible outside this module — every arm runs the same
/// [`BusDevice`] methods.
enum Slot {
    Sram(Sram),
    Other(Box<dyn BusDevice>),
}

impl Slot {
    #[inline]
    fn dev(&mut self) -> &mut dyn BusDevice {
        match self {
            Slot::Sram(s) => s,
            Slot::Other(d) => &mut **d,
        }
    }

    #[inline]
    fn dev_ref(&self) -> &dyn BusDevice {
        match self {
            Slot::Sram(s) => s,
            Slot::Other(d) => &**d,
        }
    }
}

struct Mapped {
    info: RegionInfo,
    slot: Slot,
    stats: DeviceStats,
    /// [`BusDevice::timing_stateless`], sampled at map time (the trait
    /// documents it as a constant property): lets [`Bus::peek`] skip the
    /// virtual `reset_timing` call for devices where it is a no-op.
    timing_stateless: bool,
}

impl fmt::Debug for Mapped {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mapped").field("info", &self.info).field("stats", &self.stats).finish()
    }
}

/// The system interconnect: routes addresses to devices and accounts
/// cycles and traffic per device.
///
/// Regions must not overlap; [`map`](Bus::map) panics if they do, because
/// an overlapping LiteX CSR map is a build-time error there too.
#[derive(Debug, Default)]
pub struct Bus {
    regions: Vec<Mapped>,
    /// Index of the most recently routed region — accesses cluster, so
    /// the common case is one range check instead of a map scan.
    hot: usize,
}

impl Bus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Bus::default()
    }

    /// Maps `device` at `base`, returning a handle for stats queries.
    ///
    /// # Panics
    ///
    /// Panics if the new region overlaps an existing one or wraps past the
    /// end of the 32-bit address space.
    pub fn map(&mut self, name: &str, base: u32, device: impl BusDevice + 'static) -> RegionId {
        let size = device.size();
        let info = RegionInfo { name: name.to_owned(), base, size, rom: device.is_rom() };
        assert!(info.end() <= 1 << 32, "region `{name}` wraps the address space");
        for existing in &self.regions {
            let e = &existing.info;
            assert!(
                info.end() <= u64::from(e.base) || u64::from(info.base) >= e.end(),
                "region `{name}` [{:#x},{:#x}) overlaps `{}` [{:#x},{:#x})",
                info.base,
                info.end(),
                e.name,
                e.base,
                e.end(),
            );
        }
        let timing_stateless = device.timing_stateless();
        // Concrete-type probe for the static-dispatch arm; the `Option`
        // dance moves the device out again without double-boxing.
        let mut holder = Some(device);
        let sram =
            (&mut holder as &mut dyn Any).downcast_mut::<Option<Sram>>().and_then(Option::take);
        #[allow(clippy::expect_used, reason = "only a matching downcast takes the device")]
        let slot = match sram {
            Some(sram) => Slot::Sram(sram),
            None => Slot::Other(Box::new(holder.expect("device not taken"))),
        };
        self.regions.push(Mapped { info, slot, stats: DeviceStats::default(), timing_stateless });
        RegionId(self.regions.len() - 1)
    }

    /// Looks up the region containing `addr`.
    pub fn region_of(&self, addr: u32) -> Option<(RegionId, &RegionInfo)> {
        self.regions
            .iter()
            .enumerate()
            .find(|(_, m)| m.info.contains(addr))
            .map(|(i, m)| (RegionId(i), &m.info))
    }

    /// Looks up a region by name.
    pub fn region_by_name(&self, name: &str) -> Option<(RegionId, &RegionInfo)> {
        self.regions
            .iter()
            .enumerate()
            .find(|(_, m)| m.info.name == name)
            .map(|(i, m)| (RegionId(i), &m.info))
    }

    /// All mapped regions, in mapping order.
    pub fn regions(&self) -> impl Iterator<Item = (RegionId, &RegionInfo)> {
        self.regions.iter().enumerate().map(|(i, m)| (RegionId(i), &m.info))
    }

    /// Traffic statistics for a region.
    pub fn stats(&self, id: RegionId) -> DeviceStats {
        self.regions[id.0].stats
    }

    /// Clears all per-device statistics and timing state (open rows,
    /// sequential-burst trackers) without touching contents.
    pub fn reset_stats(&mut self) {
        for m in &mut self.regions {
            m.stats = DeviceStats::default();
            m.slot.dev().reset_timing();
        }
    }

    #[inline]
    fn route(&mut self, addr: u32, len: usize) -> Result<(usize, u32), MemError> {
        let idx = if self.regions.get(self.hot).is_some_and(|m| m.info.contains(addr)) {
            self.hot
        } else {
            let idx = self
                .regions
                .iter()
                .position(|m| m.info.contains(addr))
                .ok_or(MemError::Unmapped { addr })?;
            self.hot = idx;
            idx
        };
        let info = &self.regions[idx].info;
        if u64::from(addr) + len as u64 > info.end() {
            return Err(MemError::OutOfBounds { addr, len });
        }
        Ok((idx, addr - info.base))
    }

    /// Reads `buf.len()` bytes at `addr`, returning device cycles consumed.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] for holes in the map, or any device error
    /// with the *absolute* fault address.
    #[inline]
    pub fn read(&mut self, addr: u32, buf: &mut [u8]) -> Result<u64, MemError> {
        let (idx, offset) = self.route(addr, buf.len())?;
        let m = &mut self.regions[idx];
        let cycles = match &mut m.slot {
            Slot::Sram(s) => s.read(offset, buf),
            Slot::Other(d) => d.read(offset, buf),
        }
        .map_err(|e| rebase(e, m.info.base))?;
        m.stats.reads += 1;
        m.stats.bytes_read += buf.len() as u64;
        m.stats.read_cycles += cycles;
        Ok(cycles)
    }

    /// Writes `data` at `addr`, returning device cycles consumed.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`], [`MemError::ReadOnly`] (ROM regions) or
    /// [`MemError::OutOfBounds`].
    #[inline]
    pub fn write(&mut self, addr: u32, data: &[u8]) -> Result<u64, MemError> {
        let (idx, offset) = self.route(addr, data.len())?;
        let m = &mut self.regions[idx];
        let cycles = match &mut m.slot {
            Slot::Sram(s) => s.write(offset, data),
            Slot::Other(d) => d.write(offset, data),
        }
        .map_err(|e| rebase(e, m.info.base))?;
        m.stats.writes += 1;
        m.stats.bytes_written += data.len() as u64;
        m.stats.write_cycles += cycles;
        Ok(cycles)
    }

    /// Reads a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// As [`read`](Bus::read).
    pub fn read_u32(&mut self, addr: u32) -> Result<ReadResult<u32>, MemError> {
        let mut b = [0u8; 4];
        let cycles = self.read(addr, &mut b)?;
        Ok(ReadResult { value: u32::from_le_bytes(b), cycles })
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// As [`read`](Bus::read).
    pub fn read_u8(&mut self, addr: u32) -> Result<ReadResult<u8>, MemError> {
        let mut b = [0u8; 1];
        let cycles = self.read(addr, &mut b)?;
        Ok(ReadResult { value: b[0], cycles })
    }

    /// Writes a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// As [`write`](Bus::write).
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<u64, MemError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// As [`write`](Bus::write).
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<u64, MemError> {
        self.write(addr, &[value])
    }

    /// Loader back-door: installs `data` at `addr` bypassing ROM write
    /// protection and consuming no simulated time.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] / [`MemError::OutOfBounds`].
    pub fn load_image(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        let (idx, offset) = self.route(addr, data.len())?;
        let m = &mut self.regions[idx];
        m.slot.dev().poke(offset, data).map_err(|e| rebase(e, m.info.base))?;
        Ok(())
    }

    /// Downcasts the device in `id`'s region to a concrete type, for
    /// peripherals that expose host-side state (see
    /// [`BusDevice::as_any`]). Returns `None` when the device does not
    /// opt in or the type does not match.
    pub fn device_as<T: 'static>(&self, id: RegionId) -> Option<&T> {
        self.regions[id.0].slot.dev_ref().as_any()?.downcast_ref::<T>()
    }

    /// Timing-free read for debuggers and golden-test checks: a
    /// content-only [`BusDevice::peek`], then
    /// [`BusDevice::reset_timing`] on a timing-stateful device.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] / [`MemError::OutOfBounds`].
    #[inline]
    pub fn peek(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), MemError> {
        let (idx, offset) = self.route(addr, buf.len())?;
        let m = &mut self.regions[idx];
        match &mut m.slot {
            // SRAM is timing-stateless: no reset needed, and the read
            // inlines (this is the data source for every cached load and
            // fetch).
            Slot::Sram(s) => s.read(offset, buf).map(drop),
            Slot::Other(d) => {
                let r = d.peek(offset, buf);
                if r.is_ok() && !m.timing_stateless {
                    d.reset_timing();
                }
                r
            }
        }
        .map_err(|e| rebase(e, m.info.base))
    }

    /// A [`read`](Bus::read) whose data is discarded: identical routing,
    /// device-timing evolution, statistics and returned cycle count,
    /// without the caller providing a buffer. Used by timing-only
    /// consumers (cache-line fills whose bytes nobody reads, trace
    /// replay) — the device still observes a real read.
    ///
    /// # Errors
    ///
    /// As [`read`](Bus::read).
    #[inline]
    pub fn read_cost(&mut self, addr: u32, len: u32) -> Result<u64, MemError> {
        self.read_cost_run(addr, len, 1)
    }

    /// The timing of `count` back-to-back reads of `len` bytes, the k-th
    /// at `addr + k*len` — routing, statistics and device-timing
    /// evolution identical to `count` individual [`read`](Bus::read)
    /// calls, without transferring data. When the whole run falls inside
    /// one region the device charges it through
    /// [`BusDevice::read_cost_run`] (closed-form for bursty devices);
    /// a run straddling regions falls back to per-access charging.
    ///
    /// # Errors
    ///
    /// As [`read`](Bus::read), at the first failing access.
    pub fn read_cost_run(&mut self, addr: u32, len: u32, count: u32) -> Result<u64, MemError> {
        if count == 0 {
            return Ok(0);
        }
        let span = u64::from(len) * u64::from(count);
        if let Ok((idx, offset)) = self.route(addr, span as usize) {
            let m = &mut self.regions[idx];
            let cycles = match &mut m.slot {
                Slot::Sram(s) => s.read_cost_run(offset, len, count),
                Slot::Other(d) => d.read_cost_run(offset, len, count),
            }
            .map_err(|e| rebase(e, m.info.base))?;
            m.stats.reads += u64::from(count);
            m.stats.bytes_read += span;
            m.stats.read_cycles += cycles;
            return Ok(cycles);
        }
        // The run leaves the first region (or starts unmapped): charge
        // per access so partial effects and the fault address match the
        // individual-read sequence exactly.
        if count == 1 {
            let mut scratch = [0u8; 64];
            return if len as usize <= scratch.len() {
                self.read(addr, &mut scratch[..len as usize])
            } else {
                self.read(addr, &mut vec![0u8; len as usize])
            };
        }
        let mut total = 0u64;
        for k in 0..count {
            total += self.read_cost_run(addr + k * len, len, 1)?;
        }
        Ok(total)
    }

    /// `true` when the region containing `addr` reports
    /// [`BusDevice::timing_stateless`] — its access timing is
    /// history-free, so charges against it commute with accesses to
    /// other regions. `false` for unmapped addresses.
    pub fn timing_stateless_at(&self, addr: u32) -> bool {
        self.regions.iter().find(|m| m.info.contains(addr)).is_some_and(|m| m.timing_stateless)
    }

    /// `true` when the `len` bytes from `addr` on all lie in one region
    /// whose device is [`BusDevice::timing_stateless`]: reads of them
    /// cannot fault, and their cost does not depend on what ran before.
    pub fn timing_stateless_span(&self, addr: u32, len: u32) -> bool {
        self.regions
            .iter()
            .find(|m| m.info.contains(addr))
            .is_some_and(|m| m.timing_stateless && u64::from(addr) + u64::from(len) <= m.info.end())
    }

    /// [`BusDevice::write_latency_bound`] of the device that a write of
    /// `len` bytes at `addr` reaches: an upper bound on the cycles that
    /// [`write`](Bus::write) can return for it. `None` when the device
    /// claims no bound or `addr` is unmapped.
    pub fn write_latency_bound(&self, addr: u32, len: u32) -> Option<u64> {
        let m = self.regions.iter().find(|m| m.info.contains(addr))?;
        m.slot.dev_ref().write_latency_bound(len)
    }

    /// Adds `delta` to a region's statistics: traffic charged out of
    /// band, by bulk replay paths that memoize a stateless device's
    /// access cost, or skipped by a fast-forward.
    pub fn add_stats(&mut self, id: RegionId, delta: DeviceStats) {
        let stats = &mut self.regions[id.0].stats;
        stats.reads += delta.reads;
        stats.writes += delta.writes;
        stats.bytes_read += delta.bytes_read;
        stats.bytes_written += delta.bytes_written;
        stats.read_cycles += delta.read_cycles;
        stats.write_cycles += delta.write_cycles;
    }

    /// Appends the timing state of every mapped device, in mapping order
    /// and each prefixed by its word count, to `out` (see
    /// [`BusDevice::save_timing`]). Returns `false`, leaving `out` in an
    /// unspecified state, when some device cannot express its state.
    pub fn save_timing(&self, out: &mut Vec<u64>) -> bool {
        for m in &self.regions {
            let at = out.len();
            out.push(0);
            if !m.slot.dev_ref().save_timing(out) {
                return false;
            }
            out[at] = (out.len() - at - 1) as u64;
        }
        true
    }

    /// Restores every device's timing state from words
    /// [`save_timing`](Bus::save_timing) wrote on a bus with the same
    /// regions. Contents and statistics are untouched.
    pub fn restore_timing(&mut self, saved: &[u64]) {
        let mut at = 0;
        for m in &mut self.regions {
            let len = saved[at] as usize;
            m.slot.dev().restore_timing(&saved[at + 1..at + 1 + len]);
            at += 1 + len;
        }
    }

    /// Replays the *device-timing side effect* of a [`peek`](Bus::peek)
    /// at `addr` — routing plus [`BusDevice::reset_timing`] — without
    /// transferring any data. For every device in this crate a peek's net
    /// effect on timing state is exactly the trailing `reset_timing`
    /// (SRAM is stateless; the flash's sequential-burst tracker and the
    /// DDR3 open rows are set by the read and then cleared), so a trace
    /// replayer can stand in for peeks with this call alone.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] for holes in the map.
    #[inline]
    pub fn reset_device_timing(&mut self, addr: u32) -> Result<(), MemError> {
        let (idx, _) = self.route(addr, 1)?;
        self.regions[idx].slot.dev().reset_timing();
        Ok(())
    }
}

/// Converts a device-relative fault address into an absolute one.
fn rebase(e: MemError, base: u32) -> MemError {
    match e {
        MemError::OutOfBounds { addr, len } => MemError::OutOfBounds { addr: base + addr, len },
        MemError::ReadOnly { addr } => MemError::ReadOnly { addr: base + addr },
        MemError::Misaligned { addr, required } => {
            MemError::Misaligned { addr: base + addr, required }
        }
        MemError::Unmapped { addr } => MemError::Unmapped { addr: base + addr },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::{SpiFlash, SpiWidth};
    use crate::sram::Sram;

    fn demo_bus() -> Bus {
        let mut bus = Bus::new();
        bus.map("rom", 0x0000_0000, SpiFlash::new(4096, SpiWidth::Single));
        bus.map("sram", 0x1000_0000, Sram::new(1024));
        bus
    }

    #[test]
    fn routes_to_correct_device() {
        let mut bus = demo_bus();
        bus.write_u32(0x1000_0004, 7).unwrap();
        assert_eq!(bus.read_u32(0x1000_0004).unwrap().value, 7);
        let (_, info) = bus.region_of(0x1000_0004).unwrap();
        assert_eq!(info.name, "sram");
    }

    #[test]
    fn unmapped_hole_faults() {
        let mut bus = demo_bus();
        assert_eq!(bus.read_u32(0x2000_0000), Err(MemError::Unmapped { addr: 0x2000_0000 }));
    }

    #[test]
    fn rom_write_fault_is_absolute() {
        let mut bus = demo_bus();
        assert_eq!(bus.write_u8(0x0000_0010, 1), Err(MemError::ReadOnly { addr: 0x10 }));
    }

    #[test]
    fn access_straddling_region_end_faults() {
        let mut bus = demo_bus();
        assert!(matches!(bus.read_u32(0x1000_0000 + 1022), Err(MemError::OutOfBounds { .. })));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_map_panics() {
        let mut bus = demo_bus();
        bus.map("bad", 0x0000_0800, Sram::new(8192));
    }

    #[test]
    fn stats_accumulate() {
        let mut bus = demo_bus();
        let (sram, _) = bus.region_by_name("sram").unwrap();
        bus.write_u32(0x1000_0000, 1).unwrap();
        bus.read_u32(0x1000_0000).unwrap();
        bus.read_u32(0x1000_0000).unwrap();
        let s = bus.stats(sram);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 8);
        assert!(s.total_cycles() >= 3);
        bus.reset_stats();
        assert_eq!(bus.stats(sram), DeviceStats::default());
    }

    #[test]
    fn load_image_bypasses_rom_protection() {
        let mut bus = demo_bus();
        bus.load_image(0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(bus.read_u32(0).unwrap().value, u32::from_le_bytes([1, 2, 3, 4]));
    }

    #[test]
    fn peek_does_not_change_stats() {
        let mut bus = demo_bus();
        let (rom, _) = bus.region_by_name("rom").unwrap();
        let mut b = [0u8; 4];
        bus.peek(0, &mut b).unwrap();
        // peek routes through the device but stats shouldn't count it... it
        // does touch the device read path; assert only that reads counter is
        // untouched by design (stats recorded in Bus::read, not device).
        assert_eq!(bus.stats(rom).reads, 0);
    }

    #[test]
    fn regions_iteration() {
        let bus = demo_bus();
        let names: Vec<_> = bus.regions().map(|(_, i)| i.name.clone()).collect();
        assert_eq!(names, ["rom", "sram"]);
    }

    #[test]
    fn read_cost_matches_read_exactly() {
        // Sequential flash reads are timing-stateful (burst tracker), so
        // interleaving checks that read_cost evolves the device exactly
        // like read: same cycles, same stats.
        let mut a = demo_bus();
        let mut b = demo_bus();
        let (rom_a, _) = a.region_by_name("rom").unwrap();
        let (rom_b, _) = b.region_by_name("rom").unwrap();
        let mut buf = [0u8; 32];
        for addr in [0u32, 32, 64, 256, 288] {
            let ca = a.read(addr, &mut buf).unwrap();
            let cb = b.read_cost(addr, 32).unwrap();
            assert_eq!(ca, cb, "cycles diverged at {addr:#x}");
        }
        assert_eq!(a.stats(rom_a), b.stats(rom_b));
    }

    #[test]
    fn saved_timing_restores_every_device() {
        let mut bus = demo_bus();
        let mut buf = [0u8; 4];
        bus.read(0, &mut buf).unwrap();
        let mut saved = Vec::new();
        assert!(bus.save_timing(&mut saved));
        // The flash tracks its burst (one word); SRAM has no state.
        assert_eq!(saved, [1, 5, 0]);
        let sequential = demo_bus().read(0, &mut buf).unwrap() - bus.read(4, &mut buf).unwrap();
        bus.reset_stats();
        bus.restore_timing(&saved);
        let (rom, _) = bus.region_by_name("rom").unwrap();
        let before = bus.stats(rom);
        let cycles = bus.read(4, &mut buf).unwrap();
        assert_eq!(demo_bus().read(0, &mut buf).unwrap() - cycles, sequential);
        let delta = bus.stats(rom).since(&before);
        assert_eq!((delta.reads, delta.bytes_read, delta.read_cycles), (1, 4, cycles));
        bus.add_stats(rom, delta);
        assert_eq!(bus.stats(rom).reads, 2);
    }

    #[test]
    fn reset_device_timing_reproduces_peek_timing_effect() {
        // After a peek (or a reset_device_timing), the next sequential
        // flash read must cost the same in both buses: the peek's net
        // timing effect is exactly the reset.
        let mut a = demo_bus();
        let mut b = demo_bus();
        let mut buf = [0u8; 4];
        a.read(0, &mut buf).unwrap();
        b.read(0, &mut buf).unwrap();
        let mut p = [0u8; 4];
        a.peek(0x10, &mut p).unwrap();
        b.reset_device_timing(0x10).unwrap();
        // A would-be-sequential read: burst state was cleared in both.
        let ca = a.read(4, &mut buf).unwrap();
        let cb = b.read(4, &mut buf).unwrap();
        assert_eq!(ca, cb);
    }
}
