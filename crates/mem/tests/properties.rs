//! Property tests for the memory system: cache invariants, bus routing,
//! device timing monotonicity.

use cfu_mem::{Bus, BusDevice, Cache, CacheConfig, Ddr3, MemError, SpiFlash, SpiWidth, Sram};
use proptest::prelude::*;

/// The flash as a dense `0xFF`-filled array with the same burst timing:
/// the reference [`SpiFlash`] must match byte for byte, cycle for cycle
/// and error for error.
struct DenseFlash {
    data: Vec<u8>,
    width: SpiWidth,
    clock_ratio: u64,
    next_seq: Option<u32>,
}

impl DenseFlash {
    fn new(size: u32, width: SpiWidth, clock_ratio: u64, image: &[u8]) -> Self {
        let mut data = vec![0xFF; size as usize];
        let n = image.len().min(data.len());
        data[..n].copy_from_slice(&image[..n]);
        DenseFlash { data, width, clock_ratio, next_seq: None }
    }

    fn range(&self, offset: u32, len: usize) -> Result<std::ops::Range<usize>, MemError> {
        let end = u64::from(offset) + len as u64;
        if end > self.data.len() as u64 {
            return Err(MemError::OutOfBounds { addr: offset, len });
        }
        Ok(offset as usize..end as usize)
    }

    fn burst(&mut self, offset: u32, bytes: u32) -> u64 {
        let mut spi = self.width.sck_per_byte() * u64::from(bytes);
        if self.next_seq != Some(offset) {
            spi += self.width.command_overhead();
        }
        self.next_seq = Some(offset + bytes);
        spi * self.clock_ratio
    }

    fn read(&mut self, offset: u32, buf: &mut [u8]) -> Result<u64, MemError> {
        let range = self.range(offset, buf.len())?;
        buf.copy_from_slice(&self.data[range]);
        Ok(self.burst(offset, buf.len() as u32))
    }

    fn peek(&self, offset: u32, buf: &mut [u8]) -> Result<(), MemError> {
        buf.copy_from_slice(&self.data[self.range(offset, buf.len())?]);
        Ok(())
    }

    fn poke(&mut self, offset: u32, bytes: &[u8]) -> Result<(), MemError> {
        let range = self.range(offset, bytes.len())?;
        self.data[range].copy_from_slice(bytes);
        Ok(())
    }

    fn read_cost_run(&mut self, offset: u32, len: u32, count: u32) -> Result<u64, MemError> {
        if count == 0 {
            return Ok(0);
        }
        let span = len.checked_mul(count).ok_or(MemError::OutOfBounds { addr: offset, len: 0 })?;
        self.range(offset, span as usize)?;
        Ok(self.burst(offset, span))
    }
}

/// One flash operation: kind, offset, length, repeat count, fill byte.
fn arb_flash_op() -> impl Strategy<Value = (u8, u32, u32, u32, u8)> {
    (0u8..6, any::<u32>(), 0u32..64, 0u32..5, any::<u8>())
}

fn arb_geometry() -> impl Strategy<Value = CacheConfig> {
    (0u32..4, 0u32..3, 0u32..3).prop_map(|(size_pow, ways_pow, line_pow)| CacheConfig {
        size_bytes: 1024 << size_pow,
        ways: 1 << ways_pow,
        line_bytes: 16 << line_pow,
    })
}

proptest! {
    /// After a fill, the line is resident until something evicts it; an
    /// immediate re-access always hits.
    #[test]
    fn fill_then_hit(cfg in arb_geometry(), addrs in proptest::collection::vec(any::<u32>(), 1..200)) {
        let mut cache = Cache::new(cfg);
        for &addr in &addrs {
            cache.fill(addr);
            prop_assert!(cache.contains(addr), "just-filled line missing");
            prop_assert!(cache.lookup(addr), "just-filled line misses");
        }
    }

    /// The cache never holds more distinct lines than its capacity.
    #[test]
    fn capacity_never_exceeded(cfg in arb_geometry(), addrs in proptest::collection::vec(any::<u32>(), 1..500)) {
        let mut cache = Cache::new(cfg);
        for &addr in &addrs {
            cache.access(addr);
        }
        let capacity = (cfg.sets() * cfg.ways) as usize;
        let line = cfg.line_bytes;
        let resident = addrs
            .iter()
            .map(|a| a / line * line)
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .filter(|&base| cache.contains(base))
            .count();
        prop_assert!(resident <= capacity, "{resident} lines > capacity {capacity}");
    }

    /// Accesses within one line after an access always hit.
    #[test]
    fn same_line_hits(cfg in arb_geometry(), addr in any::<u32>(), off in 0u32..16) {
        let mut cache = Cache::new(cfg);
        cache.access(addr);
        let same_line = (addr & !(cfg.line_bytes - 1)) + (off % cfg.line_bytes);
        prop_assert!(cache.lookup(same_line));
    }

    /// Hit + miss counters always equal total lookups.
    #[test]
    fn stats_balance(addrs in proptest::collection::vec(any::<u32>(), 1..300)) {
        let mut cache = Cache::new(CacheConfig::vexriscv_default());
        for &a in &addrs {
            cache.access(a);
        }
        prop_assert_eq!(cache.stats().accesses(), addrs.len() as u64);
    }

    /// SRAM read-back returns exactly what was written, at any offset.
    #[test]
    fn sram_roundtrip(writes in proptest::collection::vec((0u32..4000, any::<u8>()), 1..100)) {
        use cfu_mem::BusDevice;
        let mut s = Sram::new(4096);
        let mut model = vec![0u8; 4096];
        for &(addr, val) in &writes {
            s.write(addr, &[val]).unwrap();
            model[addr as usize] = val;
        }
        for &(addr, _) in &writes {
            let mut b = [0u8; 1];
            s.read(addr, &mut b).unwrap();
            prop_assert_eq!(b[0], model[addr as usize]);
        }
    }

    /// Flash timing: sequential streaming never costs more than random
    /// access, and wider SPI is never slower.
    #[test]
    fn flash_timing_monotone(offsets in proptest::collection::vec(0u32..4096u32, 2..50)) {
        use cfu_mem::BusDevice;
        let mut single = SpiFlash::new(8192, SpiWidth::Single);
        let mut quad = SpiFlash::new(8192, SpiWidth::Quad);
        let mut b = [0u8; 4];
        for &off in &offsets {
            let off = off & !3;
            let s = single.read(off, &mut b).unwrap();
            let q = quad.read(off, &mut b).unwrap();
            prop_assert!(q <= s, "quad {q} > single {s}");
        }
    }

    /// DDR3: row hits are never slower than row misses, and data
    /// round-trips.
    #[test]
    fn ddr3_row_locality(base in 0u32..(1 << 18), vals in any::<[u8; 4]>()) {
        use cfu_mem::BusDevice;
        let mut d = Ddr3::new(1 << 20);
        let base = base & !3;
        d.write(base, &vals).unwrap();
        let mut buf = [0u8; 4];
        let first = d.read(base, &mut buf).unwrap();
        prop_assert_eq!(buf, vals);
        let second = d.read(base, &mut buf).unwrap();
        prop_assert!(second <= first, "repeat read slower: {second} > {first}");
    }

    /// No DDR3 or SRAM write costs more than the device's write-latency
    /// bound, whatever the offset, the width and the open rows left by
    /// earlier reads and writes.
    #[test]
    fn writes_never_exceed_their_latency_bound(
        history in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..24),
        writes in proptest::collection::vec((any::<u32>(), 0usize..3), 1..24),
        latency in 1u64..4,
    ) {
        use cfu_mem::{BusDevice, Ddr3Timing};
        let size = 1u32 << 20;
        let mut bus = Bus::new();
        bus.map("ddr", 0, Ddr3::new(size));
        bus.map("sram", size, Sram::with_latency(size, latency));
        let mut b = [0u8; 4];
        for &(off, write) in &history {
            // Leaves rows open across the banks.
            let off = off % (2 * size - 4);
            if write {
                bus.write(off, &b).unwrap();
            } else {
                bus.read(off, &mut b).unwrap();
            }
        }
        for &(off, width) in &writes {
            let len = [1usize, 2, 4][width];
            let off = off % (2 * size - 4);
            let bound = bus.write_latency_bound(off, len as u32).expect("both devices bound writes");
            let cycles = bus.write(off, &b[..len]).unwrap();
            prop_assert!(cycles <= bound, "{len}-byte write at {off:#x}: {cycles} > {bound}");
        }
        prop_assert_eq!(Ddr3::new(64).write_latency_bound(4), Some(Ddr3Timing::default().row_miss));
        prop_assert_eq!(Sram::with_latency(64, latency).write_latency_bound(2), Some(latency));
        prop_assert_eq!(bus.write_latency_bound(2 * size, 4), None, "unmapped");
    }

    /// Bus routing: any address inside a mapped region reads back what a
    /// direct poke installed; unmapped addresses fault.
    #[test]
    fn bus_routing(addr in 0u32..8192, val in any::<u8>()) {
        let mut bus = Bus::new();
        bus.map("a", 0, Sram::new(4096));
        bus.map("b", 0x8000, Sram::new(4096));
        let target = if addr < 4096 { addr } else { 0x8000 + (addr - 4096) };
        bus.load_image(target, &[val]).unwrap();
        prop_assert_eq!(bus.read_u8(target).unwrap().value, val);
        prop_assert!(bus.read_u8(0x4000 + (addr % 4096)).is_err());
    }

    /// The flash stores only what was programmed, yet every `poke`,
    /// `load_image`, `read`, `peek`, `read_cost_run` and `write` — in or
    /// out of bounds, after `with_image` or not — gives the bytes, cycles
    /// and errors of a dense `0xFF`-filled array.
    #[test]
    fn flash_matches_a_dense_erased_array(
        size in 1u32..600,
        image in proptest::collection::vec(any::<u8>(), 0..700),
        setup in (0u8..3, 1u64..4, any::<bool>()),
        ops in proptest::collection::vec(arb_flash_op(), 1..60),
    ) {
        let (width, ratio, imaged) = setup;
        let width = [SpiWidth::Single, SpiWidth::Dual, SpiWidth::Quad][usize::from(width)];
        let image = if imaged { &image[..] } else { &[][..] };
        let mut flash = if imaged {
            SpiFlash::with_image(size, width, image)
        } else {
            SpiFlash::new(size, width)
        };
        flash.set_clock_ratio(ratio);
        let mut dense = DenseFlash::new(size, width, ratio, image);
        prop_assert_eq!(flash.size(), size);
        for (step, &(kind, raw, len, count, fill)) in ops.iter().enumerate() {
            // Mostly offsets near the device, some past its end, a few at
            // the top of the address space.
            let offset = match raw % 16 {
                0 => u32::MAX - raw % 8,
                _ => raw % (size + 48),
            };
            let len_usize = len as usize;
            let ctx = format!("step {step}: kind {kind} offset {offset} len {len} count {count}");
            match kind {
                0 => {
                    let bytes: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    prop_assert_eq!(flash.poke(offset, &bytes), dense.poke(offset, &bytes), "{}", ctx);
                }
                1 => {
                    let (mut a, mut b) = (vec![0u8; len_usize], vec![0u8; len_usize]);
                    prop_assert_eq!(flash.read(offset, &mut a), dense.read(offset, &mut b), "{}", ctx);
                    prop_assert_eq!(a, b, "{}", ctx);
                }
                2 => {
                    let (mut a, mut b) = (vec![0u8; len_usize], vec![0u8; len_usize]);
                    prop_assert_eq!(flash.peek(offset, &mut a), dense.peek(offset, &mut b), "{}", ctx);
                    prop_assert_eq!(a, b, "{}", ctx);
                }
                3 => {
                    // Occasionally a length whose run overflows `u32`.
                    let len = if fill == 0 { u32::MAX / 2 + len } else { len };
                    prop_assert_eq!(
                        flash.read_cost_run(offset, len, count),
                        dense.read_cost_run(offset, len, count),
                        "{}", ctx
                    );
                }
                4 => {
                    prop_assert_eq!(flash.write(offset, &[fill]), Err(MemError::ReadOnly { addr: offset }));
                }
                _ => {
                    // `Bus::load_image` routes to the device's `poke`.
                    let mut bus = Bus::new();
                    bus.map("flash", 0, flash.clone());
                    let bytes = vec![fill; len_usize.max(1)];
                    let loaded = bus.load_image(offset, &bytes);
                    prop_assert_eq!(loaded.is_ok(), dense.poke(offset, &bytes).is_ok(), "{}", ctx);
                    if loaded.is_ok() {
                        prop_assert_eq!(flash.poke(offset, &bytes), Ok(()));
                    }
                    let mut a = vec![0u8; size as usize];
                    bus.peek(0, &mut a).unwrap();
                    prop_assert_eq!(&a[..], &dense.data[..], "{}", ctx);
                }
            }
            let mut saved = Vec::new();
            flash.save_timing(&mut saved);
            prop_assert_eq!(saved, vec![dense.next_seq.map_or(0, |n| u64::from(n) + 1)], "{}", ctx);
        }
        let mut all = vec![0u8; size as usize];
        flash.peek(0, &mut all).unwrap();
        prop_assert_eq!(all, dense.data);
    }
}
