//! Property tests for the memory system: cache invariants, bus routing,
//! device timing monotonicity.

use cfu_mem::{Bus, Cache, CacheConfig, Ddr3, SpiFlash, SpiWidth, Sram};
use proptest::prelude::*;

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
}
