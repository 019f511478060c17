//! Set-associative cache model (VexRiscv-style I/D caches).

/// Geometry of a cache.
///
/// VexRiscv caches are configured by total size, way count and 32-byte
/// lines; the paper's KWS study trades SoC features for a *larger I-cache*
/// (`Larger Icache`, 8.3× cumulative) — in this model that is just a bigger
/// [`size_bytes`](CacheConfig::size_bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (1 = direct mapped).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// A VexRiscv-ish default: 4 KiB, 1 way, 32-byte lines.
    pub fn vexriscv_default() -> Self {
        CacheConfig { size_bytes: 4096, ways: 1, line_bytes: 32 }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 4 {
            return Err(format!("line size {} must be a power of two >= 4", self.line_bytes));
        }
        if self.ways == 0 {
            return Err("cache must have at least one way".to_owned());
        }
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(self.ways * self.line_bytes) {
            return Err(format!(
                "size {} not divisible by ways*line ({}*{})",
                self.size_bytes, self.ways, self.line_bytes
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} must be a power of two", self.sets()));
        }
        Ok(())
    }
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Misses that displaced a valid line.
    pub evictions: u64,
}

impl CacheStats {
    /// The counts accumulated since `earlier`, an earlier reading of the
    /// same cache's statistics.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Total number of lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 1.0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// A set-associative, write-through, no-write-allocate cache with LRU
/// replacement — the VexRiscv data-cache policy. The cache tracks only
/// tags (contents live in the backing device), which is all the timing
/// model needs.
///
/// # Example
///
/// ```
/// use cfu_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 32 });
/// assert!(!c.lookup(0x100));  // cold miss
/// c.fill(0x100);
/// assert!(c.lookup(0x104));   // same line hits
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    /// `log2(line_bytes)` — the validated geometry guarantees powers of
    /// two, so the per-access index/tag math is shifts, not divides.
    line_shift: u32,
    /// `sets() - 1`.
    set_mask: u32,
    /// `log2(sets())`.
    set_shift: u32,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid cache config: {msg}");
        }
        let total_lines = (config.sets() * config.ways) as usize;
        Cache {
            config,
            lines: vec![Line::default(); total_lines],
            stats: CacheStats::default(),
            tick: 0,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.sets() - 1,
            set_shift: config.sets().trailing_zeros(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears statistics but keeps contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates all lines and clears statistics.
    pub fn flush(&mut self) {
        self.lines.fill(Line::default());
        self.stats = CacheStats::default();
        self.tick = 0;
    }

    fn set_index(&self, addr: u32) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    fn tag(&self, addr: u32) -> u32 {
        addr >> (self.line_shift + self.set_shift)
    }

    fn set_range(&self, addr: u32) -> std::ops::Range<usize> {
        let ways = self.config.ways as usize;
        let start = self.set_index(addr) * ways;
        start..start + ways
    }

    /// Looks up `addr`, updating LRU and statistics. Returns `true` on hit.
    pub fn lookup(&mut self, addr: u32) -> bool {
        self.tick += 1;
        let tag = self.tag(addr);
        let range = self.set_range(addr);
        let tick = self.tick;
        for line in &mut self.lines[range] {
            if line.valid && line.tag == tag {
                line.lru = tick;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Peeks whether `addr` is resident without touching LRU or stats.
    pub fn contains(&self, addr: u32) -> bool {
        let tag = self.tag(addr);
        self.lines[self.set_range(addr)].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Installs the line containing `addr`, evicting the LRU way if needed.
    /// Returns the evicted line's base address, if a valid line was displaced.
    pub fn fill(&mut self, addr: u32) -> Option<u32> {
        self.tick += 1;
        let tag = self.tag(addr);
        let set = self.set_index(addr) as u32;
        let range = self.set_range(addr);
        let tick = self.tick;
        let lines = &mut self.lines[range];
        // Already resident (e.g. racing prefetch): just touch it.
        if let Some(line) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            return None;
        }
        // Invalid lines first, else the least recently used; the first
        // of equals (a validated geometry has at least one way).
        let key = |l: &Line| if l.valid { l.lru } else { 0 };
        let mut victim = 0;
        for (i, l) in lines.iter().enumerate() {
            if key(l) < key(&lines[victim]) {
                victim = i;
            }
        }
        let victim = &mut lines[victim];
        let evicted = victim.valid.then(|| {
            self.stats.evictions += 1;
            (victim.tag * self.config.sets() + set) * self.config.line_bytes
        });
        *victim = Line { tag, valid: true, lru: tick };
        evicted
    }

    /// Lookup, and on miss, fill. Returns `true` on hit.
    ///
    /// Single pass over the set: the scan that finds (or fails to find)
    /// the tag also tracks the LRU victim, so a miss does not walk the
    /// ways a second time. This is the hot path of every simulated load,
    /// store and fetch.
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let tag = self.tag(addr);
        let range = self.set_range(addr);
        let mut victim = range.start;
        let mut victim_key = u64::MAX;
        for i in range {
            let line = &self.lines[i];
            if line.valid && line.tag == tag {
                self.lines[i].lru = tick;
                self.stats.hits += 1;
                return true;
            }
            // Same victim rule as `fill`: invalid lines first, else LRU;
            // strict `<` keeps the first minimum, matching `min_by_key`.
            let key = if line.valid { line.lru } else { 0 };
            if key < victim_key {
                victim_key = key;
                victim = i;
            }
        }
        self.stats.misses += 1;
        let line = &mut self.lines[victim];
        if line.valid {
            self.stats.evictions += 1;
        }
        *line = Line { tag, valid: true, lru: tick };
        false
    }

    /// The replacement clock: it advances on every
    /// [`lookup`](Cache::lookup), [`fill`](Cache::fill) and
    /// [`access`](Cache::access), and each of those stamps the line it
    /// touches with the new value. Pass a reading to
    /// [`set_touched_since`](Cache::set_touched_since) to ask which sets
    /// were touched after it.
    pub fn clock(&self) -> u64 {
        self.tick
    }

    /// Whether a lookup hit, fill or access touched `set` after the
    /// [`clock`](Cache::clock) read `clock`. (A lookup miss leaves its
    /// set unchanged and is not counted; callers that pair every miss
    /// with a fill, or only use `access`, see every touch.)
    pub fn set_touched_since(&self, set: usize, clock: u64) -> bool {
        let ways = self.config.ways as usize;
        self.lines[set * ways..(set + 1) * ways].iter().any(|l| l.valid && l.lru > clock)
    }

    /// Appends the replacement state of `set` to `out`: one word per way,
    /// 0 for an invalid line, else the tag plus the line's recency rank
    /// among the set's valid lines (0 = least recently used). Two sets
    /// with equal words answer every future access sequence identically;
    /// the absolute clock values behind the ranks do not matter.
    pub fn save_set(&self, set: usize, out: &mut Vec<u64>) {
        let ways = self.config.ways as usize;
        let lines = &self.lines[set * ways..(set + 1) * ways];
        out.extend(lines.iter().map(|l| {
            if l.valid {
                let rank = lines.iter().filter(|o| o.valid && o.lru < l.lru).count() as u64;
                1 << 63 | rank << 32 | u64::from(l.tag)
            } else {
                0
            }
        }));
    }

    /// Whether `set` is in the state [`save_set`](Cache::save_set)
    /// wrote as `saved` (one word per way).
    pub fn set_matches(&self, set: usize, saved: &[u64]) -> bool {
        let mut words = Vec::with_capacity(self.config.ways as usize);
        self.save_set(set, &mut words);
        words == saved
    }

    /// Puts `set` into the state [`save_set`](Cache::save_set) wrote as
    /// `saved`, stamping its lines with fresh clock values in rank order.
    /// Statistics are not touched.
    pub fn restore_set(&mut self, set: usize, saved: &[u64]) {
        let ways = self.config.ways as usize;
        let base = self.tick;
        for (line, &word) in self.lines[set * ways..(set + 1) * ways].iter_mut().zip(saved) {
            *line = if word >> 63 == 1 {
                Line { tag: word as u32, valid: true, lru: base + 1 + (word >> 32 & 0x7FFF_FFFF) }
            } else {
                Line::default()
            };
        }
        self.tick += ways as u64;
    }

    /// Adds `delta` to the statistics (a fast-forward crediting the
    /// accesses it skipped).
    pub fn add_stats(&mut self, delta: CacheStats) {
        self.stats.hits += delta.hits;
        self.stats.misses += delta.misses;
        self.stats.evictions += delta.evictions;
    }

    /// Records `n` hits without a tag lookup, for callers that can prove
    /// the accesses would hit.
    ///
    /// Contract, per counted hit: the caller's previous operation on
    /// *this* cache was an [`access`](Cache::access) /
    /// [`fill`](Cache::fill) or a counted hit of the **same line**, with
    /// no other cache operation in between. Under that contract the line
    /// is resident and already most-recently-used, so skipping the LRU
    /// re-touch cannot change any future hit/miss/eviction decision: the
    /// relative order of last-touch times across lines is preserved. The
    /// replacement [`clock`](Cache::clock) advances as `n` accesses
    /// would, so a caller that re-touches the lines with
    /// [`access`](Cache::access) before any other operation on this
    /// cache leaves every recency stamp exactly as if each access had
    /// run. Callers may defer the counts as long as the statistics are
    /// not observed in between (hit counts have no effect on replacement
    /// decisions).
    ///
    /// More generally, a hit may be counted here for any line that is
    /// resident and was touched after every other line of its set: it
    /// is already most-recently-used, so skipping the re-touch leaves
    /// the set's LRU order, and so every future victim, unchanged. For
    /// **direct-mapped** caches (`ways == 1`) that holds for any line the
    /// caller can prove resident, regardless of what was touched in
    /// between — with a single way per set there is no replacement
    /// choice.
    #[inline]
    pub fn note_hits(&mut self, n: u64) {
        self.stats.hits += n;
        self.tick += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: u32, ways: u32) -> CacheConfig {
        CacheConfig { size_bytes: size, ways, line_bytes: 32 }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(cfg(1024, 1));
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x5C)); // same 32B line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = Cache::new(cfg(1024, 1)); // 32 sets
        assert!(!c.access(0));
        assert!(!c.access(1024)); // same set, different tag → evicts
        assert!(!c.access(0)); // original is gone
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn two_way_avoids_that_conflict() {
        let mut c = Cache::new(cfg(1024, 2));
        assert!(!c.access(0));
        assert!(!c.access(1024));
        assert!(c.access(0)); // still resident in the other way
        assert!(c.access(1024));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(cfg(64, 2)); // 1 set of 2 ways
        c.access(0);
        c.access(64);
        c.access(0); // touch 0 → 64 is LRU
        c.access(128); // evicts 64
        assert!(c.contains(0));
        assert!(!c.contains(64));
        assert!(c.contains(128));
    }

    #[test]
    fn eviction_returns_displaced_address() {
        let mut c = Cache::new(cfg(64, 1));
        c.fill(0x20);
        // 64-byte direct-mapped, 2 sets of 32B: 0x20 is set 1; 0x60 also set 1.
        assert_eq!(c.fill(0x60), Some(0x20));
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = Cache::new(cfg(1024, 2));
        c.access(0);
        c.flush();
        assert!(!c.contains(0));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn invalid_geometry_panics() {
        assert!(CacheConfig { size_bytes: 1000, ways: 1, line_bytes: 32 }.validate().is_err());
        assert!(CacheConfig { size_bytes: 1024, ways: 0, line_bytes: 32 }.validate().is_err());
        assert!(CacheConfig { size_bytes: 1024, ways: 1, line_bytes: 24 }.validate().is_err());
        assert!(CacheConfig::vexriscv_default().validate().is_ok());
    }

    #[test]
    fn note_hits_match_repeated_access_exactly() {
        // Two caches driven identically, except one replaces repeated
        // same-line accesses with `note_hits`, as fetch charging does for
        // the rest of a stretch on the line its first fetch touched.
        // Contents, stats and every later eviction decision must agree.
        let mut a = Cache::new(cfg(64, 2)); // 1 set of 2 ways
        let mut b = Cache::new(cfg(64, 2));
        a.access(0);
        b.access(0);
        for _ in 0..3 {
            a.access(4); // same 32B line as 0 → guaranteed hits
        }
        b.note_hits(3);
        a.access(64);
        b.access(64);
        a.access(128); // evicts the LRU way — must pick the same victim
        b.access(128);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.clock(), b.clock());
        for addr in [0, 64, 128] {
            assert_eq!(a.contains(addr), b.contains(addr), "residency diverged at {addr:#x}");
        }
    }

    #[test]
    fn saved_sets_restore_to_the_same_future() {
        // Two 2-way caches reach the same per-set recency order through
        // different histories (and clock values); their saved words agree,
        // and a third cache restored from them evicts the same victims.
        let mut a = Cache::new(cfg(128, 2)); // 2 sets
        let mut b = Cache::new(cfg(128, 2));
        for addr in [0, 64, 0, 128, 0] {
            a.access(addr);
        }
        for addr in [32, 96, 128, 0] {
            b.access(addr);
        }
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        a.save_set(0, &mut wa);
        b.save_set(0, &mut wb);
        // Set 0 holds {0, 128} in both, but in different ways.
        assert_ne!(wa, wb);
        let mut c = Cache::new(cfg(128, 2));
        c.access(256);
        let clock = c.clock();
        c.restore_set(0, &wa);
        assert!(c.set_matches(0, &wa) && !c.set_matches(0, &wb));
        assert!(!c.set_touched_since(1, clock));
        for addr in [64, 0, 256, 128] {
            assert_eq!(a.access(addr), c.access(addr), "{addr:#x}");
        }
        assert!(c.set_touched_since(0, clock));
        let mut before = a.stats();
        before.hits -= 1;
        assert_eq!(a.stats().since(&before), CacheStats { hits: 1, misses: 0, evictions: 0 });
    }

    #[test]
    fn hit_rate_on_untouched_cache_is_one() {
        let c = Cache::new(CacheConfig::vexriscv_default());
        assert_eq!(c.stats().hit_rate(), 1.0);
    }

    #[test]
    fn larger_cache_has_better_hit_rate_on_strided_loop() {
        // The "Larger Icache" ladder step in miniature: loop over 8 KiB of
        // addresses; a 4 KiB cache thrashes, a 16 KiB cache holds it all.
        let mut small = Cache::new(cfg(4096, 1));
        let mut large = Cache::new(cfg(16384, 1));
        for _pass in 0..4 {
            for addr in (0..8192u32).step_by(32) {
                small.access(addr);
                large.access(addr);
            }
        }
        assert!(large.stats().hit_rate() > small.stats().hit_rate());
        // The large cache only cold-misses.
        assert_eq!(large.stats().misses, 8192 / 32);
    }
}
