//! Differential test of [`SetAssocCache`] against a deliberately naive
//! reference model.
//!
//! The reference keeps each set as a `Vec` of optional `(line, dirty,
//! sharers, stamp)` slots indexed by way, with textbook LRU (a
//! per-cache counter stamps every use; the victim is the allowed way
//! with the oldest stamp).
//! Random victims are drawn from the same seeded RNG the cache uses, by
//! collecting the allowed ways into a `Vec` and indexing it with
//! `gen_range(0..allowed.len())`. Seeded random streams of every
//! public operation drive both models; every return value, the counters,
//! the occupancy and the resident-line sequence must agree exactly.

use llc_sim::cache::{CacheStats, Evicted, Placed, SetAssocCache};
use llc_sim::replacement::ReplacementKind;
use trafficgen::Rng64;

/// One resident line of the reference model.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    dirty: bool,
    sharers: u8,
    stamp: u64,
}

/// The naive reference cache.
struct RefCache {
    sets: Vec<Vec<Option<Slot>>>,
    kind: ReplacementKind,
    clock: u64,
    rng: Rng64,
    stats: CacheStats,
}

impl RefCache {
    fn new(set_count: usize, ways: usize, kind: ReplacementKind, seed: u64) -> Self {
        Self {
            sets: vec![vec![None; ways]; set_count],
            kind,
            clock: 0,
            rng: Rng64::seed_from_u64(seed),
            stats: CacheStats::default(),
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<Option<Slot>> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn way_of(&mut self, line: u64) -> Option<usize> {
        self.set(line)
            .iter()
            .position(|s| s.is_some_and(|s| s.line == line))
    }

    fn touch(&mut self, line: u64, way: usize) {
        self.clock += 1;
        let stamp = self.clock;
        self.set(line)[way]
            .as_mut()
            .expect("touched way is valid")
            .stamp = stamp;
    }

    fn lookup_sharing(&mut self, line: u64, sharers: u8) -> Option<bool> {
        match self.way_of(line) {
            Some(w) => {
                self.stats.hits += 1;
                self.touch(line, w);
                let slot = self.set(line)[w].as_mut().expect("found");
                slot.sharers |= sharers;
                Some(slot.dirty)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn probe(&mut self, line: u64) -> bool {
        self.way_of(line).is_some()
    }

    fn sharers(&mut self, line: u64) -> Option<u8> {
        let w = self.way_of(line)?;
        self.set(line)[w].map(|s| s.sharers)
    }

    fn mark_dirty(&mut self, line: u64) -> bool {
        match self.way_of(line) {
            Some(w) => {
                self.set(line)[w].as_mut().expect("found").dirty = true;
                true
            }
            None => false,
        }
    }

    /// The fill rule of every insert variant: a resident line ORs in
    /// `sharers` when `merge`, else takes them alone.
    fn fill(&mut self, line: u64, dirty: bool, sharers: u8, mask: u64, merge: bool) -> Placed {
        if let Some(w) = self.way_of(line) {
            let slot = self.set(line)[w].as_mut().expect("found");
            let old = slot.sharers;
            slot.dirty |= dirty;
            slot.sharers = if merge { old | sharers } else { sharers };
            self.touch(line, w);
            return Placed {
                resident: Some(old),
                evicted: None,
            };
        }
        Placed {
            resident: None,
            evicted: self.allocate(line, dirty, sharers, mask),
        }
    }

    fn insert_masked(&mut self, line: u64, dirty: bool, mask: u64) -> Option<Evicted> {
        self.fill(line, dirty, 0, mask, true).evicted
    }

    fn allocate(&mut self, line: u64, dirty: bool, sharers: u8, mask: u64) -> Option<Evicted> {
        self.stats.fills += 1;
        let ways = self.set(line).len();
        let allowed: Vec<usize> = (0..ways).filter(|&w| mask >> w & 1 == 1).collect();
        let fresh = Slot {
            line,
            dirty,
            sharers,
            stamp: 0,
        };
        if let Some(&w) = allowed.iter().find(|&&w| self.set(line)[w].is_none()) {
            self.set(line)[w] = Some(fresh);
            self.touch(line, w);
            return None;
        }
        assert!(!allowed.is_empty(), "the streams only use usable masks");
        let w = match self.kind {
            ReplacementKind::Lru => *allowed
                .iter()
                .min_by_key(|&&w| self.set(line)[w].expect("full set").stamp)
                .expect("non-empty"),
            ReplacementKind::Random => allowed[self.rng.gen_range(0..allowed.len())],
        };
        let old = self.set(line)[w].replace(fresh).expect("full set");
        self.touch(line, w);
        self.stats.evictions += 1;
        Some(Evicted {
            line: old.line,
            dirty: old.dirty,
            sharers: old.sharers,
        })
    }

    fn take(&mut self, line: u64) -> Option<Evicted> {
        let w = self.way_of(line)?;
        self.set(line)[w].take().map(|s| Evicted {
            line: s.line,
            dirty: s.dirty,
            sharers: s.sharers,
        })
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().flatten().flatten().count()
    }

    fn resident_lines(&self) -> Vec<(u64, bool)> {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .map(|s| (s.line, s.dirty))
            .collect()
    }
}

/// The way masks the simulator uses, plus random ones: DDIO's top ways,
/// CAT's low ways, a single way, all ones, and an arbitrary subset.
fn draw_mask(rng: &mut Rng64, ways: usize) -> u64 {
    let all = if ways == 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    };
    let mask = match rng.gen_range(0u32..6) {
        0 => {
            let dd = 2.min(ways);
            all & !(all >> dd)
        }
        1 => all >> (ways / 2),
        2 => 1 << rng.gen_range(0..ways),
        3 => u64::MAX,
        4 => rng.next_u64() & all,
        _ => all,
    };
    if mask & all == 0 {
        all
    } else {
        mask
    }
}

/// Drives both models with `ops` random operations and compares them.
/// With `sharing`, the stream also draws the sharer-mask operations.
fn differential(
    set_count: usize,
    ways: usize,
    kind: ReplacementKind,
    seed: u64,
    ops: usize,
    sharing: bool,
) {
    let mut cache = SetAssocCache::new(set_count, ways, kind, seed);
    let mut reference = RefCache::new(set_count, ways, kind, seed);
    let mut rng = Rng64::seed_from_u64(seed ^ 0xd1ff);
    // Twice as many distinct lines per set as ways, so sets fill and evict.
    let span = (set_count * (2 * ways + 1)) as u64;
    let ctx = format!("{set_count} sets x {ways} ways, {kind:?}, seed {seed}");
    let kinds = if sharing { 15 } else { 10 };
    for op in 0..ops {
        let line = rng.gen_range(0..span);
        match rng.gen_range(0u32..kinds) {
            0..=2 => assert_eq!(
                cache.lookup(line),
                reference.lookup_sharing(line, 0),
                "lookup, {ctx}"
            ),
            3 => assert_eq!(cache.probe(line), reference.probe(line), "probe, {ctx}"),
            4 | 5 => {
                let dirty = rng.gen_range(0u32..2) == 1;
                assert_eq!(
                    cache.insert(line, dirty),
                    reference.insert_masked(line, dirty, u64::MAX),
                    "insert, {ctx}"
                );
            }
            6 | 7 => {
                let dirty = rng.gen_range(0u32..2) == 1;
                let mask = draw_mask(&mut rng, ways);
                assert_eq!(
                    cache.insert_masked(line, dirty, mask),
                    reference.insert_masked(line, dirty, mask),
                    "insert_masked {mask:#x}, {ctx}"
                );
            }
            8 => assert_eq!(
                cache.mark_dirty(line),
                reference.mark_dirty(line),
                "mark_dirty, {ctx}"
            ),
            9 => assert_eq!(
                cache.invalidate(line),
                reference.take(line).map(|ev| ev.dirty),
                "invalidate, {ctx}"
            ),
            10 => {
                let sharers = rng.next_u64() as u8;
                assert_eq!(
                    cache.lookup_sharing(line, sharers),
                    reference.lookup_sharing(line, sharers),
                    "lookup_sharing {sharers:#x}, {ctx}"
                );
            }
            11 => {
                let (dirty, sharers) = (rng.gen_range(0u32..2) == 1, rng.next_u64() as u8);
                let mask = draw_mask(&mut rng, ways);
                assert_eq!(
                    cache.insert_sharing(line, dirty, sharers, mask),
                    reference.fill(line, dirty, sharers, mask, true).evicted,
                    "insert_sharing {sharers:#x} {mask:#x}, {ctx}"
                );
            }
            12 => {
                let (dirty, sharers) = (rng.gen_range(0u32..2) == 1, rng.next_u64() as u8);
                let mask = draw_mask(&mut rng, ways);
                assert_eq!(
                    cache.place(line, dirty, sharers, mask),
                    reference.fill(line, dirty, sharers, mask, false),
                    "place {sharers:#x} {mask:#x}, {ctx}"
                );
            }
            13 => assert_eq!(cache.take(line), reference.take(line), "take, {ctx}"),
            _ => assert_eq!(
                cache.sharers(line),
                reference.sharers(line),
                "sharers, {ctx}"
            ),
        }
        assert_eq!(cache.stats(), reference.stats, "stats after op {op}, {ctx}");
        assert_eq!(cache.occupancy(), reference.occupancy(), "occupancy, {ctx}");
        if op % 8 == 0 || op + 1 == ops {
            let lines: Vec<(u64, bool)> = cache.resident_lines().collect();
            assert_eq!(lines, reference.resident_lines(), "resident lines, {ctx}");
        }
    }
}

#[test]
fn lru_matches_reference_for_1_to_20_ways() {
    for ways in 1..=20 {
        for (i, sets) in [1usize, 4, 16].into_iter().enumerate() {
            differential(
                sets,
                ways,
                ReplacementKind::Lru,
                (ways * 3 + i) as u64,
                4000,
                false,
            );
        }
    }
}

#[test]
fn random_matches_reference_for_1_to_20_ways() {
    for ways in 1..=20 {
        for (i, sets) in [1usize, 4, 16].into_iter().enumerate() {
            differential(
                sets,
                ways,
                ReplacementKind::Random,
                (ways * 3 + i) as u64,
                4000,
                false,
            );
        }
    }
}

#[test]
fn sixty_four_ways_match_reference() {
    for kind in [ReplacementKind::Lru, ReplacementKind::Random] {
        differential(2, 64, kind, 64, 3000, false);
    }
}

/// The sharer-mask operations (merging lookups and inserts, replacing
/// placements, takes and reads) interleaved with all of the above.
#[test]
fn sharer_ops_match_reference() {
    for kind in [ReplacementKind::Lru, ReplacementKind::Random] {
        for ways in [1usize, 2, 8, 20, 64] {
            for (i, sets) in [1usize, 16].into_iter().enumerate() {
                differential(sets, ways, kind, (ways * 7 + i) as u64, 3000, true);
            }
        }
    }
}
