//! Differential test of [`SetAssocCache`] against a deliberately naive
//! reference model.
//!
//! The reference keeps each set as a `Vec` of optional `(line, dirty,
//! stamp)` slots indexed by way, with textbook LRU (a per-cache counter
//! stamps every use; the victim is the allowed way with the oldest stamp).
//! Tree-PLRU and random victims are drawn from the same seeded RNG the
//! cache uses, by collecting the allowed ways into a `Vec` and indexing it
//! with `gen_range(0..allowed.len())`. Seeded random streams of every
//! public operation drive both models; every return value, the counters,
//! the occupancy and the resident-line sequence must agree exactly.

use llc_sim::cache::{CacheStats, Evicted, SetAssocCache};
use llc_sim::replacement::ReplacementKind;
use trafficgen::Rng64;

/// One resident line of the reference model.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    dirty: bool,
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

    fn lookup(&mut self, line: u64) -> Option<bool> {
        match self.way_of(line) {
            Some(w) => {
                self.stats.hits += 1;
                self.touch(line, w);
                self.set(line)[w].map(|s| s.dirty)
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

    fn mark_dirty(&mut self, line: u64) -> bool {
        match self.way_of(line) {
            Some(w) => {
                self.set(line)[w].as_mut().expect("found").dirty = true;
                true
            }
            None => false,
        }
    }

    fn insert_masked(&mut self, line: u64, dirty: bool, mask: u64) -> Option<Evicted> {
        if let Some(w) = self.way_of(line) {
            self.set(line)[w].as_mut().expect("found").dirty |= dirty;
            self.touch(line, w);
            return None;
        }
        self.stats.fills += 1;
        let ways = self.set(line).len();
        let allowed: Vec<usize> = (0..ways).filter(|&w| mask >> w & 1 == 1).collect();
        let fresh = Slot {
            line,
            dirty,
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
            ReplacementKind::TreePlru | ReplacementKind::Random => {
                allowed[self.rng.gen_range(0..allowed.len())]
            }
        };
        let old = self.set(line)[w].replace(fresh).expect("full set");
        self.touch(line, w);
        self.stats.evictions += 1;
        Some(Evicted {
            line: old.line,
            dirty: old.dirty,
        })
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let w = self.way_of(line)?;
        self.set(line)[w].take().map(|s| s.dirty)
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
fn differential(set_count: usize, ways: usize, kind: ReplacementKind, seed: u64, ops: usize) {
    let mut cache = SetAssocCache::new(set_count, ways, kind, seed);
    let mut reference = RefCache::new(set_count, ways, kind, seed);
    let mut rng = Rng64::seed_from_u64(seed ^ 0xd1ff);
    // Twice as many distinct lines per set as ways, so sets fill and evict.
    let span = (set_count * (2 * ways + 1)) as u64;
    let ctx = format!("{set_count} sets x {ways} ways, {kind:?}, seed {seed}");
    for op in 0..ops {
        let line = rng.gen_range(0..span);
        match rng.gen_range(0u32..10) {
            0..=2 => assert_eq!(cache.lookup(line), reference.lookup(line), "lookup, {ctx}"),
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
            _ => assert_eq!(
                cache.invalidate(line),
                reference.invalidate(line),
                "invalidate, {ctx}"
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
            );
        }
    }
}

#[test]
fn tree_plru_matches_reference_for_power_of_two_ways() {
    for ways in [1usize, 2, 4, 8, 16] {
        for (i, sets) in [1usize, 4, 16].into_iter().enumerate() {
            differential(
                sets,
                ways,
                ReplacementKind::TreePlru,
                (ways * 3 + i) as u64,
                4000,
            );
        }
    }
}

#[test]
fn sixty_four_ways_match_reference() {
    for kind in [
        ReplacementKind::Lru,
        ReplacementKind::TreePlru,
        ReplacementKind::Random,
    ] {
        differential(2, 64, kind, 64, 3000);
    }
}
