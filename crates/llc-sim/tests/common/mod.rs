//! The deliberately naive cache model that the differential tests
//! compare `llc-sim` against: `cache_reference.rs` checks one
//! [`llc_sim::cache::SetAssocCache`] with it, and `machine_reference.rs`
//! builds a whole reference machine from it.
//!
//! The model keeps each set as a `Vec` of optional `(line, dirty,
//! sharers, stamp)` slots indexed by way, with textbook LRU (a
//! per-cache counter stamps every use; the victim is the allowed way
//! with the oldest stamp). Random victims are drawn from the same
//! seeded RNG the cache uses, by collecting the allowed ways into a
//! `Vec` and indexing it with `gen_range(0..allowed.len())`.

// Each test target that includes this module uses a different subset.
#![allow(dead_code)]

use llc_sim::cache::{CacheStats, Evicted, Placed};
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
pub struct RefCache {
    sets: Vec<Vec<Option<Slot>>>,
    kind: ReplacementKind,
    clock: u64,
    rng: Rng64,
    /// Counters, kept like the cache's own.
    pub stats: CacheStats,
}

impl RefCache {
    pub fn new(set_count: usize, ways: usize, kind: ReplacementKind, seed: u64) -> Self {
        Self {
            sets: vec![vec![None; ways]; set_count],
            kind,
            clock: 0,
            rng: Rng64::seed_from_u64(seed),
            stats: CacheStats::default(),
        }
    }

    fn set(&self, line: u64) -> &Vec<Option<Slot>> {
        &self.sets[(line % self.sets.len() as u64) as usize]
    }

    fn set_mut(&mut self, line: u64) -> &mut Vec<Option<Slot>> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn way_of(&self, line: u64) -> Option<usize> {
        self.set(line)
            .iter()
            .position(|s| s.is_some_and(|s| s.line == line))
    }

    fn touch(&mut self, line: u64, way: usize) {
        self.clock += 1;
        let stamp = self.clock;
        self.set_mut(line)[way]
            .as_mut()
            .expect("touched way is valid")
            .stamp = stamp;
    }

    pub fn lookup_sharing(&mut self, line: u64, sharers: u8) -> Option<bool> {
        match self.way_of(line) {
            Some(w) => {
                self.stats.hits += 1;
                self.touch(line, w);
                let slot = self.set_mut(line)[w].as_mut().expect("found");
                slot.sharers |= sharers;
                Some(slot.dirty)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    pub fn probe(&self, line: u64) -> bool {
        self.way_of(line).is_some()
    }

    pub fn sharers(&self, line: u64) -> Option<u8> {
        let w = self.way_of(line)?;
        self.set(line)[w].map(|s| s.sharers)
    }

    pub fn mark_dirty(&mut self, line: u64) -> bool {
        match self.way_of(line) {
            Some(w) => {
                self.set_mut(line)[w].as_mut().expect("found").dirty = true;
                true
            }
            None => false,
        }
    }

    /// The fill rule of every insert variant: a resident line ORs in
    /// `sharers` when `merge`, else takes them alone.
    pub fn fill(&mut self, line: u64, dirty: bool, sharers: u8, mask: u64, merge: bool) -> Placed {
        if let Some(w) = self.way_of(line) {
            let slot = self.set_mut(line)[w].as_mut().expect("found");
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

    pub fn insert_masked(&mut self, line: u64, dirty: bool, mask: u64) -> Option<Evicted> {
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
            self.set_mut(line)[w] = Some(fresh);
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
        let old = self.set_mut(line)[w].replace(fresh).expect("full set");
        self.touch(line, w);
        self.stats.evictions += 1;
        Some(Evicted {
            line: old.line,
            dirty: old.dirty,
            sharers: old.sharers,
        })
    }

    pub fn take(&mut self, line: u64) -> Option<Evicted> {
        let w = self.way_of(line)?;
        self.set_mut(line)[w].take().map(|s| Evicted {
            line: s.line,
            dirty: s.dirty,
            sharers: s.sharers,
        })
    }

    pub fn occupancy(&self) -> usize {
        self.sets.iter().flatten().flatten().count()
    }

    pub fn resident_lines(&self) -> Vec<(u64, bool)> {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .map(|s| (s.line, s.dirty))
            .collect()
    }
}
