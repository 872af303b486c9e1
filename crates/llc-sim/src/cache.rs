//! A single set-associative, write-back cache array.
//!
//! Both the private L1/L2 caches and every LLC slice are instances of
//! [`SetAssocCache`]; the hierarchy logic in [`crate::hierarchy`] wires
//! them together. A cache stores *line numbers* (physical address >> 6)
//! only — data bytes live in [`crate::mem::PhysMem`], which is sound for a
//! behavioural model because a hit/miss decision never depends on data.
//!
//! # Layout
//!
//! The whole cache is one flat `Vec<u64>` of `set_count` equal blocks,
//! one per set, so an access touches one contiguous run of words and
//! never follows a pointer:
//!
//! ```text
//! | tag[0] .. tag[ways-1] | replacement state | valid |
//! ```
//!
//! * A tag packs `line << 9 | sharers << 1 | dirty`. `sharers` is an
//!   8-bit core-valid mask that only the machine's inclusive LLC gives a
//!   meaning to (see [`crate::hierarchy`]); private caches leave it 0.
//!   An empty way holds [`EMPTY`] (`u64::MAX`), which no packed tag can
//!   equal because `line < 2^54` ([`SetAssocCache::insert_masked`]
//!   asserts it; a physical address shifted right by 6 is far below). A
//!   lookup therefore compares tags without consulting the valid mask.
//! * The replacement state is whatever the policy keeps per set (see
//!   [`crate::replacement`]): `ways` LRU stamps followed by the set's
//!   clock, or nothing.
//! * `valid` has bit `w` set exactly when way `w` holds a line. Way masks
//!   (CAT, DDIO) use the same bit numbering, so the first free way a mask
//!   allows is `(!valid & mask & all_ways).trailing_zeros()`. Masks are
//!   `u64`, so a cache has at most 64 ways.

use crate::replacement::ReplacementKind;
use trafficgen::Rng64;

/// Tag word of an empty way. Never a packed tag, since `line < 2^54`.
const EMPTY: u64 = u64::MAX;

/// Where the line number starts in a packed tag.
const LINE_SHIFT: u32 = 9;

/// The sharer-mask field of a packed tag (bits 1..=8).
const SHARER_FIELD: u64 = 0xff << 1;

/// How many cores a sharer mask can name.
pub(crate) const MAX_SHARERS: usize = 8;

/// Packs a tag.
#[inline]
fn pack(line: u64, sharers: u8, dirty: bool) -> u64 {
    line << LINE_SHIFT | u64::from(sharers) << 1 | u64::from(dirty)
}

/// Unpacks a tag that holds a line.
#[inline]
fn unpack(tag: u64) -> Evicted {
    Evicted {
        line: tag >> LINE_SHIFT,
        dirty: tag & 1 == 1,
        sharers: (tag >> 1) as u8,
    }
}

/// The largest associativity a `u64` way mask can address.
pub(crate) const MAX_WAYS: usize = 64;

/// The mask selecting ways `0..n` (all ways of an `n`-way cache).
///
/// # Panics
///
/// Panics when `n > 64`.
pub(crate) fn low_ways(n: usize) -> u64 {
    assert!(n <= MAX_WAYS, "a way mask addresses at most 64 ways");
    if n == 0 {
        0
    } else {
        u64::MAX >> (MAX_WAYS - n)
    }
}

/// A line evicted to make room, reported to the caller for write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line number (physical address >> 6).
    pub line: u64,
    /// Whether the line held modified data that must be written downstream.
    pub dirty: bool,
    /// The line's sharer mask (0 unless the owner sets one).
    pub sharers: u8,
}

/// What [`SetAssocCache::place`] found and displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    /// The sharer mask the line had when it was already resident.
    pub resident: Option<u8>,
    /// The line evicted to make room when it was not.
    pub evicted: Option<Evicted>,
}

/// Hit/miss/fill statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Lines inserted.
    pub fills: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

/// One set's block of the flat array, split into its three parts.
struct Set<'a> {
    tags: &'a mut [u64],
    state: &'a mut [u64],
    valid: &'a mut u64,
}

impl<'a> Set<'a> {
    #[inline]
    fn split(block: &'a mut [u64], ways: usize) -> Self {
        let (tags, rest) = block.split_at_mut(ways);
        let (valid, state) = rest
            .split_last_mut()
            .expect("a block ends in its valid mask");
        Set { tags, state, valid }
    }
}

/// The way holding `line`, if any.
#[inline]
fn find(tags: &[u64], line: u64) -> Option<usize> {
    tags.iter().position(|&t| t >> LINE_SHIFT == line)
}

/// A set-associative cache of line numbers with write-back semantics.
#[derive(Debug)]
pub struct SetAssocCache {
    /// `set_count` blocks of `stride` words each; see the module docs.
    words: Vec<u64>,
    kind: ReplacementKind,
    ways: usize,
    stride: usize,
    all_ways: u64,
    set_count: usize,
    set_mask: u64,
    rng: Rng64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache of `set_count` sets × `ways` ways.
    ///
    /// `set_count` must be a power of two (the set index is a bit-field of
    /// the line number, as in Table 1 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `set_count` is not a power of two, either dimension is 0,
    /// or `ways` exceeds [`MAX_WAYS`].
    pub fn new(set_count: usize, ways: usize, kind: ReplacementKind, seed: u64) -> Self {
        assert!(set_count.is_power_of_two(), "set count must be 2^k");
        assert!(ways > 0, "need at least one way");
        assert!(
            ways <= MAX_WAYS,
            "{ways} ways: way masks are u64, so a cache has at most 64 ways"
        );
        let stride = ways + kind.state_words(ways) + 1;
        let mut words = vec![0; set_count * stride];
        for block in words.chunks_exact_mut(stride) {
            block[..ways].fill(EMPTY);
        }
        Self {
            words,
            kind,
            ways,
            stride,
            all_ways: low_ways(ways),
            set_count,
            set_mask: (set_count - 1) as u64,
            rng: Rng64::seed_from_u64(seed),
            stats: CacheStats::default(),
        }
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.set_count * self.ways * crate::addr::CACHE_LINE
    }

    /// The set index a line maps to.
    pub fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The tags of the set `line` maps to.
    #[inline]
    fn tags(&self, line: u64) -> &[u64] {
        let base = self.set_of(line) * self.stride;
        &self.words[base..base + self.ways]
    }

    /// The block of the set `line` maps to, split into its parts.
    #[inline]
    fn set_mut(&mut self, line: u64) -> Set<'_> {
        let base = self.set_of(line) * self.stride;
        Set::split(&mut self.words[base..base + self.stride], self.ways)
    }

    /// Looks up `line`; on a hit updates recency and returns whether the
    /// line was dirty.
    #[inline]
    pub fn lookup(&mut self, line: u64) -> Option<bool> {
        self.lookup_sharing(line, 0)
    }

    /// [`SetAssocCache::lookup`] that also ORs `sharers` into a hit
    /// line's sharer mask, in the same scan.
    #[inline]
    pub fn lookup_sharing(&mut self, line: u64, sharers: u8) -> Option<bool> {
        let kind = self.kind;
        let set = self.set_mut(line);
        let hit = find(set.tags, line).map(|w| {
            kind.touch(set.state, w);
            set.tags[w] |= u64::from(sharers) << 1;
            set.tags[w] & 1 == 1
        });
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// True when `line` is resident; does **not** touch recency or stats
    /// (an observation, not a simulated access).
    pub fn probe(&self, line: u64) -> bool {
        find(self.tags(line), line).is_some()
    }

    /// The sharer mask of `line` when resident; an observation like
    /// [`SetAssocCache::probe`].
    pub fn sharers(&self, line: u64) -> Option<u8> {
        let tags = self.tags(line);
        find(tags, line).map(|w| unpack(tags[w]).sharers)
    }

    /// Marks a resident line dirty; returns false when not resident.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let set = self.set_mut(line);
        match find(set.tags, line) {
            Some(w) => {
                set.tags[w] |= 1;
                true
            }
            None => false,
        }
    }

    /// Inserts `line`, evicting if the set is full. Equivalent to
    /// [`SetAssocCache::insert_masked`] with an all-ways mask.
    #[inline]
    pub fn insert(&mut self, line: u64, dirty: bool) -> Option<Evicted> {
        self.insert_masked(line, dirty, u64::MAX)
    }

    /// Inserts `line` with the victim restricted to the ways in `mask`.
    ///
    /// Way masking models both Intel CAT (classes of service get disjoint
    /// way masks, §7) and DDIO's limited I/O ways (§8). Rules, matching the
    /// hardware:
    ///
    /// * If the line is already resident (in **any** way), it is updated in
    ///   place — masks restrict allocation, not hits.
    /// * Otherwise the lowest free way *within the mask* is used, else the
    ///   replacement policy picks a victim within the mask.
    ///
    /// Returns the evicted line, if any.
    ///
    /// # Panics
    ///
    /// Panics when `mask` selects no existing way, or when `line` is not a
    /// line number a packed tag can hold (`line >= 2^54`).
    #[inline]
    pub fn insert_masked(&mut self, line: u64, dirty: bool, mask: u64) -> Option<Evicted> {
        self.insert_sharing(line, dirty, 0, mask)
    }

    /// [`SetAssocCache::insert_masked`] that ORs `sharers` into the line's
    /// sharer mask, whether it was resident or is new.
    #[inline]
    pub fn insert_sharing(
        &mut self,
        line: u64,
        dirty: bool,
        sharers: u8,
        mask: u64,
    ) -> Option<Evicted> {
        self.fill::<true>(line, dirty, sharers, mask).evicted
    }

    /// [`SetAssocCache::insert_masked`] that *replaces* the line's sharer
    /// mask with `sharers` and reports the old one: a probe, an insert and
    /// a sharer read in one scan of the set, as a DMA write needs.
    #[inline]
    pub fn place(&mut self, line: u64, dirty: bool, sharers: u8, mask: u64) -> Placed {
        self.fill::<false>(line, dirty, sharers, mask)
    }

    /// The fill rule shared by the insert variants. A resident line keeps
    /// its old sharers ORed with `sharers` when `MERGE`, else takes
    /// `sharers` alone.
    #[inline(always)]
    fn fill<const MERGE: bool>(
        &mut self,
        line: u64,
        dirty: bool,
        sharers: u8,
        mask: u64,
    ) -> Placed {
        assert!(line < 1 << 54, "{line:#x} is not a line number");
        let (kind, allowed) = (self.kind, mask & self.all_ways);
        let base = self.set_of(line) * self.stride;
        let set = Set::split(&mut self.words[base..base + self.stride], self.ways);
        let tag = pack(line, sharers, dirty);
        // Already resident: update dirtiness, sharers and recency.
        if let Some(w) = find(set.tags, line) {
            let old = set.tags[w];
            set.tags[w] = if MERGE {
                old | tag
            } else {
                old & !SHARER_FIELD | tag
            };
            kind.touch(set.state, w);
            return Placed {
                resident: Some(unpack(old).sharers),
                evicted: None,
            };
        }
        self.stats.fills += 1;
        let free = !*set.valid & allowed;
        let evicted = if free != 0 {
            let w = free.trailing_zeros() as usize;
            set.tags[w] = tag;
            *set.valid |= 1 << w;
            kind.touch(set.state, w);
            None
        } else {
            // Every allowed way is valid here, so the victim holds a line.
            let w = kind.victim_masked(set.state, &mut self.rng, allowed);
            let old = std::mem::replace(&mut set.tags[w], tag);
            kind.touch(set.state, w);
            self.stats.evictions += 1;
            Some(unpack(old))
        };
        Placed {
            resident: None,
            evicted,
        }
    }

    /// Removes `line` if resident, returning whether it was dirty.
    #[inline]
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        self.take(line).map(|ev| ev.dirty)
    }

    /// Removes `line` if resident, returning everything its tag held.
    #[inline]
    pub fn take(&mut self, line: u64) -> Option<Evicted> {
        let w = find(self.tags(line), line)?;
        let set = self.set_mut(line);
        let old = std::mem::replace(&mut set.tags[w], EMPTY);
        *set.valid &= !(1 << w);
        Some(unpack(old))
    }

    /// Number of currently valid lines (test/inspection helper).
    pub fn occupancy(&self) -> usize {
        self.words
            .chunks_exact(self.stride)
            .map(|block| block[self.stride - 1].count_ones() as usize)
            .sum()
    }

    /// Iterates over all resident `(line, dirty)` pairs, set by set and way
    /// by way (inspection only).
    pub fn resident_lines(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.words.chunks_exact(self.stride).flat_map(|block| {
            block[..self.ways]
                .iter()
                .filter(|&&t| t != EMPTY)
                .map(|&t| (t >> LINE_SHIFT, t & 1 == 1))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize) -> SetAssocCache {
        SetAssocCache::new(sets, ways, ReplacementKind::Lru, 1)
    }

    #[test]
    fn geometry() {
        let c = cache(64, 8);
        assert_eq!(c.capacity_bytes(), 32 * 1024);
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(63), 63);
        assert_eq!(c.set_of(64), 0);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(4, 2);
        assert!(c.lookup(10).is_none());
        assert!(c.insert(10, false).is_none());
        assert_eq!(c.lookup(10), Some(false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn fills_use_free_ways_before_evicting() {
        let mut c = cache(1, 4);
        for line in 0..4 {
            assert!(c.insert(line, false).is_none());
        }
        assert_eq!(c.occupancy(), 4);
        let ev = c.insert(4, false).expect("set full, must evict");
        assert_eq!(ev.line, 0, "LRU victim is the oldest line");
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = cache(1, 2);
        c.insert(0, true);
        c.insert(1, false);
        let ev = c.insert(2, false).unwrap();
        assert!(ev.dirty && ev.line == 0);
    }

    #[test]
    fn reinsert_merges_dirty_without_evicting() {
        let mut c = cache(1, 1);
        c.insert(5, false);
        assert!(c.insert(5, true).is_none(), "same line: update in place");
        let ev = c.insert(6, false).unwrap();
        assert!(ev.dirty, "dirtiness must have been merged");
    }

    #[test]
    fn mark_dirty_and_invalidate() {
        let mut c = cache(2, 2);
        c.insert(7, false);
        assert!(c.mark_dirty(7));
        assert!(!c.mark_dirty(9));
        assert_eq!(c.invalidate(7), Some(true));
        assert_eq!(c.invalidate(7), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut c = cache(1, 2);
        c.insert(0, false);
        c.insert(1, false);
        let before = c.stats();
        // Probing line 0 must not make it recently used.
        assert!(c.probe(0));
        assert_eq!(c.stats(), before);
        let ev = c.insert(2, false).unwrap();
        assert_eq!(ev.line, 0, "probe must not have refreshed line 0");
    }

    #[test]
    fn lookup_refreshes_recency() {
        let mut c = cache(1, 2);
        c.insert(0, false);
        c.insert(1, false);
        c.lookup(0);
        let ev = c.insert(2, false).unwrap();
        assert_eq!(ev.line, 1);
    }

    #[test]
    fn masked_insert_respects_way_mask() {
        let mut c = cache(1, 4);
        for line in 0..4 {
            c.insert(line, false);
        }
        // Only ways 2 and 3 allowed: victim must be line 2 (LRU among them).
        let ev = c.insert_masked(10, false, 0b1100).unwrap();
        assert_eq!(ev.line, 2);
        assert!(c.probe(0) && c.probe(1), "masked ways untouched");
    }

    #[test]
    fn masked_insert_hits_outside_mask() {
        let mut c = cache(1, 4);
        c.insert(0, false); // Lands in way 0.
                            // Re-inserting line 0 with a mask excluding way 0 must still update
                            // in place (hit path ignores the mask, like hardware).
        assert!(c.insert_masked(0, true, 0b1000).is_none());
        let mut found_dirty = false;
        for (l, d) in c.resident_lines() {
            if l == 0 {
                found_dirty = d;
            }
        }
        assert!(found_dirty);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn set_isolation() {
        let mut c = cache(2, 1);
        c.insert(0, false); // Set 0.
        c.insert(1, false); // Set 1.
        assert_eq!(c.occupancy(), 2);
        assert!(c.insert(2, false).is_some(), "set 0 conflict evicts");
        assert!(c.probe(1), "set 1 untouched");
    }

    #[test]
    fn stats_count_fills_and_evictions() {
        let mut c = cache(1, 2);
        c.insert(0, false);
        c.insert(1, false);
        c.insert(2, false);
        let s = c.stats();
        assert_eq!(s.fills, 3);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn rejects_non_pow2_sets() {
        cache(3, 2);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn rejects_more_ways_than_a_mask_addresses() {
        cache(1, 65);
    }

    #[test]
    fn sixty_four_ways_fill_every_way_before_evicting() {
        let mut c = cache(1, 64);
        for line in 0..64 {
            assert!(c.insert(line, false).is_none());
        }
        assert_eq!(c.occupancy(), 64);
        assert_eq!(c.insert(64, false).map(|e| e.line), Some(0));
        // The top way is addressable by a mask.
        assert_eq!(
            c.insert_masked(65, false, 1 << 63).map(|e| e.line),
            Some(63)
        );
    }

    #[test]
    #[should_panic(expected = "not a line number")]
    fn rejects_lines_a_tag_cannot_pack() {
        cache(1, 2).insert(1 << 58, false);
    }

    #[test]
    #[should_panic(expected = "not a line number")]
    fn rejects_lines_that_overlap_the_sharer_field() {
        cache(1, 2).insert(1 << 54, false);
    }

    #[test]
    fn sharers_merge_on_insert_and_are_replaced_by_place() {
        let mut c = cache(1, 2);
        c.insert_sharing(3, false, 0b01, u64::MAX);
        c.lookup_sharing(3, 0b10);
        assert_eq!(c.sharers(3), Some(0b11));
        let placed = c.place(3, true, 0, u64::MAX);
        assert_eq!(placed.resident, Some(0b11));
        assert_eq!(c.sharers(3), Some(0));
        c.insert_sharing(4, false, 0b100, u64::MAX);
        let placed = c.place(5, false, 0, u64::MAX);
        assert_eq!(placed.resident, None);
        let ev = placed.evicted.expect("set full");
        assert_eq!((ev.line, ev.dirty, ev.sharers), (3, true, 0));
        assert_eq!(c.take(4).map(|ev| ev.sharers), Some(0b100));
    }

    #[test]
    fn low_ways_covers_zero_to_sixty_four() {
        assert_eq!(low_ways(0), 0);
        assert_eq!(low_ways(20), 0xf_ffff);
        assert_eq!(low_ways(64), u64::MAX);
    }
}
