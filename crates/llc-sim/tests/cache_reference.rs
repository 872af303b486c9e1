//! Differential test of [`SetAssocCache`] against the deliberately naive
//! reference model in `common` ([`RefCache`]).
//!
//! Seeded random streams of every public operation drive both models;
//! every return value, the counters, the occupancy and the resident-line
//! sequence must agree exactly.

mod common;

use common::RefCache;
use llc_sim::cache::SetAssocCache;
use llc_sim::replacement::ReplacementKind;
use trafficgen::Rng64;

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
