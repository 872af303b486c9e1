//! Cache replacement policies.
//!
//! The paper notes that CPUs use "different variations of LRU" (§2) and our
//! DESIGN.md calls out replacement as an ablation axis, so the policy is
//! pluggable per cache: true LRU (default, matches the set-filling
//! methodology of §2.2) and seeded random (worst-case baseline).
//!
//! A policy is a [`ReplacementKind`] plus pure functions over one set's
//! state words, which live inside the cache's flat array (see
//! [`crate::cache`]): LRU keeps `ways` last-use stamps followed by the
//! set's clock; random keeps no per-set state.

use trafficgen::Rng64;

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// True least-recently-used.
    Lru,
    /// Uniform random victim (seeded, deterministic).
    Random,
}

impl ReplacementKind {
    /// Number of state words one set of `ways` lines needs.
    pub(crate) fn state_words(self, ways: usize) -> usize {
        match self {
            ReplacementKind::Lru => ways + 1,
            ReplacementKind::Random => 0,
        }
    }

    /// Records a use of `way` (hit or fill) in one set's `state`.
    #[inline]
    pub(crate) fn touch(self, state: &mut [u64], way: usize) {
        if self == ReplacementKind::Lru {
            let (stamps, clock) = state.split_at_mut(state.len() - 1);
            clock[0] += 1;
            stamps[way] = clock[0];
        }
    }

    /// Chooses the victim among the ways allowed by `mask` (bit `i` set ⇒
    /// way `i` allowed, every allowed way valid). Used for CAT way
    /// partitioning and DDIO's limited I/O ways (paper §7, §8).
    ///
    /// LRU takes the smallest stamp, ties to the lowest way. Random draws
    /// `k` from `0..popcount(mask)` and takes the `k`-th allowed way in
    /// ascending order; `rng` is used only by it.
    ///
    /// # Panics
    ///
    /// Panics when `mask` allows no way.
    #[inline]
    pub(crate) fn victim_masked(self, state: &[u64], rng: &mut Rng64, mask: u64) -> usize {
        assert!(mask != 0, "way mask allows no victim");
        match self {
            ReplacementKind::Lru => {
                let mut rest = mask;
                let mut best = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                while rest != 0 {
                    let w = rest.trailing_zeros() as usize;
                    if state[w] < state[best] {
                        best = w;
                    }
                    rest &= rest - 1;
                }
                best
            }
            ReplacementKind::Random => {
                let mut rest = mask;
                for _ in 0..rng.gen_range(0..mask.count_ones() as usize) {
                    rest &= rest - 1;
                }
                rest.trailing_zeros() as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ReplacementKind::{Lru, Random};

    fn rng() -> Rng64 {
        Rng64::seed_from_u64(7)
    }

    fn fresh(kind: ReplacementKind, ways: usize) -> Vec<u64> {
        vec![0; kind.state_words(ways)]
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = fresh(Lru, 4);
        for w in 0..4 {
            Lru.touch(&mut s, w);
        }
        Lru.touch(&mut s, 0);
        Lru.touch(&mut s, 2);
        assert_eq!(Lru.victim_masked(&s, &mut rng(), 0b1111), 1);
    }

    #[test]
    fn lru_untouched_way_is_first_victim() {
        let mut s = fresh(Lru, 4);
        for w in 1..4 {
            Lru.touch(&mut s, w);
        }
        assert_eq!(Lru.victim_masked(&s, &mut rng(), 0b1111), 0);
    }

    #[test]
    fn lru_masked_respects_mask() {
        let mut s = fresh(Lru, 4);
        for w in 0..4 {
            Lru.touch(&mut s, w);
        }
        // Way 0 is the true LRU but the mask excludes it.
        assert_eq!(Lru.victim_masked(&s, &mut rng(), 0b1110), 1);
        assert_eq!(Lru.victim_masked(&s, &mut rng(), 0b1000), 3);
    }

    #[test]
    #[should_panic(expected = "allows no victim")]
    fn masked_rejects_empty_mask() {
        let s = fresh(Lru, 4);
        Lru.victim_masked(&s, &mut rng(), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let draw = || {
            let mut r = Rng64::seed_from_u64(42);
            (0..8)
                .map(|_| Random.victim_masked(&[], &mut r, u64::MAX))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn random_picks_only_allowed_ways() {
        let mut r = rng();
        let mask = 0b1010_0100u64;
        let mut seen = 0u64;
        for _ in 0..200 {
            let w = Random.victim_masked(&[], &mut r, mask);
            assert!(mask & (1 << w) != 0, "way {w} outside the mask");
            seen |= 1 << w;
        }
        assert_eq!(seen, mask, "every allowed way is eventually drawn");
    }
}
