//! A DIR-24-8-style longest-prefix-match routing table in simulated
//! memory.
//!
//! The §5.2 router carries "3120 entries"; Metron offloads the lookup to
//! the NIC via FlowDirector, but the software path must exist (and is the
//! baseline for the offload ablation). The classic DIR-24-8 layout keeps
//! one 16-bit next-hop slot per /24 — a single memory access per lookup —
//! which in simulated memory means each lookup genuinely walks the cache
//! hierarchy: a 32 MB table gives the DRAM-heavy behaviour a real router
//! exhibits.

use llc_sim::addr::PhysAddr;
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;
use llc_sim::mem::{MemError, Region};

/// Sentinel for "no route".
pub const NO_ROUTE: u16 = u16::MAX;

/// A routing-table entry: IPv4 prefix, prefix length, next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Network address (host byte order).
    pub prefix: u32,
    /// Prefix length, `1..=24` (DIR-24-8 first level; the evaluation's
    /// tables use core-network prefixes well below /24).
    pub len: u8,
    /// Next-hop identifier.
    pub next_hop: u16,
}

/// The DIR-24-8 first-level table (2^24 × u16 = 32 MB of simulated DRAM).
#[derive(Debug)]
pub struct Lpm {
    tbl24: Region,
    routes: usize,
}

impl Lpm {
    /// Builds the table from `routes`, longest prefixes winning.
    ///
    /// Construction is control-plane work: untimed, straight into
    /// simulated memory.
    ///
    /// # Panics
    ///
    /// Panics on a prefix length outside `1..=24`.
    pub fn build(m: &mut Machine, routes: &[RouteEntry]) -> Result<Self, MemError> {
        let tbl24 = m.mem_mut().alloc(1 << 25, 64)?;
        // Default: no route.
        {
            let bytes = m.mem_mut().slice_mut(tbl24.base(), 1 << 25);
            for chunk in bytes.chunks_exact_mut(2) {
                chunk.copy_from_slice(&NO_ROUTE.to_le_bytes());
            }
        }
        // Shorter prefixes first so longer ones overwrite them.
        let mut sorted: Vec<&RouteEntry> = routes.iter().collect();
        sorted.sort_by_key(|r| r.len);
        for r in &sorted {
            assert!((1..=24).contains(&r.len), "prefix length out of range");
            let span = 1usize << (24 - r.len);
            let start = (r.prefix >> 8) as usize & !(span - 1);
            for i in 0..span {
                let off = (start + i) * 2;
                m.mem_mut()
                    .write(tbl24.base().add(off as u64), &r.next_hop.to_le_bytes());
            }
        }
        Ok(Self {
            tbl24,
            routes: routes.len(),
        })
    }

    /// Number of routes installed.
    pub fn routes(&self) -> usize {
        self.routes
    }

    /// Physical address of the slot covering `dst`.
    fn slot_pa(&self, dst: u32) -> PhysAddr {
        self.tbl24.base().add(u64::from(dst >> 8) * 2)
    }

    /// Timed data-path lookup: one memory access plus index arithmetic.
    pub fn lookup(&self, m: &mut Machine, core: usize, dst: u32) -> (Option<u16>, Cycles) {
        let mut b = [0u8; 2];
        let mut cycles = m.read_bytes(core, self.slot_pa(dst), &mut b);
        m.advance(core, LOOKUP_WORK);
        cycles += LOOKUP_WORK;
        let hop = u16::from_le_bytes(b);
        ((hop != NO_ROUTE).then_some(hop), cycles)
    }

    /// Untimed control-plane lookup (used when the routing decision is
    /// offloaded to the NIC as a FlowDirector mark).
    pub fn lookup_untimed(&self, m: &Machine, dst: u32) -> Option<u16> {
        let mut b = [0u8; 2];
        m.mem().read(self.slot_pa(dst), &mut b);
        let hop = u16::from_le_bytes(b);
        (hop != NO_ROUTE).then_some(hop)
    }
}

/// Index arithmetic charged per lookup.
pub const LOOKUP_WORK: Cycles = 10;

/// Generates a deterministic routing table like the evaluation's
/// (3120 entries by default in the benches).
///
/// The first two entries are /1 catch-alls (a real core router has a
/// default route), so every destination resolves; the rest are random
/// /8../24 prefixes that override the default for parts of the space.
pub fn synth_routes(count: usize, seed: u64) -> Vec<RouteEntry> {
    use trafficgen::Rng64;
    let mut rng = Rng64::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    out.push(RouteEntry {
        prefix: 0,
        len: 1,
        next_hop: 0,
    });
    if count > 1 {
        out.push(RouteEntry {
            prefix: 0x8000_0000,
            len: 1,
            next_hop: 1,
        });
    }
    while out.len() < count {
        let len = rng.gen_range(8u32..=24) as u8;
        let prefix: u32 = rng.next_u32() & (u32::MAX << (32 - u32::from(len)));
        out.push(RouteEntry {
            prefix,
            len,
            next_hop: (out.len() % 256) as u16,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20))
    }

    #[test]
    fn exact_slash24_match() {
        let mut m = machine();
        let lpm = Lpm::build(
            &mut m,
            &[RouteEntry {
                prefix: 0x0a000100,
                len: 24,
                next_hop: 7,
            }],
        )
        .unwrap();
        assert_eq!(lpm.lookup(&mut m, 0, 0x0a000101).0, Some(7));
        assert_eq!(lpm.lookup(&mut m, 0, 0x0a000201).0, None);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut m = machine();
        let lpm = Lpm::build(
            &mut m,
            &[
                RouteEntry {
                    prefix: 0x0a000000,
                    len: 8,
                    next_hop: 1,
                },
                RouteEntry {
                    prefix: 0x0a010000,
                    len: 16,
                    next_hop: 2,
                },
                RouteEntry {
                    prefix: 0x0a010200,
                    len: 24,
                    next_hop: 3,
                },
            ],
        )
        .unwrap();
        assert_eq!(lpm.lookup(&mut m, 0, 0x0a050505).0, Some(1));
        assert_eq!(lpm.lookup(&mut m, 0, 0x0a01ff01).0, Some(2));
        assert_eq!(lpm.lookup(&mut m, 0, 0x0a010203).0, Some(3));
        assert_eq!(lpm.lookup(&mut m, 0, 0x0b000000).0, None);
    }

    #[test]
    fn lookup_is_one_memory_access() {
        let mut m = machine();
        let lpm = Lpm::build(&mut m, &synth_routes(100, 1)).unwrap();
        let (_, cold) = lpm.lookup(&mut m, 0, 0x0a0b0c0d);
        assert_eq!(cold, 192 + LOOKUP_WORK, "cold slot comes from DRAM");
        let (_, hot) = lpm.lookup(&mut m, 0, 0x0a0b0c0d);
        assert_eq!(hot, 4 + LOOKUP_WORK, "hot slot hits L1");
    }

    #[test]
    fn untimed_agrees_with_timed() {
        let mut m = machine();
        let lpm = Lpm::build(&mut m, &synth_routes(500, 2)).unwrap();
        for dst in [0u32, 0x0a000001, 0xffff_ffff, 0x7f000001] {
            let untimed = lpm.lookup_untimed(&m, dst);
            let (timed, _) = lpm.lookup(&mut m, 0, dst);
            assert_eq!(untimed, timed);
        }
    }

    #[test]
    fn synth_routes_are_deterministic_and_valid() {
        let a = synth_routes(3120, 42);
        let b = synth_routes(3120, 42);
        assert_eq!(a.len(), 3120);
        assert_eq!(a[0], b[0]);
        assert!(a.iter().all(|r| (1..=24).contains(&r.len)));
        assert!(a
            .iter()
            .all(|r| r.prefix & !(u32::MAX << (32 - r.len)) == 0));
    }

    #[test]
    #[should_panic(expected = "prefix length out of range")]
    fn rejects_bad_prefix_len() {
        let mut m = machine();
        let _ = Lpm::build(
            &mut m,
            &[RouteEntry {
                prefix: 0,
                len: 25,
                next_hop: 0,
            }],
        );
    }
}
