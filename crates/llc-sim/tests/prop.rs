//! Property-style tests for the simulator's core structures.
//!
//! Formerly proptest-based; now seeded loops over the in-tree
//! [`trafficgen::Rng64`] so the suite runs fully offline with the same
//! coverage (every case is a deterministic function of the loop seed).

use llc_sim::addr::{split_lines, PhysAddr};
use llc_sim::cache::SetAssocCache;
use llc_sim::hash::{FoldedSliceHash, SliceHash, XorSliceHash};
use llc_sim::machine::{CacheGeometry, Machine, MachineConfig};
use llc_sim::prefetch::PrefetchConfig;
use llc_sim::replacement::ReplacementKind;
use llc_sim::topology::{Interconnect, Mesh, RingBus};
use trafficgen::Rng64;

/// The XOR hash is constant within a cache line and uses only bits 6..=38.
#[test]
fn hash_line_granularity() {
    let h = XorSliceHash::haswell_8slice();
    let mut rng = Rng64::seed_from_u64(0x11ac);
    for _ in 0..256 {
        let base = rng.gen_range(0u64..(1 << 38));
        let off = rng.gen_range(0u64..64);
        let line_start = base & !63;
        assert_eq!(
            h.slice_of(PhysAddr(line_start)),
            h.slice_of(PhysAddr(line_start + off))
        );
        assert!(h.slice_of(PhysAddr(base)) < 8);
    }
}

/// The hash is GF(2)-linear: slice(a ^ b) ^ slice(0) = s(a) ^ s(b).
#[test]
fn hash_is_linear() {
    let h = XorSliceHash::haswell_8slice();
    let mut rng = Rng64::seed_from_u64(0x11ad);
    for _ in 0..256 {
        let a = rng.gen_range(0u64..(1 << 32));
        let b = rng.gen_range(0u64..(1 << 32));
        let sa = h.slice_of(PhysAddr(a));
        let sb = h.slice_of(PhysAddr(b));
        let sx = h.slice_of(PhysAddr(a ^ b));
        let s0 = h.slice_of(PhysAddr(0));
        assert_eq!(sx ^ s0, sa ^ sb);
    }
}

/// The folded (Skylake) hash stays in range and is line-stable.
#[test]
fn folded_hash_in_range() {
    let mut rng = Rng64::seed_from_u64(0x11ae);
    for _ in 0..256 {
        let base = rng.gen_range(0u64..(1 << 40));
        let slices = rng.gen_range(1usize..64);
        let h = FoldedSliceHash::new(slices);
        let s = h.slice_of(PhysAddr(base));
        assert!(s < slices);
        assert_eq!(s, h.slice_of(PhysAddr((base & !63) + 63)));
    }
}

/// `split_lines` tiles a byte range exactly: pieces are contiguous,
/// line-aligned, and sum to the requested length.
#[test]
fn split_lines_tiles_exactly() {
    let mut rng = Rng64::seed_from_u64(0x11af);
    for _ in 0..256 {
        let addr = rng.gen_range(0u64..100_000);
        let len = rng.gen_range(0usize..5_000);
        let pieces: Vec<_> = split_lines(PhysAddr(addr), len).collect();
        let total: usize = pieces.iter().map(|p| p.2).sum();
        assert_eq!(total, len);
        let mut cursor = addr;
        for (base, off, n) in pieces {
            assert!(base.is_line_aligned());
            assert_eq!(base.raw() + off as u64, cursor);
            assert!(off + n <= 64);
            cursor += n as u64;
        }
    }
}

/// A set-associative cache never exceeds its capacity, never loses a
/// line silently (evictions are reported), and a lookup right after
/// insert always hits.
#[test]
fn cache_accounting() {
    let mut rng = Rng64::seed_from_u64(0x11b0);
    for case in 0..64 {
        let ways = rng.gen_range(1usize..8);
        let n_ops = rng.gen_range(1usize..200);
        let mut c = SetAssocCache::new(16, ways, ReplacementKind::Lru, 1);
        let mut resident = std::collections::HashSet::new();
        for _ in 0..n_ops {
            let line = rng.gen_range(0u64..512);
            let dirty = rng.gen_bool(0.5);
            if let Some(ev) = c.insert(line, dirty) {
                assert!(
                    resident.remove(&ev.line),
                    "case {case}: evicted a non-resident line"
                );
            }
            resident.insert(line);
            assert!(c.lookup(line).is_some(), "just-inserted line must hit");
            assert!(c.occupancy() <= 16 * ways);
            assert_eq!(c.occupancy(), resident.len());
        }
        for &line in &resident {
            assert!(c.probe(line), "tracked line {line} missing");
        }
    }
}

/// Dirtiness is sticky: once inserted dirty, a line leaves the cache dirty.
#[test]
fn cache_dirty_sticky() {
    let mut rng = Rng64::seed_from_u64(0x11b1);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..50);
        let mut c = SetAssocCache::new(4, 2, ReplacementKind::Lru, 2);
        let mut dirty_set = std::collections::HashSet::new();
        for _ in 0..n {
            let line = rng.gen_range(0u64..64);
            if let Some(ev) = c.insert(line, true) {
                assert!(dirty_set.remove(&ev.line));
                assert!(ev.dirty, "dirty line must be evicted dirty");
            }
            dirty_set.insert(line);
        }
    }
}

/// Ring latency is symmetric in core-relative distance and bounded.
#[test]
fn ring_latency_bounds() {
    let r = RingBus::haswell_8();
    for core in 0..8 {
        for slice in 0..8 {
            let lat = r.llc_latency(core, slice);
            assert!((34..=54).contains(&lat));
        }
        assert_eq!(r.llc_latency(core, core), 34);
    }
}

/// Mesh latencies are bounded (Table 4 structure).
#[test]
fn mesh_latency_bounds() {
    let m = Mesh::skylake_6134();
    for core in 0..8 {
        for slice in 0..18 {
            let lat = m.llc_latency(core, slice);
            assert!((44..=74).contains(&lat));
        }
    }
}

/// Timed reads return one of the four architectural latencies, and an
/// immediate repeat always hits L1.
#[test]
fn read_latency_levels() {
    let mut rng = Rng64::seed_from_u64(0x11b2);
    for _ in 0..8 {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20));
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let n = rng.gen_range(1usize..40);
        for _ in 0..n {
            let off = rng.gen_range(0usize..4096);
            let pa = r.pa(off * 64);
            let c1 = m.touch_read(0, pa);
            let slice = m.slice_of(pa);
            let llc = u64::from(m.llc_latency(0, slice));
            assert!(
                c1 == 4 || c1 == 11 || c1 == llc || c1 == 192,
                "unexpected latency {c1}"
            );
            let c2 = m.touch_read(0, pa);
            assert_eq!(c2, 4, "immediate re-read must hit L1");
        }
    }
}

/// Data written through the timed path is always read back intact,
/// regardless of cache state (caches are metadata-only).
#[test]
fn data_integrity_through_caches() {
    let mut rng = Rng64::seed_from_u64(0x11b3);
    for _ in 0..8 {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20));
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let mut model = std::collections::HashMap::new();
        let n = rng.gen_range(1usize..60);
        for _ in 0..n {
            let slot = rng.gen_range(0usize..8192);
            let v = rng.next_u64();
            m.write_u64(0, r.pa(slot * 8), v);
            model.insert(slot, v);
            // Occasionally flush to force re-fetch paths.
            if slot.is_multiple_of(3) {
                m.clflush(0, r.pa(slot * 8));
            }
        }
        for (slot, v) in model {
            let (got, _) = m.read_u64(0, r.pa(slot * 8));
            assert_eq!(got, v, "slot {slot}");
        }
    }
}

/// DMA'd bytes land in memory and in the LLC, and core reads see them.
#[test]
fn dma_coherency() {
    let mut rng = Rng64::seed_from_u64(0x11b4);
    for _ in 0..8 {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20));
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let n = rng.gen_range(1usize..20);
        for _ in 0..n {
            let slot = rng.gen_range(0usize..256);
            let len = rng.gen_range(1usize..200);
            let pa = r.pa(slot * 2048);
            let data = vec![(slot % 251) as u8; len];
            m.dma_write(pa, &data);
            let mut back = vec![0u8; len];
            m.read_bytes(0, pa, &mut back);
            assert_eq!(back, data);
        }
    }
}

/// `cfg` with private caches of 6 lines per core: a one-set 2-way L1
/// and a two-set 2-way L2.
fn small_private_caches(mut cfg: MachineConfig) -> MachineConfig {
    cfg.l1 = CacheGeometry {
        sets: 1,
        ways: 2,
        latency: 4,
    };
    cfg.l2 = CacheGeometry {
        sets: 2,
        ways: 2,
        latency: 11,
    };
    cfg
}

/// One chaos run: `ops` random reads, writes, `clflush`es and DMA writes
/// by 8 cores over 384 lines that share two LLC set indices (192 lines
/// 128 KB apart per index, about 24 per slice set), so the 2 DDIO ways,
/// narrow CAT masks and the 20-way sets all overflow. After every step
/// inclusion must hold (every private copy in the LLC with its core's
/// sharer bit set), and a flushed or DMA'd line must be in no private
/// cache.
fn sharer_chaos(mut m: Machine, seed: u64, ops: usize) {
    let cfg = m.config().clone();
    let r = m.mem_mut().alloc(24 << 20, 1 << 20).unwrap();
    let lines: Vec<PhysAddr> = (0..192)
        .flat_map(|k| [0, 1].map(|j| r.pa(k * (128 << 10) + j * 64)))
        .collect();
    let mut rng = Rng64::seed_from_u64(seed);
    for op in 0..ops {
        let core = rng.gen_range(0..cfg.cores);
        let pa = lines[rng.gen_range(0..lines.len())];
        let what = match rng.gen_range(0u32..20) {
            0..=6 => {
                m.touch_read(core, pa);
                "read"
            }
            7..=10 => {
                m.touch_write(core, pa);
                "write"
            }
            11 => {
                m.clflush(core, pa);
                "clflush"
            }
            _ => {
                m.dma_write(pa, &[7u8; 64]);
                "dma"
            }
        };
        let ctx = format!(
            "{}, seed {seed}, op {op} ({what} {pa:?} by core {core})",
            cfg.name
        );
        if matches!(what, "clflush" | "dma") {
            assert_eq!(m.holders(pa), 0, "{ctx}: a private copy survived");
        }
        assert_eq!(m.check_inclusion(), None, "{ctx}");
    }
}

/// Inclusion holds, and the sharer masks stay a superset of the cores
/// holding each line, through DDIO evictions, inclusive
/// back-invalidations and flushes, on the Haswell config, with cores
/// restricted to one and two CAT ways, with the BIOS-default
/// prefetchers, with random replacement, and with private caches of 6
/// lines per core.
#[test]
fn sharer_superset_under_ddio_chaos() {
    let haswell = || MachineConfig::haswell_e5_2667_v3().with_dram_capacity(32 << 20);
    let machine = |name: &str| match name {
        "cat" => {
            let mut m = Machine::new(haswell());
            m.set_cat_mask(1, 0b1);
            m.set_cat_mask(2, 0b110);
            m
        }
        "prefetch" => Machine::new(haswell().with_prefetch(PrefetchConfig::bios_default())),
        "random" => Machine::new(haswell().with_replacement(ReplacementKind::Random)),
        "small private caches" => Machine::new(small_private_caches(haswell())),
        _ => Machine::new(haswell()),
    };
    let names = [
        "haswell",
        "cat",
        "prefetch",
        "random",
        "small private caches",
    ];
    for seed in 0..2u64 {
        for name in names {
            sharer_chaos(machine(name), 0x5a1e ^ seed, 300);
        }
    }
}

/// A stream of DMA writes, each read by one core, over one LLC set
/// index of every slice: past the first 16 lines every DMA evicts an
/// earlier line from its slice's 2 DDIO ways while some core still holds
/// it. With private caches of 6 lines per core, inclusion holds after
/// every step.
#[test]
fn ddio_victims_read_by_cores_keep_inclusion() {
    let cfg =
        small_private_caches(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(80 << 20));
    let mut m = Machine::new(cfg);
    let r = m.mem_mut().alloc(76 << 20, 1 << 20).unwrap();
    for i in 0..600 {
        let pa = r.pa(i * (128 << 10));
        m.dma_write(pa, &[1u8; 64]);
        m.touch_read(i % 8, pa);
        assert_eq!(m.check_inclusion(), None, "step {i}");
    }
}
