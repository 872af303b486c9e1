//! Differential test of the whole [`Machine`] against a deliberately
//! naive reference machine.
//!
//! The reference builds every cache (per-core L1 and L2, per-slice LLC)
//! from the naive [`RefCache`] of `common`: `Vec` slots and textbook
//! LRU. It keeps no sharer masks, so every snoop walks the private
//! caches of all cores, and it has no fast paths. It takes only the
//! slice of a line and the LLC latency from the machine (`slice_of`,
//! `llc_latency`), which have tests of their own.
//!
//! Seeded traces of reads, writes, `clflush`es and multi-line DMA writes
//! and reads run on four identical machines, each with its uncore
//! programmed to one event, and on the reference. After every access
//! the returned cycles, every core's clock, all four per-slice uncore
//! counters, every slice's `llc_stats` and where each touched line lives
//! (`holders`, `llc_probe`) must agree. Every 256 accesses and at the
//! end of a trace, so must the residence of every line the trace can
//! touch and each slice's occupancy, and an inclusive machine must pass
//! `check_inclusion`. At the end of a trace the LLC lookups of every
//! slice must reconcile with the accesses that cause them.
//!
//! The prefetchers are off; the chaos grid in `prop.rs` covers them
//! with invariant checks.

mod common;

use std::collections::HashMap;

use common::RefCache;
use llc_sim::addr::{split_lines, PhysAddr};
use llc_sim::machine::{CacheGeometry, LlcMode, Machine, MachineConfig};
use llc_sim::uncore::UncoreEvent;
use trafficgen::Rng64;

/// One machine of a trace per event: selecting an event resets the
/// counters, so a machine can only follow one.
const EVENTS: [UncoreEvent; 4] = [
    UncoreEvent::LlcLookupAny,
    UncoreEvent::LlcMiss,
    UncoreEvent::LlcFill,
    UncoreEvent::LlcVictims,
];
const LOOKUP: usize = 0;
const MISS: usize = 1;
const FILL: usize = 2;
const VICTIM: usize = 3;

/// Lines of one frame: DMA ranges stay inside a frame.
const FRAME_LINES: usize = 4;

/// Frames are 128 KB apart, so the lines at one offset share their L1,
/// L2 and LLC set index and pile up in the same sets.
const FRAME_STRIDE: usize = 128 << 10;

/// The naive whole-machine model.
struct RefMachine {
    cfg: MachineConfig,
    l1: Vec<RefCache>,
    l2: Vec<RefCache>,
    llc: Vec<RefCache>,
    slice: HashMap<u64, usize>,
    /// Cycles of an LLC hit, by core and slice.
    latency: Vec<Vec<u64>>,
    clock: Vec<u64>,
    wb_debt: Vec<u64>,
    cat: Vec<u64>,
    ddio: u64,
    /// Per slice, one counter per entry of [`EVENTS`].
    uncore: Vec<[u64; 4]>,
    /// Per slice, the accesses that look the LLC up.
    l2_misses: Vec<u64>,
    dma_written: Vec<u64>,
    dma_read: Vec<u64>,
}

impl RefMachine {
    /// A reference for `m` in its current CAT and DDIO setting, which
    /// knows the slices of `lines`.
    fn new(m: &Machine, lines: &[PhysAddr]) -> Self {
        let cfg = m.config().clone();
        assert!(
            !cfg.prefetch.adjacent_line && !cfg.prefetch.streamer,
            "the reference has no prefetchers"
        );
        let caches = |g: CacheGeometry, n: usize, salt: u64| -> Vec<RefCache> {
            (0..n)
                .map(|i| {
                    RefCache::new(
                        g.sets,
                        g.ways,
                        cfg.replacement,
                        cfg.seed ^ (salt + i as u64),
                    )
                })
                .collect()
        };
        let ways = cfg.llc_slice.ways;
        let dd = m.ddio_ways();
        let ddio = (ways - dd..ways).fold(0, |mask, w| mask | 1 << w);
        Self {
            l1: caches(cfg.l1, cfg.cores, 0x1000),
            l2: caches(cfg.l2, cfg.cores, 0x2000),
            llc: caches(cfg.llc_slice, cfg.slices, 0x3000),
            slice: lines
                .iter()
                .map(|&pa| (pa.line(), m.slice_of(pa)))
                .collect(),
            latency: (0..cfg.cores)
                .map(|c| {
                    (0..cfg.slices)
                        .map(|s| u64::from(m.llc_latency(c, s)))
                        .collect()
                })
                .collect(),
            clock: vec![0; cfg.cores],
            wb_debt: vec![0; cfg.cores],
            cat: (0..cfg.cores).map(|c| m.cat_mask(c)).collect(),
            ddio,
            uncore: vec![[0; 4]; cfg.slices],
            l2_misses: vec![0; cfg.slices],
            dma_written: vec![0; cfg.slices],
            dma_read: vec![0; cfg.slices],
            cfg,
        }
    }

    fn inclusive(&self) -> bool {
        self.cfg.llc_mode == LlcMode::Inclusive
    }

    fn slice(&self, line: u64) -> usize {
        self.slice[&line]
    }

    /// Advances the core's clock by `base` plus any stall for a
    /// write-back backlog past the buffer.
    fn charge(&mut self, core: usize, base: u64) -> u64 {
        let debt = self.wb_debt[core].saturating_sub(base);
        let stall = debt.saturating_sub(self.cfg.wb_buffer_cap);
        self.wb_debt[core] = debt - stall;
        self.clock[core] += base + stall;
        base + stall
    }

    /// Removes `line` from every core's private caches.
    fn snoop(&mut self, line: u64) {
        for c in 0..self.cfg.cores {
            self.l1[c].take(line);
            self.l2[c].take(line);
        }
    }

    fn llc_insert(&mut self, core: usize, line: u64, dirty: bool) {
        let s = self.slice(line);
        self.uncore[s][FILL] += 1;
        if let Some(ev) = self.llc[s].insert_masked(line, dirty, self.cat[core]) {
            self.uncore[s][VICTIM] += 1;
            if self.inclusive() {
                self.snoop(ev.line);
            }
        }
    }

    /// An L2 miss: LLC hit latency, or DRAM (and an LLC fill when the
    /// LLC is inclusive).
    fn fetch(&mut self, core: usize, line: u64) -> u64 {
        let s = self.slice(line);
        self.l2_misses[s] += 1;
        self.uncore[s][LOOKUP] += 1;
        if self.llc[s].lookup_sharing(line, 0).is_some() {
            return self.latency[core][s];
        }
        self.uncore[s][MISS] += 1;
        if self.inclusive() {
            self.llc_insert(core, line, false);
        }
        u64::from(self.cfg.dram_latency)
    }

    fn fill_l1(&mut self, core: usize, line: u64, dirty: bool) {
        if let Some(ev) = self.l1[core].insert_masked(line, dirty, u64::MAX) {
            if ev.dirty && !self.l2[core].mark_dirty(ev.line) {
                self.fill_l2(core, ev.line, true);
            }
        }
    }

    /// Fills L2. Its victim writes back to an inclusive LLC, which must
    /// hold it, or moves into a victim LLC; a dirty one adds the trip to
    /// the slice to the core's write-back backlog.
    fn fill_l2(&mut self, core: usize, line: u64, dirty: bool) {
        let Some(ev) = self.l2[core].insert_masked(line, dirty, u64::MAX) else {
            return;
        };
        let s = self.slice(ev.line);
        if self.inclusive() {
            if ev.dirty {
                assert!(self.llc[s].mark_dirty(ev.line), "L2 victim not in the LLC");
            }
        } else {
            self.llc_insert(core, ev.line, ev.dirty);
        }
        if ev.dirty {
            self.wb_debt[core] += self.latency[core][s];
        }
    }

    fn read(&mut self, core: usize, line: u64) -> u64 {
        let lat = if self.l1[core].lookup_sharing(line, 0).is_some() {
            u64::from(self.cfg.l1.latency)
        } else if self.l2[core].lookup_sharing(line, 0).is_some() {
            self.fill_l1(core, line, false);
            u64::from(self.cfg.l2.latency)
        } else {
            let lat = self.fetch(core, line);
            self.fill_l2(core, line, false);
            self.fill_l1(core, line, false);
            lat
        };
        self.charge(core, lat)
    }

    /// A store: cheap on an L1 hit; otherwise the fetch goes to the
    /// write-back backlog and the core sees the store-miss cost.
    fn write(&mut self, core: usize, line: u64) -> u64 {
        let cost = if self.l1[core].lookup_sharing(line, 0).is_some() {
            self.l1[core].mark_dirty(line);
            self.cfg.store_hit_cost
        } else {
            let fetch = if self.l2[core].lookup_sharing(line, 0).is_some() {
                u64::from(self.cfg.l2.latency)
            } else {
                let lat = self.fetch(core, line);
                self.fill_l2(core, line, false);
                lat
            };
            self.fill_l1(core, line, true);
            self.wb_debt[core] += fetch;
            self.cfg.store_miss_cost
        };
        self.charge(core, u64::from(cost))
    }

    fn clflush(&mut self, core: usize, line: u64) -> u64 {
        let s = self.slice(line);
        self.llc[s].take(line);
        self.snoop(line);
        self.charge(core, u64::from(self.cfg.clflush_cost))
    }

    /// DDIO: each line goes into the DDIO ways, leaves every private
    /// cache, and an inclusive LLC's victim leaves them too.
    fn dma_write(&mut self, lines: &[u64]) {
        for &line in lines {
            let s = self.slice(line);
            self.dma_written[s] += 1;
            self.uncore[s][LOOKUP] += 1;
            if !self.llc[s].probe(line) {
                self.uncore[s][MISS] += 1;
                self.uncore[s][FILL] += 1;
            }
            let victim = self.llc[s].insert_masked(line, true, self.ddio);
            self.snoop(line);
            if let Some(ev) = victim {
                self.uncore[s][VICTIM] += 1;
                if self.inclusive() {
                    self.snoop(ev.line);
                }
            }
        }
    }

    fn dma_read(&mut self, lines: &[u64]) {
        for &line in lines {
            let s = self.slice(line);
            self.dma_read[s] += 1;
            self.uncore[s][LOOKUP] += 1;
        }
    }

    fn holders(&self, line: u64) -> u8 {
        (0..self.cfg.cores)
            .filter(|&c| self.l1[c].probe(line) || self.l2[c].probe(line))
            .fold(0, |mask, c| mask | 1 << c)
    }
}

/// One trace: `ops` random accesses by random cores on four machines
/// that `build` makes alike, compared with the reference throughout.
/// The lines are `frames` frames of [`FRAME_LINES`] lines; half the
/// accesses go to the first 8 frames, so private caches also hit.
fn trace(name: &str, build: &dyn Fn() -> Machine, frames: usize, seed: u64, ops: usize) {
    let mut ms: Vec<Machine> = EVENTS
        .iter()
        .map(|&event| {
            let mut m = build();
            m.uncore_mut().select(event);
            m
        })
        .collect();
    let bases: Vec<PhysAddr> = ms
        .iter_mut()
        .map(|m| {
            m.mem_mut()
                .alloc(frames * FRAME_STRIDE, 1 << 20)
                .unwrap()
                .pa(0)
        })
        .collect();
    let base = bases[0];
    assert!(bases.iter().all(|&b| b == base), "same memory layout");
    let frame = |k: usize| base.add((k * FRAME_STRIDE) as u64);
    let lines: Vec<PhysAddr> = (0..frames)
        .flat_map(|k| (0..FRAME_LINES).map(move |j| frame(k).add(64 * j as u64)))
        .collect();
    let mut r = RefMachine::new(&ms[0], &lines);
    let (cores, slices) = (r.cfg.cores, r.cfg.slices);
    let mut rng = Rng64::seed_from_u64(seed);
    for op in 0..ops {
        let core = rng.gen_range(0..cores);
        let k = if rng.gen_range(0u32..2) == 0 {
            rng.gen_range(0..8usize)
        } else {
            rng.gen_range(0..frames)
        };
        let offset = rng.gen_range(0..FRAME_LINES * 64);
        let pa = frame(k).add(offset as u64);
        let line = pa.line();
        let len = rng.gen_range(1..=FRAME_LINES * 64 - offset);
        let touched: Vec<u64> = split_lines(pa, len).map(|(b, _, _)| b.line()).collect();
        let ctx = format!("{name}, seed {seed:#x}, op {op}");
        let kind = rng.gen_range(0u32..16);
        let cycles = |ms: &mut [Machine], f: &dyn Fn(&mut Machine) -> u64| -> u64 {
            let got: Vec<u64> = ms.iter_mut().map(f).collect();
            assert!(got.iter().all(|&c| c == got[0]), "{ctx}: machines differ");
            got[0]
        };
        let (what, got, want) = match kind {
            0..=5 => (
                "read",
                cycles(&mut ms, &|m| m.touch_read(core, pa)),
                r.read(core, line),
            ),
            6..=9 => (
                "write",
                cycles(&mut ms, &|m| m.touch_write(core, pa)),
                r.write(core, line),
            ),
            10 => (
                "clflush",
                cycles(&mut ms, &|m| m.clflush(core, pa)),
                r.clflush(core, line),
            ),
            11..=13 => {
                let data = vec![op as u8; len];
                ms.iter_mut().for_each(|m| m.dma_write(pa, &data));
                r.dma_write(&touched);
                ("dma_write", 0, 0)
            }
            _ => {
                ms.iter_mut().for_each(|m| m.dma_read(pa, len));
                r.dma_read(&touched);
                ("dma_read", 0, 0)
            }
        };
        let ctx = format!("{ctx}: {what} of {len} B at {pa:?} by core {core}");
        assert_eq!(got, want, "{ctx}: cycles");
        let m = &ms[0];
        for c in 0..cores {
            assert_eq!(m.now(c), r.clock[c], "{ctx}: clock of core {c}");
        }
        for (e, machine) in ms.iter().enumerate() {
            let want: Vec<u64> = r.uncore.iter().map(|t| t[e]).collect();
            assert_eq!(machine.uncore().read_all(), want, "{ctx}: {:?}", EVENTS[e]);
        }
        for s in 0..slices {
            assert_eq!(m.llc_stats(s), r.llc[s].stats, "{ctx}: llc_stats({s})");
        }
        let same_place = |line: u64| {
            let (pa, s) = (PhysAddr(line << 6), r.slice(line));
            assert_eq!(m.holders(pa), r.holders(line), "{ctx}: holders of {pa:?}");
            let want = r.llc[s].probe(line);
            assert_eq!(m.llc_probe(s, pa), want, "{ctx}: {pa:?} in the LLC");
        };
        touched.iter().for_each(|&line| same_place(line));
        if op % 256 == 255 || op + 1 == ops {
            lines.iter().for_each(|pa| same_place(pa.line()));
            for s in 0..slices {
                assert_eq!(m.llc_occupancy(s), r.llc[s].occupancy(), "{ctx}: slice {s}");
            }
            assert_eq!(m.check_inclusion(), None, "{ctx}");
        }
    }
    // Every LLC lookup is an L2 demand miss, a DMA-written line or a
    // DMA-read line (no prefetch candidates: the prefetchers are off).
    let demand: u64 = r.l2.iter().map(|c| c.stats.misses).sum();
    assert_eq!(r.l2_misses.iter().sum::<u64>(), demand, "{name}: L2 misses");
    for s in 0..slices {
        let lookups = ms[LOOKUP].uncore().read(s);
        let causes = r.l2_misses[s] + r.dma_written[s] + r.dma_read[s];
        assert_eq!(
            lookups, causes,
            "{name}, seed {seed:#x}: lookups of slice {s}"
        );
        if r.inclusive() {
            // Inclusive: an LLC miss, demand or DMA, is the only fill.
            let (misses, fills) = (ms[MISS].uncore().read(s), ms[FILL].uncore().read(s));
            assert_eq!(misses, fills, "{name}, seed {seed:#x}: fills of slice {s}");
        }
    }
}

const SEEDS: u64 = 20;
const OPS: usize = 2000;

fn haswell() -> MachineConfig {
    MachineConfig::haswell_e5_2667_v3().with_dram_capacity(48 << 20)
}

/// 192 frames put about 24 lines of each offset in each 20-way slice
/// set, so the 2 DDIO ways and the sets overflow.
#[test]
fn haswell_inclusive_matches_reference() {
    for seed in 0..SEEDS {
        trace("haswell", &|| Machine::new(haswell()), 192, seed, OPS);
    }
}

/// Core 1 allocates into one LLC way: each of its fills evicts the line
/// there and back-invalidates it.
#[test]
fn haswell_with_a_one_way_cat_core_matches_reference() {
    let build = || {
        let mut m = Machine::new(haswell());
        m.set_cat_mask(1, 0b1);
        m
    };
    for seed in 0..SEEDS {
        trace(
            "haswell, core 1 on 1 CAT way",
            &build,
            192,
            0xca7 ^ seed,
            OPS,
        );
    }
}

/// Private caches of 6 lines per core (a one-set 2-way L1 and a two-set
/// 2-way L2) evict on almost every access.
#[test]
fn haswell_with_tiny_private_caches_matches_reference() {
    let build = || {
        let mut cfg = haswell();
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
        Machine::new(cfg)
    };
    for seed in 0..SEEDS {
        trace(
            "haswell, tiny private caches",
            &build,
            192,
            0x71e ^ seed,
            OPS,
        );
    }
}

/// Skylake's victim LLC: 320 frames put about 18 lines of each offset
/// in each 11-way slice set, past the 16-way L2 sets of the cores.
#[test]
fn skylake_victim_mode_matches_reference() {
    let build = || Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(48 << 20));
    for seed in 0..SEEDS {
        trace("skylake", &build, 320, 0x5c1 ^ seed, OPS);
    }
}
