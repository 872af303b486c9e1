//! The simulated machine: cores, private caches, sliced LLC, DDIO and the
//! cycle-cost engine.
//!
//! [`Machine`] wires the pieces of this crate together and exposes *timed*
//! memory operations: every load/store returns the core cycles it cost,
//! advancing that core's clock. The cost rules are calibrated to the
//! paper's measurements:
//!
//! * L1 hit 4 cycles, L2 hit 11 (Haswell §2.2, Fig. 2).
//! * LLC hit: interconnect latency — this is where NUCA appears; the same
//!   line costs more from a distant core (Figs. 5a, 16).
//! * Miss: DRAM latency (~60 ns).
//! * Stores retire through the store buffer: a visible cost of a few
//!   cycles regardless of where the line lives (Fig. 5b shows writes are
//!   flat across slices), while the fill and any dirty write-backs are
//!   charged to a bounded per-core **write-back budget**. Once the budget
//!   saturates, further stores stall for the backlog — which is exactly
//!   how the paper explains Fig. 6b: "the difference in access times
//!   becomes visible with an increasing number of write operations ...
//!   modified cache lines accumulate in L1 and need to be written to
//!   higher level caches".
//!
//! DMA (`dma_write`/`dma_read`) models DDIO: device writes allocate
//! directly into the target LLC slice but only into a restricted set of
//! ways (2 of 20 by default, the 10 % limit of §8).
//!
//! # Sharer bits
//!
//! Like Haswell's core-valid bits, every LLC line carries an 8-bit mask
//! of the cores that may hold it privately (DESIGN.md §3k). In
//! [`LlcMode::Inclusive`] the mask is kept a *superset* of the actual
//! holders: an LLC hit or fill for core `c` sets bit `c`, a DMA that
//! invalidates the private copies resets it, and a silent private
//! eviction leaves it alone. A DMA, an inclusive back-invalidation or a
//! `clflush` then invalidates only the cores in the mask, which visits
//! exactly the caches a walk over every core would change. Every LLC
//! eviction back-invalidates its victim, a DDIO placement's included, so
//! inclusion holds at all times ([`Machine::check_inclusion`]). In
//! [`LlcMode::Victim`] L2 lines are not in the LLC, so every such walk
//! still visits every core, and a DDIO victim keeps its private copies.

use crate::addr::{split_lines, PhysAddr};
use crate::cache::{low_ways, SetAssocCache, MAX_SHARERS};
use crate::hash::{FoldedSliceHash, MachineHash, SliceHash, XorSliceHash};
use crate::machine::{HashConfig, InterconnectConfig, LlcMode, MachineConfig};
use crate::mem::PhysMem;
use crate::prefetch::StreamerState;
use crate::topology::{Interconnect, MachineInterconnect, Mesh, RingBus};
use crate::uncore::Uncore;

/// A duration in core cycles.
pub type Cycles = u64;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// The simulated socket. See the module docs for the cost model.
pub struct Machine {
    cfg: MachineConfig,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: Vec<SetAssocCache>,
    hash: MachineHash,
    topo: MachineInterconnect,
    uncore: Uncore,
    mem: PhysMem,
    clock: Vec<u64>,
    wb_debt: Vec<u64>,
    streamer: Vec<StreamerState>,
    cat_mask: Vec<u64>,
    ddio_mask: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("name", &self.cfg.name)
            .field("cores", &self.cfg.cores)
            .field("slices", &self.cfg.slices)
            .finish_non_exhaustive()
    }
}

/// DDIO's way mask: the top `ddio_ways` ways of a `ways`-way slice,
/// clamped to the slice, and never empty (0 keeps way 0 usable).
fn ddio_mask(ways: usize, ddio_ways: usize) -> u64 {
    let dd = ddio_ways.min(ways);
    (low_ways(ways) & !low_ways(ways - dd)).max(1)
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics when the hash slice count disagrees with `cfg.slices`, the
    /// interconnect dimensions disagree with the core/slice counts, or
    /// there are more cores than an LLC sharer mask can name (8).
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(
            cfg.cores <= MAX_SHARERS,
            "{} cores: an LLC sharer mask names at most {MAX_SHARERS}",
            cfg.cores
        );
        let hash = match cfg.hash {
            HashConfig::XorPow2 { bits } => MachineHash::Xor(XorSliceHash::for_slices_pow2(bits)),
            HashConfig::Folded { slices } => MachineHash::Folded(FoldedSliceHash::new(slices)),
        };
        assert_eq!(hash.slices(), cfg.slices, "hash/slice count mismatch");
        let topo = match cfg.interconnect {
            InterconnectConfig::Ring { base, hop, cross } => {
                MachineInterconnect::Ring(RingBus::new(cfg.cores.max(cfg.slices), base, hop, cross))
            }
            InterconnectConfig::MeshSkylake6134 => MachineInterconnect::Mesh(Mesh::skylake_6134()),
        };
        assert!(topo.cores() >= cfg.cores, "interconnect too small (cores)");
        assert_eq!(topo.slices(), cfg.slices, "interconnect/slice mismatch");
        let mk = |g: crate::machine::CacheGeometry, seed: u64| {
            SetAssocCache::new(g.sets, g.ways, cfg.replacement, seed)
        };
        let l1 = (0..cfg.cores)
            .map(|i| mk(cfg.l1, cfg.seed ^ (0x1000 + i as u64)))
            .collect();
        let l2 = (0..cfg.cores)
            .map(|i| mk(cfg.l2, cfg.seed ^ (0x2000 + i as u64)))
            .collect();
        let llc = (0..cfg.slices)
            .map(|i| mk(cfg.llc_slice, cfg.seed ^ (0x3000 + i as u64)))
            .collect();
        let ddio_mask = ddio_mask(cfg.llc_slice.ways, cfg.ddio_ways);
        Self {
            uncore: Uncore::new(cfg.slices),
            mem: PhysMem::new(cfg.dram_capacity),
            clock: vec![0; cfg.cores],
            wb_debt: vec![0; cfg.cores],
            streamer: vec![StreamerState::default(); cfg.cores],
            cat_mask: vec![u64::MAX; cfg.cores],
            l1,
            l2,
            llc,
            hash,
            topo,
            ddio_mask,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Shared physical memory.
    pub fn mem(&self) -> &PhysMem {
        &self.mem
    }

    /// Mutable physical memory (reservations, untimed data setup).
    pub fn mem_mut(&mut self) -> &mut PhysMem {
        &mut self.mem
    }

    /// The uncore monitoring unit.
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// Mutable uncore (event select / reset).
    pub fn uncore_mut(&mut self) -> &mut Uncore {
        &mut self.uncore
    }

    /// The slice Complex Addressing maps `pa` to.
    pub fn slice_of(&self, pa: PhysAddr) -> usize {
        self.hash.slice_of(pa)
    }

    /// LLC hit latency from `core` to `slice`.
    pub fn llc_latency(&self, core: usize, slice: usize) -> u32 {
        self.topo.llc_latency(core, slice)
    }

    /// The cheapest slice for `core`.
    pub fn closest_slice(&self, core: usize) -> usize {
        self.topo.closest_slice(core)
    }

    /// All slices ordered by increasing latency from `core`.
    pub fn slices_by_distance(&self, core: usize) -> Vec<usize> {
        self.topo.slices_by_distance(core)
    }

    /// Current cycle clock of `core`.
    pub fn now(&self, core: usize) -> u64 {
        self.clock[core]
    }

    /// Advances `core`'s clock by `cycles` of non-memory work.
    pub fn advance(&mut self, core: usize, cycles: Cycles) {
        // Non-memory work also drains the write-back backlog.
        self.wb_debt[core] = self.wb_debt[core].saturating_sub(cycles);
        self.clock[core] += cycles;
    }

    /// Zeroes all core clocks and write-back backlogs.
    pub fn reset_clocks(&mut self) {
        self.clock.iter_mut().for_each(|c| *c = 0);
        self.wb_debt.iter_mut().for_each(|c| *c = 0);
    }

    /// Waits for `core`'s pending write-backs to finish (measurement-phase
    /// separator; the paper's experiments do the equivalent with fences).
    pub fn drain_write_backs(&mut self, core: usize) {
        let debt = self.wb_debt[core];
        self.clock[core] += debt;
        self.wb_debt[core] = 0;
    }

    /// Restricts LLC allocations by `core` to the ways in `mask` — Intel
    /// CAT with one class of service per core (paper §7).
    ///
    /// # Panics
    ///
    /// Panics when the mask selects no way of the LLC.
    pub fn set_cat_mask(&mut self, core: usize, mask: u64) {
        let valid = low_ways(self.cfg.llc_slice.ways);
        assert!(mask & valid != 0, "CAT mask selects no LLC way");
        self.cat_mask[core] = mask;
    }

    /// Removes `core`'s CAT restriction.
    pub fn clear_cat_mask(&mut self, core: usize) {
        self.cat_mask[core] = u64::MAX;
    }

    /// The CAT way mask currently applied to `core` (`u64::MAX` when
    /// unrestricted).
    pub fn cat_mask(&self, core: usize) -> u64 {
        self.cat_mask[core]
    }

    /// Reprograms the number of ways DDIO allocates into at runtime —
    /// the `IIO_LLC_WAYS` register an isolation controller rewrites to
    /// shrink or widen the I/O ways online (paper §6; IOCA). The same
    /// construction rule as [`Machine::new`] applies: the top `ways`
    /// ways of every slice, clamped to the slice associativity, and the
    /// mask never goes empty (0 keeps way 0 usable, matching the
    /// config-time clamp). Only *future* DMA placements are affected;
    /// lines already resident stay wherever they are until evicted.
    pub fn set_ddio_ways(&mut self, ways: usize) {
        self.ddio_mask = ddio_mask(self.cfg.llc_slice.ways, ways);
    }

    /// The number of ways DDIO currently allocates into (the popcount
    /// of the active DDIO way mask).
    pub fn ddio_ways(&self) -> usize {
        self.ddio_mask.count_ones() as usize
    }

    /// Per-slice LLC statistics.
    pub fn llc_stats(&self, slice: usize) -> crate::cache::CacheStats {
        self.llc[slice].stats()
    }

    /// Whether the line containing `pa` is resident in slice `slice`
    /// (inspection only; no counters move).
    pub fn llc_probe(&self, slice: usize, pa: PhysAddr) -> bool {
        self.llc[slice].probe(pa.line())
    }

    /// Number of valid lines currently in slice `slice`.
    pub fn llc_occupancy(&self, slice: usize) -> usize {
        self.llc[slice].occupancy()
    }

    /// Verifies the inclusion invariant of [`LlcMode::Inclusive`]: every
    /// line in core `c`'s L1 or L2 is in the LLC with bit `c` of its
    /// sharer mask set. This superset property is what lets DMA,
    /// back-invalidation and `clflush` visit only the cores in the mask.
    /// Returns the first violating `(core, line)` or `None` when the
    /// hierarchy is consistent. Inspection only (no counters move);
    /// intended for tests and debugging.
    pub fn check_inclusion(&self) -> Option<(usize, u64)> {
        if self.cfg.llc_mode != LlcMode::Inclusive {
            return None;
        }
        for c in 0..self.cfg.cores {
            for (line, _) in self.l1[c]
                .resident_lines()
                .chain(self.l2[c].resident_lines())
            {
                let s = self.hash.slice_of(PhysAddr(line << 6));
                if self.llc[s].sharers(line).is_none_or(|m| m >> c & 1 == 0) {
                    return Some((c, line));
                }
            }
        }
        None
    }

    /// The cores whose L1 or L2 holds the line containing `pa`, as a bit
    /// mask (inspection only).
    pub fn holders(&self, pa: PhysAddr) -> u8 {
        let line = pa.line();
        (0..self.cfg.cores)
            .filter(|&c| self.l1[c].probe(line) || self.l2[c].probe(line))
            .fold(0, |mask, c| mask | 1 << c)
    }

    /// Resets hit/miss statistics at every level.
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1 {
            c.reset_stats();
        }
        for c in &mut self.l2 {
            c.reset_stats();
        }
        for c in &mut self.llc {
            c.reset_stats();
        }
    }

    // ------------------------------------------------------------------
    // Timed operations.
    // ------------------------------------------------------------------

    /// Timed load of the line containing `pa` (no data movement).
    pub fn touch_read(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        let lat = self.walk_read(core, pa.line());
        self.charge(core, lat)
    }

    /// Timed store to the line containing `pa` (no data movement).
    pub fn touch_write(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        let cost = self.walk_write(core, pa.line());
        self.charge(core, cost)
    }

    /// Timed load of `buf.len()` bytes at `pa` into `buf`.
    pub fn read_bytes(&mut self, core: usize, pa: PhysAddr, buf: &mut [u8]) -> Cycles {
        let mut total = 0;
        let mut off = 0;
        for (base, in_line, len) in split_lines(pa, buf.len()) {
            let lat = self.walk_read(core, base.line());
            total += self.charge(core, lat);
            self.mem
                .read(base.add(in_line as u64), &mut buf[off..off + len]);
            off += len;
        }
        total
    }

    /// Timed store of `data` at `pa`.
    pub fn write_bytes(&mut self, core: usize, pa: PhysAddr, data: &[u8]) -> Cycles {
        let mut total = 0;
        let mut off = 0;
        for (base, in_line, len) in split_lines(pa, data.len()) {
            let cost = self.walk_write(core, base.line());
            total += self.charge(core, cost);
            self.mem
                .write(base.add(in_line as u64), &data[off..off + len]);
            off += len;
        }
        total
    }

    /// Timed load of a little-endian `u64`.
    pub fn read_u64(&mut self, core: usize, pa: PhysAddr) -> (u64, Cycles) {
        let mut b = [0u8; 8];
        let c = self.read_bytes(core, pa, &mut b);
        (u64::from_le_bytes(b), c)
    }

    /// Timed store of a little-endian `u64`.
    pub fn write_u64(&mut self, core: usize, pa: PhysAddr, v: u64) -> Cycles {
        self.write_bytes(core, pa, &v.to_le_bytes())
    }

    /// `clflush`: writes back and invalidates the line containing `pa`
    /// from every cache in the hierarchy (paper §2.2 methodology).
    pub fn clflush(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        let line = pa.line();
        let s = self.hash.slice_of(pa);
        let sharers = self.llc[s].take(line).map_or(0, |ev| ev.sharers);
        self.snoop(line, sharers);
        // Dirty data is already coherent in PhysMem (data writes go straight
        // through), so the flush is a pure state change plus its cost.
        let cost = u64::from(self.cfg.clflush_cost);
        self.charge(core, cost)
    }

    // ------------------------------------------------------------------
    // DMA / DDIO.
    // ------------------------------------------------------------------

    /// Device DMA write (DDIO): stores `data` at `pa` and allocates the
    /// touched lines into their LLC slices, restricted to the DDIO ways.
    ///
    /// Costs no core cycles; any stale copies in private caches are
    /// invalidated, as hardware coherency would.
    pub fn dma_write(&mut self, pa: PhysAddr, data: &[u8]) {
        self.mem.write(pa, data);
        self.dma_place(pa, data.len());
    }

    /// The allocation half of [`Machine::dma_write`] without data movement
    /// (for workloads that only need placement effects).
    pub fn dma_place(&mut self, pa: PhysAddr, len: usize) {
        for (base, _, _) in split_lines(pa, len) {
            let line = base.line();
            let s = self.hash.slice_of(base);
            self.uncore.on_lookup(s);
            // The device write leaves no private copy, so the mask resets.
            let placed = self.llc[s].place(line, true, 0, self.ddio_mask);
            let sharers = match placed.resident {
                Some(sharers) => sharers,
                None => {
                    self.uncore.on_miss(s);
                    self.uncore.on_fill(s);
                    0
                }
            };
            self.snoop(line, sharers);
            if let Some(ev) = placed.evicted {
                self.uncore.on_victim(s);
                // An inclusive LLC back-invalidates DDIO's victim like any
                // other. Its dirty data is already coherent in PhysMem.
                if self.cfg.llc_mode == LlcMode::Inclusive {
                    self.snoop(ev.line, ev.sharers);
                }
            }
        }
    }

    /// Device DMA read (NIC TX) of the `len` bytes at `pa`: one LLC
    /// lookup per line.
    ///
    /// Reads served from the LLC when resident (DDIO), otherwise from
    /// DRAM; either way no cache state changes and no core cycles. The
    /// bytes go to the device, so none are copied out.
    pub fn dma_read(&mut self, pa: PhysAddr, len: usize) {
        for (base, _, _) in split_lines(pa, len) {
            let s = self.hash.slice_of(base);
            self.uncore.on_lookup(s);
        }
    }

    // ------------------------------------------------------------------
    // Engine internals.
    // ------------------------------------------------------------------

    /// Applies the write-back-budget mechanics to a base cost and advances
    /// the core clock. See the module docs.
    fn charge(&mut self, core: usize, base: Cycles) -> Cycles {
        // Background write-backs retire while the core is busy.
        self.wb_debt[core] = self.wb_debt[core].saturating_sub(base);
        let mut cost = base;
        if self.wb_debt[core] > self.cfg.wb_buffer_cap {
            let stall = self.wb_debt[core] - self.cfg.wb_buffer_cap;
            cost += stall;
            self.wb_debt[core] = self.cfg.wb_buffer_cap;
        }
        self.clock[core] += cost;
        cost
    }

    /// Read walk: returns the load-to-use latency and applies all state
    /// transitions (fills, evictions, prefetches).
    fn walk_read(&mut self, core: usize, line: u64) -> Cycles {
        if self.l1[core].lookup(line).is_some() {
            return u64::from(self.cfg.l1.latency);
        }
        if self.l2[core].lookup(line).is_some() {
            self.fill_l1(core, line, false);
            return u64::from(self.cfg.l2.latency);
        }
        let lat = self.fetch_from_llc_or_dram(core, line);
        self.fill_l2(core, line, false);
        self.fill_l1(core, line, false);
        self.run_prefetch(core, line);
        lat
    }

    /// Write: L1 hit is cheap; a miss triggers a background
    /// read-for-ownership charged to the write-back budget.
    fn walk_write(&mut self, core: usize, line: u64) -> Cycles {
        if self.l1[core].lookup(line).is_some() {
            self.l1[core].mark_dirty(line);
            return u64::from(self.cfg.store_hit_cost);
        }
        let fetch = if self.l2[core].lookup(line).is_some() {
            u64::from(self.cfg.l2.latency)
        } else {
            let lat = self.fetch_from_llc_or_dram(core, line);
            self.fill_l2(core, line, false);
            self.run_prefetch(core, line);
            lat
        };
        self.fill_l1(core, line, true);
        // The RFO fill occupies the memory pipeline but the store buffer
        // hides it from the core until the budget saturates (Fig. 5b vs
        // Fig. 6b).
        self.wb_debt[core] += fetch;
        u64::from(self.cfg.store_miss_cost)
    }

    /// L2-missed fetch: LLC hit latency or DRAM, with inclusive-mode LLC
    /// allocation.
    fn fetch_from_llc_or_dram(&mut self, core: usize, line: u64) -> Cycles {
        let s = self.hash.slice_of(PhysAddr(line << 6));
        self.uncore.on_lookup(s);
        if self.llc[s].lookup_sharing(line, 1 << core).is_some() {
            u64::from(self.topo.llc_latency(core, s))
        } else {
            self.uncore.on_miss(s);
            if self.cfg.llc_mode == LlcMode::Inclusive {
                self.llc_insert(core, line, false);
            }
            u64::from(self.cfg.dram_latency)
        }
    }

    /// Inserts into the LLC under the core's CAT mask with `core` as a
    /// sharer, handling victims (and inclusive back-invalidation).
    fn llc_insert(&mut self, core: usize, line: u64, dirty: bool) {
        let s = self.hash.slice_of(PhysAddr(line << 6));
        self.uncore.on_fill(s);
        let mask = self.cat_mask[core];
        if let Some(ev) = self.llc[s].insert_sharing(line, dirty, 1 << core, mask) {
            self.uncore.on_victim(s);
            if self.cfg.llc_mode == LlcMode::Inclusive {
                // Inclusive LLC: a victim must leave the private caches too.
                self.snoop(ev.line, ev.sharers);
            }
            // Dirty victims drain to DRAM through deep buffers; no core
            // cost is modelled for them.
        }
    }

    /// Invalidates `line` in the private caches of the cores in `sharers`,
    /// or of every core when the LLC is not inclusive (its mask then
    /// says nothing about the private caches).
    fn snoop(&mut self, line: u64, sharers: u8) {
        let mut cores = if self.cfg.llc_mode == LlcMode::Inclusive {
            u32::from(sharers)
        } else {
            (1 << self.cfg.cores) - 1
        };
        while cores != 0 {
            let c = cores.trailing_zeros() as usize;
            self.l1[c].invalidate(line);
            self.l2[c].invalidate(line);
            cores &= cores - 1;
        }
    }

    /// Fills a line into `core`'s L1, spilling the victim to L2.
    fn fill_l1(&mut self, core: usize, line: u64, dirty: bool) {
        if let Some(ev) = self.l1[core].insert(line, dirty) {
            if ev.dirty && !self.l2[core].mark_dirty(ev.line) {
                // Not in L2 (victim-mode L2 may have dropped it):
                // re-insert dirty.
                self.fill_l2(core, ev.line, true);
            }
        }
    }

    /// Fills a line into `core`'s L2, spilling the victim toward the LLC.
    fn fill_l2(&mut self, core: usize, line: u64, dirty: bool) {
        if let Some(ev) = self.l2[core].insert(line, dirty) {
            self.l2_evict(core, ev);
        }
    }

    /// Handles an L2 victim per the LLC mode.
    fn l2_evict(&mut self, core: usize, ev: crate::cache::Evicted) {
        let s = self.hash.slice_of(PhysAddr(ev.line << 6));
        match self.cfg.llc_mode {
            LlcMode::Inclusive => {
                if ev.dirty {
                    let included = self.llc[s].mark_dirty(ev.line);
                    assert!(
                        included,
                        "inclusion: L2 victim {:#x} not in the LLC",
                        ev.line
                    );
                    // The dirty write-back occupies the path to the slice.
                    self.wb_debt[core] += u64::from(self.topo.llc_latency(core, s));
                }
            }
            LlcMode::Victim => {
                // Skylake: L2 victims (clean or dirty) move into the LLC.
                self.llc_insert(core, ev.line, ev.dirty);
                if ev.dirty {
                    self.wb_debt[core] += u64::from(self.topo.llc_latency(core, s));
                }
            }
        }
    }

    /// Feeds the streamer with an L2 demand miss and fills candidates.
    fn run_prefetch(&mut self, core: usize, line: u64) {
        let cfg = self.cfg.prefetch;
        if !cfg.adjacent_line && !cfg.streamer {
            return;
        }
        let cands = self.streamer[core].observe(line, &cfg);
        for &cand in cands.iter() {
            if self.l2[core].probe(cand) {
                continue;
            }
            // Prefetch fetches through the LLC like a demand miss, without
            // charging the core.
            let s = self.hash.slice_of(PhysAddr(cand << 6));
            self.uncore.on_lookup(s);
            if !self.llc[s].probe(cand) {
                self.uncore.on_miss(s);
                if self.cfg.llc_mode == LlcMode::Inclusive {
                    self.llc_insert(core, cand, false);
                }
            } else {
                // Refresh recency in the slice.
                self.llc[s].lookup_sharing(cand, 1 << core);
            }
            self.fill_l2(core, cand, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::prefetch::PrefetchConfig;

    fn haswell() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 * 1024 * 1024))
    }

    fn skylake() -> Machine {
        Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(64 * 1024 * 1024))
    }

    #[test]
    fn read_latencies_follow_the_hierarchy() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let pa = r.pa(0);
        let dram = m.touch_read(0, pa);
        assert_eq!(dram, 192, "cold read pays DRAM latency");
        let l1 = m.touch_read(0, pa);
        assert_eq!(l1, 4, "hot read hits L1");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = haswell();
        // 9 lines in the same L1 set (stride = 64 sets * 64 B = 4 KB) so one
        // gets evicted from the 8-way L1 but stays in the 512-set L2.
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let lines: Vec<PhysAddr> = (0..9).map(|i| r.pa(i * 4096)).collect();
        for &pa in &lines {
            m.touch_read(0, pa);
        }
        // The first line left L1 (LRU) but is in L2.
        let c = m.touch_read(0, lines[0]);
        assert_eq!(c, 11, "L2 hit");
    }

    #[test]
    fn llc_hit_latency_depends_on_slice_distance() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
        // Find one line in the closest slice and one in the farthest.
        let near_slice = m.closest_slice(0);
        let far_slice = *m.slices_by_distance(0).last().unwrap();
        let mut near = None;
        let mut far = None;
        for i in 0..100_000 {
            let pa = r.pa(i * 64);
            let s = m.slice_of(pa);
            if s == near_slice && near.is_none() {
                near = Some(pa);
            }
            if s == far_slice && far.is_none() {
                far = Some(pa);
            }
            if near.is_some() && far.is_some() {
                break;
            }
        }
        let (near, far) = (near.unwrap(), far.unwrap());
        // Bring both into LLC only: read once (fills L1/L2/LLC), then evict
        // from the private caches by flushing... simpler: read once, then
        // flush L1/L2 via conflict is fiddly — instead use dma_place which
        // fills the LLC without touching the private caches.
        m.dma_place(near, 64);
        m.dma_place(far, 64);
        let c_near = m.touch_read(0, near);
        let c_far = m.touch_read(0, far);
        assert_eq!(c_near, 34);
        assert_eq!(c_far, 54);
    }

    #[test]
    fn clflush_pushes_line_out_everywhere() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let pa = r.pa(0);
        m.touch_read(0, pa);
        assert_eq!(m.touch_read(0, pa), 4);
        m.clflush(0, pa);
        assert_eq!(m.touch_read(0, pa), 192, "flushed line misses everywhere");
    }

    #[test]
    fn stores_are_flat_in_small_bursts() {
        // Fig. 5b: per-store visible cost does not depend on the slice.
        let mut m = haswell();
        let r = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
        let mut costs = Vec::new();
        for s in 0..8 {
            // A line in slice s.
            let pa = (0..100_000)
                .map(|i| r.pa(i * 64))
                .find(|&pa| m.slice_of(pa) == s)
                .unwrap();
            m.clflush(0, pa);
            m.drain_write_backs(0);
            costs.push(m.touch_write(0, pa));
        }
        assert!(
            costs.iter().all(|&c| c == costs[0]),
            "store cost must be slice-independent in short bursts: {costs:?}"
        );
    }

    #[test]
    fn sustained_stores_saturate_the_write_back_budget() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
        // Hammer store misses (distinct lines) until the budget saturates.
        let mut last = 0;
        for i in 0..10_000 {
            last = m.touch_write(0, r.pa((i * 64) % (16 << 20)));
        }
        assert!(
            last > u64::from(m.config().store_miss_cost),
            "steady-state store cost must include the backlog stall"
        );
    }

    #[test]
    fn inclusive_llc_eviction_back_invalidates() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(48 << 20, 1 << 20).unwrap();
        // Fill one LLC set (2048-set stride = 128 KB) past 20 ways from
        // core 0; all lines also map to the same L1/L2 sets.
        let target = r.pa(0);
        let target_slice = m.slice_of(target);
        // Collect 21 lines in the same LLC set AND same slice.
        let mut same_set = Vec::new();
        let mut i = 0;
        while same_set.len() < 21 && i < 400 {
            let pa = r.pa(i * 128 * 1024);
            if m.slice_of(pa) == target_slice {
                same_set.push(pa);
            }
            i += 1;
        }
        assert!(same_set.len() >= 21, "need enough conflicting lines");
        for &pa in &same_set[..21] {
            m.touch_read(0, pa);
        }
        // The LRU line of that LLC set was evicted and must have left the
        // private caches as well (inclusivity): re-reading costs DRAM.
        let victim = same_set[0];
        let c = m.touch_read(0, victim);
        assert_eq!(c, 192, "back-invalidated line must miss everywhere");
    }

    /// Three lines of one slice set: the first is DMA'd and read by core
    /// 0, then the other two fill the 2 DDIO ways and evict it.
    fn ddio_victim_read_by_core_0(m: &mut Machine) -> PhysAddr {
        let r = m.mem_mut().alloc(48 << 20, 1 << 20).unwrap();
        let slice = m.slice_of(r.pa(0));
        let lines: Vec<PhysAddr> = (0..400)
            .map(|i| r.pa(i * 128 * 1024))
            .filter(|&pa| m.slice_of(pa) == slice)
            .take(3)
            .collect();
        m.dma_write(lines[0], &[1; 64]);
        m.touch_read(0, lines[0]);
        m.dma_write(lines[1], &[2; 64]);
        m.dma_write(lines[2], &[3; 64]);
        assert!(
            !m.llc_probe(slice, lines[0]),
            "the third DMA evicts the first line"
        );
        lines[0]
    }

    #[test]
    fn inclusive_llc_back_invalidates_a_ddio_victim() {
        let mut m = haswell();
        let pa = ddio_victim_read_by_core_0(&mut m);
        assert_eq!(m.holders(pa), 0, "the victim left core 0's caches");
        assert_eq!(m.touch_read(0, pa), 192, "the victim misses everywhere");
        assert_eq!(m.check_inclusion(), None);
    }

    #[test]
    fn victim_mode_ddio_victim_keeps_its_private_copy() {
        let mut m = skylake();
        let pa = ddio_victim_read_by_core_0(&mut m);
        assert_eq!(m.holders(pa), 0b1);
        assert_eq!(m.touch_read(0, pa), 4, "core 0 still holds the line in L1");
    }

    #[test]
    #[should_panic(expected = "sharer mask names at most 8")]
    fn rejects_more_cores_than_a_sharer_mask_names() {
        let mut cfg = MachineConfig::haswell_e5_2667_v3().with_dram_capacity(1 << 20);
        cfg.cores = 9;
        Machine::new(cfg);
    }

    #[test]
    fn victim_mode_fills_llc_on_l2_eviction_only() {
        let mut m = skylake();
        let r = m.mem_mut().alloc(16 << 20, 1 << 20).unwrap();
        let pa = r.pa(0);
        let s = m.slice_of(pa);
        m.touch_read(0, pa);
        assert!(
            !m.llc_probe(s, pa),
            "Skylake: a DRAM fill bypasses the LLC (non-inclusive)"
        );
        // Evict it from L2 with 17 more lines of its L2 set (1024-set
        // stride = 64 KB, 16 ways).
        for i in 1..=17 {
            m.touch_read(0, r.pa(i * 64 * 1024));
        }
        assert!(m.llc_probe(s, pa), "L2 victim must have moved into the LLC");
        // And it is still absent from L1/L2, so the next read is an LLC hit
        // at mesh latency.
        let c = m.touch_read(0, pa);
        assert_eq!(c, u64::from(m.llc_latency(0, s)));
    }

    #[test]
    fn ddio_writes_land_in_llc() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let pa = r.pa(0);
        let s = m.slice_of(pa);
        m.dma_write(pa, &[0xab; 64]);
        assert!(m.llc_probe(s, pa));
        // The first core read is an LLC hit, not DRAM (the point of DDIO).
        let c = m.touch_read(0, pa);
        assert_eq!(c, u64::from(m.llc_latency(0, s)));
        let mut b = [0u8; 4];
        m.mem().read(pa, &mut b);
        assert_eq!(b, [0xab; 4]);
    }

    #[test]
    fn ddio_is_limited_to_its_ways() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        // DMA many lines of one LLC set of one slice: occupancy of that set
        // must never exceed ddio_ways.
        let target = r.pa(0);
        let slice = m.slice_of(target);
        let set = target.line() & 2047;
        let mut placed = 0;
        for i in 0..400 {
            let pa = r.pa(i * 128 * 1024);
            if m.slice_of(pa) == slice && (pa.line() & 2047) == set {
                m.dma_write(pa, &[1; 64]);
                placed += 1;
            }
        }
        assert!(placed > 2, "need more DMA lines than DDIO ways");
        let resident = (0..400)
            .map(|i| r.pa(i * 128 * 1024))
            .filter(|&pa| {
                m.slice_of(pa) == slice && (pa.line() & 2047) == set && m.llc_probe(slice, pa)
            })
            .count();
        assert_eq!(resident, 2, "DDIO allocates into exactly 2 ways");
    }

    #[test]
    fn set_ddio_ways_reprograms_future_placements() {
        let mut m = haswell();
        assert_eq!(m.ddio_ways(), 2, "Haswell config default");
        m.set_ddio_ways(1);
        assert_eq!(m.ddio_ways(), 1);
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        let target = r.pa(0);
        let slice = m.slice_of(target);
        let set = target.line() & 2047;
        let mut placed = 0;
        for i in 0..400 {
            let pa = r.pa(i * 128 * 1024);
            if m.slice_of(pa) == slice && (pa.line() & 2047) == set {
                m.dma_write(pa, &[1; 64]);
                placed += 1;
            }
        }
        assert!(placed > 1, "need more DMA lines than DDIO ways");
        let resident = (0..400)
            .map(|i| r.pa(i * 128 * 1024))
            .filter(|&pa| {
                m.slice_of(pa) == slice && (pa.line() & 2047) == set && m.llc_probe(slice, pa)
            })
            .count();
        assert_eq!(resident, 1, "shrunk DDIO allocates into exactly 1 way");
        // Clamped to the associativity; 0 never empties the mask.
        m.set_ddio_ways(999);
        assert_eq!(m.ddio_ways(), m.config().llc_slice.ways);
        m.set_ddio_ways(0);
        assert_eq!(m.ddio_ways(), 1);
    }

    #[test]
    fn cat_mask_restricts_core_allocations() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        m.set_cat_mask(0, 0b11); // Core 0 may only use ways 0-1.
        let target = r.pa(0);
        let slice = m.slice_of(target);
        let set = target.line() & 2047;
        let mut placed = Vec::new();
        for i in 0..400 {
            let pa = r.pa(i * 128 * 1024);
            if m.slice_of(pa) == slice && (pa.line() & 2047) == set {
                m.touch_read(0, pa);
                placed.push(pa);
            }
        }
        assert!(placed.len() > 4);
        let resident = placed.iter().filter(|&&pa| m.llc_probe(slice, pa)).count();
        assert_eq!(resident, 2, "CAT limits core 0 to 2 ways in that set");
    }

    #[test]
    fn uncore_counts_lookups_per_slice() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let pa = r.pa(0);
        let s = m.slice_of(pa);
        m.uncore_mut().reset();
        // Polling loop: flush + read => every read is an LLC lookup.
        for _ in 0..100 {
            m.clflush(0, pa);
            m.touch_read(0, pa);
        }
        assert_eq!(m.uncore().busiest_slice(), s);
        assert!(m.uncore().read(s) >= 100);
    }

    #[test]
    fn prefetcher_pulls_adjacent_line() {
        let cfg = MachineConfig::haswell_e5_2667_v3()
            .with_dram_capacity(1 << 20)
            .with_prefetch(PrefetchConfig {
                adjacent_line: true,
                streamer: false,
                stream_depth: 0,
            });
        let mut m = Machine::new(cfg);
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        m.touch_read(0, r.pa(0));
        // The buddy line was prefetched into L2: reading it now is an L2
        // hit, not a DRAM access.
        let c = m.touch_read(0, r.pa(64));
        assert_eq!(c, 11);
    }

    #[test]
    fn clock_advances_with_work() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        assert_eq!(m.now(0), 0);
        let c = m.touch_read(0, r.pa(0));
        assert_eq!(m.now(0), c);
        m.advance(0, 100);
        assert_eq!(m.now(0), c + 100);
        m.reset_clocks();
        assert_eq!(m.now(0), 0);
    }

    #[test]
    fn data_roundtrip_is_timed() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let w = m.write_bytes(0, r.pa(10), &[9, 8, 7]);
        assert!(w > 0);
        let mut buf = [0u8; 3];
        let c = m.read_bytes(0, r.pa(10), &mut buf);
        assert_eq!(buf, [9, 8, 7]);
        assert!(c > 0);
        let (v, _) = m.read_u64(0, r.pa(64));
        assert_eq!(v, 0);
        m.write_u64(0, r.pa(64), 0x1234);
        assert_eq!(m.read_u64(0, r.pa(64)).0, 0x1234);
    }

    #[test]
    fn cross_line_read_touches_both_lines() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let mut buf = [0u8; 16];
        // Spans the line boundary at offset 64.
        let c = m.read_bytes(0, r.pa(56), &mut buf);
        assert_eq!(c, 192 * 2, "two cold lines, two DRAM accesses");
    }

    #[test]
    #[should_panic(expected = "CAT mask selects no LLC way")]
    fn cat_mask_must_overlap_ways() {
        let mut m = haswell();
        m.set_cat_mask(0, 1 << 63);
    }

    #[test]
    fn drain_write_backs_charges_the_backlog() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(16 << 20, 1 << 20).unwrap();
        // Build a backlog below the stall threshold.
        for i in 0..4 {
            m.touch_write(0, r.pa(i * 64));
        }
        let before = m.now(0);
        m.drain_write_backs(0);
        let drained = m.now(0) - before;
        assert!(drained > 0, "pending RFO fills must be waited out");
        // Draining twice is idempotent.
        let before = m.now(0);
        m.drain_write_backs(0);
        assert_eq!(m.now(0), before);
    }

    #[test]
    fn non_memory_work_drains_the_backlog() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(16 << 20, 1 << 20).unwrap();
        m.touch_write(0, r.pa(0)); // Backlog: one DRAM RFO (192 cycles).
                                   // Enough ALU work for the fill to retire in the background.
        m.advance(0, 500);
        let before = m.now(0);
        m.drain_write_backs(0);
        assert_eq!(m.now(0), before, "backlog already drained by advance");
    }

    #[test]
    fn clear_cat_mask_restores_full_associativity() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        m.set_cat_mask(0, 0b1);
        m.clear_cat_mask(0);
        // With the mask cleared, a set accepts the full 20 ways again.
        let target = r.pa(0);
        let slice = m.slice_of(target);
        let set = target.line() & 2047;
        let mut placed = 0;
        for i in 0..400 {
            let pa = r.pa(i * 128 * 1024);
            if m.slice_of(pa) == slice && (pa.line() & 2047) == set {
                m.touch_read(0, pa);
                placed += 1;
                if placed == 20 {
                    break;
                }
            }
        }
        let resident = (0..400)
            .map(|i| r.pa(i * 128 * 1024))
            .filter(|&pa| {
                m.slice_of(pa) == slice && (pa.line() & 2047) == set && m.llc_probe(slice, pa)
            })
            .count();
        assert_eq!(resident, placed.min(20));
    }

    #[test]
    fn victim_mode_dirty_llc_eviction_is_safe() {
        // Fill a Skylake LLC set past its 11 ways with dirty lines and
        // verify state stays consistent (dirty victims drain to DRAM).
        let mut m = skylake();
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        for i in 0..60 {
            let pa = r.pa(i * 64 * 1024);
            m.touch_write(0, pa);
        }
        // Force everything through L2 into the LLC.
        for i in 60..120 {
            m.touch_read(0, r.pa(i * 64 * 1024));
        }
        assert_eq!(
            m.check_inclusion(),
            None,
            "victim mode has no invariant to break"
        );
        // All data still readable.
        let (v, _) = m.read_u64(0, r.pa(0));
        assert_eq!(v, 0);
    }
}
