//! Epoch-parallel execution support: per-core machine shards that can run
//! on OS threads and merge back deterministically.
//!
//! The event engine (crates/engine) steps per-core run-to-completion
//! workers under one simulated clock. To execute those workers on real
//! threads *without* changing any simulated result, this module splits a
//! [`Machine`] into disjoint per-core [`EpochShard`]s for the duration of
//! one **epoch**:
//!
//! * Private state (L1, L2, core clock, write-back debt, streamer) is
//!   `&mut`-borrowed per core — fully owned by the shard.
//! * The shared LLC is **frozen**: shards only [`SetAssocCache::probe`] it
//!   (non-mutating) to decide hit/miss *latencies*, and append every
//!   would-be LLC interaction to a per-shard [`LlcOp`] event log.
//! * Physical memory is shared through [`SharedMem`], a raw-pointer view;
//!   soundness rests on the engine's partitioning (per-queue mbufs,
//!   per-shard application data, read-only shared tables), which keeps
//!   concurrent *writes* disjoint.
//!
//! After the epoch, the coordinator replays every shard's log through
//! [`Machine::replay_llc`] in a canonical worker order. Replay decisions
//! (insert vs. refresh, victim choice, uncore counters) are made against
//! the *live* LLC at replay time, so the merged machine state is exactly
//! what a serial execution of the same per-core traces — with LLC effects
//! applied at epoch granularity — would produce. Both the serial and the
//! parallel engine run this same shard+replay algorithm, which is what
//! makes their results bit-identical by construction.
//!
//! Fidelity note: within one epoch a core does not observe other cores'
//! LLC fills (and re-misses lines its own L2 evicted mid-epoch). This is
//! a deterministic, bounded coarsening of LLC timing — identical in both
//! execution modes — and collapses to the exact original model when each
//! epoch contains a single access (verified by tests below).

use crate::addr::{split_lines, PhysAddr};
use crate::cache::SetAssocCache;
use crate::hash::{MachineHash, SliceHash};
use crate::hierarchy::{Cycles, Machine};
use crate::machine::{LlcMode, MachineConfig};
use crate::mem::PhysMem;
use crate::prefetch::StreamerState;
use crate::topology::{Interconnect, MachineInterconnect};

/// Timed per-core memory operations — the worker-side subset of
/// [`Machine`]'s interface, implemented both by `Machine` itself (serial
/// direct execution, e.g. in unit tests and coordinator-side code) and by
/// [`EpochShard`] (epoch execution). Application and driver code that
/// runs inside an engine worker is written against `&mut dyn CoreMem`.
pub trait CoreMem {
    /// The machine's configuration.
    fn config(&self) -> &MachineConfig;
    /// Current cycle clock of `core`.
    fn now(&self, core: usize) -> u64;
    /// Advances `core`'s clock by `cycles` of non-memory work.
    fn advance(&mut self, core: usize, cycles: Cycles);
    /// Timed load of the line containing `pa` (no data movement).
    fn touch_read(&mut self, core: usize, pa: PhysAddr) -> Cycles;
    /// Timed store to the line containing `pa` (no data movement).
    fn touch_write(&mut self, core: usize, pa: PhysAddr) -> Cycles;
    /// Timed load of `buf.len()` bytes at `pa` into `buf`.
    fn read_bytes(&mut self, core: usize, pa: PhysAddr, buf: &mut [u8]) -> Cycles;
    /// Timed store of `data` at `pa`.
    fn write_bytes(&mut self, core: usize, pa: PhysAddr, data: &[u8]) -> Cycles;
    /// Device DMA read (NIC TX): copies `buf.len()` bytes from `pa`.
    fn dma_read(&mut self, pa: PhysAddr, buf: &mut [u8]);
    /// The slice Complex Addressing maps `pa` to.
    fn slice_of(&self, pa: PhysAddr) -> usize;
    /// The cheapest slice for `core`.
    fn closest_slice(&self, core: usize) -> usize;
    /// LLC hit latency from `core` to `slice`.
    fn llc_latency(&self, core: usize, slice: usize) -> u32;

    /// Timed load of a little-endian `u64`.
    fn read_u64(&mut self, core: usize, pa: PhysAddr) -> (u64, Cycles) {
        let mut b = [0u8; 8];
        let c = self.read_bytes(core, pa, &mut b);
        (u64::from_le_bytes(b), c)
    }

    /// Timed store of a little-endian `u64`.
    fn write_u64(&mut self, core: usize, pa: PhysAddr, v: u64) -> Cycles {
        self.write_bytes(core, pa, &v.to_le_bytes())
    }
}

impl CoreMem for Machine {
    fn config(&self) -> &MachineConfig {
        Machine::config(self)
    }
    fn now(&self, core: usize) -> u64 {
        Machine::now(self, core)
    }
    fn advance(&mut self, core: usize, cycles: Cycles) {
        Machine::advance(self, core, cycles);
    }
    fn touch_read(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        Machine::touch_read(self, core, pa)
    }
    fn touch_write(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        Machine::touch_write(self, core, pa)
    }
    fn read_bytes(&mut self, core: usize, pa: PhysAddr, buf: &mut [u8]) -> Cycles {
        Machine::read_bytes(self, core, pa, buf)
    }
    fn write_bytes(&mut self, core: usize, pa: PhysAddr, data: &[u8]) -> Cycles {
        Machine::write_bytes(self, core, pa, data)
    }
    fn dma_read(&mut self, pa: PhysAddr, buf: &mut [u8]) {
        Machine::dma_read(self, pa, buf);
    }
    fn slice_of(&self, pa: PhysAddr) -> usize {
        Machine::slice_of(self, pa)
    }
    fn closest_slice(&self, core: usize) -> usize {
        Machine::closest_slice(self, core)
    }
    fn llc_latency(&self, core: usize, slice: usize) -> u32 {
        Machine::llc_latency(self, core, slice)
    }
}

/// One deferred LLC interaction recorded by a shard, replayed at merge.
///
/// The log records *what the core did*, not what the frozen LLC answered:
/// replay re-decides hit/miss/insert against the live LLC, so state and
/// uncore counters always reflect replay-time truth in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcOp {
    /// An L2-missed demand fetch (read or RFO) of `line`.
    Fetch {
        /// The fetched line number.
        line: u64,
    },
    /// An L2 victim headed toward the LLC.
    L2Evict {
        /// The evicted line number.
        line: u64,
        /// Whether it held modified data.
        dirty: bool,
    },
    /// A hardware-prefetch candidate fetched through the LLC.
    Prefetch {
        /// The prefetched line number.
        line: u64,
    },
    /// A device DMA read touching `line` (uncore lookup only).
    DmaProbe {
        /// The probed line number.
        line: u64,
    },
}

/// A raw-pointer view of [`PhysMem`]'s byte store, shareable across the
/// shards of one epoch.
///
/// # Safety contract
///
/// Shards of the same epoch may run concurrently. The caller of
/// [`Machine::epoch_shards`] must guarantee that concurrently running
/// shards never write a byte range another shard accesses in the same
/// epoch (reads may overlap freely). The event engine enforces this by
/// construction: each worker owns its queue's mbufs and its application
/// shard, and cross-worker data (lookup tables, indexes) is read-only
/// during an epoch.
#[derive(Clone, Copy)]
pub(crate) struct SharedMem {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: see the struct-level contract — disjoint-write access is
// guaranteed by the epoch partitioning of the caller.
unsafe impl Send for SharedMem {}

impl SharedMem {
    pub(crate) fn new(mem: &mut PhysMem) -> Self {
        let bytes = mem.raw_bytes_mut();
        Self {
            ptr: bytes.as_mut_ptr(),
            len: bytes.len(),
        }
    }

    fn read(&self, pa: PhysAddr, buf: &mut [u8]) {
        let s = pa.raw() as usize;
        assert!(
            s.checked_add(buf.len()).is_some_and(|e| e <= self.len),
            "read outside the physical space"
        );
        // SAFETY: bounds checked above; liveness is guaranteed because the
        // shard's lifetime keeps the whole Machine mutably borrowed.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.add(s), buf.as_mut_ptr(), buf.len()) }
    }

    fn write(&self, pa: PhysAddr, data: &[u8]) {
        let s = pa.raw() as usize;
        assert!(
            s.checked_add(data.len()).is_some_and(|e| e <= self.len),
            "write outside the physical space"
        );
        // SAFETY: bounds checked above; disjointness of concurrent writes
        // is the caller's contract (see struct docs).
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(s), data.len()) }
    }
}

/// A per-core slice of the machine, live for one epoch.
///
/// Implements [`CoreMem`] with exactly the cost model of [`Machine`],
/// except that LLC *state* transitions are deferred to the epoch merge
/// (see the module docs). Obtained from [`Machine::epoch_shards`];
/// dissolves into its event log via [`EpochShard::into_log`].
pub struct EpochShard<'a> {
    core: usize,
    cfg: &'a MachineConfig,
    hash: &'a MachineHash,
    topo: &'a MachineInterconnect,
    /// Frozen LLC slices: probe-only.
    llc: &'a [SetAssocCache],
    mem: SharedMem,
    l1: &'a mut SetAssocCache,
    l2: &'a mut SetAssocCache,
    clock: &'a mut u64,
    wb_debt: &'a mut u64,
    streamer: &'a mut StreamerState,
    log: Vec<LlcOp>,
}

// Compile-time guarantee that shards may cross thread boundaries.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<EpochShard<'_>>();
    assert_send::<LlcOp>();
    assert_send::<SharedMem>();
};

impl<'a> EpochShard<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        core: usize,
        cfg: &'a MachineConfig,
        hash: &'a MachineHash,
        topo: &'a MachineInterconnect,
        llc: &'a [SetAssocCache],
        mem: SharedMem,
        l1: &'a mut SetAssocCache,
        l2: &'a mut SetAssocCache,
        clock: &'a mut u64,
        wb_debt: &'a mut u64,
        streamer: &'a mut StreamerState,
    ) -> Self {
        Self {
            core,
            cfg,
            hash,
            topo,
            llc,
            mem,
            l1,
            l2,
            clock,
            wb_debt,
            streamer,
            log: Vec::new(),
        }
    }

    /// The core this shard owns.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Dissolves the shard into its deferred-LLC event log, to be fed to
    /// [`Machine::replay_llc`] for this shard's core.
    pub fn into_log(self) -> Vec<LlcOp> {
        self.log
    }

    // -- cost engine, mirroring `Machine` ------------------------------

    fn charge(&mut self, base: Cycles) -> Cycles {
        *self.wb_debt = self.wb_debt.saturating_sub(base);
        let mut cost = base;
        if *self.wb_debt > self.cfg.wb_buffer_cap {
            let stall = *self.wb_debt - self.cfg.wb_buffer_cap;
            cost += stall;
            *self.wb_debt = self.cfg.wb_buffer_cap;
        }
        *self.clock += cost;
        cost
    }

    fn walk_read(&mut self, line: u64) -> Cycles {
        if self.l1.lookup(line).is_some() {
            return u64::from(self.cfg.l1.latency);
        }
        if self.l2.lookup(line).is_some() {
            self.fill_l1(line, false);
            return u64::from(self.cfg.l2.latency);
        }
        let lat = self.frozen_fetch(line);
        self.fill_l2(line, false);
        self.fill_l1(line, false);
        self.run_prefetch(line);
        lat
    }

    fn walk_write(&mut self, line: u64) -> Cycles {
        if self.l1.lookup(line).is_some() {
            self.l1.mark_dirty(line);
            return u64::from(self.cfg.store_hit_cost);
        }
        let fetch = if self.l2.lookup(line).is_some() {
            u64::from(self.cfg.l2.latency)
        } else {
            let lat = self.frozen_fetch(line);
            self.fill_l2(line, false);
            self.run_prefetch(line);
            lat
        };
        self.fill_l1(line, true);
        *self.wb_debt += fetch;
        u64::from(self.cfg.store_miss_cost)
    }

    /// L2-missed fetch against the frozen LLC: decides the *latency* from
    /// the epoch-start snapshot and defers the state transition.
    fn frozen_fetch(&mut self, line: u64) -> Cycles {
        let s = self.hash.slice_of(PhysAddr(line << 6));
        self.log.push(LlcOp::Fetch { line });
        if self.llc[s].probe(line) {
            u64::from(self.topo.llc_latency(self.core, s))
        } else {
            u64::from(self.cfg.dram_latency)
        }
    }

    fn fill_l1(&mut self, line: u64, dirty: bool) {
        if let Some(ev) = self.l1.insert(line, dirty) {
            if ev.dirty && !self.l2.mark_dirty(ev.line) {
                self.fill_l2(ev.line, true);
            }
        }
    }

    fn fill_l2(&mut self, line: u64, dirty: bool) {
        if let Some(ev) = self.l2.insert(line, dirty) {
            self.l2_evict(ev);
        }
    }

    fn l2_evict(&mut self, ev: crate::cache::Evicted) {
        let s = self.hash.slice_of(PhysAddr(ev.line << 6));
        match self.cfg.llc_mode {
            LlcMode::Inclusive => {
                if ev.dirty {
                    self.log.push(LlcOp::L2Evict {
                        line: ev.line,
                        dirty: true,
                    });
                    *self.wb_debt += u64::from(self.topo.llc_latency(self.core, s));
                }
            }
            LlcMode::Victim => {
                self.log.push(LlcOp::L2Evict {
                    line: ev.line,
                    dirty: ev.dirty,
                });
                if ev.dirty {
                    *self.wb_debt += u64::from(self.topo.llc_latency(self.core, s));
                }
            }
        }
    }

    fn run_prefetch(&mut self, line: u64) {
        let cfg = self.cfg.prefetch;
        if !cfg.adjacent_line && !cfg.streamer {
            return;
        }
        let cands = self.streamer.observe(line, &cfg);
        for &cand in cands.iter() {
            if self.l2.probe(cand) {
                continue;
            }
            self.log.push(LlcOp::Prefetch { line: cand });
            self.fill_l2(cand, false);
        }
    }
}

impl CoreMem for EpochShard<'_> {
    fn config(&self) -> &MachineConfig {
        self.cfg
    }

    fn now(&self, core: usize) -> u64 {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        *self.clock
    }

    fn advance(&mut self, core: usize, cycles: Cycles) {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        *self.wb_debt = self.wb_debt.saturating_sub(cycles);
        *self.clock += cycles;
    }

    fn touch_read(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        let lat = self.walk_read(pa.line());
        self.charge(lat)
    }

    fn touch_write(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        let cost = self.walk_write(pa.line());
        self.charge(cost)
    }

    fn read_bytes(&mut self, core: usize, pa: PhysAddr, buf: &mut [u8]) -> Cycles {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        let mut total = 0;
        let mut off = 0;
        for (base, in_line, len) in split_lines(pa, buf.len()) {
            let lat = self.walk_read(base.line());
            total += self.charge(lat);
            self.mem
                .read(base.add(in_line as u64), &mut buf[off..off + len]);
            off += len;
        }
        total
    }

    fn write_bytes(&mut self, core: usize, pa: PhysAddr, data: &[u8]) -> Cycles {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        let mut total = 0;
        let mut off = 0;
        for (base, in_line, len) in split_lines(pa, data.len()) {
            let cost = self.walk_write(base.line());
            total += self.charge(cost);
            self.mem
                .write(base.add(in_line as u64), &data[off..off + len]);
            off += len;
        }
        total
    }

    fn dma_read(&mut self, pa: PhysAddr, buf: &mut [u8]) {
        for (base, _, _) in split_lines(pa, buf.len()) {
            self.log.push(LlcOp::DmaProbe { line: base.line() });
        }
        self.mem.read(pa, buf);
    }

    fn slice_of(&self, pa: PhysAddr) -> usize {
        self.hash.slice_of(pa)
    }

    fn closest_slice(&self, core: usize) -> usize {
        self.topo.closest_slice(core)
    }

    fn llc_latency(&self, core: usize, slice: usize) -> u32 {
        self.topo.llc_latency(core, slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::prefetch::PrefetchConfig;

    /// Tiny deterministic generator for access traces.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    fn fresh(prefetch: bool) -> Machine {
        let mut cfg = MachineConfig::haswell_e5_2667_v3().with_dram_capacity(32 << 20);
        if prefetch {
            cfg = cfg.with_prefetch(PrefetchConfig::bios_default());
        }
        Machine::new(cfg)
    }

    #[derive(Clone, Copy)]
    enum Op {
        Read(u64, usize),
        Write(u64, usize),
        Advance(u64),
        DmaRead(u64, usize),
    }

    fn trace(seed: u64, n: usize, span: u64, cores: usize) -> Vec<(usize, Op)> {
        let mut rng = Lcg(seed);
        (0..n)
            .map(|_| {
                let core = (rng.next() as usize) % cores;
                let off = (rng.next() % span) & !7;
                let len = 1 + (rng.next() as usize % 64);
                let op = match rng.next() % 10 {
                    0..=3 => Op::Read(off, len),
                    4..=7 => Op::Write(off, len),
                    8 => Op::Advance(rng.next() % 300),
                    _ => Op::DmaRead(off, len),
                };
                (core, op)
            })
            .collect()
    }

    fn apply_direct(m: &mut Machine, base: PhysAddr, core: usize, op: Op) -> u64 {
        match op {
            Op::Read(off, len) => {
                let mut buf = vec![0u8; len];
                m.read_bytes(core, base.add(off), &mut buf)
            }
            Op::Write(off, len) => {
                let data = vec![core as u8 + 1; len];
                m.write_bytes(core, base.add(off), &data)
            }
            Op::Advance(c) => {
                m.advance(core, c);
                0
            }
            Op::DmaRead(off, len) => {
                let mut buf = vec![0u8; len];
                m.dma_read(base.add(off), &mut buf);
                0
            }
        }
    }

    fn apply_shard(s: &mut EpochShard<'_>, base: PhysAddr, core: usize, op: Op) -> u64 {
        match op {
            Op::Read(off, len) => {
                let mut buf = vec![0u8; len];
                s.read_bytes(core, base.add(off), &mut buf)
            }
            Op::Write(off, len) => {
                let data = vec![core as u8 + 1; len];
                s.write_bytes(core, base.add(off), &data)
            }
            Op::Advance(c) => {
                s.advance(core, c);
                0
            }
            Op::DmaRead(off, len) => {
                let mut buf = vec![0u8; len];
                s.dma_read(base.add(off), &mut buf);
                0
            }
        }
    }

    fn snapshot(
        m: &Machine,
    ) -> (
        Vec<u64>,
        Vec<crate::cache::CacheStats>,
        Vec<usize>,
        Vec<u64>,
    ) {
        let cores = m.config().cores;
        let slices = m.config().slices;
        (
            (0..cores).map(|c| m.now(c)).collect(),
            (0..slices).map(|s| m.llc_stats(s)).collect(),
            (0..slices).map(|s| m.llc_occupancy(s)).collect(),
            m.uncore().read_all(),
        )
    }

    /// With one access per epoch, shard + replay is *exactly* the serial
    /// machine: same per-op cycles, same clocks, same LLC state and
    /// counters. This pins the replay semantics to the reference model.
    #[test]
    fn single_access_epochs_match_direct_execution_exactly() {
        for prefetch in [false, true] {
            let mut a = fresh(prefetch);
            let mut b = fresh(prefetch);
            let ra = a.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
            let rb = b.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
            assert_eq!(ra.base(), rb.base(), "identical layouts expected");
            for (core, op) in trace(0xfeed, 1500, (8 << 20) - 64, 2) {
                let ca = apply_direct(&mut a, ra.base(), core, op);
                let cb = {
                    let mut shards = b.epoch_shards(&[core]);
                    let c = apply_shard(&mut shards[0], rb.base(), core, op);
                    let log = shards.pop().unwrap().into_log();
                    drop(shards);
                    b.replay_llc(core, &log);
                    c
                };
                assert_eq!(ca, cb, "per-op cycle cost must match the reference");
            }
            assert_eq!(snapshot(&a), snapshot(&b));
            assert_eq!(a.check_inclusion(), None);
            assert_eq!(b.check_inclusion(), None);
            // Data is coherent: both machines hold the same bytes.
            assert_eq!(
                a.mem().slice(ra.base(), 1 << 20),
                b.mem().slice(rb.base(), 1 << 20)
            );
        }
    }

    /// Multi-access epochs over two cores: running the two shards inline
    /// vs. on real threads yields byte-identical machines, and repeats are
    /// self-deterministic.
    #[test]
    fn threaded_epochs_match_inline_epochs() {
        let build = |threaded: bool| {
            let mut m = fresh(true);
            let r = m.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
            // Disjoint per-core working sets (the engine's contract).
            let spans = [(0u64, 4 << 20), (4 << 20, 4 << 20)];
            for epoch in 0..40u64 {
                let mut shards = m.epoch_shards(&[0, 1]);
                let (s0, rest) = shards.split_at_mut(1);
                let (s1, _) = rest.split_at_mut(1);
                let run = |s: &mut EpochShard<'_>, core: usize| {
                    let (lo, span) = spans[core];
                    for (c, op) in trace(epoch * 7 + core as u64, 40, span - 64, 1) {
                        debug_assert_eq!(c, 0);
                        apply_shard(s, r.base().add(lo), core, op);
                    }
                };
                if threaded {
                    std::thread::scope(|scope| {
                        scope.spawn(|| run(&mut s0[0], 0));
                        scope.spawn(|| run(&mut s1[0], 1));
                    });
                } else {
                    run(&mut s0[0], 0);
                    run(&mut s1[0], 1);
                }
                let logs: Vec<_> = shards.drain(..).map(|s| s.into_log()).collect();
                drop(shards);
                for (core, log) in logs.iter().enumerate() {
                    m.replay_llc(core, log);
                }
            }
            assert_eq!(m.check_inclusion(), None);
            let snap = snapshot(&m);
            let bytes = m.mem().slice(r.base(), 8 << 20).to_vec();
            (snap, bytes)
        };
        let inline_1 = build(false);
        let inline_2 = build(false);
        let threaded_1 = build(true);
        let threaded_2 = build(true);
        assert_eq!(inline_1, inline_2, "inline epochs must be deterministic");
        assert_eq!(
            threaded_1, threaded_2,
            "threaded epochs must be deterministic"
        );
        assert_eq!(inline_1, threaded_1, "threads must not change any result");
    }

    #[test]
    #[should_panic(expected = "requested twice")]
    fn duplicate_cores_are_rejected() {
        let mut m = fresh(false);
        let _ = m.epoch_shards(&[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_is_rejected() {
        let mut m = fresh(false);
        let _ = m.epoch_shards(&[99]);
    }
}
