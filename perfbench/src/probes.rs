//! Small probes that call each layer's public functions in isolation.
//!
//! Traced runs report every per-layer metric on every workload. A
//! metric the workload measured in place (a wrapped call, a timed
//! build) keeps that value; where the workload never calls the layer,
//! [`fill`] measures the same public call here, on a fresh machine.

use cache_director::{CacheDirector, CACHEDIRECTOR_HEADROOM};
use engine::{
    AdmissionPolicy, Ctx, Engine, EngineConfig, Execution, Hw, QueueApp, Scheduler, Verdict,
    WorkerSpec,
};
use kvs::store::{KvStore, Placement};
use llc_sim::addr::PhysAddr;
use llc_sim::hash::{SliceHash, XorSliceHash};
use llc_sim::machine::{Machine, MachineConfig};
use rte::fault::FaultPlan;
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, HeadroomPolicy, Port, RxCompletion, TxDesc};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use std::hint::black_box;
use trafficgen::{
    ArrivalSchedule, Arrivals, CampusTrace, FlowTuple, OpenLoopGen, SizeMix, ZipfConstants, ZipfGen,
};
use xstats::LogHist;

use crate::clock::Clock;
use crate::workloads::{drive_chain, record_chain_timings, Layers, Size, Workload};

/// Net ns per call of `f`, over `calls` calls timed as one span.
fn per_call_ns(clock: &Clock, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = clock.now();
    for i in 0..calls {
        f(i);
    }
    clock.span_ns(t0, clock.now()) / calls as f64
}

/// A Haswell machine with room for a 64 MB probe region.
fn probe_machine() -> Machine {
    Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20))
}

/// Cost per `touch_read` at each level and per 1500 B DMA write, as in
/// `benches/micro.rs`.
fn llc_probes(clock: &Clock, calls: usize, layers: &mut Layers) {
    let mut m = probe_machine();
    let r = m.mem_mut().alloc(64 << 20, 1 << 20).expect("probe region");
    let pa = r.pa(0);
    m.touch_read(0, pa);
    let l1 = per_call_ns(clock, calls, |_| {
        black_box(m.touch_read(0, pa));
    });
    // 32 lines 32 KB apart share one L1 and one L2 set, so cycling
    // through them misses both (8 ways each) but hits in the LLC.
    let ring = |i: usize| r.pa(i % 32 * (32 << 10));
    for i in 0..32 {
        m.touch_read(0, ring(i));
    }
    let llc = per_call_ns(clock, calls, |i| {
        black_box(m.touch_read(0, ring(i)));
    });
    // A 48 MB stream: every line misses all the way to DRAM.
    let dram = per_call_ns(clock, calls, |i| {
        black_box(m.touch_read(0, r.pa(i * 64 % (48 << 20))));
    });
    let frame = [0u8; 1500];
    let dma = per_call_ns(clock, calls, |i| {
        m.dma_write(r.pa(i * 2048 % (32 << 20)), &frame);
    });
    let hash = XorSliceHash::haswell_8slice();
    let slice_hash = per_call_ns(clock, calls, |i| {
        black_box(hash.slice_of(PhysAddr(black_box(i as u64 * 4096))));
    });
    layers.insert("llc.touch_read_l1_ns", ("ns", l1));
    layers.insert("llc.touch_read_llc_ns", ("ns", llc));
    layers.insert("llc.touch_read_dram_ns", ("ns", dram));
    layers.insert("llc.dma_write_ns", ("ns", dma));
    layers.insert("llc.slice_hash_ns", ("ns", slice_hash));
}

/// An echo application with zero timed work: every cycle spent is
/// engine bookkeeping.
struct ZeroEcho;

impl QueueApp for ZeroEcho {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        Verdict::Tx(TxDesc {
            mbuf: comp.mbuf,
            data_pa: comp.data_pa,
            len: comp.len,
        })
    }
}

/// Host ns per engine event for a zero-work app on `workers` workers,
/// driven in `run_server`'s closed-loop shape (as in
/// `benches/sched.rs`).
fn dispatch_ns_per_event(workers: usize, calls: usize) -> f64 {
    const DEPTH: usize = 64;
    const OFFERS_PER_ROUND: usize = 32;
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
    let mut pool = MbufPool::create(&mut m, (4 * workers * DEPTH) as u32, 128, 2048)
        .expect("probe machine has room for the pool");
    let mut port = Port::new(0, Steering::Rss(Rss::new(workers)), DEPTH);
    let mut policy = FixedHeadroom(128);
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: &mut policy,
    };
    let flows: Vec<FlowTuple> = (0..32)
        .map(|i| FlowTuple::tcp(0x0a00_0000 + i, 1000 + i as u16, 0xc0a8_0001, 80))
        .collect();
    let frame = [0u8; 64];
    let before = engine::sched_totals().events_processed;
    let clock = Clock::cpu();
    let t0 = clock.now();
    let mut eng = Engine::new(
        (0..workers).map(|_| ZeroEcho).collect::<Vec<_>>(),
        EngineConfig {
            workers: WorkerSpec::run_to_completion(workers),
            queue_depth: DEPTH,
            burst: OFFERS_PER_ROUND,
            faults: FaultPlan::none(),
            execution: Execution::Serial,
            admission: AdmissionPolicy::AcceptAll,
            scheduler: Scheduler::default(),
        },
        &mut hw,
    );
    for round in 0..calls / OFFERS_PER_ROUND {
        let t = eng.now_ns();
        for i in 0..OFFERS_PER_ROUND {
            let flow = &flows[(round * OFFERS_PER_ROUND + i) % flows.len()];
            let _ = black_box(eng.offer(&mut hw, flow, &frame, t));
        }
        let t = eng.now_ns() + 100.0;
        eng.run_until(&mut hw, t);
    }
    eng.drain(&mut hw);
    eng.finish(&mut hw);
    let ns = clock.span_ns(t0, clock.now());
    let events = engine::sched_totals().events_processed - before;
    ns / events.max(1) as f64
}

/// Cost of `Port::route` under RSS, and of `data_off` through a fixed
/// headroom and an installed CacheDirector.
fn rte_probes(clock: &Clock, workers: usize, calls: usize, layers: &mut Layers) {
    let mut port = Port::new(0, Steering::Rss(Rss::new(workers)), 64);
    let route = per_call_ns(clock, calls, |i| {
        let flow = FlowTuple::tcp(0x0a00_0000 + i as u32, 40_000, 0xc0a8_0001, 11211);
        black_box(port.route(black_box(&flow)));
    });
    layers.insert("rte.route_ns", ("ns", route));

    let mut m = probe_machine();
    let pool = MbufPool::create(&mut m, 2048, CACHEDIRECTOR_HEADROOM, 2048)
        .expect("probe machine has room for the pool");
    let mut cd = CacheDirector::install(&mut m, &pool, 1, 0);
    let cores = m.config().cores;
    let cd_ns = per_call_ns(clock, calls, |i| {
        black_box(cd.data_off(&mut m, &pool, (i % 2048) as u32, i % cores));
    });
    layers.insert("cache_director.data_off_ns", ("ns", cd_ns));
    if !layers.contains_key("rte.headroom_ns") {
        let mut fixed = FixedHeadroom(128);
        let ns = per_call_ns(clock, calls, |i| {
            black_box(fixed.data_off(&mut m, &pool, (i % 2048) as u32, i % cores));
        });
        layers.insert("rte.headroom_ns", ("ns", ns));
    }
}

/// Trafficgen calls the workload did not make itself.
fn trafficgen_probes(clock: &Clock, calls: usize, layers: &mut Layers) {
    if !layers.contains_key("trafficgen.arrival_ns") {
        let mut gen = OpenLoopGen::poisson(8e6, 7);
        let ns = per_call_ns(clock, calls, |_| {
            black_box(Arrivals::next_arrival_ns(&mut gen));
        });
        layers.insert("trafficgen.arrival_ns", ("ns", ns));
    }
    if !layers.contains_key("trafficgen.packet_ns") {
        let mut campus = CampusTrace::new(SizeMix::campus(), 10_000, 42);
        let mut sched = ArrivalSchedule::constant_gbps(100.0, 670.0);
        let ns = per_call_ns(clock, calls, |_| {
            black_box(sched.next_arrival_ns());
            black_box(campus.next_packet());
        });
        layers.insert("trafficgen.packet_ns", ("ns", ns));
    }
    if !layers.contains_key("trafficgen.zipf_setup_s") {
        // The kvs_scale_open key-class size, computed from scratch.
        let (zc, ns) = clock.time(|| ZipfConstants::compute(1 << 19, 0.99));
        black_box(zc);
        layers.insert("trafficgen.zipf_setup_s", ("s", ns / 1e9));
    }
}

/// A store build and GETs, for workloads that run no KVS of their own.
fn kvs_probes(clock: &Clock, size: Size, layers: &mut Layers) {
    if layers.contains_key("slice_aware.store_build_s") && layers.contains_key("kvs.get_ns") {
        return;
    }
    let n = 1usize << size.closed_log2_keys;
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20));
    let slices: Vec<usize> = (0..4).map(|c| m.closest_slice(c)).collect();
    let ((store, m), build_ns) = clock.time(|| {
        let region = m.mem_mut().alloc(64 << 20, 1 << 20).expect("probe region");
        let hash = XorSliceHash::haswell_8slice();
        let mut alloc = SliceAllocator::new(region, move |pa| hash.slice_of(pa));
        let placement = Placement::StripedHot {
            slices,
            hot_per_core: (n / 32).max(1),
        };
        let store = KvStore::build(&mut m, &mut alloc, n, placement).expect("region fits");
        (store, m)
    });
    let mut m = m;
    layers
        .entry("slice_aware.store_build_s")
        .or_insert(("s", build_ns / 1e9));
    let mut keys = ZipfGen::new(n as u64, 0.99, 4242);
    let mut buf = [0u8; 64];
    let get = per_call_ns(clock, size.probe_calls, |_| {
        let key = keys.next_rank() as u32;
        black_box(store.get(&mut m, 0, key, &mut buf));
    });
    layers.entry("kvs.get_ns").or_insert(("ns", get));
}

/// Sketch record and report costs, for workloads without a sketch.
fn xstats_probes(clock: &Clock, calls: usize, layers: &mut Layers) {
    if layers.contains_key("xstats.sink_record_ns") && layers.contains_key("xstats.report_s") {
        return;
    }
    let values: Vec<f64> = {
        let mut gen = OpenLoopGen::poisson(1e6, 11);
        (0..calls)
            .map(|_| 200.0 + Arrivals::next_arrival_ns(&mut gen) % 5_000.0)
            .collect()
    };
    let mut sketches: Vec<LogHist> = (0..4).map(|_| LogHist::latency_ns(0.01)).collect();
    let record = per_call_ns(clock, calls, |i| sketches[i % 4].record(values[i]));
    layers
        .entry("xstats.sink_record_ns")
        .or_insert(("ns", record));
    let (quantiles, ns) = clock.time(|| {
        let mut all = sketches[0].clone();
        for s in &sketches[1..] {
            all.merge(s);
        }
        [0.5, 0.99, 0.999].map(|q| all.quantile(q))
    });
    black_box(quantiles);
    layers.entry("xstats.report_s").or_insert(("s", ns / 1e9));
}

/// Adds every probe metric to `layers`, keeping the values the
/// workload measured in place.
pub fn fill(w: Workload, size: Size, layers: &mut Layers) {
    let clock = Clock::monotonic();
    let calls = size.probe_calls;
    llc_probes(&clock, calls, layers);
    layers.insert(
        "engine.dispatch_ns_per_event",
        ("ns", dispatch_ns_per_event(w.workers(), calls)),
    );
    rte_probes(&clock, w.workers(), calls, layers);
    trafficgen_probes(&clock, calls, layers);
    kvs_probes(&clock, size, layers);
    xstats_probes(&clock, calls, layers);
    if !layers.contains_key("nfv.offer_ns_p50") {
        let mut run = drive_chain(0, (calls / 10).max(100), Some(clock));
        record_chain_timings(&mut run, layers);
    }
    // Counts of layers the workload does not run.
    for name in [
        "kvs.hot_hit_ratio",
        "kvs.migrate_useful_ratio",
        "kvs.retries",
        "tenancy.moves",
        "tenancy.ddio_shrinks",
        "tenancy.epochs",
        "llc.hit_ratio",
        "llc.lookups_per_op",
        "llc.misses_per_op",
    ] {
        let unit = crate::PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .expect("every count is a listed metric");
        layers.entry(name).or_insert((unit, 0.0));
    }
}
