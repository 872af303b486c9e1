//! The four workloads, built through the crates' public APIs the way
//! the figure binaries build them, and timed from outside.
//!
//! Every workload runs with the default `Execution::Serial` and
//! `Scheduler::EventDriven`, taken from the config constructors
//! (`OpenLoopConfig::new`, `ServerConfig::fig8`,
//! `RunConfig::paper_defaults`, `TenancyConfig::new`), and is one
//! single-threaded process per repetition.

use std::collections::BTreeMap;

use kvs::proto::RequestGen;
use kvs::server::{flow_for_queue, run_server, ServerConfig};
use kvs::store::{KvStore, Placement};
use kvs::{run_openloop_streaming, CompletionSink, OpenLoopConfig};
use llc_sim::hash::{SliceHash, XorSliceHash};
use llc_sim::machine::{Machine, MachineConfig};
use nfv::runtime::{ChainSpec, HeadroomMode, RunConfig, SteeringKind, Testbed};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use tenancy::run::{run_tenancy, Regime, TenancyConfig, FLOOR_WAYS};
use trafficgen::{
    ArrivalSchedule, CampusTrace, FlowTuple, OpenLoopGen, SizeMix, ZipfConstants, ZipfGen,
};
use xstats::{Cdf, LogHist, Summary};

use crate::clock::{monotonic_ns, process_cpu_ns, Clock};
use crate::digest::Digest;
use crate::wrap::Timed;

/// Sketch relative-error bound for the streamed open-loop latencies
/// (the `fig_scale_kvs` value).
const SKETCH_ALPHA: f64 = 0.01;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop half of `fig_scale_kvs`: a store 6.4x the LLC.
    KvsScaleOpen,
    /// Closed-loop, LLC-resident, write-heavy KVS with migration.
    KvsHotClosed,
    /// The Fig. 14 chain with CacheDirector at 100 Gbps.
    NfvChainCd,
    /// The online isolation controller under noisy-neighbour storms.
    TenantsOnline,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::KvsScaleOpen,
        Workload::KvsHotClosed,
        Workload::NfvChainCd,
        Workload::TenantsOnline,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvsScaleOpen => "kvs_scale_open",
            Workload::KvsHotClosed => "kvs_hot_closed",
            Workload::NfvChainCd => "nfv_chain_cd",
            Workload::TenantsOnline => "tenants_online",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine workers the workload runs (sizes the dispatch probe).
    pub fn workers(self) -> usize {
        match self {
            Workload::KvsScaleOpen | Workload::KvsHotClosed => KVS_CORES,
            Workload::NfvChainCd => 8,
            Workload::TenantsOnline => 5,
        }
    }
}

/// Serving cores of both KVS workloads.
const KVS_CORES: usize = 4;

/// How much simulated work one repetition does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// log2 of the `kvs_scale_open` key count.
    pub open_log2_keys: u32,
    /// Logical ops of `kvs_scale_open`.
    pub open_ops: usize,
    /// log2 of the `kvs_hot_closed` key count.
    pub closed_log2_keys: u32,
    /// Requests of `kvs_hot_closed`.
    pub closed_requests: usize,
    /// Initial migration epoch of `kvs_hot_closed`.
    pub migrate_epoch: usize,
    /// Packets of `nfv_chain_cd`.
    pub nfv_packets: usize,
    /// Packets per victim tenant of `tenants_online`.
    pub tenant_packets: usize,
    /// Calls per layer probe.
    pub probe_calls: usize,
}

impl Size {
    /// The benchmark's scale: 3-4 s of host CPU per repetition on a
    /// 2-CPU Xeon VM. Shorter repetitions let brief host stalls decide
    /// a run's slowest repetition.
    pub const FULL: Size = Size {
        open_log2_keys: 21,
        open_ops: 600_000,
        closed_log2_keys: 16,
        closed_requests: 900_000,
        migrate_epoch: 4096,
        nfv_packets: 250_000,
        tenant_packets: 200_000,
        probe_calls: 200_000,
    };

    /// A scale small enough for the self-tests.
    pub const TINY: Size = Size {
        open_log2_keys: 12,
        open_ops: 4_000,
        closed_log2_keys: 12,
        closed_requests: 4_000,
        migrate_epoch: 256,
        nfv_packets: 3_000,
        tenant_packets: 2_000,
        probe_calls: 2_000,
    };
}

/// Per-layer metrics by name: unit and value.
pub type Layers = BTreeMap<&'static str, (&'static str, f64)>;

/// What one repetition of a workload measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulated operations offered.
    pub ops: u64,
    /// Operations the simulated report counts as dropped by a NIC
    /// cause, shed, given up or late.
    pub sim_failed: u64,
    /// Process CPU seconds from exec to the first offered operation.
    pub setup_s: f64,
    /// CPU seconds of the serve call.
    pub serve_s: f64,
    /// Engine events processed during the serve call.
    pub events: u64,
    /// Engine epochs dispatched during the serve call.
    pub epochs: u64,
    /// Digest of the simulated results.
    pub digest: Digest,
    /// Per-layer metrics measured in the run itself (traced runs time
    /// their wrapped calls; counts are recorded either way).
    pub layers: Layers,
}

/// Seconds of process CPU time since exec.
fn cpu_s() -> f64 {
    process_cpu_ns() as f64 / 1e9
}

/// Monotonic seconds since the reading `start` of [`monotonic_ns`].
/// `trace.serve_self_s` subtracts the wrapped calls' monotonic spans
/// from this, so both terms come from the same clock.
fn wall_s_since(start: u64) -> f64 {
    (monotonic_ns() - start) as f64 / 1e9
}

/// Runs one repetition of `w`. With `trace`, the trait objects the
/// program accepts are wrapped and timed with that clock.
pub fn run(w: Workload, seed: u64, size: Size, trace: Option<Clock>) -> Outcome {
    match w {
        Workload::KvsScaleOpen => kvs_scale_open(seed, size, trace),
        Workload::KvsHotClosed => kvs_hot_closed(seed, size, trace),
        Workload::NfvChainCd => nfv_chain_cd(seed, size, trace),
        Workload::TenantsOnline => tenants_online(seed, size),
    }
}

/// Engine totals around a serve call (the totals are cumulative and
/// process-wide, so only deltas mean anything).
struct SchedMark(engine::SchedStats);

impl SchedMark {
    fn now() -> Self {
        Self(engine::sched_totals())
    }

    /// `(events, epochs)` since the mark.
    fn since(&self) -> (u64, u64) {
        let t = engine::sched_totals();
        (
            t.events_processed - self.0.events_processed,
            t.epochs_dispatched - self.0.epochs_dispatched,
        )
    }
}

/// LLC lookups and misses summed over the slices.
fn llc_counts(m: &Machine) -> (u64, u64) {
    (0..m.config().slices)
        .map(|s| m.llc_stats(s))
        .fold((0, 0), |(l, x), st| {
            (l + st.hits + st.misses, x + st.misses)
        })
}

/// Records the LLC counts of a serve call into the digest and layers.
fn record_llc(
    before: (u64, u64),
    after: (u64, u64),
    ops: u64,
    digest: &mut Digest,
    layers: &mut Layers,
) {
    let (lookups, misses) = (after.0 - before.0, after.1 - before.1);
    digest.add("llc.lookups", &lookups);
    digest.add("llc.misses", &misses);
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        (lookups - misses) as f64 / lookups as f64
    };
    layers.insert("llc.hit_ratio", ("ratio", hit_ratio));
    layers.insert(
        "llc.lookups_per_op",
        ("lookups/op", lookups as f64 / ops as f64),
    );
    layers.insert(
        "llc.misses_per_op",
        ("misses/op", misses as f64 / ops as f64),
    );
}

/// The scale machine of `fig_scale_kvs`: DRAM for the slice-aware
/// carving (~9x the store) plus headroom for pools and rings.
fn scale_machine(store_bytes: usize) -> (Machine, usize) {
    let region_bytes = (store_bytes * 9).max(64 << 20);
    let m = Machine::new(
        MachineConfig::haswell_e5_2667_v3()
            .with_dram_capacity(region_bytes + store_bytes + (256 << 20)),
    );
    (m, region_bytes)
}

/// A `StripedHot` store over `KVS_CORES` cores, built through the
/// slice-aware allocator; returns the build's CPU seconds too.
fn striped_store(m: &mut Machine, region_bytes: usize, n_values: usize) -> (KvStore, f64) {
    let placement = Placement::StripedHot {
        slices: (0..KVS_CORES).map(|c| m.closest_slice(c)).collect(),
        // The §3 hot-pool sizing rule of fig08 and fig_scale_kvs.
        hot_per_core: (20_000 / KVS_CORES).min(n_values / KVS_CORES / 8).max(1),
    };
    let t0 = cpu_s();
    let region = m
        .mem_mut()
        .alloc(region_bytes, 1 << 20)
        .expect("scale machine sized for the store region");
    let hash = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| hash.slice_of(pa));
    let store =
        KvStore::build(m, &mut alloc, n_values, placement).expect("region sized for the store");
    (store, cpu_s() - t0)
}

/// Times `KvStore::get` on the post-run machine over `gens`' key
/// streams, one generator per core; returns net ns per GET.
fn time_gets(m: &mut Machine, store: &KvStore, gens: &mut [RequestGen], calls: usize) -> f64 {
    let clock = Clock::cpu();
    let mut buf = [0u8; 64];
    let t0 = clock.now();
    for i in 0..calls {
        let q = i % gens.len();
        let key = gens[q].next_request().key;
        std::hint::black_box(store.get(m, q, key, &mut buf));
    }
    clock.span_ns(t0, clock.now()) / calls as f64
}

/// One latency sketch per RX queue: the bounded report path of
/// `fig_scale_kvs`.
struct SketchSink(Vec<LogHist>);

impl CompletionSink for SketchSink {
    fn record(&mut self, queue: usize, _completion_ns: f64, latency_ns: f64) {
        self.0[queue].record(latency_ns);
    }
}

fn kvs_scale_open(seed: u64, size: Size, trace: Option<Clock>) -> Outcome {
    let n_values = 1usize << size.open_log2_keys;
    let mut layers = Layers::new();
    let (mut m, region_bytes) = scale_machine(n_values * 64);
    let (store, build_s) = striped_store(&mut m, region_bytes, n_values);
    layers.insert("slice_aware.store_build_s", ("s", build_s));
    let cfg = OpenLoopConfig::new(size.open_ops, seed).with_cores(KVS_CORES);
    let mut pool = MbufPool::create(&mut m, (8 * cfg.cores * cfg.queue_depth) as u32, 128, 2048)
        .expect("pool sized to the rings");
    let mut port = Port::new(0, Steering::Rss(Rss::new(cfg.cores)), cfg.queue_depth);
    // The run computes these constants itself; computing them here
    // first keeps the O(n) zeta sum in setup, out of the serve call.
    let key_classes = (n_values / cfg.cores) as u64;
    let t0 = cpu_s();
    let zc = ZipfConstants::shared(key_classes, cfg.zipf_theta);
    layers.insert("trafficgen.zipf_setup_s", ("s", cpu_s() - t0));
    // 8 Mops/s over four queues: well below capacity, so the run
    // measures service tails rather than queueing collapse.
    let arrivals = OpenLoopGen::poisson(8e6, seed ^ 0xa771_5eed);
    let sink = SketchSink(
        (0..cfg.cores)
            .map(|_| LogHist::latency_ns(SKETCH_ALPHA))
            .collect(),
    );

    let setup_s = cpu_s();
    let llc0 = llc_counts(&m);
    let mark = SchedMark::now();
    let wall0 = monotonic_ns();
    let (rep, sketches, wrapped_s) = match trace {
        None => {
            let (mut arr, mut sink, mut policy) = (arrivals, sink, FixedHeadroom(128));
            let rep = run_openloop_streaming(
                &mut m,
                &store,
                &mut pool,
                &mut port,
                &mut policy,
                &mut arr,
                &cfg,
                &mut sink,
            );
            (rep, sink.0, 0.0)
        }
        Some(clock) => {
            let mut arr = Timed::new(arrivals, clock);
            let mut sink = Timed::new(sink, clock);
            let mut policy = Timed::new(FixedHeadroom(128), clock);
            let rep = run_openloop_streaming(
                &mut m,
                &store,
                &mut pool,
                &mut port,
                &mut policy,
                &mut arr,
                &cfg,
                &mut sink,
            );
            layers.insert("trafficgen.arrival_ns", ("ns", arr.mean_ns()));
            layers.insert("xstats.sink_record_ns", ("ns", sink.mean_ns()));
            layers.insert("rte.headroom_ns", ("ns", policy.mean_ns()));
            let wrapped = arr.total_s() + sink.total_s() + policy.total_s();
            (rep, sink.inner.0, wrapped)
        }
    };
    let serve_s = cpu_s() - setup_s;
    let serve_wall_s = wall_s_since(wall0);
    let (events, epochs) = mark.since();

    // The report path: merge the per-queue sketches, read quantiles.
    let t0 = cpu_s();
    let mut all = sketches[0].clone();
    for s in &sketches[1..] {
        all.merge(s);
    }
    let quantiles: Vec<Vec<f64>> = sketches
        .iter()
        .chain(std::iter::once(&all))
        .map(|s| [0.5, 0.99, 0.999].map(|q| s.quantile(q)).to_vec())
        .collect();
    layers.insert("xstats.report_s", ("s", cpu_s() - t0));
    assert_eq!(
        all.count() + all.nonfinite(),
        rep.completed,
        "every completion must reach the sketches"
    );
    rep.assert_conservation();

    let mut digest = Digest::default();
    digest.add("report", &rep);
    digest.add("quantiles", &quantiles);
    record_llc(
        llc0,
        llc_counts(&m),
        rep.logical_ops,
        &mut digest,
        &mut layers,
    );
    layers.insert("kvs.retries", ("count", rep.retries as f64));
    layers.insert(
        "rte.drop_ratio",
        ("ratio", rep.drops.nic.total() as f64 / rep.offered as f64),
    );
    layers.insert("trace.serve_self_s", ("s", serve_wall_s - wrapped_s));
    if trace.is_some() {
        // The run's own key streams (the generators run_openloop builds).
        let mut gens: Vec<RequestGen> = (0..cfg.cores)
            .map(|q| {
                let keygen = ZipfGen::from_constants(&zc, cfg.seed ^ (0x5eed + q as u64));
                RequestGen::new(keygen, cfg.get_permille, cfg.seed ^ (0xc11e + q as u64))
                    .with_key_partition(cfg.cores as u32, q as u32)
            })
            .collect();
        let get_ns = time_gets(&mut m, &store, &mut gens, size.probe_calls);
        layers.insert("kvs.get_ns", ("ns", get_ns));
    }
    Outcome {
        ops: rep.logical_ops,
        sim_failed: rep.drops.nic.total() + rep.admit.total() + rep.gave_up + rep.late,
        setup_s,
        serve_s,
        events,
        epochs,
        digest,
        layers,
    }
}

/// The closed-loop clients of `kvs_hot_closed`: scrambled Zipf(0.99)
/// over disjoint key classes, one per queue, 50 % GET.
fn closed_gens(port: &mut Port, zc: &ZipfConstants, seed: u64) -> Vec<RequestGen> {
    let base = FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
    (0..KVS_CORES)
        .map(|q| {
            let flow = flow_for_queue(port, base, q);
            let keygen = ZipfGen::from_constants(zc, seed ^ (0x4242 + q as u64));
            RequestGen::new(keygen, 500, seed ^ (0x77 + q as u64))
                .with_flow(flow)
                .with_key_partition(KVS_CORES as u32, q as u32)
                .with_key_scramble(seed ^ (0x4300 + q as u64))
        })
        .collect()
}

fn kvs_hot_closed(seed: u64, size: Size, trace: Option<Clock>) -> Outcome {
    let n_values = 1usize << size.closed_log2_keys;
    let mut layers = Layers::new();
    let (mut m, region_bytes) = scale_machine(n_values * 64);
    let (store, build_s) = striped_store(&mut m, region_bytes, n_values);
    layers.insert("slice_aware.store_build_s", ("s", build_s));
    let mut pool = MbufPool::create(&mut m, (1024 * KVS_CORES) as u32, 128, 2048)
        .expect("scale machine has room for the pool");
    let mut port = Port::new(0, Steering::Rss(Rss::new(KVS_CORES)), 256);
    let t0 = cpu_s();
    let zc = ZipfConstants::shared((n_values / KVS_CORES) as u64, 0.99);
    layers.insert("trafficgen.zipf_setup_s", ("s", cpu_s() - t0));
    let mut gens = closed_gens(&mut port, &zc, seed);
    let cfg = ServerConfig::fig8(size.closed_requests, 500, seed)
        .with_cores(KVS_CORES)
        .with_cost_aware_migration(size.migrate_epoch);

    let setup_s = cpu_s();
    let llc0 = llc_counts(&m);
    let mark = SchedMark::now();
    let wall0 = monotonic_ns();
    let (rep, wrapped_s) = match trace {
        None => {
            let mut policy = FixedHeadroom(128);
            let rep = run_server(
                &mut m,
                &store,
                &mut pool,
                &mut port,
                &mut policy,
                &mut gens,
                &cfg,
            );
            (rep, 0.0)
        }
        Some(clock) => {
            let mut policy = Timed::new(FixedHeadroom(128), clock);
            let rep = run_server(
                &mut m,
                &store,
                &mut pool,
                &mut port,
                &mut policy,
                &mut gens,
                &cfg,
            );
            layers.insert("rte.headroom_ns", ("ns", policy.mean_ns()));
            (rep, policy.total_s())
        }
    };
    let serve_s = cpu_s() - setup_s;
    let serve_wall_s = wall_s_since(wall0);
    let (events, epochs) = mark.since();

    // The per-queue reports partition the aggregate exactly.
    let q = &rep.per_queue;
    let sum = |f: fn(&kvs::server::QueueReport) -> u64| q.iter().map(f).sum::<u64>();
    for (what, agg, parts) in [
        ("offered", rep.offered, sum(|r| r.offered)),
        ("carried", rep.carried, sum(|r| r.carried)),
        ("served", rep.served, sum(|r| r.served)),
        ("gets", rep.gets, sum(|r| r.gets)),
        ("drops", rep.drops.total(), sum(|r| r.drops.total())),
        ("in_flight", rep.in_flight, sum(|r| r.in_flight)),
        ("hot_hits", rep.hot_hits, sum(|r| r.hot_hits)),
        ("migrated", rep.migrated, sum(|r| r.migrated)),
        (
            "migration_cycles",
            rep.migration_cycles,
            sum(|r| r.migration_cycles),
        ),
        ("swaps_vetoed", rep.swaps_vetoed, sum(|r| r.swaps_vetoed)),
        (
            "swaps_deferred",
            rep.swaps_deferred,
            sum(|r| r.swaps_deferred),
        ),
        ("swaps_at_loss", rep.swaps_at_loss, sum(|r| r.swaps_at_loss)),
    ] {
        assert_eq!(agg, parts, "per-queue {what} must partition the aggregate");
    }
    assert_eq!(
        rep.offered + rep.carried,
        rep.served + rep.drops.total() + rep.in_flight,
        "every offered request is served, dropped or in flight"
    );
    assert_eq!(
        rep.swaps_at_loss, 0,
        "cost-aware migration never swaps at a loss"
    );

    let mut digest = Digest::default();
    digest.add("report", &rep);
    record_llc(llc0, llc_counts(&m), rep.offered, &mut digest, &mut layers);
    layers.insert("kvs.hot_hit_ratio", ("ratio", rep.hot_hit_rate()));
    let swaps = rep.migrated + rep.swaps_vetoed;
    layers.insert(
        "kvs.migrate_useful_ratio",
        (
            "ratio",
            if swaps == 0 {
                0.0
            } else {
                rep.migrated as f64 / swaps as f64
            },
        ),
    );
    layers.insert(
        "rte.drop_ratio",
        ("ratio", rep.drops.nic.total() as f64 / rep.offered as f64),
    );
    layers.insert("trace.serve_self_s", ("s", serve_wall_s - wrapped_s));
    if trace.is_some() {
        let mut gens = closed_gens(&mut port, &zc, seed);
        let get_ns = time_gets(&mut m, &store, &mut gens, size.probe_calls);
        layers.insert("kvs.get_ns", ("ns", get_ns));
    }
    Outcome {
        ops: rep.offered,
        sim_failed: rep.drops.total(),
        setup_s,
        serve_s,
        events,
        epochs,
        digest,
        layers,
    }
}

/// The Fig. 14 configuration: Router→NAPT→LB with 3120 routes and
/// offload, FlowDirector, CacheDirector headroom, 8 cores.
fn chain_config(seed: u64) -> RunConfig {
    let mut cfg = RunConfig::paper_defaults(
        ChainSpec::RouterNaptLb {
            routes: 3120,
            offload: true,
        },
        SteeringKind::FlowDirector,
        HeadroomMode::CacheDirector {
            preferred_slices: 1,
        },
    );
    cfg.seed ^= seed;
    cfg
}

/// What driving a [`Testbed`] packet by packet measured.
pub(crate) struct ChainRun {
    /// The finished run.
    pub result: nfv::runtime::RunResult,
    /// LLC `(lookups, misses)` over the offer loop.
    pub llc: ((u64, u64), (u64, u64)),
    /// CPU seconds of `Testbed::new`.
    pub setup_s: f64,
    /// Process CPU seconds at the first offer.
    pub first_offer_s: f64,
    /// CPU seconds of the offer loop plus `finish`.
    pub serve_s: f64,
    /// Monotonic seconds of the offer loop plus `finish`.
    pub serve_wall_s: f64,
    /// CPU seconds of `finish`.
    pub finish_s: f64,
    /// Per-offer ns (traced runs only).
    pub offer_ns: Vec<f64>,
    /// Net seconds in trace/schedule calls (traced runs only).
    pub packet_gen_s: f64,
}

/// Builds the chain testbed and drives `packets` campus-mix packets at
/// 100 Gbps through `Testbed::offer`.
pub(crate) fn drive_chain(seed: u64, packets: usize, trace: Option<Clock>) -> ChainRun {
    let t0 = cpu_s();
    let mut tb = Testbed::new(chain_config(seed)).expect("the Fig. 14 testbed fits");
    let setup_s = cpu_s() - t0;
    let mut campus = CampusTrace::new(SizeMix::campus(), 10_000, 42 ^ seed);
    let mut sched = ArrivalSchedule::constant_gbps(100.0, 670.0);

    let first_offer_s = cpu_s();
    let wall0 = monotonic_ns();
    let llc0 = llc_counts(tb.machine());
    let mut offer_ns = Vec::new();
    let mut packet_gen_s = 0.0;
    match trace {
        None => {
            for _ in 0..packets {
                let t = sched.next_arrival_ns();
                let spec = campus.next_packet();
                tb.offer(&spec.flow, spec.size, t);
            }
        }
        Some(clock) => {
            offer_ns.reserve(packets);
            let mut gen_raw = 0;
            for _ in 0..packets {
                let g0 = clock.now();
                let t = sched.next_arrival_ns();
                let spec = campus.next_packet();
                let o0 = clock.now();
                tb.offer(&spec.flow, spec.size, t);
                offer_ns.push(clock.span_ns(o0, clock.now()));
                gen_raw += o0 - g0;
            }
            packet_gen_s = clock.net_ns(gen_raw, packets as u64) / 1e9;
        }
    }
    let llc1 = llc_counts(tb.machine());
    let f0 = cpu_s();
    let result = tb.finish();
    let end = cpu_s();
    let serve_wall_s = wall_s_since(wall0);
    ChainRun {
        result,
        llc: (llc0, llc1),
        setup_s,
        first_offer_s,
        serve_s: end - first_offer_s,
        serve_wall_s,
        finish_s: end - f0,
        offer_ns,
        packet_gen_s,
    }
}

/// The `q`-quantile of `v` (nearest rank); sorts `v`.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Records the `nfv.*` per-call timings of a traced chain run.
pub(crate) fn record_chain_timings(run: &mut ChainRun, layers: &mut Layers) {
    layers.insert("nfv.testbed_setup_s", ("s", run.setup_s));
    layers.insert("nfv.finish_s", ("s", run.finish_s));
    layers.insert("nfv.offer_ns_p50", ("ns", quantile(&mut run.offer_ns, 0.5)));
    layers.insert(
        "nfv.offer_ns_p99",
        ("ns", quantile(&mut run.offer_ns, 0.99)),
    );
}

fn nfv_chain_cd(seed: u64, size: Size, trace: Option<Clock>) -> Outcome {
    let mark = SchedMark::now();
    let mut run = drive_chain(seed, size.nfv_packets, trace);
    let (events, epochs) = mark.since();
    let res = &run.result;
    assert_eq!(res.offered, size.nfv_packets as u64, "every packet offered");
    assert_eq!(
        res.offered,
        res.delivered + res.dropped,
        "every packet is delivered or dropped"
    );
    assert_eq!(res.dropped, res.drops.total(), "drops partition by cause");
    assert_eq!(
        res.latencies_ns.len() as u64,
        res.delivered,
        "one latency per delivered packet"
    );

    let mut layers = Layers::new();
    // The report path: the paper's percentile row and the Fig. 14a CDF.
    let t0 = cpu_s();
    let summary = Summary::from_samples(res.latencies_ns.iter().copied())
        .expect("the chain delivers packets");
    let row = summary.paper_row();
    let cdf = Cdf::from_samples(res.latencies_ns.iter().copied()).expect("non-empty");
    let cdf_points: Vec<f64> = [1.0, 10.0, 100.0, 500.0]
        .map(|us| cdf.at(us * 1e3))
        .to_vec();
    layers.insert("xstats.report_s", ("s", cpu_s() - t0));

    let mut digest = Digest::default();
    digest.add("report", res);
    digest.add("paper_row", &row);
    digest.add("cdf", &cdf_points);
    let (llc0, llc1) = run.llc;
    record_llc(llc0, llc1, res.offered, &mut digest, &mut layers);
    layers.insert(
        "rte.drop_ratio",
        ("ratio", res.drops.nic.total() as f64 / res.offered as f64),
    );
    layers.insert(
        "trace.serve_self_s",
        ("s", run.serve_wall_s - run.packet_gen_s),
    );
    let (ops, sim_failed) = (res.offered, res.drops.nic.total());
    if trace.is_some() {
        layers.insert(
            "trafficgen.packet_ns",
            ("ns", run.packet_gen_s * 1e9 / size.nfv_packets as f64),
        );
        record_chain_timings(&mut run, &mut layers);
    }
    Outcome {
        ops,
        sim_failed,
        setup_s: run.first_offer_s,
        serve_s: run.serve_s,
        events,
        epochs,
        digest,
        layers,
    }
}

fn tenants_online(seed: u64, size: Size) -> Outcome {
    let cfg = TenancyConfig {
        seed,
        ..TenancyConfig::new(Regime::Online, size.tenant_packets)
    };
    // The machine, tenants and warm-up are built inside run_tenancy, so
    // set-up here is only the process start.
    let setup_s = cpu_s();
    let mark = SchedMark::now();
    let wall0 = monotonic_ns();
    let rep = run_tenancy(&cfg);
    let serve_s = cpu_s() - setup_s;
    let serve_wall_s = wall_s_since(wall0);
    let (events, epochs) = mark.since();

    let mut ops = 0;
    let mut served = 0;
    let mut rejected = 0;
    for (t, ten) in rep.tenants.iter().enumerate() {
        assert_eq!(
            ten.offered,
            ten.accepted + ten.rejected,
            "{}: every frame is accepted or rejected",
            ten.name
        );
        assert_eq!(
            rep.per_group[t].offered, ten.offered,
            "{}: ledger",
            ten.name
        );
        assert!(
            ten.min_ways >= FLOOR_WAYS,
            "{}: below the way floor",
            ten.name
        );
        ops += ten.offered;
        served += ten.served;
        rejected += ten.rejected;
    }

    let mut digest = Digest::default();
    digest.add("report", &rep);
    let mut layers = Layers::new();
    layers.insert("tenancy.moves", ("count", rep.moves as f64));
    layers.insert("tenancy.ddio_shrinks", ("count", rep.ddio_shrinks as f64));
    layers.insert("tenancy.epochs", ("count", rep.epochs as f64));
    layers.insert("rte.drop_ratio", ("ratio", rejected as f64 / ops as f64));
    layers.insert("trace.serve_self_s", ("s", serve_wall_s));
    Outcome {
        ops,
        sim_failed: ops - served,
        setup_s,
        serve_s,
        events,
        epochs,
        digest,
        layers,
    }
}
