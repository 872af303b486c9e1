//! Scale study: the multi-queue KVS at millions of keys and millions of
//! requests, with a bounded-memory report path.
//!
//! Everything before this figure collected per-request latency `Vec`s
//! and recomputed the O(n) Zipf zeta sum per client — both fine at
//! smoke scale, both wrong at 2^21 keys x 10^6 requests. This binary is
//! the proof that the fixes compose end to end:
//!
//! 1. **Closed-loop capacity at scale** — `StripedHot` placement with
//!    the cost-aware hot-set migrator over a store many times the LLC,
//!    so the hot set spans far more than one slice and migration earns
//!    its keep through real eviction traffic.
//! 2. **Open-loop tail latency at scale** — the same store driven two
//!    ways: a Poisson [`trafficgen::OpenLoopGen`] and a
//!    [`trafficgen::TraceReplay`] of a v2 tracefile synthesized from
//!    that same Poisson process (recorded through
//!    `tracefile::write_trace_v2`, read back, replayed). Completion
//!    latencies stream into one [`xstats::LogHist`] per queue
//!    ([`kvs::CompletionSink`]); the report path holds a few KiB of
//!    sketch state however many requests run — no per-request `Vec`.
//! 3. **Sketch-vs-exact differential** — a subsampled run keeps the
//!    exact completion series, and the sketch quantiles are checked
//!    (hard assert) against the rank-`ceil(q*n)` order statistics
//!    within the sketch's documented relative-error bound.
//! 4. **Large values under memory pressure** — the §8 scattered-value
//!    store at a working set larger than the LLC, near-slice `SliceSet`
//!    vs. `Normal`, sharing one [`trafficgen::ZipfConstants`] setup
//!    across both placements.
//!
//! Scale: `fig_scale_kvs [runs] [ops] [log2_keys] [--cores=N]
//! [--rate=OPS_PER_S] [--smoke] [--scheduler=...]`.
//! Default full scale is 2^21 keys x 10^6 ops; `--smoke` shrinks to
//! 2^14 x 2000 for CI. Output is bit-identical across the event-driven
//! and reference-tick schedulers.

use kvs::proto::RequestGen;
use kvs::server::{flow_for_queue, run_server, MigrationMode, ServerConfig};
use kvs::store::{KvStore, Placement};
use kvs::{
    run_openloop, run_openloop_streaming, CompletionSink, LargeKvStore, LargePlacement,
    OpenLoopConfig, OpenLoopReport,
};
use llc_sim::hash::{SliceHash, XorSliceHash};
use llc_sim::machine::{Machine, MachineConfig};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use trafficgen::tracefile::{read_trace_timed_bytes, write_trace_v2};
use trafficgen::{
    Arrivals, CampusTrace, OpenLoopGen, SizeMix, TimedPacket, TraceReplay, ZipfConstants, ZipfGen,
};
use xstats::report::{f, Table};
use xstats::LogHist;

/// Sketch relative-error bound for the streamed latency quantiles.
const ALPHA: f64 = 0.01;

/// Total open-loop arrival rate over all cores (ops/s). Well below the
/// multi-queue capacity, so the rows measure service tails rather than
/// queueing collapse.
const DEFAULT_RATE: f64 = 8e6;

fn flag<T: std::str::FromStr>(args: &[String], prefix: &str) -> Option<T> {
    args.iter()
        .find_map(|a| a.strip_prefix(prefix).and_then(|v| v.parse().ok()))
}

/// The §3 hot-pool sizing rule shared with fig08: half a slice spread
/// over the cores, capped at an eighth of each core's key class.
fn hot_per_core(n_values: usize, cores: usize) -> usize {
    (20_000 / cores).min(n_values / cores / 8).max(1)
}

/// Builds the scale machine: DRAM sized for the slice-aware carving
/// (~9x the store) plus headroom for pools and rings.
fn scale_machine(store_bytes: usize) -> (Machine, usize) {
    let region_bytes = (store_bytes * 9).max(64 << 20);
    let m = Machine::new(
        MachineConfig::haswell_e5_2667_v3()
            .with_dram_capacity(region_bytes + store_bytes + (256 << 20)),
    );
    (m, region_bytes)
}

// ---------------------------------------------------------------------
// Section 1: closed-loop capacity with the cost-aware migrator.
// ---------------------------------------------------------------------

/// One closed-loop run at scale: StripedHot placement, scrambled Zipf
/// clients (the popular keys start cold — only migration can move them
/// into the slice-local hot pools), warm-up pass, measured pass.
fn run_closed(
    n_values: usize,
    cores: usize,
    requests: usize,
    migration: MigrationMode,
) -> Result<kvs::ServerReport, Box<dyn std::error::Error>> {
    let (mut m, region_bytes) = scale_machine(n_values * 64);
    let placement = Placement::StripedHot {
        slices: (0..cores).map(|c| m.closest_slice(c)).collect(),
        hot_per_core: hot_per_core(n_values, cores),
    };
    let region = m.mem_mut().alloc(region_bytes, 1 << 20)?;
    let hash = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| hash.slice_of(pa));
    let store = KvStore::build(&mut m, &mut alloc, n_values, placement)?;
    let mut pool = MbufPool::create(&mut m, (1024 * cores) as u32, 128, 2048)?;
    let mut port = Port::new(0, Steering::Rss(Rss::new(cores)), 256);
    let base = trafficgen::FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
    // One shared zeta setup for every client (the O(n)-per-client fix);
    // scrambled ranks so the Zipf head starts cold in every slice.
    let zc = ZipfConstants::shared((n_values / cores) as u64, 0.99);
    let mut gens: Vec<RequestGen> = (0..cores)
        .map(|q| {
            let flow = flow_for_queue(&mut port, base, q);
            let keygen = ZipfGen::from_constants(&zc, 4242 + q as u64);
            RequestGen::new(keygen, 950, 77 + q as u64)
                .with_flow(flow)
                .with_key_partition(cores as u32, q as u32)
                .with_key_scramble(4300 + q as u64)
        })
        .collect();
    let mut policy = FixedHeadroom(128);
    let mut cfg = ServerConfig::fig8(requests, 950, 1).with_cores(cores);
    cfg.scheduler = bench::scheduler_from_args();
    cfg.migration = migration;
    let warm = ServerConfig {
        requests: requests / 4,
        ..cfg.clone()
    };
    run_server(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut gens,
        &warm,
    );
    Ok(run_server(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut gens,
        &cfg,
    ))
}

fn closed_section(
    n_values: usize,
    cores: usize,
    requests: usize,
    epoch: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    // The migrator needs epoch boundaries to act on; guarantee a few
    // per core even at smoke scale.
    let requests = requests.max(cores * epoch * 3);
    println!(
        "Closed loop — StripedHot, scrambled Zipf(0.99), epoch {epoch}, \
         {requests} requests (warm-up {}):\n",
        requests / 4
    );
    let mut t = Table::new([
        "Config",
        "HotHit%",
        "MTPS",
        "Cycles/req",
        "Migrated",
        "Vetoed",
        "AtLoss",
    ]);
    let mut reports = Vec::new();
    for (label, migration) in [
        ("StripedHot (static)", MigrationMode::Off),
        ("StripedHot+cost-aware", MigrationMode::CostAware { epoch }),
    ] {
        let rep = run_closed(n_values, cores, requests, migration)?;
        t.row([
            label.to_string(),
            f(rep.hot_hit_rate() * 100.0, 1),
            f(rep.tps / 1e6, 3),
            f(rep.cycles_per_request, 1),
            rep.migrated.to_string(),
            rep.swaps_vetoed.to_string(),
            rep.swaps_at_loss.to_string(),
        ]);
        reports.push(rep);
    }
    println!("{}", t.render());
    let [stat, aware] = &reports[..] else {
        unreachable!()
    };
    println!(
        "cost-aware vs static: {:+.1} pts hot-hit-rate, {:+.1}% TPS, \
         {} swaps at a projected loss\n",
        (aware.hot_hit_rate() - stat.hot_hit_rate()) * 100.0,
        (aware.tps - stat.tps) / stat.tps * 100.0,
        aware.swaps_at_loss
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Section 2: open-loop tail latency, streamed into per-queue sketches.
// ---------------------------------------------------------------------

/// The bounded report path: one latency sketch per RX queue plus the
/// last completion timestamp (for completion-window goodput). Fixed
/// size — a few KiB per queue — at any request count.
struct SketchSink {
    per_queue: Vec<LogHist>,
    last_completion_ns: f64,
}

impl SketchSink {
    fn new(cores: usize) -> Self {
        Self {
            per_queue: (0..cores).map(|_| LogHist::latency_ns(ALPHA)).collect(),
            last_completion_ns: 0.0,
        }
    }

    /// All queues merged into one sketch (for the aggregate quantiles).
    fn merged(&self) -> LogHist {
        let mut all = self.per_queue[0].clone();
        for q in &self.per_queue[1..] {
            all.merge(q);
        }
        all
    }
}

impl CompletionSink for SketchSink {
    fn record(&mut self, queue: usize, completion_ns: f64, latency_ns: f64) {
        self.per_queue[queue].record(latency_ns);
        if completion_ns > self.last_completion_ns {
            self.last_completion_ns = completion_ns;
        }
    }
}

/// Open-loop config shared by every drive row and the differential run.
fn open_cfg(ops: usize, cores: usize) -> OpenLoopConfig {
    let mut cfg = OpenLoopConfig::new(ops, 42).with_cores(cores);
    cfg.scheduler = bench::scheduler_from_args();
    cfg
}

/// Builds the machine/store/port and runs one open-loop experiment,
/// streaming completions into `sink` (fresh port per run — open-loop
/// matching requires it).
fn run_open(
    n_values: usize,
    cfg: &OpenLoopConfig,
    arrivals: &mut dyn Arrivals,
    sink: &mut SketchSink,
) -> OpenLoopReport {
    let (mut m, region_bytes) = scale_machine(n_values * 64);
    let placement = Placement::StripedHot {
        slices: (0..cfg.cores).map(|c| m.closest_slice(c)).collect(),
        hot_per_core: hot_per_core(n_values, cfg.cores),
    };
    let region = m.mem_mut().alloc(region_bytes, 1 << 20).unwrap();
    let hash = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| hash.slice_of(pa));
    let store = KvStore::build(&mut m, &mut alloc, n_values, placement).unwrap();
    let mut pool = MbufPool::create(&mut m, (8 * cfg.cores * cfg.queue_depth) as u32, 128, 2048)
        .expect("pool sized to the rings");
    let mut port = Port::new(0, Steering::Rss(Rss::new(cfg.cores)), cfg.queue_depth);
    let mut policy = FixedHeadroom(128);
    run_openloop_streaming(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        arrivals,
        cfg,
        sink,
    )
}

/// Synthesizes a v2 tracefile from a Poisson arrival process (CampusTrace
/// packet specs, arrivals quantized to the format's integer ns), then
/// reads it back into a [`TraceReplay`] source. The round trip through
/// the on-disk format is the point: the replay row is driven by exactly
/// what a recorded trace would contain.
fn replay_from_recorded_poisson(ops: usize, rate: f64) -> TraceReplay {
    let mut gen = OpenLoopGen::poisson(rate, 7);
    let mut campus = CampusTrace::new(SizeMix::campus(), 64, 7);
    let timed: Vec<TimedPacket> = campus
        .take(ops)
        .into_iter()
        .map(|spec| TimedPacket {
            spec,
            arrival_ns: gen.next_arrival_ns() as u64,
        })
        .collect();
    let mut buf = Vec::new();
    write_trace_v2(&mut buf, &timed).expect("in-memory trace write");
    TraceReplay::new(&read_trace_timed_bytes(&buf).expect("own trace reads back"))
}

fn open_section(n_values: usize, ops: usize, cores: usize, rate: f64) {
    println!(
        "Open loop — StripedHot, {ops} ops at {:.1} Mops/s over {cores} queues, \
         streamed into per-queue LogHist(alpha={ALPHA}):\n",
        rate / 1e6
    );
    let mut t = Table::new([
        "Drive",
        "Completed",
        "Goodput (Mops/s)",
        "p50 (us)",
        "p99 (us)",
        "p999 (us)",
        "max (us)",
    ]);
    let mut per_queue_lines = Vec::new();
    let mut sketch_note = None;
    for drive in ["poisson", "trace-replay(v2)"] {
        let cfg = open_cfg(ops, cores);
        let mut sink = SketchSink::new(cores);
        let rep = match drive {
            "poisson" => {
                let mut arr = OpenLoopGen::poisson(rate, 7);
                run_open(n_values, &cfg, &mut arr, &mut sink)
            }
            _ => {
                let mut arr = replay_from_recorded_poisson(ops, rate);
                run_open(n_values, &cfg, &mut arr, &mut sink)
            }
        };
        let all = sink.merged();
        assert_eq!(
            all.count() + all.nonfinite(),
            rep.completed,
            "every completion must reach the sketches"
        );
        let goodput = if sink.last_completion_ns > 0.0 {
            rep.completed as f64 / (sink.last_completion_ns / 1e9) / 1e6
        } else {
            0.0
        };
        t.row([
            drive.to_string(),
            rep.completed.to_string(),
            f(goodput, 3),
            f(all.quantile(0.50) / 1e3, 3),
            f(all.quantile(0.99) / 1e3, 3),
            f(all.quantile(0.999) / 1e3, 3),
            f(all.max() / 1e3, 3),
        ]);
        per_queue_lines.push(format!(
            "  {drive:<16} per-queue p99 (us): {}",
            sink.per_queue
                .iter()
                .map(|s| f(s.quantile(0.99) / 1e3, 3))
                .collect::<Vec<_>>()
                .join("  ")
        ));
        sketch_note.get_or_insert_with(|| {
            (
                all.bucket_count(),
                cores,
                all.underflow(),
                all.overflow(),
                all.nonfinite(),
            )
        });
    }
    println!("{}", t.render());
    for line in per_queue_lines {
        println!("{line}");
    }
    let (buckets, nq, under, over, nonfinite) = sketch_note.expect("two drive rows ran");
    println!(
        "report path held {nq} sketches x {buckets} buckets (fixed, ~8 B each) — \
         no per-request Vec; underflow {under}, overflow {over}, non-finite {nonfinite}\n"
    );
}

// ---------------------------------------------------------------------
// Section 3: sketch-vs-exact differential on a subsampled run.
// ---------------------------------------------------------------------

fn differential_section(n_values: usize, ops: usize, cores: usize, rate: f64) {
    let sub = (ops / 8).clamp(500, 50_000);
    println!(
        "Differential — exact vs sketch on a {sub}-op subsample \
         (bound: relative error <= {:.1}%):\n",
        ALPHA * 100.0
    );
    let cfg = open_cfg(sub, cores);
    let (mut m, region_bytes) = scale_machine(n_values * 64);
    let placement = Placement::StripedHot {
        slices: (0..cores).map(|c| m.closest_slice(c)).collect(),
        hot_per_core: hot_per_core(n_values, cores),
    };
    let region = m.mem_mut().alloc(region_bytes, 1 << 20).unwrap();
    let hash = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| hash.slice_of(pa));
    let store = KvStore::build(&mut m, &mut alloc, n_values, placement).unwrap();
    let mut pool =
        MbufPool::create(&mut m, (8 * cores * cfg.queue_depth) as u32, 128, 2048).unwrap();
    let mut port = Port::new(0, Steering::Rss(Rss::new(cores)), cfg.queue_depth);
    let mut policy = FixedHeadroom(128);
    let mut arr = OpenLoopGen::poisson(rate, 7);
    // The exact (Vec-collecting) path the sketch replaced.
    let rep = run_openloop(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut arr,
        &cfg,
    );
    let mut exact = rep.latencies();
    exact.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mut sketch = LogHist::latency_ns(ALPHA);
    for &l in &exact {
        sketch.record(l);
    }
    let mut t = Table::new(["Quantile", "exact (us)", "sketch (us)", "rel err (%)"]);
    for (label, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
        // The sketch's bound is against the rank-ceil(q*n) order
        // statistic — compare against exactly that.
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let ex = exact[rank - 1];
        let sk = sketch.quantile(q);
        let rel = (sk - ex).abs() / ex;
        assert!(
            rel <= ALPHA * 1.000001,
            "{label}: sketch {sk} vs exact {ex} — relative error {rel} \
             exceeds the documented bound {ALPHA}"
        );
        t.row([
            label.to_string(),
            f(ex / 1e3, 4),
            f(sk / 1e3, 4),
            f(rel * 100.0, 3),
        ]);
    }
    println!("{}", t.render());
    println!("all quantiles within the sketch's documented bound (asserted)\n");
}

// ---------------------------------------------------------------------
// Section 4: large values under memory pressure.
// ---------------------------------------------------------------------

fn large_section(n_large: usize, value_size: usize, draws: usize) {
    let store_mb = n_large * value_size / (1 << 20);
    println!(
        "Large values under memory pressure — {n_large} x {value_size} B scattered \
         values ({store_mb} MB working set), Zipf(0.99) GETs on core 0:\n"
    );
    // One zeta setup serves both placements (identical key streams by
    // construction — the shared-constants contract).
    let zc = ZipfConstants::shared(n_large as u64, 0.99);
    let mut t = Table::new(["Placement", "mean (ns/GET)", "p50 (ns)", "p99 (ns)"]);
    let mut means = Vec::new();
    for label in ["normal", "near-slice"] {
        let store_bytes = n_large * value_size;
        let (mut m, region_bytes) = scale_machine(store_bytes);
        let placement = match label {
            "normal" => LargePlacement::Normal,
            _ => LargePlacement::SliceSet(vec![m.closest_slice(0)]),
        };
        let region = m.mem_mut().alloc(region_bytes, 1 << 20).unwrap();
        let hash = XorSliceHash::haswell_8slice();
        let mut alloc = SliceAllocator::new(region, move |pa| hash.slice_of(pa));
        let store = LargeKvStore::build(&mut alloc, n_large, value_size, &placement).unwrap();
        let freq_ghz = m.config().freq_ghz;
        let mut buf = vec![0u8; value_size];
        // Warm pass with the same draw count, then the measured pass —
        // the timed GETs run against a populated cache hierarchy.
        let mut keygen = ZipfGen::from_constants(&zc, 9090);
        for _ in 0..draws {
            let key = keygen.next_rank() as usize;
            store.get(&mut m, 0, key, &mut buf);
        }
        let mut sketch = LogHist::latency_ns(ALPHA);
        for _ in 0..draws {
            let key = keygen.next_rank() as usize;
            let cycles = store.get(&mut m, 0, key, &mut buf);
            sketch.record(cycles as f64 / freq_ghz);
        }
        means.push((sketch.mean(), sketch.quantile(0.50)));
        t.row([
            label.to_string(),
            f(sketch.mean(), 1),
            f(sketch.quantile(0.50), 1),
            f(sketch.quantile(0.99), 1),
        ]);
    }
    println!("{}", t.render());
    let [(normal_mean, normal_p50), (near_mean, near_p50)] = &means[..] else {
        unreachable!()
    };
    println!(
        "near-slice vs normal: {:+.1}% mean, {:+.1}% p50 — single-slice scatter \
         serves the cached Zipf head at near-slice latency but caps effective \
         LLC capacity at one slice, so whether the mean wins depends on the \
         working set vs the LLC (the fig08 capacity lesson at §8 value sizes)\n",
        (near_mean - normal_mean) / normal_mean * 100.0,
        (near_p50 - normal_p50) / normal_p50 * 100.0
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(1, 1_000_000);
    let args: Vec<String> = std::env::args().collect();
    let default_log2 = if scale.smoke { 14 } else { 21 };
    let log2_n: u32 = args
        .get(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_log2);
    let n_values = 1usize << log2_n;
    let cores: usize = flag(&args, "--cores=").unwrap_or(4);
    let rate: f64 = flag(&args, "--rate=").unwrap_or(DEFAULT_RATE);
    let ops = scale.packets;
    // Smoke shrinks every scale knob; full scale defaults to a few
    // epochs over a million requests and a 32 MB large-value set.
    let (epoch, n_large, large_draws) = if scale.smoke {
        (512, 2_048, 2_000)
    } else {
        (4_096, 32_768, 100_000)
    };
    // NOTE: --scheduler deliberately does not change this banner — the
    // golden regression diffs both schedulers against the same snapshot.
    println!(
        "Scale study — multi-queue KVS, {cores} core(s), 2^{log2_n} x 64 B values \
         ({} MB store), {ops} ops/row\n",
        n_values * 64 / (1 << 20)
    );
    closed_section(n_values, cores, ops, epoch)?;
    open_section(n_values, ops, cores, rate);
    differential_section(n_values, ops, cores, rate);
    large_section(n_large, 1024, large_draws);
    println!(
        "The report path is O(sketch) at any scale: quantiles stream through \
         per-queue log-histograms (error bound asserted above), Zipf setup is \
         shared per (n, theta), and the replay row reproduces a recorded v2 \
         trace's arrival structure exactly. See EXPERIMENTS.md (Scale study)."
    );
    bench::eprint_sched_totals("fig_scale_kvs");
    Ok(())
}
