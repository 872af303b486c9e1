//! Full-scale benchmark of the LLC simulator.
//!
//! Four workloads are built through the crates' public APIs and timed
//! from outside in host CPU time (see `README.md` for why each exists
//! and which layer metric should move which end-to-end metric). One
//! process runs one repetition of one workload and prints one JSON
//! record; `run.py` runs repetitions in fresh processes and reports
//! medians.

pub mod clock;
pub mod digest;
pub mod probes;
pub mod workloads;
pub mod wrap;

use workloads::{Outcome, Size, Workload};

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("sim_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: name and unit.
/// `trace.overhead_pct` compares traced with untraced processes, so
/// `run.py` computes it; a single process reports all the others.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("trafficgen.arrival_ns", "ns"),
    ("trafficgen.packet_ns", "ns"),
    ("trafficgen.zipf_setup_s", "s"),
    ("llc.touch_read_l1_ns", "ns"),
    ("llc.touch_read_llc_ns", "ns"),
    ("llc.touch_read_dram_ns", "ns"),
    ("llc.dma_write_ns", "ns"),
    ("llc.slice_hash_ns", "ns"),
    ("llc.hit_ratio", "ratio"),
    ("llc.lookups_per_op", "lookups/op"),
    ("llc.misses_per_op", "misses/op"),
    ("engine.events_per_op", "events/op"),
    ("engine.epochs_per_op", "epochs/op"),
    ("engine.serve_ns_per_event", "ns"),
    ("engine.dispatch_ns_per_event", "ns"),
    ("rte.route_ns", "ns"),
    ("rte.headroom_ns", "ns"),
    ("rte.drop_ratio", "ratio"),
    ("cache_director.data_off_ns", "ns"),
    ("slice_aware.store_build_s", "s"),
    ("kvs.get_ns", "ns"),
    ("kvs.hot_hit_ratio", "ratio"),
    ("kvs.migrate_useful_ratio", "ratio"),
    ("kvs.retries", "count"),
    ("nfv.testbed_setup_s", "s"),
    ("nfv.offer_ns_p50", "ns"),
    ("nfv.offer_ns_p99", "ns"),
    ("nfv.finish_s", "s"),
    ("tenancy.moves", "count"),
    ("tenancy.ddio_shrinks", "count"),
    ("tenancy.epochs", "count"),
    ("xstats.sink_record_ns", "ns"),
    ("xstats.report_s", "s"),
    ("trace.serve_self_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// The peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// One repetition: runs the workload and, when traced, the layer
/// probes. Returns the outcome with every per-layer metric a single
/// process can measure.
pub fn repetition(w: Workload, seed: u64, size: Size, traced: bool) -> Outcome {
    let trace = traced.then(clock::Clock::monotonic);
    let mut out = workloads::run(w, seed, size, trace);
    let per_op = |n: u64| n as f64 / out.ops as f64;
    let derived = [
        ("engine.events_per_op", ("events/op", per_op(out.events))),
        ("engine.epochs_per_op", ("epochs/op", per_op(out.epochs))),
        (
            "engine.serve_ns_per_event",
            ("ns", out.serve_s * 1e9 / out.events.max(1) as f64),
        ),
    ];
    out.layers.extend(derived);
    if traced {
        probes::fill(w, size, &mut out.layers);
    }
    out
}

/// The JSON record one process prints.
pub fn record_json(w: Workload, seed: u64, traced: bool, out: &Outcome, rss_mb: f64) -> String {
    let num = |v: f64| {
        assert!(v.is_finite(), "metric values are finite");
        format!("{v}")
    };
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{},\"ops\":{},\"sim_failed\":{},\
         \"digest\":\"{}\",\"setup_s\":{},\"serve_s\":{},\"sim_ops_per_s\":{},\"peak_rss_mb\":{}",
        w.name(),
        u8::from(traced),
        out.ops,
        out.sim_failed,
        out.digest.hex(),
        num(out.setup_s),
        num(out.serve_s),
        num(out.ops as f64 / out.serve_s),
        num(rss_mb),
    );
    if traced {
        let layers: Vec<String> = out
            .layers
            .iter()
            .map(|(name, (unit, v))| {
                format!("\"{name}\":{{\"unit\":\"{unit}\",\"value\":{}}}", num(*v))
            })
            .collect();
        s += &format!(",\"layers\":{{{}}}", layers.join(","));
    }
    s + "}"
}
