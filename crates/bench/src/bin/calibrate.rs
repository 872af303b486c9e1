//! Calibration helper: sweeps framework overhead and reports achieved
//! throughput + latency percentiles for both applications at 100 Gbps.
//!
//! Not one of the paper's figures — this is the tool used to pick the
//! `framework_cycles` default documented in EXPERIMENTS.md.

use nfv::runtime::{run_experiment, ChainSpec, HeadroomMode, RunConfig, SteeringKind};
use trafficgen::{ArrivalSchedule, CampusTrace, SizeMix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let default_packets = if args.iter().any(|a| a == "--smoke") {
        2_000
    } else {
        100_000
    };
    let packets: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_packets);
    let fw: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(950);
    let skew: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0.9);
    let cap: f64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(13.9);
    println!("packets={packets} framework_cycles={fw} flow_skew={skew} nic_cap={cap}Mpps");
    for (name, chain, steering) in [
        ("forwarding/RSS", ChainSpec::MacSwap, SteeringKind::Rss),
        (
            "chain/FlowDirector",
            ChainSpec::RouterNaptLb {
                routes: 3120,
                offload: true,
            },
            SteeringKind::FlowDirector,
        ),
    ] {
        for (hname, headroom) in [
            ("stock", HeadroomMode::Stock),
            (
                "cachedirector",
                HeadroomMode::CacheDirector {
                    preferred_slices: 1,
                },
            ),
        ] {
            let mut cfg = RunConfig::paper_defaults(chain, steering, headroom);
            cfg.framework_cycles = fw;
            cfg.nic_rate_mpps = Some(cap);
            let mut trace =
                CampusTrace::new(SizeMix::campus(), 10_000, 42).with_flow_skew(skew, 42);
            // Mean campus frame ≈ 670 B.
            let mut sched = ArrivalSchedule::constant_gbps(100.0, 670.0);
            let res = run_experiment(cfg, &mut trace, &mut sched, packets)?;
            let s = res.summary().ok_or("no latencies recorded")?;
            let row = s.paper_row();
            println!(
                "{name:<20} {hname:<14} achieved={:.2} Gbps offered={:.2} drop={:.1}% p75={:.1}us p90={:.1}us p95={:.1}us p99={:.1}us mean={:.1}us",
                res.achieved_gbps,
                res.offered_gbps,
                res.dropped as f64 / res.offered as f64 * 100.0,
                row[0] / 1000.0,
                row[1] / 1000.0,
                row[2] / 1000.0,
                row[3] / 1000.0,
                row[4] / 1000.0,
            );
        }
    }
    bench::eprint_sched_totals("calibrate");
    Ok(())
}
