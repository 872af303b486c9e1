//! Figs. 1 & 14 + Table 3 (row 2): the stateful service chain
//! Router → NAPT → LB on 8 cores, campus mix at 100 Gbps, FlowDirector
//! with hardware offloading — latency CDF, per-percentile improvement,
//! the Fig. 1 speedup bars and the throughput row.

use nfv::runtime::{
    run_experiment, ChainSpec, HeadroomMode, RunConfig, RunResult, SetupError, SteeringKind,
};
use trafficgen::{ArrivalSchedule, CampusTrace, SizeMix};
use xstats::report::{f, Table};
use xstats::Cdf;

fn one(headroom: HeadroomMode, run: u64, packets: usize) -> Result<RunResult, SetupError> {
    let mut cfg = RunConfig::paper_defaults(
        ChainSpec::RouterNaptLb {
            routes: 3120,
            offload: true,
        },
        SteeringKind::FlowDirector,
        headroom,
    );
    cfg.seed ^= run;
    let mut trace = CampusTrace::new(SizeMix::campus(), 10_000, 42 + run);
    let mut sched = ArrivalSchedule::constant_gbps(100.0, 670.0);
    run_experiment(cfg, &mut trace, &mut sched, packets)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(10, 150_000);
    println!(
        "Figs. 1 & 14 — Router-NAPT-LB, campus mix @ 100 Gbps, FlowDirector+offload, \
         8 cores; median of {} runs x {} pkts\n",
        scale.runs, scale.packets
    );
    let mut rows_stock = Vec::new();
    let mut rows_cd = Vec::new();
    let mut tput = (Vec::new(), Vec::new());
    let mut last: Option<(RunResult, RunResult)> = None;
    for run in 0..scale.runs as u64 {
        let s = one(HeadroomMode::Stock, run, scale.packets)?;
        let c = one(
            HeadroomMode::CacheDirector {
                preferred_slices: 1,
            },
            run,
            scale.packets,
        )?;
        rows_stock.push(s.summary().ok_or("no latencies recorded")?.paper_row());
        rows_cd.push(c.summary().ok_or("no latencies recorded")?.paper_row());
        tput.0.push(s.achieved_gbps);
        tput.1.push(c.achieved_gbps);
        last = Some((s, c));
    }
    let stock = bench::median_rows(&rows_stock);
    let cd = bench::median_rows(&rows_cd);
    let imp = bench::improvement(&stock, &cd);
    let speedup = bench::speedup_percent(&stock, &cd);

    // Fig. 14a: the latency CDF of the last run.
    let (s_last, c_last) = last.ok_or("at least one run required")?;
    println!("Fig. 14a — CDF of DuT latency (last run, 10 points/decade):");
    let cdf_s =
        Cdf::from_samples(s_last.latencies_ns.iter().copied()).ok_or("empty latency samples")?;
    let cdf_c =
        Cdf::from_samples(c_last.latencies_ns.iter().copied()).ok_or("empty latency samples")?;
    let mut t = Table::new(["Latency (us)", "DPDK CDF", "+CacheDirector CDF"]);
    for q in [1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0] {
        t.row([
            f(q, 0),
            f(cdf_s.at(q * 1e3) * 100.0, 1),
            f(cdf_c.at(q * 1e3) * 100.0, 1),
        ]);
    }
    println!("{}", t.render());

    println!("Fig. 14b / Fig. 1 — percentiles (median of runs):");
    let mut t = Table::new([
        "Percentile",
        "DPDK (us)",
        "+CacheDirector (us)",
        "Improvement (us)",
        "Speedup (%)",
    ]);
    for (i, name) in ["75th", "90th", "95th", "99th", "Mean"].iter().enumerate() {
        t.row([
            name.to_string(),
            f(stock[i] / 1e3, 1),
            f(cd[i] / 1e3, 1),
            f(imp[i] / 1e3, 1),
            f(speedup[i], 1),
        ]);
    }
    println!("{}", t.render());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "Table 3 row 2 — throughput: DPDK {:.2} Gbps, +CacheDirector {:.2} Gbps \
         (improvement {:.0} Mbps)",
        mean(&tput.0),
        mean(&tput.1),
        (mean(&tput.1) - mean(&tput.0)) * 1e3
    );
    println!(
        "\nPaper: tail (90-99th) reductions up to 119 us (~21.5%); mean ~6%; throughput \
         75.94 Gbps (+27 Mbps)."
    );
    bench::eprint_sched_totals("fig14_chain");
    Ok(())
}
