//! Multi-tenant SLO defense under noisy-neighbour chaos (robustness
//! study; not one of the paper's figures, but built from its isolation
//! machinery — §5 monitoring, §8 partitioning — closed into an online
//! control loop).
//!
//! Three tenants share one socket: a KVS instance, an NFV chain and a
//! cache-thrashing antagonist whose arrival schedule alternates quiet
//! trickles with near-line-rate DMA storms. Three partitioning regimes
//! run over the identical packet sequence:
//!
//! * `static-even` — the naive equal split, pinned for the whole run;
//! * `static-oracle` — the hand-tuned end state an operator with
//!   perfect foreknowledge would install, pinned;
//! * `online` — the closed-loop isolation controller, starting from
//!   the even split and re-partitioning CAT and DDIO ways from CBo
//!   counters and windowed p99s.
//!
//! Usage: `fig_tenants [runs] [packets] [--smoke]
//! [--scheduler=reference]`. Output is bit-identical across schedulers
//! (golden-pinned).

use bench::{eprint_sched_totals, scheduler_from_args, Scale};
use tenancy::run::{run_tenancy, Regime, TenancyConfig, CONTROL_PERIOD_NS};
use xstats::report::{f, Table};
use xstats::violation_minutes;

fn main() {
    let scale = Scale::from_args(1, 20_000);
    // The storm schedule needs ≥ 3 ms of simulated time (the first
    // storm begins at 1.0 ms); the generic 2k-packet smoke cap would
    // end the run before the chaos starts.
    let packets = if scale.smoke { 6_000 } else { scale.packets };
    let scheduler = scheduler_from_args();

    println!("Multi-tenant SLO defense: online LLC isolation vs. static splits");
    println!(
        "packets/victim={packets}  control_epoch={}ns  regimes=static-even,static-oracle,online",
        CONTROL_PERIOD_NS as u64
    );

    for regime in [Regime::StaticEven, Regime::StaticOracle, Regime::Online] {
        let cfg = TenancyConfig {
            scheduler,
            ..TenancyConfig::new(regime, packets)
        };
        let rep = run_tenancy(&cfg);
        println!();
        println!(
            "== {} ==  duration={} ms",
            regime.name(),
            f(rep.duration_ns / 1e6, 2)
        );
        let mut t = Table::new([
            "tenant",
            "goodput (Mpps)",
            "p99 (ns)",
            "SLO (ns)",
            "violation (ms)",
            "violation (min/h)",
            "ways min..final",
        ]);
        for (i, ten) in rep.tenants.iter().enumerate() {
            let slo = if ten.slo_ns.is_finite() {
                f(ten.slo_ns, 0)
            } else {
                "best-effort".to_string()
            };
            // Scale-free operator view: minutes above SLO per hour of
            // service, from the same series the violation integral uses.
            let viol_min = violation_minutes(&[rep.series[i].as_slice()], ten.slo_ns);
            let duration_min = rep.duration_ns / 60.0e9;
            let min_per_h = if ten.slo_ns.is_finite() && duration_min > 0.0 {
                viol_min / duration_min * 60.0
            } else {
                0.0
            };
            t.row([
                ten.name.to_string(),
                f(ten.goodput_mpps, 3),
                f(ten.p99_ns, 1),
                slo,
                f(ten.violation_ns / 1e6, 3),
                f(min_per_h, 1),
                format!("{}..{}", ten.min_ways, ten.final_ways),
            ]);
        }
        println!("{}", t.render());
        println!(
            "controller: epochs={} moves={} ddio_shrinks={} ddio_restores={} \
             infeasible={} final_ddio={}",
            rep.epochs,
            rep.moves,
            rep.ddio_shrinks,
            rep.ddio_restores,
            rep.infeasible,
            rep.final_ddio
        );
    }

    println!();
    println!(
        "The online controller must keep every victim's violation time \
         strictly below the static even split's (asserted in \
         crates/tenancy/tests/isolation.rs at full scale)."
    );
    eprint_sched_totals("fig_tenants");
}
