//! Extension experiment (§8): compromise-slice placement for a
//! pipelined, two-core service chain.
//!
//! When a chain is split across cores, both stages touch each packet's
//! header. Placing it for stage 1 alone leaves stage 2 with far-slice
//! reads; §8 prescribes "a compromise placement ... beneficial for all
//! cores". This binary measures total busy cycles across both stages
//! for the same packet stream under the three policies.

use nfv::pipeline::{run_pipeline, PipelineConfig, PipelineHeadroom};
use xstats::report::{f, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(1, 60_000);
    println!(
        "§8 extension — two-stage pipeline (cores 0 and 2), {} packets @ 2 Mpps\n",
        scale.packets
    );
    let mut t = Table::new([
        "Header placement",
        "Stage-1 cycles",
        "Stage-2 cycles",
        "Total",
        "vs stock",
    ]);
    let mut base = 0u64;
    for (name, headroom) in [
        ("stock DPDK", PipelineHeadroom::Stock),
        ("stage-1 slice only", PipelineHeadroom::Stage1Slice),
        ("compromise slice", PipelineHeadroom::Compromise),
    ] {
        let r = run_pipeline(
            &PipelineConfig::new(headroom),
            256,
            2_000_000.0,
            scale.packets,
        )?;
        let total = r.stage1_cycles + r.stage2_cycles;
        if base == 0 {
            base = total;
        }
        t.row([
            name.to_string(),
            r.stage1_cycles.to_string(),
            r.stage2_cycles.to_string(),
            total.to_string(),
            f((base as f64 - total as f64) / base as f64 * 100.0, 2) + " %",
        ]);
        if headroom == PipelineHeadroom::Compromise {
            println!(
                "compromise slice chosen for cores (0, 2): slice {}",
                r.compromise_slice
            );
        }
    }
    println!("{}", t.render());
    println!(
        "Paper §8: shared data wants \"a compromise placement ... beneficial for all \
         cores\" — placing the header for one stage helps that stage and hurts the \
         other; the compromise slice helps both."
    );
    bench::eprint_sched_totals("ext_pipeline");
    Ok(())
}
