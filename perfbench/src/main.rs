//! One repetition of one benchmark workload in this process:
//!
//! `perfbench --workload <name> --seed <n> [--trace 0|1]`
//!
//! Prints one JSON record on stdout. A failed correctness check
//! panics, so the process exits non-zero.

use perfbench::workloads::{Size, Workload};

fn usage() -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload").and_then(Workload::from_name) else {
        usage()
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        usage()
    };
    let traced = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    let out = perfbench::repetition(workload, seed, Size::FULL, traced);
    let rss = perfbench::peak_rss_mb();
    println!(
        "{}",
        perfbench::record_json(workload, seed, traced, &out, rss)
    );
}
