//! Shared support for the experiment binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! that regenerates it (see DESIGN.md §4 for the index and EXPERIMENTS.md
//! for recorded paper-vs-measured numbers). This module carries the
//! common bits: scale-argument parsing and median-of-runs aggregation.

#![forbid(unsafe_code)]

use xstats::Summary;

pub mod harness;

/// Experiment scale, from the command line:
/// `<binary> [runs] [packets] [--smoke]`.
///
/// Every binary has defaults sized to finish in seconds; passing larger
/// values tightens the statistics toward the paper's 50-run protocol.
/// Passing `--smoke` anywhere overrides both with tiny values — the CI
/// smoke stage uses it to prove every figure binary still runs end to
/// end without paying for statistics.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Independent repetitions (the paper uses 50).
    pub runs: usize,
    /// Packets (or operations) per run.
    pub packets: usize,
    /// `--smoke` was passed: binaries should also shrink any scale
    /// knobs of their own (store sizes, sweep points).
    pub smoke: bool,
}

impl Scale {
    /// Parses `[runs] [packets]` from the process arguments, with the
    /// given defaults. A literal `--smoke` in any position takes
    /// precedence: one run, at most [`Scale::SMOKE_PACKETS`] packets.
    pub fn from_args(default_runs: usize, default_packets: usize) -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--smoke") {
            return Self {
                runs: 1,
                packets: default_packets.min(Self::SMOKE_PACKETS),
                smoke: true,
            };
        }
        let positional: Vec<&String> = args
            .iter()
            .skip(1)
            .filter(|a| !a.starts_with("--"))
            .collect();
        Self {
            runs: positional
                .first()
                .and_then(|s| s.parse().ok())
                .unwrap_or(default_runs),
            packets: positional
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(default_packets),
            smoke: false,
        }
    }

    /// Packets per run under `--smoke`.
    pub const SMOKE_PACKETS: usize = 2_000;
}

/// Diagnostic scheduler override from the command line:
/// `--scheduler=reference` selects the retained tick-stepper,
/// `--scheduler=event` (or no flag) the event-driven default. Reports
/// and figure stdout are bit-identical either way — the knob exists so
/// `scripts/bench.sh` can measure the empty-epoch tax the event-driven
/// scheduler removes (the `[sched]` stderr line and wall-clock are the
/// only things that move).
pub fn scheduler_from_args() -> engine::Scheduler {
    if std::env::args().any(|a| a == "--scheduler=reference") {
        engine::Scheduler::ReferenceTick
    } else {
        engine::Scheduler::EventDriven
    }
}

/// Prints the process-wide engine scheduler totals
/// ([`engine::sched_totals`]) as one `[sched]` line — to **stderr**, so
/// the committed golden stdout of every figure stays byte-stable while
/// the empty-epoch tax is still visible in every run's output. Binaries
/// that never construct an engine print zeros, which is the honest
/// number.
pub fn eprint_sched_totals(figure: &str) {
    let t = engine::sched_totals();
    let eff = if t.epochs_dispatched == 0 {
        100.0
    } else {
        100.0 * t.epochs_with_work as f64 / t.epochs_dispatched as f64
    };
    eprintln!(
        "[sched] {figure}: epochs_dispatched={} epochs_with_work={} \
         events_processed={} epoch_efficiency={eff:.1}%",
        t.epochs_dispatched, t.epochs_with_work, t.events_processed
    );
}

/// Median of each percentile row across runs: the paper's "values show
/// the median of 50 runs" aggregation for [p75, p90, p95, p99, mean].
pub fn median_rows(rows: &[[f64; 5]]) -> [f64; 5] {
    assert!(!rows.is_empty(), "need at least one run");
    let mut out = [0.0; 5];
    for (i, slot) in out.iter_mut().enumerate() {
        let col: Vec<f64> = rows.iter().map(|r| r[i]).collect();
        *slot = Summary::from_samples(col).expect("non-empty").median();
    }
    out
}

/// Formats a [p75, p90, p95, p99, mean] row in microseconds.
pub fn fmt_us_row(row: &[f64; 5]) -> String {
    format!(
        "p75={:>8.1}  p90={:>8.1}  p95={:>8.1}  p99={:>8.1}  mean={:>8.1}",
        row[0] / 1e3,
        row[1] / 1e3,
        row[2] / 1e3,
        row[3] / 1e3,
        row[4] / 1e3
    )
}

/// Per-percentile improvement `base - new` in the same unit.
pub fn improvement(base: &[f64; 5], new: &[f64; 5]) -> [f64; 5] {
    let mut out = [0.0; 5];
    for i in 0..5 {
        out[i] = base[i] - new[i];
    }
    out
}

/// Per-percentile speedup in percent (Fig. 1's y-axis).
pub fn speedup_percent(base: &[f64; 5], new: &[f64; 5]) -> [f64; 5] {
    let mut out = [0.0; 5];
    for i in 0..5 {
        out[i] = xstats::percentile::speedup_percent(base[i], new[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_rows_takes_per_column_median() {
        let rows = [
            [1.0, 10.0, 100.0, 1000.0, 5.0],
            [3.0, 30.0, 300.0, 3000.0, 15.0],
            [2.0, 20.0, 200.0, 2000.0, 10.0],
        ];
        assert_eq!(median_rows(&rows), [2.0, 20.0, 200.0, 2000.0, 10.0]);
    }

    #[test]
    fn improvement_and_speedup() {
        let base = [100.0, 100.0, 100.0, 100.0, 100.0];
        let new = [80.0, 90.0, 95.0, 99.0, 100.0];
        assert_eq!(improvement(&base, &new)[0], 20.0);
        assert_eq!(speedup_percent(&base, &new)[0], 20.0);
        assert_eq!(speedup_percent(&base, &new)[4], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn median_rows_rejects_empty() {
        median_rows(&[]);
    }
}
