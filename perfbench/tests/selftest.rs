//! Self-tests of the benchmark: metric names, pass-through wrappers and
//! clock read-cost subtraction.

use std::collections::BTreeSet;

use perfbench::clock::{monotonic_ns, process_cpu_ns, Clock};
use perfbench::workloads::{Size, Workload};
use perfbench::{repetition, END_TO_END, PER_LAYER};

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|&(n, _)| n)
        .collect();
    for name in &names {
        assert!(well_formed(name), "bad metric name {name:?}");
    }
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a metric name is used twice");
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        let entry = format!("\"name\":\"{}\"", w.name());
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        compact.matches("\"name\":").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len(),
        "BENCHMARK.json names something the benchmark does not report"
    );
}

#[test]
fn wrappers_pass_values_through_bit_exactly() {
    for w in Workload::ALL {
        let plain = repetition(w, 5, Size::TINY, false);
        let again = repetition(w, 5, Size::TINY, false);
        let traced = repetition(w, 5, Size::TINY, true);
        let other_seed = repetition(w, 6, Size::TINY, false);
        assert!(plain.ops > 0, "{}: no operations", w.name());
        assert_eq!(
            plain.digest,
            again.digest,
            "{}: same seed, new digest",
            w.name()
        );
        assert_eq!(
            plain.digest,
            traced.digest,
            "{}: tracing changed the simulated results",
            w.name()
        );
        assert_ne!(
            plain.digest,
            other_seed.digest,
            "{}: the digest ignores the seed's inputs",
            w.name()
        );
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    for w in Workload::ALL {
        let out = repetition(w, 5, Size::TINY, true);
        let got: BTreeSet<(&str, &str)> = out.layers.iter().map(|(n, (u, _))| (*n, *u)).collect();
        // run.py adds the overhead, which compares two processes.
        let want: BTreeSet<(&str, &str)> = PER_LAYER
            .iter()
            .copied()
            .filter(|&(n, _)| n != "trace.overhead_pct")
            .collect();
        assert_eq!(got, want, "{}: per-layer metrics", w.name());
        for (name, (_, v)) in &out.layers {
            assert!(v.is_finite() && *v >= 0.0, "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn clocks_subtract_their_own_read_cost() {
    for read in [process_cpu_ns as fn() -> u64, monotonic_ns] {
        let clock = Clock::calibrated(read);
        assert!(clock.overhead_ns() > 0.0, "a clock read costs something");
        // An empty span is two back-to-back reads: net of the read
        // cost it is about zero.
        let mut empty: Vec<f64> = (0..1001)
            .map(|_| {
                let t0 = clock.now();
                clock.span_ns(t0, clock.now())
            })
            .collect();
        empty.sort_by(f64::total_cmp);
        assert!(
            empty[500] <= clock.overhead_ns() / 2.0,
            "median empty span {} ns vs read cost {} ns",
            empty[500],
            clock.overhead_ns()
        );
        // A real span loses exactly one read cost per span.
        assert_eq!(clock.span_ns(0, 1_000_000), 1e6 - clock.overhead_ns());
        assert_eq!(
            clock.net_ns(1_000_000, 10),
            1e6 - 10.0 * clock.overhead_ns()
        );
    }
}
