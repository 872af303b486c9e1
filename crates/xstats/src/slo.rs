//! SLO accounting over time series: how long a measured signal spent
//! above a threshold.
//!
//! The overload study (fig_knee_kvs) reports not just percentiles but
//! *SLO-violation time*: of the run's duration, how many nanoseconds
//! was the observed latency (or any other per-sample signal) above the
//! service-level objective? The input is a time series of `(t_ns,
//! value)` samples; each sample's value is held until the next sample
//! (a step function, first-order hold), so sample *i* covers
//! `[t_i, t_{i+1})` and the last sample covers zero width — a series
//! needs at least two samples to accumulate any violation time.
//!
//! Both functions are total over all inputs: non-finite samples are
//! skipped and non-monotone timestamps contribute zero width.

/// SLO-violation time for a latency series: the time, in the series'
/// time unit, that the observed latency sat strictly above the
/// objective `slo`.
///
/// Total over all inputs: samples with a non-finite time or value are
/// skipped entirely (the previous sample's hold extends over them), a
/// non-monotone successor contributes zero width (never negative), and
/// a non-finite `slo` yields 0.0.
pub fn slo_violation_ns(series: &[(f64, f64)], slo: f64) -> f64 {
    if !slo.is_finite() {
        return 0.0;
    }
    let mut total = 0.0;
    let mut prev: Option<(f64, f64)> = None;
    for &(t, v) in series {
        if !(t.is_finite() && v.is_finite()) {
            continue;
        }
        if let Some((pt, pv)) = prev {
            if pv > slo {
                total += (t - pt).max(0.0);
            }
        }
        prev = Some((t, v));
    }
    total
}

/// Nanoseconds per minute: the unit conversion of
/// [`violation_minutes`].
const NS_PER_MINUTE: f64 = 60.0e9;

/// Aggregate SLO-violation time over several runs' series, in minutes.
///
/// Each run contributes its own `(t_ns, value)` latency series; the
/// per-run violation times ([`slo_violation_ns`], first-order hold,
/// strictly above `slo`) are summed and converted from nanoseconds to
/// minutes — the unit multi-run robustness studies report ("how long,
/// across the whole campaign, was the tenant out of SLO?").
///
/// Total over all inputs, inheriting [`slo_violation_ns`]'s
/// absorption rules per run: non-finite samples are skipped (the
/// previous hold extends over them), backwards timestamps clamp to
/// zero width (never negative), and a non-finite `slo` yields 0.0. An
/// empty run list is 0.0.
pub fn violation_minutes(runs: &[&[(f64, f64)]], slo: f64) -> f64 {
    runs.iter()
        .map(|series| slo_violation_ns(series, slo))
        .sum::<f64>()
        / NS_PER_MINUTE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_sample_series_accumulate_nothing() {
        assert_eq!(slo_violation_ns(&[], 1.0), 0.0);
        // One sample holds over zero width.
        assert_eq!(slo_violation_ns(&[(5.0, 99.0)], 1.0), 0.0);
    }

    #[test]
    fn step_function_hold_counts_each_violating_interval() {
        // Above in [0,10) and [20,25); below elsewhere; last sample's
        // hold has zero width.
        let series = [
            (0.0, 8.0),
            (10.0, 2.0),
            (20.0, 9.0),
            (25.0, 1.0),
            (30.0, 99.0),
        ];
        assert_eq!(slo_violation_ns(&series, 5.0), 15.0);
        // The threshold is strict: a value exactly at the SLO does not
        // violate it.
        assert_eq!(slo_violation_ns(&[(0.0, 5.0), (10.0, 0.0)], 5.0), 0.0);
        let latencies = [(0.0, 300.0), (100.0, 80.0), (150.0, 400.0), (175.0, 10.0)];
        assert_eq!(slo_violation_ns(&latencies, 200.0), 125.0);
    }

    #[test]
    fn dirty_input_is_absorbed() {
        // A NaN sample is skipped: the 8.0 hold extends over it.
        let with_nan = [(0.0, 8.0), (5.0, f64::NAN), (10.0, 2.0)];
        assert_eq!(slo_violation_ns(&with_nan, 5.0), 10.0);
        // A backwards timestamp clamps to zero width, never negative.
        let backwards = [(10.0, 8.0), (0.0, 2.0), (20.0, 2.0)];
        assert_eq!(slo_violation_ns(&backwards, 5.0), 0.0);
        // A non-finite threshold cannot be violated.
        assert_eq!(slo_violation_ns(&[(0.0, 1.0), (1.0, 1.0)], f64::NAN), 0.0);
        assert_eq!(
            slo_violation_ns(&[(0.0, 1.0), (1.0, 1.0)], f64::INFINITY),
            0.0
        );
    }

    #[test]
    fn violation_minutes_sums_runs_and_converts_units() {
        // Run A violates for 15 ns, run B for 45e9 ns (0.75 min).
        let a = [(0.0, 8.0), (10.0, 2.0), (20.0, 9.0), (25.0, 1.0)];
        let b = [(0.0, 9.0), (45.0e9, 1.0), (50.0e9, 1.0)];
        let runs: [&[(f64, f64)]; 2] = [&a, &b];
        let mins = violation_minutes(&runs, 5.0);
        assert!((mins - (15.0 + 45.0e9) / 60.0e9).abs() < 1e-12);
        // No runs, no violation.
        assert_eq!(violation_minutes(&[], 5.0), 0.0);
    }

    #[test]
    fn violation_minutes_absorbs_dirty_runs() {
        let clean = [(0.0, 9.0), (60.0e9, 1.0)];
        let dirty = [(0.0, f64::NAN), (10.0, 2.0)];
        let runs: [&[(f64, f64)]; 2] = [&clean, &dirty];
        // The NaN sample is skipped, the clean run still counts.
        assert!((violation_minutes(&runs, 5.0) - 1.0).abs() < 1e-12);
        // A non-finite SLO cannot be violated.
        assert_eq!(violation_minutes(&runs[..1], f64::NAN), 0.0);
    }
}
