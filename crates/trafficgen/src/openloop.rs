//! Open-loop arrival generators: Poisson processes, burst trains, and
//! phase-shifting rate profiles (ramps, square-wave flash crowds).
//!
//! The closed-loop [`crate::ArrivalSchedule`] paces packets at exactly
//! the configured rate; an *open-loop* generator keeps emitting at its
//! own schedule regardless of what the server absorbs, which is what
//! creates genuine overload (the fig15 knee, flash crowds). Every
//! generator here is a pure function of its seed and configuration —
//! no wall clock, no global state — so runs replay bit-identically.
//!
//! A [`RateProfile`] reshapes the *instantaneous* rate over simulated
//! time: `multiplier_at(t)` scales the base rate, so a square-wave
//! flash crowd is a segment with multiplier > 1 and a ramp interpolates
//! linearly across its window. Profiles compose with the engine's
//! time-indexed fault windows trivially — both are keyed on the same
//! simulated clock.

use crate::arrival::Arrivals;
use crate::rng::Rng64;

/// Piecewise rate multiplier over simulated time.
///
/// Segments are evaluated in insertion order and the *last* segment
/// covering `t` wins; time outside every segment has multiplier 1.0.
/// Multipliers must be strictly positive (an admission policy sheds
/// load; the generator itself never stops).
#[derive(Debug, Clone, Default)]
pub struct RateProfile {
    segments: Vec<Segment>,
}

#[derive(Debug, Clone)]
struct Segment {
    start_ns: f64,
    end_ns: f64,
    shape: Shape,
}

#[derive(Debug, Clone)]
enum Shape {
    /// Square wave: constant multiplier inside the window.
    Flat(f64),
    /// Linear interpolation from `from` at `start_ns` to `to` at `end_ns`.
    Ramp { from: f64, to: f64 },
}

impl RateProfile {
    /// The identity profile: multiplier 1.0 everywhere.
    pub fn flat() -> Self {
        Self::default()
    }

    /// Square-wave flash crowd: rate × `mult` over `[start_ns, end_ns)`.
    pub fn with_flash(mut self, start_ns: f64, end_ns: f64, mult: f64) -> Self {
        assert!(end_ns > start_ns, "empty flash window");
        assert!(mult > 0.0, "rate multiplier must be positive");
        self.segments.push(Segment {
            start_ns,
            end_ns,
            shape: Shape::Flat(mult),
        });
        self
    }

    /// Linear ramp of the multiplier from `from` to `to` over
    /// `[start_ns, end_ns)`.
    pub fn with_ramp(mut self, start_ns: f64, end_ns: f64, from: f64, to: f64) -> Self {
        assert!(end_ns > start_ns, "empty ramp window");
        assert!(from > 0.0 && to > 0.0, "rate multiplier must be positive");
        self.segments.push(Segment {
            start_ns,
            end_ns,
            shape: Shape::Ramp { from, to },
        });
        self
    }

    /// Instantaneous rate multiplier at simulated time `t_ns`.
    pub fn multiplier_at(&self, t_ns: f64) -> f64 {
        let mut m = 1.0;
        for s in &self.segments {
            if t_ns >= s.start_ns && t_ns < s.end_ns {
                m = match s.shape {
                    Shape::Flat(mult) => mult,
                    Shape::Ramp { from, to } => {
                        let frac = (t_ns - s.start_ns) / (s.end_ns - s.start_ns);
                        from + (to - from) * frac
                    }
                };
            }
        }
        m
    }
}

#[derive(Debug, Clone)]
enum Kind {
    /// Deterministic pacing at the (profiled) instantaneous rate.
    Constant,
    /// Poisson process: exponential inter-arrival gaps drawn from the
    /// in-tree PRNG, thinned/stretched by the rate profile.
    Poisson { rng: Rng64 },
    /// Burst trains: `len` back-to-back packets `intra_gap_ns` apart,
    /// then a silent gap sized so the *average* rate matches the
    /// (profiled) instantaneous rate at the burst's start.
    Bursts {
        len: u32,
        intra_gap_ns: f64,
        pos: u32,
    },
}

/// An open-loop arrival generator: constant, Poisson, or burst-train
/// arrivals at a base rate, optionally reshaped by a [`RateProfile`].
///
/// Deterministic: Poisson gaps come from a seeded [`Rng64`], so the
/// arrival stream is a pure function of `(seed, base rate, profile)`.
#[derive(Debug, Clone)]
pub struct OpenLoopGen {
    base_pps: f64,
    kind: Kind,
    profile: RateProfile,
    next_ns: f64,
}

impl OpenLoopGen {
    /// Deterministically paced arrivals at `pps` (profile-scalable).
    pub fn constant(pps: f64) -> Self {
        assert!(pps > 0.0, "rate must be positive");
        Self {
            base_pps: pps,
            kind: Kind::Constant,
            profile: RateProfile::flat(),
            next_ns: 0.0,
        }
    }

    /// Poisson arrivals with mean rate `pps`, gaps drawn from the
    /// in-tree PRNG seeded with `seed`.
    pub fn poisson(pps: f64, seed: u64) -> Self {
        assert!(pps > 0.0, "rate must be positive");
        Self {
            base_pps: pps,
            kind: Kind::Poisson {
                rng: Rng64::seed_from_u64(seed),
            },
            profile: RateProfile::flat(),
            next_ns: 0.0,
        }
    }

    /// Burst trains of `len` packets spaced `intra_gap_ns` apart, with
    /// the inter-burst gap sized to hold the average rate at `pps`.
    ///
    /// # Panics
    ///
    /// Panics when the burst itself already exceeds the rate budget
    /// (`(len−1) × intra_gap_ns` longer than `len` periods).
    pub fn bursts(pps: f64, len: u32, intra_gap_ns: f64) -> Self {
        assert!(pps > 0.0, "rate must be positive");
        assert!(len >= 1, "burst length must be at least 1");
        assert!(intra_gap_ns >= 0.0, "negative intra-burst gap");
        let budget_ns = len as f64 * 1e9 / pps;
        assert!(
            (len - 1) as f64 * intra_gap_ns < budget_ns,
            "burst longer than its rate budget"
        );
        Self {
            base_pps: pps,
            kind: Kind::Bursts {
                len,
                intra_gap_ns,
                pos: 0,
            },
            profile: RateProfile::flat(),
            next_ns: 0.0,
        }
    }

    /// Attach a phase-shifting rate profile.
    pub fn with_profile(mut self, profile: RateProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Mean packets per second before profile scaling.
    pub fn base_pps(&self) -> f64 {
        self.base_pps
    }

    /// Next arrival timestamp in simulated nanoseconds.
    pub fn next_arrival_ns(&mut self) -> f64 {
        let t = self.next_ns;
        // Instantaneous rate at the moment of this arrival; the gap to
        // the next arrival is computed against it, so rate changes take
        // effect from the next packet on (first-order hold).
        let rate = self.base_pps * self.profile.multiplier_at(t);
        let mean_gap_ns = 1e9 / rate;
        let gap = match &mut self.kind {
            Kind::Constant => mean_gap_ns,
            Kind::Poisson { rng } => {
                // Uniform in (0, 1): 53 mantissa bits, offset by half an
                // ulp so ln() never sees zero.
                let u = ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
                -u.ln() * mean_gap_ns
            }
            Kind::Bursts {
                len,
                intra_gap_ns,
                pos,
            } => {
                *pos += 1;
                if *pos < *len {
                    *intra_gap_ns
                } else {
                    *pos = 0;
                    // Remainder of the burst's rate budget, so the train
                    // averages to `rate` over each burst period.
                    (*len as f64).mul_add(mean_gap_ns, -((*len - 1) as f64 * *intra_gap_ns))
                }
            }
        };
        self.next_ns = t + gap;
        t
    }

    /// The next arrival timestamp without consuming it (exactly the
    /// value the next [`OpenLoopGen::next_arrival_ns`] returns — the
    /// gap draw happens when the arrival is consumed, so peeking burns
    /// no RNG state).
    pub fn peek_next_ns(&self) -> f64 {
        self.next_ns
    }
}

impl Arrivals for OpenLoopGen {
    fn next_arrival_ns(&mut self) -> f64 {
        OpenLoopGen::next_arrival_ns(self)
    }

    fn peek_next_ns(&self) -> f64 {
        OpenLoopGen::peek_next_ns(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(gen: &mut OpenLoopGen, n: usize) -> Vec<f64> {
        (0..n).map(|_| gen.next_arrival_ns()).collect()
    }

    /// Peeking is free: any number of peeks returns exactly the value
    /// the consuming call then yields, with no RNG state burned — the
    /// contract event-driven run loops rely on to promise the next
    /// arrival.
    #[test]
    fn peek_is_exact_and_burns_no_state() {
        let profile = || RateProfile::flat().with_flash(5_000.0, 50_000.0, 4.0);
        let mut peeked = OpenLoopGen::poisson(2e6, 99).with_profile(profile());
        let mut plain = OpenLoopGen::poisson(2e6, 99).with_profile(profile());
        for _ in 0..1000 {
            let p = peeked.peek_next_ns();
            assert_eq!(p, peeked.peek_next_ns(), "peek must be idempotent");
            let t = peeked.next_arrival_ns();
            assert_eq!(p, t, "peek must equal the consuming call");
            assert_eq!(
                t,
                plain.next_arrival_ns(),
                "peeks must not perturb the stream"
            );
        }
    }

    #[test]
    fn constant_matches_schedule_pacing() {
        let mut g = OpenLoopGen::constant(1e6);
        let ts = collect(&mut g, 4);
        assert_eq!(ts[0], 0.0);
        assert!((ts[1] - 1000.0).abs() < 1e-9);
        assert!((ts[3] - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_is_seeded_and_deterministic() {
        let a = collect(&mut OpenLoopGen::poisson(1e6, 42), 100);
        let b = collect(&mut OpenLoopGen::poisson(1e6, 42), 100);
        let c = collect(&mut OpenLoopGen::poisson(1e6, 43), 100);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn poisson_mean_gap_converges() {
        let n = 200_000;
        let mut g = OpenLoopGen::poisson(1e6, 7);
        let ts = collect(&mut g, n);
        let mean_gap = ts[n - 1] / (n - 1) as f64;
        // Mean of Exp(1/1000 ns) is 1000 ns; CLT gives ±~2.2 ns at 3σ.
        assert!(
            (mean_gap - 1000.0).abs() < 10.0,
            "mean gap {mean_gap} ns far from 1000 ns"
        );
    }

    #[test]
    fn poisson_arrivals_are_monotone() {
        let mut g = OpenLoopGen::poisson(5e6, 9);
        let ts = collect(&mut g, 10_000);
        assert!(ts.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn bursts_preserve_average_rate() {
        // 1 Mpps in bursts of 8 spaced 10 ns: each burst period must
        // still be 8 µs.
        let mut g = OpenLoopGen::bursts(1e6, 8, 10.0);
        let ts = collect(&mut g, 17);
        for i in 0..7 {
            assert!((ts[i + 1] - ts[i] - 10.0).abs() < 1e-9, "intra gap");
        }
        assert!((ts[8] - 8000.0).abs() < 1e-9, "burst period holds rate");
        assert!((ts[16] - 16000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "burst longer than its rate budget")]
    fn bursts_reject_overlong_burst() {
        OpenLoopGen::bursts(1e9, 64, 10.0);
    }

    #[test]
    fn flash_profile_doubles_rate_inside_window() {
        let profile = RateProfile::flat().with_flash(1e6, 2e6, 2.0);
        assert_eq!(profile.multiplier_at(999_999.0), 1.0);
        assert_eq!(profile.multiplier_at(1e6), 2.0);
        assert_eq!(profile.multiplier_at(1_999_999.0), 2.0);
        assert_eq!(profile.multiplier_at(2e6), 1.0);

        let mut g = OpenLoopGen::constant(1e6).with_profile(profile);
        let ts = collect(&mut g, 4000);
        // Count arrivals inside the window: 1 ms at 2 Mpps ≈ 2000
        // packets versus 1000 outside-window packets per ms.
        let inside = ts.iter().filter(|&&t| (1e6..2e6).contains(&t)).count();
        assert!(
            (1990..=2010).contains(&inside),
            "flash window held {inside} arrivals, expected ~2000"
        );
    }

    #[test]
    fn ramp_interpolates_multiplier() {
        let p = RateProfile::flat().with_ramp(0.0, 1000.0, 1.0, 3.0);
        assert_eq!(p.multiplier_at(0.0), 1.0);
        assert!((p.multiplier_at(500.0) - 2.0).abs() < 1e-12);
        assert!((p.multiplier_at(999.999) - 3.0).abs() < 1e-2);
        assert_eq!(p.multiplier_at(1000.0), 1.0, "outside the ramp");
    }

    #[test]
    fn last_overlapping_segment_wins() {
        let p = RateProfile::flat()
            .with_flash(0.0, 100.0, 2.0)
            .with_flash(50.0, 150.0, 5.0);
        assert_eq!(p.multiplier_at(25.0), 2.0);
        assert_eq!(p.multiplier_at(75.0), 5.0);
        assert_eq!(p.multiplier_at(125.0), 5.0);
    }

    #[test]
    fn poisson_tracks_flash_crowd() {
        let profile = RateProfile::flat().with_flash(1e6, 2e6, 4.0);
        let mut g = OpenLoopGen::poisson(1e6, 1234).with_profile(profile);
        let ts = collect(&mut g, 8000);
        let inside = ts.iter().filter(|&&t| (1e6..2e6).contains(&t)).count();
        let before = ts.iter().filter(|&&t| (0.0..1e6).contains(&t)).count();
        // ~1000 arrivals/ms at base rate, ~4000 inside the flash.
        assert!(
            inside as f64 > 2.5 * before as f64,
            "flash crowd did not materialise: {before} before vs {inside} inside"
        );
    }
}
