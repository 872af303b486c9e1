//! The online isolation controller: a closed loop over simulated CBo
//! counters and per-tenant SLO trackers that re-partitions CAT ways and
//! DDIO ways while the engine runs.
//!
//! The controller is deliberately split from the harness: this module
//! holds the pure *decision* logic — a function of the observations fed
//! to [`IsolationController::observe`] and nothing else — while
//! [`crate::run`] feeds it from the engine's control hook and applies
//! the returned [`ControlAction`]s to the machine. Purity is what makes
//! the loop deterministic across schedulers: the observations (windowed
//! latency percentiles, uncore fill deltas) are bit-identical under
//! both, so the decision sequence is too.
//!
//! The policy mirrors what §8 of the paper suggests an operator should
//! do by hand, closed over the monitoring loop of §5:
//!
//! * **Pressure detection.** A tenant is *pressured* when its windowed
//!   p99 exceeds its SLO. One noisy window does nothing: a steal needs
//!   `hysteresis` consecutive pressured windows, and after every steal
//!   the loop holds off for `cooldown` epochs so the grant has time to
//!   show up in the next windows before the controller reacts again.
//! * **Way stealing.** One way moves per action, from the widest
//!   non-pressured donor above the floor (ties to the lowest tenant id)
//!   to the most pressured victim (largest p99/SLO ratio, ties to the
//!   lowest id). No tenant is ever pushed below `floor_ways`:
//!   degradation is graceful, never starvation.
//! * **DDIO defense.** A fill-rate spike over the control epoch (the
//!   CBo `LlcFill` window) while some tenant is pressured is the
//!   signature of a DMA storm washing the I/O ways; the controller
//!   shrinks DDIO to `ddio_min` ways and restores `ddio_full` only
//!   after `ddio_calm_epochs` consecutive calm windows.
//! * **Infeasibility.** When a victim has earned a grant but no donor
//!   exists (everyone else is pressured or at the floor), the epoch
//!   records a typed [`ControlError::NoFeasiblePartition`] and the
//!   partition stays untouched — the controller never makes one tenant
//!   worse to paper over another.

use std::fmt;

/// Why a control epoch could not improve the partition.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// A victim earned a re-partition but every potential donor is
    /// itself pressured or already at the allocation floor.
    NoFeasiblePartition {
        /// Virtual time of the control epoch.
        t_ns: f64,
        /// The pressured tenant that could not be helped.
        victim: usize,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::NoFeasiblePartition { t_ns, victim } => write!(
                f,
                "no feasible partition at t={t_ns} ns: tenant {victim} is \
                 pressured but every donor is pressured or at the floor"
            ),
        }
    }
}

impl std::error::Error for ControlError {}

/// One partition change the harness must apply to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Move one CAT way from `from`'s segment to `to`'s segment.
    MoveWay {
        /// Donor tenant.
        from: usize,
        /// Receiving tenant.
        to: usize,
    },
    /// Reprogram the DDIO window to `ways` ways.
    SetDdio {
        /// New DDIO width.
        ways: usize,
    },
}

/// Tuning knobs for the control loop. All thresholds are in the units
/// the observations arrive in (ns for latency, fill events per epoch
/// for the uncore window).
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Per-tenant p99 SLO in ns; `f64::INFINITY` marks a best-effort
    /// tenant that is never considered pressured (and therefore makes
    /// an ideal donor).
    pub slo_p99_ns: Vec<f64>,
    /// No tenant's way count ever drops below this.
    pub floor_ways: usize,
    /// Consecutive pressured windows before a tenant earns a steal.
    pub hysteresis: u32,
    /// Epochs the way-steal arm stays quiet after a move.
    pub cooldown: u32,
    /// LlcFill events per epoch above which the epoch counts as a DMA
    /// storm (for the DDIO arm).
    pub ddio_spike_fills: u64,
    /// Consecutive calm epochs before DDIO is restored.
    pub ddio_calm_epochs: u32,
    /// DDIO width when unthreatened (the hardware default).
    pub ddio_full: usize,
    /// DDIO width under storm defense.
    pub ddio_min: usize,
}

/// Everything the controller did, for reports and assertions.
#[derive(Debug, Clone, Default)]
pub struct ControlLog {
    /// Control epochs observed.
    pub epochs: u64,
    /// Way moves applied.
    pub moves: u64,
    /// DDIO shrink actions.
    pub ddio_shrinks: u64,
    /// DDIO restore actions.
    pub ddio_restores: u64,
    /// Epochs that recorded [`ControlError::NoFeasiblePartition`].
    pub infeasible: u64,
    /// Smallest way count each tenant was ever left with.
    pub min_ways_seen: Vec<usize>,
    /// Per tenant: `(epoch time ns, held window p99 ns)` — the series
    /// [`xstats::slo_violation_ns`] runs over. First-order hold: an
    /// empty window holds the previous value.
    pub series: Vec<Vec<(f64, f64)>>,
    /// `(epoch time ns, LlcFill delta)` per epoch — the storm-detection
    /// input, kept for calibration and reports.
    pub fills: Vec<(f64, u64)>,
    /// Every typed error, in epoch order.
    pub errors: Vec<ControlError>,
}

/// The closed-loop controller state. See the module docs for the
/// policy; [`IsolationController::observe`] is the whole interface.
#[derive(Debug)]
pub struct IsolationController {
    cfg: ControllerConfig,
    ways: Vec<usize>,
    ddio: usize,
    /// Held (last non-empty-window) p99 per tenant; starts at 0 so an
    /// idle tenant reads as unpressured.
    held_p99: Vec<f64>,
    streak: Vec<u32>,
    cooldown_left: u32,
    calm_epochs: u32,
    /// The actions applied, counters, series — the run's evidence.
    pub log: ControlLog,
}

impl IsolationController {
    /// A controller starting from `initial_ways` (tenant order) and
    /// `cfg.ddio_full` DDIO ways.
    ///
    /// # Panics
    ///
    /// Panics when the tenant counts of `initial_ways` and the SLO list
    /// disagree, or an initial allocation is already below the floor.
    pub fn new(cfg: ControllerConfig, initial_ways: Vec<usize>) -> Self {
        assert_eq!(
            cfg.slo_p99_ns.len(),
            initial_ways.len(),
            "one SLO per tenant"
        );
        assert!(
            initial_ways.iter().all(|&w| w >= cfg.floor_ways),
            "initial partition must respect the floor"
        );
        assert!(cfg.ddio_min >= 1 && cfg.ddio_min <= cfg.ddio_full);
        let n = initial_ways.len();
        let ddio = cfg.ddio_full;
        Self {
            log: ControlLog {
                min_ways_seen: initial_ways.clone(),
                series: vec![Vec::new(); n],
                ..ControlLog::default()
            },
            held_p99: vec![0.0; n],
            streak: vec![0; n],
            cooldown_left: 0,
            calm_epochs: 0,
            ways: initial_ways,
            ddio,
            cfg,
        }
    }

    /// Current way partition, tenant order.
    pub fn ways(&self) -> &[usize] {
        &self.ways
    }

    /// Current DDIO width.
    pub fn ddio(&self) -> usize {
        self.ddio
    }

    /// One control epoch at virtual time `t_ns`: feeds the window p99
    /// per tenant (`None` = empty window, holds the previous value) and
    /// the epoch's total LlcFill delta, and returns the actions to
    /// apply. With `act == false` the controller only *monitors* —
    /// identical series bookkeeping, no decisions — which is how the
    /// static regimes get violation accounting on the exact same
    /// sampling grid as the online one.
    pub fn observe(
        &mut self,
        t_ns: f64,
        window_p99: &[Option<f64>],
        fill_delta: u64,
        act: bool,
    ) -> Vec<ControlAction> {
        assert_eq!(window_p99.len(), self.ways.len(), "one window per tenant");
        self.log.epochs += 1;
        for (i, w) in window_p99.iter().enumerate() {
            if let Some(p) = *w {
                assert!(p.is_finite() && p >= 0.0, "latency windows are clean");
                self.held_p99[i] = p;
            }
            self.log.series[i].push((t_ns, self.held_p99[i]));
        }
        self.log.fills.push((t_ns, fill_delta));
        if !act {
            return Vec::new();
        }

        let pressured: Vec<bool> = self
            .held_p99
            .iter()
            .zip(&self.cfg.slo_p99_ns)
            .map(|(&p, &slo)| p > slo)
            .collect();
        for (s, &p) in self.streak.iter_mut().zip(&pressured) {
            *s = if p { *s + 1 } else { 0 };
        }

        let mut actions = Vec::new();

        // DDIO arm: shrink on a storm that coincides with SLO pressure,
        // restore only after a sustained calm.
        let storm = fill_delta > self.cfg.ddio_spike_fills;
        self.calm_epochs = if storm { 0 } else { self.calm_epochs + 1 };
        if storm && pressured.iter().any(|&p| p) && self.ddio > self.cfg.ddio_min {
            self.ddio = self.cfg.ddio_min;
            self.log.ddio_shrinks += 1;
            actions.push(ControlAction::SetDdio { ways: self.ddio });
        } else if !storm
            && self.ddio < self.cfg.ddio_full
            && self.calm_epochs >= self.cfg.ddio_calm_epochs
        {
            self.ddio = self.cfg.ddio_full;
            self.log.ddio_restores += 1;
            actions.push(ControlAction::SetDdio { ways: self.ddio });
        }

        // Way-steal arm.
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
        } else if let Some(victim) = self.most_pressured() {
            if let Some(donor) = self.best_donor(victim, &pressured) {
                self.ways[donor] -= 1;
                self.ways[victim] += 1;
                self.streak[victim] = 0;
                self.cooldown_left = self.cfg.cooldown;
                self.log.moves += 1;
                actions.push(ControlAction::MoveWay {
                    from: donor,
                    to: victim,
                });
            } else {
                self.log.infeasible += 1;
                self.log
                    .errors
                    .push(ControlError::NoFeasiblePartition { t_ns, victim });
            }
        }

        for (seen, &w) in self.log.min_ways_seen.iter_mut().zip(&self.ways) {
            *seen = (*seen).min(w);
            assert!(w >= self.cfg.floor_ways, "the floor is inviolable");
        }
        actions
    }

    /// Closes the series at `t_ns` (the run's end) by appending one
    /// final point per tenant with the held value, so the first-order-
    /// hold violation integral covers the tail between the last control
    /// epoch and the end of the run.
    ///
    /// # Panics
    ///
    /// Panics when `t_ns` precedes an already-recorded epoch.
    pub fn finalize(&mut self, t_ns: f64) {
        for (i, series) in self.log.series.iter_mut().enumerate() {
            if let Some(&(last_t, _)) = series.last() {
                assert!(t_ns >= last_t, "finalize must not rewind the series");
            }
            series.push((t_ns, self.held_p99[i]));
        }
    }

    /// The tenant that has earned a grant: `hysteresis` consecutive
    /// pressured windows, largest p99/SLO overshoot, ties to the lowest
    /// id (strictly-greater comparison keeps the scan deterministic).
    fn most_pressured(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in 0..self.ways.len() {
            if self.streak[i] < self.cfg.hysteresis {
                continue;
            }
            let ratio = self.held_p99[i] / self.cfg.slo_p99_ns[i];
            match best {
                Some(b) if self.held_p99[b] / self.cfg.slo_p99_ns[b] >= ratio => {}
                _ => best = Some(i),
            }
        }
        best
    }

    /// The donor for a grant: never the victim, never a pressured
    /// tenant, never anyone at the floor. Among the eligible,
    /// best-effort tenants (infinite SLO) are preferred over SLO-bound
    /// ones — an SLO tenant's headroom is borrowed only when no
    /// best-effort capacity is left — then the widest, ties to the
    /// lowest id.
    fn best_donor(&self, victim: usize, pressured: &[bool]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, &p) in pressured.iter().enumerate() {
            if i == victim || p || self.ways[i] <= self.cfg.floor_ways {
                continue;
            }
            let cand = (self.cfg.slo_p99_ns[i].is_infinite(), self.ways[i]);
            match best {
                Some(b) if (self.cfg.slo_p99_ns[b].is_infinite(), self.ways[b]) >= cand => {}
                _ => best = Some(i),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg3() -> ControllerConfig {
        ControllerConfig {
            slo_p99_ns: vec![200.0, 250.0, f64::INFINITY],
            floor_ways: 2,
            hysteresis: 2,
            cooldown: 3,
            ddio_spike_fills: 1_000,
            ddio_calm_epochs: 4,
            ddio_full: 2,
            ddio_min: 1,
        }
    }

    fn ctrl() -> IsolationController {
        IsolationController::new(cfg3(), vec![7, 7, 6])
    }

    #[test]
    fn hysteresis_delays_the_steal_and_a_calm_window_resets_it() {
        let mut c = ctrl();
        // One pressured window: nothing (streak 1 < hysteresis 2).
        assert!(c
            .observe(1.0, &[Some(300.0), Some(100.0), None], 0, true)
            .is_empty());
        // A calm window resets the streak.
        assert!(c
            .observe(2.0, &[Some(150.0), Some(100.0), None], 0, true)
            .is_empty());
        assert!(c
            .observe(3.0, &[Some(300.0), Some(100.0), None], 0, true)
            .is_empty());
        // Second consecutive pressured window: the steal fires. Tenants
        // 1 (7 ways, SLO-bound) and 2 (6 ways, best-effort) are both
        // eligible; the best-effort tenant donates even though it is
        // narrower.
        let acts = c.observe(4.0, &[Some(300.0), Some(100.0), None], 0, true);
        assert_eq!(acts, vec![ControlAction::MoveWay { from: 2, to: 0 }]);
        assert_eq!(c.ways(), &[8, 7, 5]);
        // Cooldown: the next `cooldown` epochs stay quiet even under
        // sustained pressure.
        for k in 0..3 {
            assert!(
                c.observe(5.0 + k as f64, &[Some(300.0), Some(100.0), None], 0, true)
                    .is_empty(),
                "epoch {k} inside the cooldown must not act"
            );
        }
        // Cooldown over (and the streak re-earned): acts again.
        let acts = c.observe(9.0, &[Some(300.0), Some(100.0), None], 0, true);
        assert_eq!(acts, vec![ControlAction::MoveWay { from: 2, to: 0 }]);
    }

    #[test]
    fn donor_ties_break_to_the_lowest_id_and_the_floor_is_never_crossed() {
        let mut c = IsolationController::new(cfg3(), vec![2, 9, 9]);
        // Tenant 0 pressured; donors 1 (SLO-bound) and 2 (best-effort)
        // tie at 9 ways → the best-effort tenant donates.
        c.observe(1.0, &[Some(300.0), Some(100.0), None], 0, true);
        let acts = c.observe(2.0, &[Some(300.0), Some(100.0), None], 0, true);
        assert_eq!(acts, vec![ControlAction::MoveWay { from: 2, to: 0 }]);
        // With the best-effort pool exhausted (floor), the SLO-bound
        // donor is next: drop tenant 2 to the floor and press again.
        let mut c = IsolationController::new(cfg3(), vec![2, 9, 2]);
        c.observe(1.0, &[Some(300.0), Some(100.0), None], 0, true);
        let acts = c.observe(2.0, &[Some(300.0), Some(100.0), None], 0, true);
        assert_eq!(acts, vec![ControlAction::MoveWay { from: 1, to: 0 }]);
        // Drain tenant 2 down to the floor: it must never cross it.
        let mut c = IsolationController::new(cfg3(), vec![2, 17, 3]);
        for t in 0..40 {
            c.observe(t as f64, &[Some(300.0), Some(300.0), None], 0, true);
        }
        assert!(c.ways()[2] >= 2, "donor drained below the floor");
        assert!(c.log.min_ways_seen.iter().all(|&w| w >= 2));
    }

    #[test]
    fn no_feasible_partition_is_typed_not_applied() {
        // Both victims pressured, best-effort tenant at the floor:
        // nothing can move.
        let mut c = IsolationController::new(cfg3(), vec![9, 9, 2]);
        c.observe(1.0, &[Some(300.0), Some(400.0), None], 0, true);
        let acts = c.observe(2.0, &[Some(300.0), Some(400.0), None], 0, true);
        assert!(acts.is_empty());
        assert_eq!(c.log.infeasible, 1);
        assert_eq!(c.ways(), &[9, 9, 2], "partition untouched on error");
        match &c.log.errors[0] {
            ControlError::NoFeasiblePartition { victim, .. } => {
                // Tenant 1 overshoots harder (400/250 > 300/200).
                assert_eq!(*victim, 1);
            }
        }
    }

    #[test]
    fn ddio_shrinks_on_a_pressured_storm_and_restores_after_calm() {
        let mut c = ctrl();
        // Storm without pressure: no shrink (nothing to defend).
        assert!(c
            .observe(1.0, &[Some(100.0), Some(100.0), None], 50_000, true)
            .is_empty());
        // Storm + pressure: shrink.
        let acts = c.observe(2.0, &[Some(300.0), Some(100.0), None], 50_000, true);
        assert_eq!(acts, vec![ControlAction::SetDdio { ways: 1 }]);
        assert_eq!(c.ddio(), 1);
        // Calm epochs: restore only after `ddio_calm_epochs` in a row.
        // (Latencies kept clean so the way arm stays quiet.)
        for t in 3..6 {
            let acts = c.observe(t as f64, &[Some(100.0), Some(100.0), None], 0, true);
            assert!(acts.is_empty(), "restored after only {} calm epochs", t - 2);
        }
        let acts = c.observe(6.0, &[Some(100.0), Some(100.0), None], 0, true);
        assert_eq!(acts, vec![ControlAction::SetDdio { ways: 2 }]);
        assert_eq!(c.log.ddio_shrinks, 1);
        assert_eq!(c.log.ddio_restores, 1);
    }

    #[test]
    fn monitor_only_records_the_series_but_never_acts() {
        let mut c = ctrl();
        for t in 0..10 {
            let acts = c.observe(t as f64, &[Some(900.0), Some(900.0), None], 50_000, false);
            assert!(acts.is_empty());
        }
        assert_eq!(c.log.epochs, 10);
        assert_eq!(c.log.moves + c.log.ddio_shrinks + c.log.infeasible, 0);
        assert_eq!(c.ways(), &[7, 7, 6]);
        // The series recorded every epoch with the held value.
        assert_eq!(c.log.series[0].len(), 10);
        assert!(c.log.series[0].iter().all(|&(_, p)| p == 900.0));
        // An empty window holds: tenant 2 saw no samples, held 0.
        assert!(c.log.series[2].iter().all(|&(_, p)| p == 0.0));
    }
}
