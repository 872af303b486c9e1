//! Overload study: open-loop KVS goodput through saturation, with and
//! without overload control, plus a chaos scenario (`--chaos`).
//!
//! The closed-loop fig08 measures capacity; this binary measures what
//! happens *past* it. An open-loop client offers load straight through
//! the saturation knee (~16 Mops/s per core here) under three control
//! regimes:
//!
//! - **no-control** — accept everything, never retry. Past the knee the
//!   RX ring fills, queueing delay blows through the request deadline,
//!   and almost everything that is not dropped expires on arrival:
//!   goodput collapses.
//! - **shedding** — a queue-depth admission policy sheds at ingress,
//!   bounding queueing delay below the deadline, so admitted requests
//!   still complete: goodput saturates and holds.
//! - **shed+retry** — shedding plus the deadline-aware client retry
//!   loop (timeout, exponential backoff stretched under backpressure,
//!   bounded attempts, give-up past the deadline). Retries recover
//!   transient losses without re-amplifying sustained overload.
//!
//! Per rate the report shows goodput, p99/p999 completion latency,
//! SLO-violation time ([`xstats::slo_violation_ns`] over the completion
//! series), and the logical/physical ledgers (sheds, expiries, retries,
//! give-ups) whose conservation `run_openloop` asserts on every run.
//!
//! `--chaos` instead runs one long Poisson run at ~65 % load with a
//! ×4 flash crowd, a link flap, and an RX stall injected mid-run, and
//! prints time-bucketed goodput for no-control vs. the full resilient
//! stack — degradation under the faults, recovery after them. The
//! chaos runs use a wider deadline (12 µs) and a tighter client
//! timeout (2.5 µs, 4 attempts) so retrying *through* a fault window
//! is feasible before the deadline expires.

use engine::AdmissionPolicy;
use kvs::store::{KvStore, Placement};
use kvs::{run_openloop, OpenLoopConfig, OpenLoopReport};
use llc_sim::hash::{SliceHash, XorSliceHash};
use llc_sim::machine::{Machine, MachineConfig};
use rte::fault::{FaultPlan, Window};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use trafficgen::{Arrivals, OpenLoopGen, RateProfile};
use xstats::report::{f, Table};
use xstats::{slo_violation_ns, Summary};

/// Serving cores (and RX queues).
const CORES: usize = 2;

/// Per-op relative deadline, ns. The full 256-deep ring drains in
/// ~16 µs at ~63 ns/op, so an uncontrolled overload queue blows far
/// past this; the shedding backlog (32) keeps waits near 2 µs.
const DEADLINE_NS: f64 = 6_000.0;

/// Queue-depth admission threshold for the controlled modes.
const SHED_BACKLOG: usize = 32;

/// Offered rates swept (total ops/s over both cores). Capacity is
/// ~30 Mops/s; the tail of the sweep is ~3× past the knee.
const RATES: &[f64] = &[8e6, 16e6, 24e6, 30e6, 36e6, 48e6, 64e6, 96e6];

/// The three control regimes of the sweep.
#[derive(Clone, Copy)]
enum Mode {
    NoControl,
    Shedding,
    ShedRetry,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::NoControl => "no-control",
            Mode::Shedding => "shedding",
            Mode::ShedRetry => "shed+retry",
        }
    }

    fn apply(self, cfg: OpenLoopConfig) -> OpenLoopConfig {
        // Every mode runs the same 5 µs accounting timeout so the tail
        // a client waits on an unanswered op is identical; only the
        // attempt budget and the admission policy differ.
        match self {
            Mode::NoControl => cfg.with_retries(5_000.0, 1),
            Mode::Shedding => cfg
                .with_admission(AdmissionPolicy::QueueDepth {
                    max_backlog: SHED_BACKLOG,
                })
                .with_retries(5_000.0, 1),
            Mode::ShedRetry => cfg
                .with_admission(AdmissionPolicy::QueueDepth {
                    max_backlog: SHED_BACKLOG,
                })
                .with_retries(5_000.0, 3),
        }
    }
}

/// Builds a fresh machine/store/port and runs one open-loop experiment
/// (open-loop completion matching needs a fresh port per run).
fn run_one(cfg: &OpenLoopConfig, arrivals: &mut dyn Arrivals) -> OpenLoopReport {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let region = m.mem_mut().alloc(16 << 20, 1 << 20).unwrap();
    let h = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
    let store = KvStore::build(&mut m, &mut alloc, 4096, Placement::Normal).unwrap();
    let mut pool = MbufPool::create(&mut m, (8 * CORES * cfg.queue_depth) as u32, 128, 2048)
        .expect("pool sized to the ring");
    let mut port = Port::new(0, Steering::Rss(Rss::new(cfg.cores)), cfg.queue_depth);
    let mut policy = FixedHeadroom(128);
    run_openloop(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        arrivals,
        cfg,
    )
}

/// The completion series `(t, latency)` sorted by completion time — the
/// step function `slo_violation_ns` integrates over.
fn completion_series(rep: &OpenLoopReport) -> Vec<(f64, f64)> {
    let mut s = rep.completions.clone();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite completion records"));
    s
}

/// Goodput over the completion window (first arrival at ~0 to the last
/// completion): completed ops per second *while the run was serving*.
/// The engine's own duration additionally counts the give-up timer
/// tail after the last arrival, which at smoke scale would dilute
/// every overloaded point by a constant; the completion window is the
/// measure that converges at any run length.
fn goodput_mops(rep: &OpenLoopReport) -> f64 {
    let end = rep.completions.iter().map(|&(t, _)| t).fold(0.0, f64::max);
    if end <= 0.0 {
        0.0
    } else {
        rep.completed as f64 / (end / 1e9) / 1e6
    }
}

fn sweep(mode: Mode, ops: usize) -> Vec<(f64, OpenLoopReport)> {
    RATES
        .iter()
        .map(|&rate| {
            let cfg = mode
                .apply(OpenLoopConfig::new(ops, 42).with_cores(CORES))
                .with_deadline(DEADLINE_NS);
            let mut arr = OpenLoopGen::constant(rate);
            (rate, run_one(&cfg, &mut arr))
        })
        .collect()
}

fn print_mode_table(mode: Mode, rows: &[(f64, OpenLoopReport)]) {
    println!("{} — deadline {:.0} us:", mode.name(), DEADLINE_NS / 1e3);
    let mut t = Table::new([
        "Offered (Mops/s)",
        "Goodput (Mops/s)",
        "p99 (us)",
        "p999 (us)",
        "SLO viol (us)",
        "shed",
        "expired",
        "retries",
        "gave_up",
    ]);
    for (rate, rep) in rows {
        let (p99, p999) = match Summary::from_samples(rep.latencies()) {
            Some(s) => (s.percentile(99.0) / 1e3, s.percentile(99.9) / 1e3),
            None => (f64::NAN, f64::NAN),
        };
        let viol = slo_violation_ns(&completion_series(rep), DEADLINE_NS) / 1e3;
        t.row([
            f(rate / 1e6, 1),
            f(goodput_mops(rep), 3),
            f(p99, 2),
            f(p999, 2),
            f(viol, 1),
            f(rep.admit.total() as f64, 0),
            f(rep.drops.expired as f64, 0),
            f(rep.retries as f64, 0),
            f(rep.gave_up as f64, 0),
        ]);
    }
    println!("{}", t.render());
}

/// Peak and past-knee (last swept rate) goodput for one mode's rows.
fn knee_stats(rows: &[(f64, OpenLoopReport)]) -> (f64, f64) {
    let peak = rows
        .iter()
        .map(|(_, r)| goodput_mops(r))
        .fold(0.0, f64::max);
    let last = rows.last().map_or(0.0, |(_, r)| goodput_mops(r));
    (peak, last)
}

fn run_sweep(ops: usize) {
    println!(
        "Open-loop KVS knee — {CORES} cores, {} logical ops/point, \
         deadline {:.0} us, shed backlog {SHED_BACKLOG}\n",
        ops,
        DEADLINE_NS / 1e3
    );
    let mut all = Vec::new();
    for mode in [Mode::NoControl, Mode::Shedding, Mode::ShedRetry] {
        let rows = sweep(mode, ops);
        print_mode_table(mode, &rows);
        all.push((mode, rows));
    }
    println!("Knee summary (goodput past the last swept rate vs. peak):");
    for (mode, rows) in &all {
        let (peak, last) = knee_stats(rows);
        println!(
            "  {:<10} peak {:.3} Mops/s, at ~3x overload {:.3} Mops/s ({:.0}% of peak)",
            mode.name(),
            peak,
            last,
            if peak > 0.0 { last / peak * 100.0 } else { 0.0 }
        );
    }
    println!(
        "\nPast the knee, no-control goodput collapses (expired-on-arrival \
         dominates); shedding holds goodput near peak by bounding queue delay."
    );
}

/// Chaos scenario: ~65 % base load (Poisson) with a ×4 flash crowd
/// over [0.20T, 0.30T), a link flap over [0.40T, 0.43T) and an RX
/// stall over [0.50T, 0.525T), where T = ops/base_rate is the nominal
/// run length. The flash crowd consumes the fixed op budget faster, so
/// arrivals actually end at E = T − 3 × flash_len = 0.7T; goodput is
/// bucketed over [0, E) so every fault window — and a clean recovery
/// window after the last one — sees arrival traffic.
fn run_chaos(ops: usize) {
    let base_rate = 20e6; // ~65 % of 2-core capacity.
    let horizon_ns = ops as f64 / base_rate * 1e9;
    let flash = (0.20 * horizon_ns, 0.30 * horizon_ns);
    let flash_mult = 4.0;
    // Arrivals end once the op budget is spent: the flash adds
    // (mult − 1) × rate × flash_len early arrivals.
    let arrive_end_ns = horizon_ns - (flash_mult - 1.0) * (flash.1 - flash.0);
    let flap = Window::new((0.40 * horizon_ns) as u64, (0.43 * horizon_ns) as u64);
    let stall = Window::new((0.50 * horizon_ns) as u64, (0.525 * horizon_ns) as u64);
    // Chaos-specific client knobs: a deadline wide enough to survive a
    // flap-width outage via retries (but still below the full-ring
    // drain time, so uncontrolled flash overload expires), and a
    // timeout small enough for ~3 attempts inside it.
    let deadline_ns = 12_000.0;
    let timeout_ns = 2_500.0;
    println!(
        "Chaos — {CORES} cores, {} ops at {:.0} Mops/s Poisson base, \
         x4 flash [{:.0},{:.0}) us, link flap [{},{}) us, RX stall [{},{}) us, \
         deadline {:.0} us, timeout {:.1} us\n",
        ops,
        base_rate / 1e6,
        flash.0 / 1e3,
        flash.1 / 1e3,
        flap.start / 1000,
        flap.end / 1000,
        stall.start / 1000,
        stall.end / 1000,
        deadline_ns / 1e3,
        timeout_ns / 1e3,
    );
    let faults = FaultPlan::none()
        .with_seed(9)
        .with_link_flap(flap)
        .with_rx_stall(stall);
    let mut results = Vec::new();
    for mode in [Mode::NoControl, Mode::ShedRetry] {
        let mut cfg = OpenLoopConfig::new(ops, 42)
            .with_cores(CORES)
            .with_deadline(deadline_ns)
            .with_faults(faults.clone());
        cfg = match mode {
            Mode::NoControl => cfg.with_retries(timeout_ns, 1),
            _ => cfg
                .with_admission(AdmissionPolicy::QueueDepth {
                    max_backlog: SHED_BACKLOG,
                })
                .with_retries(timeout_ns, 4),
        };
        let mut arr = OpenLoopGen::poisson(base_rate, 7)
            .with_profile(RateProfile::flat().with_flash(flash.0, flash.1, flash_mult));
        results.push((mode, run_one(&cfg, &mut arr)));
    }
    // Goodput per tenth of the arrival span [0, E); completions that
    // trail past E (late retries draining) clamp into the last bucket.
    let bucket_ns = arrive_end_ns / 10.0;
    let mut t = Table::new([
        "Bucket",
        "Window (us)",
        "no-control (Mops/s)",
        "shed+retry (Mops/s)",
    ]);
    let mut series: Vec<Vec<f64>> = Vec::new();
    for (_, rep) in &results {
        let mut buckets = [0u64; 10];
        for &(tc, _) in &rep.completions {
            let b = ((tc / bucket_ns) as usize).min(9);
            buckets[b] += 1;
        }
        series.push(
            buckets
                .iter()
                .map(|&c| c as f64 / (bucket_ns / 1e9))
                .collect(),
        );
    }
    // Indexing both mode series per bucket reads better than a zip of
    // zips here.
    #[allow(clippy::needless_range_loop)]
    for b in 0..10 {
        t.row([
            f(b as f64, 0),
            f(b as f64 * bucket_ns / 1e3, 0),
            f(series[0][b] / 1e6, 3),
            f(series[1][b] / 1e6, 3),
        ]);
    }
    println!("{}", t.render());
    for (i, (mode, rep)) in results.iter().enumerate() {
        // Pre-fault = the two buckets before the flash; post-fault =
        // the two buckets after the RX stall ends.
        let pre = series[i][0..2].iter().sum::<f64>() / 2.0;
        let post = series[i][8..10].iter().sum::<f64>() / 2.0;
        println!(
            "  {:<10} completed {} / {} (gave up {}, retries {}, shed {}, \
             expired {}, nic drops {}); pre-fault {:.3} Mops/s, \
             post-fault {:.3} Mops/s ({:.0}% recovered)",
            mode.name(),
            rep.completed,
            rep.logical_ops,
            rep.gave_up,
            rep.retries,
            rep.admit.total(),
            rep.drops.expired,
            rep.drops.nic.total(),
            pre / 1e6,
            post / 1e6,
            if pre > 0.0 { post / pre * 100.0 } else { 0.0 }
        );
    }
    println!(
        "\nThe resilient stack sheds the flash crowd, retries through the \
         flap/stall windows, and returns to pre-fault goodput once they lift."
    );
}

fn main() {
    let scale = bench::Scale::from_args(1, 30_000);
    let chaos = std::env::args().any(|a| a == "--chaos");
    // Chaos needs a longer horizon than the sweep's per-point budget so
    // the fault windows are wide relative to queue drain times.
    if chaos {
        run_chaos(scale.packets.max(4_000));
    } else {
        run_sweep(scale.packets);
    }
    bench::eprint_sched_totals("fig_knee_kvs");
}
