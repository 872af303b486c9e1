//! Differential determinism harness: every scenario in a grid of
//! app behaviour × steering × queue geometry × fault plan is executed
//! twice under each scheduler. Repeated runs must produce a
//! bit-identical [`EngineReport`], and the event-driven scheduler must
//! match the reference tick-stepper field for field (bar the scheduler
//! counters). The real applications (NFV chain, pipelined chain, KVS)
//! get the same treatment in the workspace-level `tests/determinism.rs`.

use engine::{
    AdmissionPolicy, Ctx, Engine, EngineConfig, EngineReport, Execution, Hw, QueueApp, SchedStats,
    Scheduler, Verdict, WorkerSpec,
};
use llc_sim::machine::{Machine, MachineConfig};
use rte::fault::{FaultPlan, Window};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port, RxCompletion, TxDesc};
use rte::steering::{FlowDirector, Rss, Steering};
use trafficgen::{FlowTuple, Rng64};

/// The app-behaviour axis of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AppKind {
    /// Forward every packet with fixed work (the fast path).
    Echo,
    /// Seeded random forward/drop with variable work (adversarial).
    Chaos,
    /// Consume into a private backlog, re-emit from `pump` next epoch
    /// (the pipeline-shaped path: Consumed + pump + has_backlog).
    Backlog,
}

/// The steering axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SteerKind {
    Rss,
    FlowDirector,
}

/// One per-worker app instance covering all three behaviours.
struct GridApp {
    kind: AppKind,
    rng: Rng64,
    inbox: Vec<RxCompletion>,
    burst: usize,
}

impl QueueApp for GridApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        match self.kind {
            AppKind::Echo => {
                ctx.m.advance(ctx.core, 120);
                Verdict::Tx(TxDesc {
                    mbuf: comp.mbuf,
                    data_pa: comp.data_pa,
                    len: comp.len,
                })
            }
            AppKind::Chaos => {
                ctx.m
                    .advance(ctx.core, 60 + self.rng.gen_range(0u32..300) as u64);
                if self.rng.gen_range(0u32..1000) < 250 {
                    Verdict::Drop
                } else {
                    Verdict::Tx(TxDesc {
                        mbuf: comp.mbuf,
                        data_pa: comp.data_pa,
                        len: comp.len,
                    })
                }
            }
            AppKind::Backlog => {
                ctx.m.advance(ctx.core, 80);
                self.inbox.push(*comp);
                Verdict::Consumed
            }
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>, tx: &mut Vec<TxDesc>) -> usize {
        if self.kind != AppKind::Backlog || self.inbox.is_empty() {
            return 0;
        }
        let take = self.burst.min(self.inbox.len());
        for c in self.inbox.drain(..take) {
            ctx.m.advance(ctx.core, 90);
            tx.push(TxDesc {
                mbuf: c.mbuf,
                data_pa: c.data_pa,
                len: c.len,
            });
        }
        take
    }

    fn has_backlog(&self) -> bool {
        !self.inbox.is_empty()
    }
}

/// A fault plan exercising frame faults and every outage window.
fn mixed_plan(seed: u64, horizon_ns: u64, queues: usize) -> FaultPlan {
    let third = horizon_ns / 3;
    let mut plan = FaultPlan::frame_indexed()
        .with_seed(seed)
        .with_corrupt_prob(0.04)
        .with_truncate_prob(0.06)
        .with_rx_stall(Window::new(third / 2, third))
        .with_tx_stall(Window::new(third, third + third / 2))
        .with_pool_exhaustion(Window::new(2 * third, 2 * third + third / 3));
    if queues > 1 {
        plan = plan.with_queue_rx_stall(queues - 1, Window::new(third / 4, third / 2));
    }
    plan
}

/// Runs one grid scenario under the default event-driven scheduler and
/// returns the report. Everything — arrivals, flows, app decisions — is
/// a pure function of the scenario, so two calls must agree exactly.
fn run_scenario(
    app: AppKind,
    steer: SteerKind,
    queues: usize,
    depth: usize,
    burst: usize,
    faulty: bool,
) -> EngineReport {
    run_scheduled(
        app,
        steer,
        queues,
        depth,
        burst,
        faulty,
        Scheduler::EventDriven,
    )
}

/// [`run_scenario`] with the scheduler as an explicit axis.
fn run_scheduled(
    app: AppKind,
    steer: SteerKind,
    queues: usize,
    depth: usize,
    burst: usize,
    faulty: bool,
    scheduler: Scheduler,
) -> EngineReport {
    let seed = 0xd1f_0000
        ^ (queues as u64) << 4
        ^ (depth as u64) << 8
        ^ (burst as u64) << 16
        ^ (faulty as u64) << 24;
    let offers = 400usize;
    let gap_ns = 250.0f64;
    let horizon = (offers as f64 * gap_ns) as u64;
    let steering = match steer {
        SteerKind::Rss => Steering::Rss(Rss::new(queues)),
        SteerKind::FlowDirector => Steering::FlowDirector(FlowDirector::new(queues)),
    };
    let faults = if faulty {
        mixed_plan(seed, horizon, queues)
    } else {
        FaultPlan::none()
    };
    let apps: Vec<GridApp> = (0..queues)
        .map(|w| GridApp {
            kind: app,
            rng: Rng64::seed_from_u64(seed ^ 0x5eed ^ (w as u64).wrapping_mul(0x9e37)),
            inbox: Vec::new(),
            burst,
        })
        .collect();

    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
    let mut pool = MbufPool::create(&mut m, (4 * queues * depth) as u32, 128, 2048).unwrap();
    let mut port = Port::new(0, steering, depth);
    let mut policy = FixedHeadroom(128);
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: &mut policy,
    };
    let cfg = EngineConfig {
        workers: WorkerSpec::run_to_completion(queues),
        queue_depth: depth,
        burst,
        faults,
        execution: Execution::Serial,
        admission: AdmissionPolicy::AcceptAll,
        scheduler,
    };
    let mut eng = Engine::new(apps, cfg, &mut hw);

    let mut rng = Rng64::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut frame = vec![0u8; 128];
    for i in 0..offers {
        t += rng.gen_range(1u32..(2.0 * gap_ns) as u32) as f64;
        let f = FlowTuple::tcp(
            0x0a00_0000 + rng.gen_range(0u32..48),
            2000 + rng.gen_range(0u32..48) as u16,
            0xc0a8_0001,
            443,
        );
        frame[0] = i as u8;
        let _ = eng.offer(&mut hw, &f, &frame, t);
        if rng.gen_range(0u32..5) == 0 {
            eng.step(&mut hw);
        }
    }
    eng.drain(&mut hw);
    let (rep, _) = eng.finish(&mut hw);
    rep
}

const GEOMETRIES: &[(usize, usize, usize)] = &[(1, 16, 8), (2, 64, 32), (4, 32, 1)];

/// The headline grid: every scenario run twice yields bit-identical
/// reports.
#[test]
fn grid_reports_are_bit_identical_across_runs() {
    for app in [AppKind::Echo, AppKind::Chaos, AppKind::Backlog] {
        for steer in [SteerKind::Rss, SteerKind::FlowDirector] {
            for &(queues, depth, burst) in GEOMETRIES {
                for faulty in [false, true] {
                    let first = run_scenario(app, steer, queues, depth, burst, faulty);
                    let second = run_scenario(app, steer, queues, depth, burst, faulty);
                    assert_eq!(
                        first, second,
                        "{app:?}/{steer:?} q={queues} d={depth} b={burst} \
                         faulty={faulty}: repeated run diverged"
                    );
                }
            }
        }
    }
}

/// The reference-vs-event-driven differential: over the entire grid,
/// the event-driven scheduler's report equals the
/// retained reference tick-stepper's field-for-field — except
/// [`EngineReport::sched`], whose whole point is to differ (the
/// event-driven run must never dispatch *more* epochs).
#[test]
fn event_driven_scheduler_matches_reference_tick_stepper() {
    let sans_sched = |mut rep: EngineReport| {
        rep.sched = SchedStats::default();
        rep
    };
    for app in [AppKind::Echo, AppKind::Chaos, AppKind::Backlog] {
        for steer in [SteerKind::Rss, SteerKind::FlowDirector] {
            for &(queues, depth, burst) in GEOMETRIES {
                for faulty in [false, true] {
                    let evt = run_scheduled(
                        app,
                        steer,
                        queues,
                        depth,
                        burst,
                        faulty,
                        Scheduler::EventDriven,
                    );
                    let tick = run_scheduled(
                        app,
                        steer,
                        queues,
                        depth,
                        burst,
                        faulty,
                        Scheduler::ReferenceTick,
                    );
                    assert_eq!(
                        sans_sched(evt.clone()),
                        sans_sched(tick.clone()),
                        "{app:?}/{steer:?} q={queues} d={depth} b={burst} faulty={faulty}: \
                         event-driven diverged from the reference tick-stepper"
                    );
                    assert!(
                        evt.sched.epochs_dispatched <= tick.sched.epochs_dispatched,
                        "{app:?}/{steer:?} q={queues} d={depth} b={burst} faulty={faulty}: \
                         event-driven dispatched more epochs ({}) than the tick-stepper ({})",
                        evt.sched.epochs_dispatched,
                        tick.sched.epochs_dispatched,
                    );
                }
            }
        }
    }
}

/// Stress: several *whole engines* running concurrently on OS threads
/// (as a multi-threaded test harness would run them) must each still
/// produce the canonical report — no cross-engine interference through
/// shared process state. Run this suite with `--test-threads=1` and
/// with the default harness; both must pass identically.
#[test]
fn concurrent_engines_do_not_interfere() {
    let expected = run_scenario(AppKind::Chaos, SteerKind::FlowDirector, 4, 32, 8, true);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| run_scenario(AppKind::Chaos, SteerKind::FlowDirector, 4, 32, 8, true))
            })
            .collect();
        for h in handles {
            let rep = h.join().expect("engine thread panicked");
            assert_eq!(expected, rep, "concurrent engines interfered");
        }
    });
}

/// An app whose epoch hook behaves like the cost-aware migrator: it
/// accumulates per-queue access counts, and at epoch merges performs
/// *conditional, batched, timed* machine work on the serving core —
/// with a running cost estimate, an economics veto, and dormancy
/// back-off, exactly the stateful shape of `kvs`'s controller (which
/// gets its own end-to-end differential in the workspace-level
/// `tests/determinism.rs`).
struct EconApp {
    seen: u64,
    charged: u64,
}

impl QueueApp for EconApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        ctx.m.advance(ctx.core, 100);
        self.seen += 1;
        Verdict::Tx(TxDesc {
            mbuf: comp.mbuf,
            data_pa: comp.data_pa,
            len: comp.len,
        })
    }
}

/// Runs the economics-hook scenario and returns the report, the final
/// per-core machine clocks, and the cycles each queue's hook charged.
fn run_econ(scheduler: Scheduler) -> (EngineReport, Vec<u64>, Vec<u64>) {
    let queues = 2usize;
    let depth = 32usize;
    let apps: Vec<EconApp> = (0..queues)
        .map(|_| EconApp {
            seen: 0,
            charged: 0,
        })
        .collect();
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
    let mut pool = MbufPool::create(&mut m, (4 * queues * depth) as u32, 128, 2048).unwrap();
    let mut port = Port::new(0, Steering::Rss(Rss::new(queues)), depth);
    let mut policy = FixedHeadroom(128);
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: &mut policy,
    };
    let cfg = EngineConfig {
        workers: WorkerSpec::run_to_completion(queues),
        queue_depth: depth,
        burst: 8,
        faults: FaultPlan::none(),
        execution: Execution::Serial,
        admission: AdmissionPolicy::AcceptAll,
        scheduler,
    };
    let mut eng = Engine::new(apps, cfg, &mut hw);
    // Controller state captured by the hook: a per-queue cost estimate
    // refined from "realized" charges, calm-epoch counters and dormancy
    // flags. Everything is a pure function of the apps' access counts,
    // so both schedulers must replay it identically. Crucially the hook is a strict no-op at workless
    // epochs: `seen` only moves when packets were processed, and every
    // acting branch resets it.
    let mut est = vec![800u64; queues];
    let mut calm = vec![0u32; queues];
    let mut dormant = vec![false; queues];
    eng.set_epoch_hook(Box::new(
        move |apps: &mut [EconApp], mc: &mut engine::MergeCtx<'_>| {
            for (w, app) in apps.iter_mut().enumerate() {
                if app.seen < 60 {
                    continue;
                }
                let projected = app.seen * 20;
                if dormant[w] && projected <= 2 * est[w] {
                    app.seen = 0;
                    continue;
                }
                if projected > est[w] {
                    // Batched timed work on the serving core (worker w runs
                    // on core w under run_to_completion).
                    let batch = (app.seen / 12).min(4);
                    let cycles = batch * est[w] / 2 + 37;
                    mc.m.advance(w, cycles);
                    app.charged += cycles;
                    est[w] = (est[w] + cycles / batch.max(1)) / 2;
                    calm[w] = 0;
                    dormant[w] = false;
                } else {
                    calm[w] += 1;
                    if calm[w] >= 2 {
                        dormant[w] = true;
                    }
                }
                app.seen = 0;
            }
            0
        },
    ));
    let mut rng = Rng64::seed_from_u64(0xec0_90d);
    let mut t = 0.0f64;
    let mut frame = vec![0u8; 128];
    for i in 0..400usize {
        t += rng.gen_range(1u32..500) as f64;
        let f = FlowTuple::tcp(
            0x0a00_0000 + rng.gen_range(0u32..48),
            2000 + rng.gen_range(0u32..48) as u16,
            0xc0a8_0001,
            443,
        );
        frame[0] = i as u8;
        let _ = eng.offer(&mut hw, &f, &frame, t);
        if rng.gen_range(0u32..5) == 0 {
            eng.step(&mut hw);
        }
    }
    eng.drain(&mut hw);
    let (rep, apps) = eng.finish(&mut hw);
    let clocks = (0..queues).map(|c| hw.m.now(c)).collect();
    let charged = apps.iter().map(|a| a.charged).collect();
    (rep, clocks, charged)
}

/// A stateful, economics-driven epoch hook that charges timed machine
/// work at merges must stay bit-identical — report, per-core clocks,
/// and charged cycles — across repeated runs and event-driven/
/// reference-tick scheduling, because its decisions are pure functions
/// of noted access counts and it is a no-op at workless epochs
/// (DESIGN §3f).
#[test]
fn stateful_economics_hook_is_bit_identical_across_runs_and_schedulers() {
    let sans_sched = |mut rep: EngineReport| {
        rep.sched = SchedStats::default();
        rep
    };
    let (ref_rep, ref_clocks, ref_charged) = run_econ(Scheduler::EventDriven);
    assert!(
        ref_charged.iter().sum::<u64>() > 0,
        "the hook must actually charge work for this test to mean anything"
    );
    for scheduler in [Scheduler::EventDriven, Scheduler::ReferenceTick] {
        let (rep, clocks, charged) = run_econ(scheduler);
        assert_eq!(
            sans_sched(ref_rep.clone()),
            sans_sched(rep),
            "{scheduler:?}: report diverged"
        );
        assert_eq!(
            ref_clocks, clocks,
            "{scheduler:?}: hook charges landed on different clocks"
        );
        assert_eq!(
            ref_charged, charged,
            "{scheduler:?}: hook charged different cycles"
        );
    }
}
