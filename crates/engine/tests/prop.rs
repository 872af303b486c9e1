//! Property test: the engine conserves every packet and its simulated
//! clock never runs backwards, for *any* combination of app behaviour,
//! steering mode, queue geometry, arrival pattern, fault plan — **and
//! scheduler**. Every seeded iteration runs twice under the event-driven
//! scheduler, and the two [`EngineReport`]s must be bit-identical; a
//! third run under the reference tick-stepper must match them bar the
//! scheduler counters.
//!
//! The engine already asserts the conservation invariant internally (per
//! queue, globally, and against the NIC's own counters) inside
//! [`Engine::finish`] — so this test's job is to drive it through a wide
//! randomized space of configurations and make sure none of them trips
//! an assert, loses a packet, bends time, or diverges between runs or
//! schedulers. Randomness comes from the in-tree seeded
//! [`trafficgen::Rng64`]; a failure prints its iteration seed and
//! replays exactly.

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

/// A toy app that forwards, drops, or swallows packets at seeded random,
/// with variable per-packet work — the adversarial superset of the real
/// apps (NFV chains forward/drop; the pipeline consumes and re-emits).
/// One instance per worker, seeded per worker, so its decision stream is
/// a pure function of (iteration seed, worker, packet order).
struct ChaosApp {
    rng: Rng64,
    drop_permille: u32,
    work: u64,
    /// Packets noted since the last economics-hook decision — the same
    /// observable the KVS cost-aware migrator folds over.
    seen: u64,
}

impl QueueApp for ChaosApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        self.seen += 1;
        ctx.m
            .advance(ctx.core, self.work + self.rng.gen_range(0u32..200) as u64);
        if self.rng.gen_range(0u32..1000) < self.drop_permille {
            Verdict::Drop
        } else {
            Verdict::Tx(TxDesc {
                mbuf: comp.mbuf,
                data_pa: comp.data_pa,
                len: comp.len,
            })
        }
    }
}

fn random_plan(rng: &mut Rng64, horizon_ns: u64, queues: usize) -> FaultPlan {
    let mut plan = if rng.gen_range(0u32..2) == 0 {
        FaultPlan::none()
    } else {
        FaultPlan::frame_indexed()
    };
    plan = plan.with_seed(rng.next_u64());
    if rng.gen_range(0u32..2) == 0 {
        plan = plan.with_corrupt_prob(rng.gen_range(0u32..300) as f64 / 1000.0);
    }
    if rng.gen_range(0u32..2) == 0 {
        plan = plan.with_truncate_prob(rng.gen_range(0u32..200) as f64 / 1000.0);
    }
    let window = |rng: &mut Rng64| {
        let start = rng.next_u64() % horizon_ns;
        let len = rng.next_u64() % (horizon_ns / 4).max(1);
        Window::new(start, start.saturating_add(len))
    };
    if rng.gen_range(0u32..2) == 0 {
        let w = window(rng);
        plan = plan.with_rx_stall(w);
    }
    if rng.gen_range(0u32..2) == 0 {
        let w = window(rng);
        plan = plan.with_link_flap(w);
    }
    if rng.gen_range(0u32..2) == 0 {
        let w = window(rng);
        plan = plan.with_pool_exhaustion(w);
    }
    if rng.gen_range(0u32..2) == 0 {
        let w = window(rng);
        plan = plan.with_ready_overrun(w);
    }
    if rng.gen_range(0u32..2) == 0 {
        let w = window(rng);
        plan = plan.with_tx_stall(w);
    }
    if rng.gen_range(0u32..2) == 0 {
        let q = rng.gen_range(0u32..queues as u32) as usize;
        let w = window(rng);
        plan = plan.with_queue_rx_stall(q, w);
    }
    plan
}

/// Which epoch hook (if any) a scenario installs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HookKind {
    /// No hook.
    None,
    /// Unconditionally burns RNG state and cycles *per hook call* —
    /// deliberately violates the no-op-at-workless-epochs contract, so
    /// scenarios with it are excluded from the event≡reference check.
    Unconditional,
    /// Economics-style hook shaped like the cost-aware migrator:
    /// decisions are a pure function of packets noted since the last
    /// acting epoch, charges are batched, the estimate self-tunes, and
    /// workless epochs are exact no-ops — so it stays *included* in the
    /// event≡reference comparison.
    Economics,
}

/// Replays iteration `seed` under the given scheduler, returning the
/// final report plus which epoch hook the scenario installed.
/// Everything — geometry, fault plan, app behaviour, arrivals,
/// interleaved step calls — is a pure function of `seed`, so two calls
/// run the exact same scenario.
fn run_once(iter: u64, seed: u64, scheduler: Scheduler) -> (EngineReport, HookKind) {
    let mut rng = Rng64::seed_from_u64(seed);
    let queues = 1usize << rng.gen_range(0u32..3); // 1, 2 or 4.
    let depth = [16usize, 32, 64][rng.gen_range(0u32..3) as usize];
    let burst = [1usize, 8, 32][rng.gen_range(0u32..3) as usize];
    let offers = 200 + rng.gen_range(0u32..300) as usize;
    let gap_ns = [50.0f64, 400.0, 3000.0][rng.gen_range(0u32..3) as usize];
    let horizon = ((offers as f64 * gap_ns) as u64).max(1);
    let plan = random_plan(&mut rng, horizon, queues);
    let steering = if rng.gen_range(0u32..2) == 0 {
        Steering::Rss(Rss::new(queues))
    } else {
        Steering::FlowDirector(FlowDirector::new(queues))
    };
    let drop_permille = rng.gen_range(0u32..400);
    let work = 50 + rng.gen_range(0u32..500) as u64;
    let hook_kind = match rng.gen_range(0u32..3) {
        0 => HookKind::None,
        1 => HookKind::Unconditional,
        _ => HookKind::Economics,
    };
    // A third of the grid runs with an ingress admission policy; its
    // sheds must keep every conservation identity balanced and stay
    // bit-identical across runs like every other drop cause.
    let admission = match rng.gen_range(0u32..3) {
        0 => AdmissionPolicy::AcceptAll,
        1 => AdmissionPolicy::QueueDepth {
            max_backlog: 1 + rng.gen_range(0u32..depth as u32) as usize,
        },
        _ => AdmissionPolicy::DeadlineInfeasible {
            est_service_ns: 10.0 + rng.gen_range(0u32..2000) as f64,
        },
    };
    let apps: Vec<ChaosApp> = (0..queues)
        .map(|w| ChaosApp {
            rng: Rng64::seed_from_u64(seed ^ 0xabcd ^ (w as u64).wrapping_mul(0x9e37)),
            drop_permille,
            work,
            seen: 0,
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
        faults: plan,
        execution: Execution::Serial,
        admission,
        scheduler,
    };
    let mut eng = Engine::new(apps, cfg, &mut hw);
    match hook_kind {
        HookKind::None => {}
        HookKind::Unconditional => {
            // A third of the grid installs an epoch hook that runs
            // *timed* work against the machine at the merge — the
            // surface the KVS hot-set migration uses (`MergeCtx::m`).
            // The hook's cycle charges are a pure function of the
            // iteration seed, so they must land identically on every
            // run, and the
            // conservation/monotonicity asserts below must keep holding
            // with inter-epoch time injected.
            let mut hrng = Rng64::seed_from_u64(seed ^ 0x5ee5_a11d);
            eng.set_epoch_hook(Box::new(move |_apps, mc| {
                let core = hrng.gen_range(0u32..queues as u32) as usize;
                let cycles = hrng.gen_range(0u32..500) as u64;
                mc.m.advance(core, cycles);
                0
            }));
        }
        HookKind::Economics => {
            // Another third installs a hook shaped like the cost-aware
            // migrator (DESIGN.md §3g): it only acts on workers whose
            // apps made progress since its last decision, charges a
            // batched cost on the worker's core, and refines its cost
            // estimate from the charge it just made. Because every
            // decision is a pure function of the per-worker noted
            // counts — and those evolve only at epochs with work, which
            // the two schedulers dispatch identically — the full report
            // must stay bit-identical across *schedulers* as well as
            // repeated runs.
            let threshold = 20 + (seed % 40);
            let benefit = 8 + ((seed >> 8) % 24);
            let mut est = vec![600u64; queues];
            eng.set_epoch_hook(Box::new(move |apps: &mut [ChaosApp], mc| {
                for (w, app) in apps.iter_mut().enumerate() {
                    if app.seen < threshold {
                        continue; // workless/quiet epoch: exact no-op
                    }
                    let projected = app.seen * benefit;
                    if projected > est[w] {
                        let batch = (app.seen / 8).clamp(1, 4);
                        let cycles = batch * (est[w] / 2) + 31;
                        mc.m.advance(w, cycles);
                        est[w] = (est[w] + cycles / batch) / 2;
                    }
                    app.seen = 0;
                }
                0
            }));
        }
    }

    let mut t = 0.0f64;
    let mut clock_floor = eng.now_ns();
    let mut frame = vec![0u8; 64];
    for i in 0..offers {
        t += rng.gen_range(0u32..(2.0 * gap_ns) as u32 + 1) as f64;
        let f = FlowTuple::tcp(
            0x0a00_0000 + rng.gen_range(0u32..64),
            1000 + rng.gen_range(0u32..64) as u16,
            0xc0a8_0001,
            80,
        );
        frame[0] = i as u8;
        // Half the offers carry a (sometimes already-tight) deadline so
        // the DeadlineInfeasible policy actually fires. Offers may be
        // shed by the NIC or the admission filter; every outcome must
        // be accounted, so the Result itself is moot.
        let deadline = if rng.gen_range(0u32..2) == 0 {
            f64::INFINITY
        } else {
            t + rng.gen_range(0u32..(8.0 * gap_ns) as u32 + 100) as f64
        };
        let _ = eng.offer_with_deadline(&mut hw, &f, &frame, t, deadline);
        let now = eng.now_ns();
        assert!(
            now >= clock_floor,
            "iter {iter} (seed {seed:#x}, {scheduler:?}): clock ran backwards ({now} < {clock_floor})"
        );
        clock_floor = now;
        if rng.gen_range(0u32..4) == 0 {
            eng.step(&mut hw);
            let now = eng.now_ns();
            assert!(
                now >= clock_floor,
                "iter {iter} (seed {seed:#x}, {scheduler:?}): step reversed time"
            );
            clock_floor = now;
        }
    }
    eng.drain(&mut hw);
    let now = eng.now_ns();
    assert!(
        now >= clock_floor,
        "iter {iter} (seed {seed:#x}, {scheduler:?}): drain reversed time"
    );

    // `finish` asserts conservation per queue, globally, and against
    // the port's own counters; restate the global identity from the
    // report so a regression in the report itself is also caught.
    let (rep, _) = eng.finish(&mut hw);
    assert_eq!(
        rep.offered, offers as u64,
        "iter {iter} (seed {seed:#x}, {scheduler:?})"
    );
    assert_eq!(
        rep.offered + rep.carried,
        rep.delivered + rep.nic.total() + rep.admit.total() + rep.app_drops + rep.in_flight,
        "iter {iter} (seed {seed:#x}, {scheduler:?}): conservation"
    );
    assert_eq!(
        rep.in_flight, 0,
        "iter {iter} (seed {seed:#x}, {scheduler:?}): drained open-loop runs leave nothing in flight"
    );
    assert_eq!(rep.per_queue.len(), queues);
    let q_off: u64 = rep.per_queue.iter().map(|l| l.offered).sum();
    assert_eq!(
        q_off, rep.offered,
        "iter {iter} (seed {seed:#x}, {scheduler:?}): queue partition"
    );
    assert!(rep.duration_ns > 0.0);
    (rep, hook_kind)
}

/// The same report with the scheduler counters blanked — the one field
/// that legitimately differs between [`Scheduler::EventDriven`] and
/// [`Scheduler::ReferenceTick`].
fn sans_sched(mut rep: EngineReport) -> EngineReport {
    rep.sched = SchedStats::default();
    rep
}

#[test]
fn random_configs_conserve_packets_and_time_in_both_modes() {
    let mut meta = Rng64::seed_from_u64(0x9e37_79b9_7f4a_7c15);
    for iter in 0..60u64 {
        let seed = meta.next_u64();
        let (first, hooked) = run_once(iter, seed, Scheduler::EventDriven);
        let (second, _) = run_once(iter, seed, Scheduler::EventDriven);
        assert_eq!(
            first, second,
            "iter {iter} (seed {seed:#x}): repeated run diverged"
        );
        // The retained reference tick-stepper must agree field-for-field
        // with the event-driven scheduler (sched counters aside) —
        // except when the scenario installed the *unconditional* timed
        // hook: that hook burns RNG state and machine cycles *per hook
        // call*, and the number of hook calls is exactly what
        // event-driven scheduling reduces (hooks run only at dispatched
        // epochs; all real apps' hooks are no-ops at workless epochs,
        // that synthetic one is deliberately not — see DESIGN.md §3f).
        // The economics-style hook honors the contract, so its
        // scenarios stay in the comparison.
        let (reference, _) = run_once(iter, seed, Scheduler::ReferenceTick);
        if hooked != HookKind::Unconditional {
            assert_eq!(
                sans_sched(first.clone()),
                sans_sched(reference.clone()),
                "iter {iter} (seed {seed:#x}): event-driven diverged from reference tick-stepper"
            );
            assert!(
                first.sched.epochs_dispatched <= reference.sched.epochs_dispatched,
                "iter {iter} (seed {seed:#x}): event-driven dispatched more epochs \
                 ({}) than the tick-stepper ({})",
                first.sched.epochs_dispatched,
                reference.sched.epochs_dispatched,
            );
        }
    }
}
