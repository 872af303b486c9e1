//! Workers of one epoch share the live LLC.
//!
//! Within an epoch the engine runs its active workers in ascending
//! worker order directly on the [`Machine`], so a line worker 0 pulls
//! into the LLC is an LLC hit for worker 1 later in the same epoch —
//! the cross-core contention every result of the paper rests on. This
//! test pins that: two workers on different cores each get one frame in
//! the same epoch and load the same cold line; worker 0 pays DRAM,
//! worker 1 pays exactly its core's LLC-hit latency to the line's
//! slice.

use engine::{
    AdmissionPolicy, Ctx, Engine, EngineConfig, EngineReport, Execution, Hw, QueueApp, SchedStats,
    Scheduler, Verdict, WorkerSpec,
};
use llc_sim::addr::PhysAddr;
use llc_sim::machine::{Machine, MachineConfig};
use rte::fault::FaultPlan;
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port, RxCompletion, TxDesc};
use rte::steering::{Rss, Steering};
use trafficgen::FlowTuple;

/// Loads one shared line per packet and records what the load cost.
struct SharedLoad {
    line: PhysAddr,
    costs: Vec<u64>,
}

impl QueueApp for SharedLoad {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        self.costs.push(ctx.m.touch_read(ctx.core, self.line));
        Verdict::Tx(TxDesc {
            mbuf: comp.mbuf,
            data_pa: comp.data_pa,
            len: comp.len,
        })
    }
}

/// A flow that RSS steers to queue `q` of a two-queue port.
fn flow_to(q: usize) -> FlowTuple {
    let mut probe = Port::new(0, Steering::Rss(Rss::new(2)), 64);
    (0u32..)
        .map(|i| FlowTuple::tcp(0x0a00_0000 + i, 1000 + i as u16, 0xc0a8_0001, 80))
        .find(|f| probe.route(f).0 == q)
        .expect("RSS reaches every queue")
}

/// One run: both frames arrive at t = 0, so a single epoch serves both.
/// Returns the report, each worker's load costs, and the LLC-hit
/// latency from core 1 to the shared line's slice.
fn run(scheduler: Scheduler) -> (EngineReport, Vec<Vec<u64>>, u64) {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
    let mut pool = MbufPool::create(&mut m, 256, 128, 2048).unwrap();
    let line = m.mem_mut().alloc(4096, 4096).unwrap().pa(0);
    let llc_hit_core1 = u64::from(m.llc_latency(1, m.slice_of(line)));
    let mut port = Port::new(0, Steering::Rss(Rss::new(2)), 64);
    let mut policy = FixedHeadroom(128);
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: &mut policy,
    };
    let apps = (0..2)
        .map(|_| SharedLoad {
            line,
            costs: Vec::new(),
        })
        .collect();
    let mut eng = Engine::new(
        apps,
        EngineConfig {
            workers: WorkerSpec::run_to_completion(2),
            queue_depth: 64,
            burst: 8,
            faults: FaultPlan::none(),
            execution: Execution::Serial,
            admission: AdmissionPolicy::AcceptAll,
            scheduler,
        },
        &mut hw,
    );
    for q in 0..2 {
        assert_eq!(eng.offer(&mut hw, &flow_to(q), &[0u8; 64], 0.0), Ok(q));
    }
    eng.run_until(&mut hw, 1e6);
    eng.drain(&mut hw);
    let (rep, apps) = eng.finish(&mut hw);
    let costs = apps.into_iter().map(|a| a.costs).collect();
    (rep, costs, llc_hit_core1)
}

#[test]
fn later_worker_hits_the_line_an_earlier_worker_filled_in_the_same_epoch() {
    let (rep, costs, llc_hit_core1) = run(Scheduler::EventDriven);
    assert_eq!(rep.delivered, 2);
    assert_eq!(
        rep.sched.epochs_with_work, 1,
        "both frames must be served by one epoch"
    );
    let dram = u64::from(MachineConfig::haswell_e5_2667_v3().dram_latency);
    assert_eq!(
        costs[0],
        vec![dram],
        "worker 0 loads the cold line from DRAM"
    );
    assert_eq!(
        costs[1],
        vec![llc_hit_core1],
        "worker 1 must hit the line worker 0 filled earlier in the epoch"
    );
    assert!(llc_hit_core1 < dram);
}

#[test]
fn shared_line_runs_are_identical_across_runs_and_schedulers() {
    let sans_sched = |mut rep: EngineReport| {
        rep.sched = SchedStats::default();
        rep
    };
    let first = run(Scheduler::EventDriven);
    assert_eq!(first, run(Scheduler::EventDriven), "repeated run diverged");
    let (rep, costs, lat) = run(Scheduler::ReferenceTick);
    assert_eq!(costs, first.1, "reference tick-stepper charged differently");
    assert_eq!(lat, first.2);
    assert_eq!(sans_sched(rep), sans_sched(first.0));
}
