//! Real-application differential determinism: the NFV run-to-completion
//! chain, the two-stage pipelined chain, the KVS server and the
//! multi-tenant harness each run the same workload twice under the
//! event-driven scheduler and once under the reference tick-stepper,
//! and the *complete* results — every counter, every recorded latency
//! sample — must be bit-identical.
//!
//! The engine-level grid lives in `crates/engine/tests/differential.rs`;
//! this file proves the property survives the real applications' state
//! (flow tables, LPM lookups, the shared KV store, cross-core
//! handoffs). Test names ending in `serial_vs_parallel` predate the
//! engine's single execution path; each now checks repeated runs and
//! both schedulers.

use engine::Scheduler;
use kvs::proto::RequestGen;
use kvs::server::{flow_for_queue, run_server, MigrationMode, ServerConfig, ServerReport};
use kvs::store::{KvStore, Placement};
use llc_sim::hash::{SliceHash, XorSliceHash};
use llc_sim::machine::{Machine, MachineConfig};
use nfv::pipeline::{run_pipeline, PipelineConfig, PipelineHeadroom};
use nfv::runtime::{run_experiment, ChainSpec, HeadroomMode, RunConfig, RunResult, SteeringKind};
use rte::fault::{FaultPlan, Window};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use trafficgen::{ArrivalSchedule, CampusTrace, ZipfGen};

/// The NFV chain at one geometry/steering/fault point.
fn nfv_run(
    cores: usize,
    steering: SteeringKind,
    chain: ChainSpec,
    faulty: bool,
    scheduler: Scheduler,
) -> RunResult {
    let mut cfg = RunConfig::paper_defaults(
        chain,
        steering,
        HeadroomMode::CacheDirector {
            preferred_slices: 1,
        },
    );
    cfg.cores = cores;
    cfg.queue_depth = 64;
    cfg.mbufs = (4 * cores * 64) as u32;
    cfg.scheduler = scheduler;
    if faulty {
        cfg.faults = FaultPlan::frame_indexed()
            .with_seed(11)
            .with_corrupt_prob(0.03)
            .with_truncate_prob(0.05)
            .with_rx_stall(Window::new(100_000, 180_000));
    }
    let mut trace = CampusTrace::fixed_size(128, 96, 5);
    let mut sched = ArrivalSchedule::constant_pps(4_000_000.0);
    run_experiment(cfg, &mut trace, &mut sched, 4_000).expect("config fits")
}

#[test]
fn nfv_chain_results_are_identical_serial_vs_parallel() {
    for (cores, steering, chain, faulty) in [
        (2, SteeringKind::Rss, ChainSpec::MacSwap, false),
        (
            4,
            SteeringKind::FlowDirector,
            ChainSpec::RouterNaptLb {
                routes: 256,
                offload: true,
            },
            false,
        ),
        (
            4,
            SteeringKind::Rss,
            ChainSpec::RouterNaptLb {
                routes: 256,
                offload: false,
            },
            true,
        ),
    ] {
        let run = |scheduler| nfv_run(cores, steering, chain, faulty, scheduler);
        // `RunResult` carries f64 latency vectors; Debug formatting
        // captures every bit that matters and makes the diff readable
        // on failure.
        let first = format!("{:?}", run(Scheduler::EventDriven));
        assert_eq!(
            first,
            format!("{:?}", run(Scheduler::EventDriven)),
            "nfv cores={cores} {steering:?} faulty={faulty}: repeated run diverged"
        );
        assert_eq!(
            first,
            format!("{:?}", run(Scheduler::ReferenceTick)),
            "nfv cores={cores} {steering:?} faulty={faulty}: reference tick-stepper diverged"
        );
    }
}

#[test]
fn pipelined_chain_results_are_identical_serial_vs_parallel() {
    for headroom in [PipelineHeadroom::Stock, PipelineHeadroom::Compromise] {
        let run = |scheduler: Scheduler| {
            let cfg = PipelineConfig {
                scheduler,
                ..PipelineConfig::new(headroom)
            };
            let res = run_pipeline(&cfg, 64, 2_000_000.0, 6_000).expect("config fits");
            format!("{res:?}")
        };
        let first = run(Scheduler::EventDriven);
        assert_eq!(
            first,
            run(Scheduler::EventDriven),
            "pipeline {headroom:?}: repeated run diverged"
        );
        assert_eq!(
            first,
            run(Scheduler::ReferenceTick),
            "pipeline {headroom:?}: reference tick-stepper diverged"
        );
    }
}

/// The 4-core KVS server (§8 extension): striped key classes, one
/// client generator per queue. With migration on, the placement becomes
/// StripedHot, clients scramble their keys, and every core runs the
/// hot-set migration loop at engine-epoch boundaries — the timed swaps
/// go through the merge hook, which this suite must prove bit-identical
/// across repeated runs and schedulers.
fn kvs_run_on(
    scheduler: Scheduler,
    migration: MigrationMode,
    theta: f64,
    requests: usize,
) -> ServerReport {
    let cores = 4;
    let migrate = migration != MigrationMode::Off;
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20));
    let region = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
    let h = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
    let slices: Vec<usize> = (0..cores).map(|c| m.closest_slice(c)).collect();
    let placement = if migrate {
        Placement::StripedHot {
            slices,
            hot_per_core: 64,
        }
    } else {
        Placement::Striped { slices }
    };
    let store = KvStore::build(&mut m, &mut alloc, 4096, placement).unwrap();
    let mut pool = MbufPool::create(&mut m, 4096, 128, 2048).unwrap();
    let mut port = Port::new(0, Steering::Rss(Rss::new(cores)), 256);
    let base = trafficgen::FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
    let mut gens: Vec<RequestGen> = (0..cores)
        .map(|q| {
            let flow = flow_for_queue(&mut port, base, q);
            let keygen = ZipfGen::new(4096 / cores as u64, theta, 11 + q as u64);
            let mut gen = RequestGen::new(keygen, 900, 7 + q as u64)
                .with_flow(flow)
                .with_key_partition(cores as u32, q as u32);
            if migrate {
                gen = gen.with_key_scramble(31 + q as u64);
            }
            gen
        })
        .collect();
    let mut policy = FixedHeadroom(128);
    let mut cfg = ServerConfig::fig8(requests, 900, 1).with_cores(cores);
    cfg.scheduler = scheduler;
    cfg.migration = migration;
    run_server(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut gens,
        &cfg,
    )
}

/// Runs the KVS case (the always-migrate policy at epoch 500 when
/// `migrate` is set) twice under the event-driven scheduler and once
/// under the reference tick-stepper, asserts the three reports are
/// bit-identical (compared via Debug, so every field counts), and
/// returns the first.
fn kvs_reproducible(migrate: bool, theta: f64, what: &str) -> ServerReport {
    let migration = if migrate {
        MigrationMode::Always { epoch: 500 }
    } else {
        MigrationMode::Off
    };
    let run = |scheduler| kvs_run_on(scheduler, migration, theta, 6_000);
    let first = run(Scheduler::EventDriven);
    for (scheduler, label) in [
        (Scheduler::EventDriven, "repeated run"),
        (Scheduler::ReferenceTick, "reference tick-stepper"),
    ] {
        assert_eq!(
            format!("{first:?}"),
            format!("{:?}", run(scheduler)),
            "{what}: {label} diverged"
        );
    }
    first
}

#[test]
fn kvs_server_results_are_identical_serial_vs_parallel() {
    kvs_reproducible(false, 0.99, "kvs");
}

#[test]
fn kvs_migration_results_are_identical_serial_vs_parallel() {
    // Skewed keys: real migration traffic through the merge hook.
    let rep = kvs_reproducible(true, 0.99, "kvs migrate zipf");
    assert!(rep.migrated > 0, "the skewed case must actually migrate");
}

#[test]
fn kvs_cost_aware_migration_is_identical_across_modes_and_schedulers() {
    // The cost-aware controller is stateful across epochs (cost
    // estimate, calm counter, dormancy, epoch-length tuner), so any
    // dependence on *how many* merges the scheduler dispatches — rather
    // than on the noted access counts — would diverge here. Decisions
    // must be pure functions of per-epoch counts, which evolve only at
    // epochs with work; those coincide between the schedulers.
    // Epoch 1000 over partitioned Zipf(0.99): the hottest keys' nets
    // clear the ~800-cycle measured swap cost while the tail stays
    // below it, so every decision path (execute, veto, ledger) is live.
    let mode = MigrationMode::CostAware { epoch: 1000 };
    let reference = kvs_run_on(Scheduler::EventDriven, mode, 0.99, 12_000);
    assert!(
        reference.migrated > 0,
        "the skewed cost-aware case must actually migrate"
    );
    assert!(
        reference.swaps_vetoed > 0,
        "the Zipf tail must produce vetoed candidates"
    );
    assert_eq!(
        reference.swaps_at_loss, 0,
        "cost-aware must never execute a swap at a projected loss"
    );
    for scheduler in [Scheduler::EventDriven, Scheduler::ReferenceTick] {
        let run = kvs_run_on(scheduler, mode, 0.99, 12_000);
        assert_eq!(
            format!("{reference:?}"),
            format!("{run:?}"),
            "kvs cost-aware: {scheduler:?} run diverged"
        );
    }
}

#[test]
fn kvs_migration_with_tied_counts_is_identical_serial_vs_parallel() {
    // Uniform keys: per-epoch access counts are riddled with ties, so
    // any HashMap-iteration-order dependence in the migrator's
    // promote/evict ordering would diverge here. The (count, key) total
    // order must keep it bit-identical.
    let rep = kvs_reproducible(true, 0.0, "kvs migrate uniform ties");
    assert!(rep.migrated > 0, "uniform churn must still migrate");
}

/// The multi-tenant chaos harness under one scheduler.
fn tenancy_run(scheduler: Scheduler) -> tenancy::run::TenancyReport {
    let cfg = tenancy::run::TenancyConfig {
        scheduler,
        ..tenancy::run::TenancyConfig::new(tenancy::run::Regime::Online, 6_000)
    };
    tenancy::run::run_tenancy(&cfg)
}

#[test]
fn tenancy_controller_results_are_identical_across_modes_and_schedulers() {
    // The isolation controller is stateful across control epochs
    // (streaks, cooldown, calm counter, the held-p99 series), and its
    // observations come from worker-produced latency logs and merged
    // uncore counters — the maximal surface for a scheduler dependence
    // to leak in. The full report (per-tenant ledgers, violation
    // integrals, every controller action count) must be bit-identical
    // across repeated runs and both schedulers.
    let reference = tenancy_run(Scheduler::EventDriven);
    assert!(
        reference.moves > 0 && reference.ddio_shrinks > 0,
        "the online case must actually exercise the controller"
    );
    for scheduler in [Scheduler::EventDriven, Scheduler::ReferenceTick] {
        let run = tenancy_run(scheduler);
        assert_eq!(
            format!("{reference:?}"),
            format!("{run:?}"),
            "tenancy: {scheduler:?} run diverged"
        );
    }
}

#[test]
fn tenancy_per_tenant_ledgers_partition_the_aggregate_identities() {
    // Aggregate conservation must equal the sum of per-tenant
    // identities: each tenant's group ledger balances on its own, and
    // the groups sum to the run's totals — no frame is lost between or
    // double-counted across tenants.
    let rep = tenancy_run(Scheduler::EventDriven);
    let mut sums = (0u64, 0u64, 0u64, 0u64);
    for (group, tenant) in rep.per_group.iter().zip(&rep.tenants) {
        assert_eq!(
            group.offered + group.carried,
            group.delivered
                + group.nic.total()
                + group.admit.total()
                + group.app_drops
                + group.in_flight,
            "{}: tenant ledger leaks frames",
            tenant.name
        );
        assert_eq!(group.offered, tenant.offered);
        assert_eq!(group.delivered, tenant.served);
        sums.0 += group.offered;
        sums.1 += group.delivered;
        sums.2 += group.nic.total() + group.admit.total();
        sums.3 += group.app_drops + group.in_flight + group.carried;
    }
    let offered: u64 = rep.tenants.iter().map(|t| t.offered).sum();
    let served: u64 = rep.tenants.iter().map(|t| t.served).sum();
    let rejected: u64 = rep.tenants.iter().map(|t| t.rejected).sum();
    assert_eq!(sums.0, offered, "offered partition broken");
    assert_eq!(sums.1, served, "delivered partition broken");
    assert_eq!(sums.2, rejected, "rejection partition broken");
    // The run has fully drained: nothing is still queued, in flight,
    // or silently dropped inside an app across any tenant.
    assert_eq!(sums.3, 0, "residual frames after drain");
}
