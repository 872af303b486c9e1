//! Multi-queue fault isolation: stalling one RX queue's drain must
//! degrade only that queue, leave its siblings untouched, and keep the
//! engine's conservation invariant intact — the §8 multi-core setup
//! under the failure mode it actually fears (one queue's PCIe credit
//! path backing up while the rest of the port keeps going).

use kvs::proto::RequestGen;
use kvs::server::{flow_for_queue, run_server, ServerConfig, ServerReport};
use kvs::store::{KvStore, Placement};
use llc_sim::hash::{SliceHash, XorSliceHash};
use llc_sim::machine::{Machine, MachineConfig};
use rte::fault::{FaultPlan, Window};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use trafficgen::{FlowTuple, ZipfGen};

const CORES: usize = 4;
const KEYS: usize = 4096;

fn run_with(faults: FaultPlan, requests: usize) -> ServerReport {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20));
    let region = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
    let h = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
    let slices: Vec<usize> = (0..CORES).map(|c| m.closest_slice(c)).collect();
    let store = KvStore::build(&mut m, &mut alloc, KEYS, Placement::Striped { slices }).unwrap();
    let mut pool = MbufPool::create(&mut m, 4096, 128, 2048).unwrap();
    let mut port = Port::new(0, Steering::Rss(Rss::new(CORES)), 256);
    let base = FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
    let mut gens: Vec<RequestGen> = (0..CORES)
        .map(|q| {
            let flow = flow_for_queue(&mut port, base, q);
            let keygen = ZipfGen::new((KEYS / CORES) as u64, 0.99, 100 + q as u64);
            RequestGen::new(keygen, 900, 7 + q as u64)
                .with_flow(flow)
                .with_key_partition(CORES as u32, q as u32)
        })
        .collect();
    let mut policy = FixedHeadroom(128);
    let cfg = ServerConfig::fig8(requests, 900, 1)
        .with_cores(CORES)
        .with_faults(faults);
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

fn assert_conservation(rep: &ServerReport) {
    assert_eq!(
        rep.offered + rep.carried,
        rep.served + rep.drops.total() + rep.in_flight,
        "global conservation"
    );
    for qr in &rep.per_queue {
        assert_eq!(
            qr.offered + qr.carried,
            qr.served + qr.drops.total() + qr.in_flight,
            "queue {} conservation",
            qr.queue
        );
    }
}

/// A well-formed request whose key lies outside the store is a client
/// error, not a server crash: it is dropped as malformed before the
/// store (or a migrator) sees the key, and everything else is served.
#[test]
fn out_of_range_keys_are_dropped_as_malformed() {
    const SMALL: usize = 1024;
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let region = m.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
    let h = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
    let store = KvStore::build(&mut m, &mut alloc, SMALL, Placement::Normal).unwrap();
    let mut pool = MbufPool::create(&mut m, 1024, 128, 2048).unwrap();
    let mut port = Port::new(0, Steering::Rss(Rss::new(1)), 256);
    let base = FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
    let flow = flow_for_queue(&mut port, base, 0);
    // Keys drawn from a range four times the store.
    let keygen = ZipfGen::new(4 * SMALL as u64, 0.99, 5);
    let mut gens = vec![RequestGen::new(keygen, 900, 9).with_flow(flow)];
    let mut policy = FixedHeadroom(128);
    let rep = run_server(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut gens,
        &ServerConfig::fig8(4_000, 900, 1),
    );
    assert!(
        rep.drops.malformed > 0,
        "out-of-range keys must be rejected"
    );
    assert!(rep.served > 0, "in-range requests are still served");
    assert_conservation(&rep);
}

#[test]
fn transient_queue_stall_degrades_only_that_queue() {
    const STALLED: usize = 2;
    // Time-indexed (the default axis): queue 2's RX drain wedges for the
    // first 20 µs of the run, then recovers.
    let faults = FaultPlan::none().with_queue_rx_stall(STALLED, Window::new(0, 20_000));
    let rep = run_with(faults, 8_000);
    assert!(rep.served >= 8_000, "served {}", rep.served);
    assert_conservation(&rep);
    for qr in &rep.per_queue {
        if qr.queue == STALLED {
            assert!(
                qr.drops.nic.rx_stall > 0,
                "the stalled queue must shed arrivals during its window"
            );
            assert!(
                qr.served > 0,
                "the stalled queue must recover after the window"
            );
        } else {
            assert_eq!(
                qr.drops.total(),
                0,
                "queue {} must be untouched by queue {STALLED}'s stall",
                qr.queue
            );
            assert!(qr.served > 0, "queue {} must keep serving", qr.queue);
        }
    }
}

#[test]
fn permanently_stalled_queue_serves_nothing_while_siblings_carry_on() {
    const STALLED: usize = 1;
    let faults = FaultPlan::none().with_queue_rx_stall(STALLED, Window::new(0, u64::MAX));
    let rep = run_with(faults, 6_000);
    // The remaining three queues still reach the aggregate target.
    assert!(rep.served >= 6_000, "served {}", rep.served);
    assert_conservation(&rep);
    let dead = &rep.per_queue[STALLED];
    assert_eq!(dead.served, 0, "a wedged queue serves nothing");
    assert_eq!(dead.in_flight, 0, "no frame ever enters a wedged ring");
    assert_eq!(
        dead.drops.nic.rx_stall, dead.offered,
        "every offer to the wedged queue is shed as an RX stall"
    );
    for qr in &rep.per_queue {
        if qr.queue != STALLED {
            assert_eq!(qr.drops.total(), 0, "queue {} clean", qr.queue);
            assert!(qr.served > 0, "queue {} serving", qr.queue);
        }
    }
}

#[test]
fn queue_stall_reports_match_the_fault_free_baseline_elsewhere() {
    // Determinism check: with the same seeds, the non-stalled queues'
    // GET counts under a queue-0 stall window match a fault-free run's —
    // per-queue injection must not perturb sibling queues' RNG streams
    // or steering.
    let base = run_with(FaultPlan::none(), 6_000);
    let faulty = run_with(
        FaultPlan::none().with_queue_rx_stall(0, Window::new(0, 10_000)),
        6_000,
    );
    assert!(faulty.per_queue[0].drops.nic.rx_stall > 0);
    assert_eq!(base.per_queue.len(), faulty.per_queue.len());
    // Sibling queues see the same client stream; their drop ledgers stay
    // clean in both runs.
    for q in 1..CORES {
        assert_eq!(base.per_queue[q].drops.total(), 0);
        assert_eq!(faulty.per_queue[q].drops.total(), 0);
    }
}

/// Overload-resilience under compound faults: a ×4 flash crowd
/// immediately followed by a mempool-exhaustion window must degrade
/// goodput only while the faults are active. The resilient stack
/// (queue-depth shedding + deadline-aware retries) has to return to
/// its pre-fault goodput within the bucket after the last fault lifts —
/// bounded-time recovery, not just eventual.
#[test]
fn flash_crowd_and_pool_exhaustion_recover_to_pre_fault_goodput() {
    use engine::AdmissionPolicy;
    use kvs::{run_openloop_streaming, OpenLoopConfig};
    use trafficgen::{OpenLoopGen, RateProfile};

    const SERVE_CORES: usize = 2;
    const OPS: usize = 4_000;
    let base_rate = 20e6; // ~65 % of 2-core capacity.
    let horizon_ns = OPS as f64 / base_rate * 1e9; // 200 µs nominal.
    let flash = (0.20 * horizon_ns, 0.30 * horizon_ns);
    // The ×4 flash spends the op budget early: arrivals end at
    // E = T − 3 × flash_len = 0.7 T.
    let arrive_end_ns = horizon_ns - 3.0 * (flash.1 - flash.0);
    // The outage must outlast the pre-posted descriptors: the rings hold
    // 2 × 256 descriptors and the outage blocks *replenishment*, so at
    // 20 Mops/s starvation bites ~26 µs in. 40 µs of outage gives a
    // clearly starved tail.
    let pool_out = Window::new((0.35 * horizon_ns) as u64, (0.55 * horizon_ns) as u64);

    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let region = m.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
    let h = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
    let store = KvStore::build(&mut m, &mut alloc, KEYS, Placement::Normal).unwrap();
    let mut pool = MbufPool::create(&mut m, 4096, 128, 2048).unwrap();
    let mut port = Port::new(0, Steering::Rss(Rss::new(SERVE_CORES)), 256);
    let mut policy = FixedHeadroom(128);

    let cfg = OpenLoopConfig::new(OPS, 42)
        .with_cores(SERVE_CORES)
        .with_deadline(12_000.0)
        .with_retries(2_500.0, 4)
        .with_admission(AdmissionPolicy::QueueDepth { max_backlog: 32 })
        .with_faults(
            FaultPlan::none()
                .with_seed(3)
                .with_pool_exhaustion(pool_out),
        );
    let mut arr = OpenLoopGen::poisson(base_rate, 11)
        .with_profile(RateProfile::flat().with_flash(flash.0, flash.1, 4.0));
    let mut completions: Vec<(f64, f64)> = Vec::new();
    let rep = run_openloop_streaming(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut arr,
        &cfg,
        &mut completions,
    );
    rep.assert_conservation();
    assert_eq!(completions.len() as u64, rep.completed);

    // Both injected faults must actually bite.
    assert!(
        rep.admit.total() > 0,
        "the flash crowd must push past the admission threshold"
    );
    assert!(
        rep.drops.nic.pool_starved > 0,
        "the exhaustion window must cost mbuf allocations"
    );

    // Goodput per tenth of the arrival span [0, E). Pre-fault: the two
    // buckets before the flash. The outage runs [0.5 E, 0.786 E) with
    // descriptors starved from ~0.68 E, so bucket 7 is the degraded
    // window; it ends at 0.8 E, right after the outage lifts, and the
    // last two buckets must already be back at pre-fault goodput.
    let bucket_ns = arrive_end_ns / 10.0;
    let mut buckets = [0u64; 10];
    for &(tc, _) in &completions {
        buckets[((tc / bucket_ns) as usize).min(9)] += 1;
    }
    let pre = (buckets[0] + buckets[1]) as f64 / 2.0;
    let during = buckets[7] as f64;
    let post = (buckets[8] + buckets[9]) as f64 / 2.0;
    assert!(
        during < pre,
        "goodput must degrade while the pool is exhausted \
         (pre {pre}, during {during})"
    );
    assert!(
        post >= 0.8 * pre,
        "goodput must recover to >=80% of pre-fault within two buckets \
         of the last fault lifting (pre {pre}, post {post})"
    );
}
