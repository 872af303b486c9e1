//! The unified multi-core event engine: one polling loop for every
//! queue application in the workspace.
//!
//! The paper's evaluation (§4–§5) runs every workload — stateless
//! forwarding, stateful service chains, and the KVS — on the same
//! substrate: per-core run-to-completion PMD loops over DDIO-fed RX
//! queues. This crate is that substrate. An application implements
//! [`QueueApp`] (what to do with one received packet, plus an optional
//! `pump` hook for work that does not come from an RX queue, like a
//! pipeline's handoff ring) and the engine supplies everything else:
//!
//! * **Simulated clock.** Each [`WorkerSpec`] (a core, optionally bound
//!   to one RX queue) has a *free-at* timestamp. Workers never run ahead
//!   of the load generator's clock, so queueing emerges naturally: a
//!   busy worker leaves arrivals in the descriptor ring, and when the
//!   ring's posted descriptors run out the NIC drops (`rx_nodesc`) — the
//!   throughput ceiling of Table 3.
//! * **The polling loop.** `rx_burst → on_packet → tx → refill`, with
//!   the idle re-arm that keeps RX rings stocked across transient pool
//!   outages. This is the only PMD loop in the workspace; the NFV
//!   testbed, the pipelined chain, and the multi-queue KVS are all thin
//!   [`QueueApp`]s over it.
//! * **Virtual-time scheduling.** [`Engine::run_until`] does not tick
//!   once per offered frame: a delayed event queue ([`events`]) keyed
//!   on integer virtual time holds each busy worker's next epoch-merge
//!   event, so catch-up calls where no event is due forward the idle
//!   clocks in O(1) instead of dispatching an empty epoch (the
//!   "empty-epoch tax" — see `EngineReport::sched`). The tick-stepper
//!   this replaced is retained as [`Scheduler::ReferenceTick`] and the
//!   differential suites assert both produce bit-identical reports.
//! * **Epoch execution.** Workers advance in *epochs*: each active
//!   worker, in ascending worker order, runs its polling loop directly
//!   on the [`Machine`] and its RX queue, so it sees every LLC fill an
//!   earlier worker made in the same epoch. Cross-worker effects on
//!   buffers (TX commits, recycling, refills) are deferred to a merge
//!   walk in the same canonical worker order. Everything runs on the
//!   calling thread, so a run is a pure function of its inputs; the
//!   differential suite (`tests/differential.rs`) checks run-to-run
//!   equality and the scheduler equivalence below.
//! * **Drop accounting.** Per-queue [`NicDrops`] and [`AdmitDrops`]
//!   ledgers plus a per-queue count of application drops. The engine
//!   owns the conservation invariant `offered + carried == delivered +
//!   Σ nic[cause] + Σ admit[cause] + app + in_flight` and asserts it
//!   (globally and per queue) in [`Engine::finish`], cross-checking its
//!   classification against the port's own counters.
//! * **Admission control & backpressure.** A pluggable
//!   [`AdmissionPolicy`] sheds frames at the driver's ingress — before
//!   they consume a descriptor — by queue-depth threshold or deadline
//!   infeasibility ([`Engine::offer_with_deadline`]), and
//!   [`Engine::backpressured`] exposes the explicit per-queue
//!   backpressure signal clients use to stretch retry backoff.
//! * **Fault injection.** [`rte::fault::FaultPlan`] windows — including
//!   the TX-side kinds (`tx_stall`, `ready_overrun`) and per-queue RX
//!   stalls — are drawn per offered frame with the target queue known,
//!   so queue-scoped faults degrade only their queue.
//!
//! Hardware (machine, port, mempool, headroom policy) is *not* owned by
//! the engine; callers pass a [`Hw`] view per call. That keeps warm
//! state (e.g. a KVS store and its LLC contents) reusable across runs,
//! which Fig. 8's warm-then-measure methodology depends on.

#![forbid(unsafe_code)]

pub mod drops;
pub mod events;

pub use drops::{AdmitDrops, NicDrops};
pub use events::{time_key, time_of_key, DelayedQueue};

use llc_sim::machine::Machine;
use rte::fault::{FaultPlan, FaultState};
use rte::mempool::MbufPool;
use rte::nic::{DropReason, HeadroomPolicy, Port, RxCompletion, TxDesc};
use trafficgen::FlowTuple;

/// A borrowed view of the hardware the engine drives. The engine owns
/// clocks and ledgers only; machine, port, pool, and headroom policy
/// stay with the caller so they can outlive a run (warm stores, reused
/// ports).
pub struct Hw<'a> {
    /// The simulated machine.
    pub m: &'a mut Machine,
    /// The NIC port whose queues the workers poll.
    pub port: &'a mut Port,
    /// The mbuf pool backing the port's descriptors.
    pub pool: &'a mut MbufPool,
    /// The headroom policy applied on refill (stock or CacheDirector).
    pub policy: &'a mut dyn HeadroomPolicy,
}

/// One worker: a core running the polling loop, optionally bound to one
/// RX queue. Queue-less workers only run their app's [`QueueApp::pump`]
/// hook (e.g. the second stage of a pipelined chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpec {
    /// The core this worker's cycles are charged to.
    pub core: usize,
    /// The RX queue it polls, if any.
    pub queue: Option<usize>,
}

impl WorkerSpec {
    /// The usual run-to-completion shape: core `c` polls queue `c`.
    pub fn run_to_completion(cores: usize) -> Vec<WorkerSpec> {
        (0..cores)
            .map(|c| WorkerSpec {
                core: c,
                queue: Some(c),
            })
            .collect()
    }
}

/// How worker epochs execute. There is one mode: workers run in
/// ascending worker order on the calling thread. The type survives only
/// as the value of [`EngineConfig::execution`], which existing
/// struct-literal callers still set; the engine ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// Workers run inline, in worker order, on the calling thread.
    #[default]
    Serial,
}

/// Which scheduler drives [`Engine::run_until`].
///
/// Both schedulers run the *same* epoch algorithm (partition → worker
/// polling → worker-ordered merge → epoch hook) whenever an epoch is
/// dispatched; they differ only in *when* epochs are dispatched. The
/// differential suite (`tests/differential.rs`) asserts their reports are
/// bit-identical, field for field, modulo the [`SchedStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The virtual-time event scheduler (default): `run_until`
    /// dispatches an epoch only when a busy worker's merge event is due
    /// before the horizon, forwards idle clocks lazily in O(1)
    /// otherwise, and replays the tick-stepper's idle re-arm only when
    /// a starved ring could actually re-post (pool live, outage over).
    #[default]
    EventDriven,
    /// The tick-stepper this engine shipped with: every `run_until`
    /// call dispatches a full epoch — partition, merge walk, epoch
    /// hook — even when no worker is behind the horizon or has work.
    /// Retained as the reference baseline for the differential tests;
    /// `epochs_dispatched` under this scheduler measures the
    /// empty-epoch tax the event scheduler removes.
    ReferenceTick,
}

/// Scheduler observability counters, carried in [`EngineReport`] and
/// accumulated process-wide (see [`sched_totals`]). Dispatch decisions
/// depend only on simulated state, but the counters differ across
/// [`Scheduler`] modes, which is their point: the reference
/// tick-stepper dispatches strictly more epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Epochs actually dispatched (partition + merge walk + hook).
    pub epochs_dispatched: u64,
    /// Dispatched epochs in which at least one worker polled (had a
    /// ready completion or backlog behind the horizon). The gap to
    /// `epochs_dispatched` is the empty-epoch tax.
    pub epochs_with_work: u64,
    /// Virtual-time events the scheduler consumed: one per offered
    /// frame (the arrival event, delivered synchronously by `offer`)
    /// plus every epoch-merge event popped from the delayed queue.
    pub events_processed: u64,
}

impl SchedStats {
    fn add_to_totals(self) {
        use std::sync::atomic::Ordering::Relaxed;
        TOTAL_EPOCHS_DISPATCHED.fetch_add(self.epochs_dispatched, Relaxed);
        TOTAL_EPOCHS_WITH_WORK.fetch_add(self.epochs_with_work, Relaxed);
        TOTAL_EVENTS_PROCESSED.fetch_add(self.events_processed, Relaxed);
    }
}

static TOTAL_EPOCHS_DISPATCHED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TOTAL_EPOCHS_WITH_WORK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TOTAL_EVENTS_PROCESSED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide [`SchedStats`] totals, summed over every finished
/// engine in this process. The figure binaries print these to *stderr*
/// at exit so the empty-epoch tax is visible in every run without
/// touching the golden stdout snapshots. Purely observational: totals
/// are atomic sums, so concurrent engines fold in commutatively and
/// per-engine reports stay exact.
pub fn sched_totals() -> SchedStats {
    use std::sync::atomic::Ordering::Relaxed;
    SchedStats {
        epochs_dispatched: TOTAL_EPOCHS_DISPATCHED.load(Relaxed),
        epochs_with_work: TOTAL_EPOCHS_WITH_WORK.load(Relaxed),
        events_processed: TOTAL_EVENTS_PROCESSED.load(Relaxed),
    }
}

/// Resets the process-wide totals (bench harnesses that time several
/// workloads in one process).
pub fn reset_sched_totals() {
    use std::sync::atomic::Ordering::Relaxed;
    TOTAL_EPOCHS_DISPATCHED.store(0, Relaxed);
    TOTAL_EPOCHS_WITH_WORK.store(0, Relaxed);
    TOTAL_EVENTS_PROCESSED.store(0, Relaxed);
}

/// Why the ingress admission filter shed a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The target queue's ready backlog was at or above the policy
    /// threshold.
    QueueDepth,
    /// The frame's deadline could not be met even if it were accepted
    /// (arrival time plus the backlog's estimated service time already
    /// exceeds the deadline).
    Deadline,
}

/// Why [`Engine::offer`] rejected a frame: the NIC/driver dropped it
/// ([`DropReason`]) or the admission filter shed it ([`ShedCause`]).
/// Both land in per-queue ledgers, so either way the conservation
/// invariant keeps balancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Dropped inside the NIC/driver model (ring, MAC, link, stalls).
    Nic(DropReason),
    /// Shed by the [`AdmissionPolicy`] before consuming a descriptor.
    Shed(ShedCause),
}

/// The pluggable ingress admission filter: evaluated per offered frame,
/// after wire/MAC-level faults (a frame the link never carried cannot
/// be shed) but *before* descriptor allocation, like a hardware flow
/// rule or an XDP early drop. Rejections land in the per-queue
/// [`AdmitDrops`] ledger.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdmissionPolicy {
    /// No shedding; every frame proceeds to the ring (the default, and
    /// exactly the pre-admission engine behaviour).
    #[default]
    AcceptAll,
    /// Shed when the target queue's ready backlog has reached
    /// `max_backlog` completions — bounds queue delay at roughly
    /// `max_backlog × service time` under overload.
    QueueDepth {
        /// Backlog threshold (completions waiting in the ready ring).
        max_backlog: usize,
    },
    /// Shed frames whose deadline is already infeasible: the arrival
    /// time plus `(backlog + 1) × est_service_ns` exceeds the frame's
    /// deadline. Frames offered without a deadline are never shed.
    DeadlineInfeasible {
        /// Estimated per-request service time used for the feasibility
        /// projection.
        est_service_ns: f64,
    },
}

impl AdmissionPolicy {
    /// Policy decision for one frame: `Some(cause)` to shed, given the
    /// target queue's ready backlog, the arrival time, and the frame's
    /// absolute deadline (`f64::INFINITY` when it has none).
    fn reject(&self, backlog: usize, t_ns: f64, deadline_ns: f64) -> Option<ShedCause> {
        match *self {
            AdmissionPolicy::AcceptAll => None,
            AdmissionPolicy::QueueDepth { max_backlog } => {
                (backlog >= max_backlog).then_some(ShedCause::QueueDepth)
            }
            AdmissionPolicy::DeadlineInfeasible { est_service_ns } => {
                let projected = t_ns + (backlog + 1) as f64 * est_service_ns;
                (projected > deadline_ns).then_some(ShedCause::Deadline)
            }
        }
    }

    /// The backlog level at which this policy starts shedding (used by
    /// the backpressure signal); `None` when the policy never sheds on
    /// depth alone.
    fn depth_threshold(&self) -> Option<usize> {
        match *self {
            AdmissionPolicy::QueueDepth { max_backlog } => Some(max_backlog),
            _ => None,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The workers (cores × queues).
    pub workers: Vec<WorkerSpec>,
    /// RX descriptors per queue; also the refill target.
    pub queue_depth: usize,
    /// PMD burst size.
    pub burst: usize,
    /// Injected faults.
    pub faults: FaultPlan,
    /// Ignored: kept only so struct-literal callers that still name it
    /// compile. Workers always run in worker order on the calling
    /// thread.
    pub execution: Execution,
    /// Ingress admission filter (default: accept all).
    pub admission: AdmissionPolicy,
    /// Event-driven virtual-time scheduling (default) or the reference
    /// tick-stepper (see [`Scheduler`]).
    pub scheduler: Scheduler,
}

/// What an application decides about one received packet.
#[derive(Debug, Clone, Copy)]
pub enum Verdict {
    /// Transmit this descriptor (the engine counts it as delivered and
    /// recycles the buffer at the epoch merge).
    Tx(TxDesc),
    /// Drop: the engine recycles the buffer and counts one application
    /// drop on the worker's queue. Cause-level accounting is the app's
    /// job (it has richer vocabulary than the engine needs).
    Drop,
    /// The app took ownership of the buffer (e.g. queued it on a
    /// handoff ring). It must eventually resurface as a [`Verdict::Tx`]
    /// from `pump`, a [`Ctx::drop_packet`], or stay counted in flight.
    Consumed,
}

/// Per-poll context handed to the application: the machine plus the
/// worker's identity and the wall-clock anchor of the current poll
/// iteration.
pub struct Ctx<'a> {
    /// The simulated machine. Timed work goes on [`Ctx::core`].
    pub m: &'a mut Machine,
    /// The worker's core.
    pub core: usize,
    /// The worker's index in [`EngineConfig::workers`].
    pub worker: usize,
    /// The worker's RX queue, if any.
    pub queue: Option<usize>,
    start_cycles: u64,
    start_ns: f64,
    ns_per_cycle: f64,
    dropped: u64,
    freed: &'a mut Vec<u32>,
}

impl Ctx<'_> {
    /// The current simulated wall clock on this worker's core: the poll
    /// iteration's start plus the cycles burned so far.
    pub fn wall_ns(&self) -> f64 {
        self.start_ns + (self.m.now(self.core) - self.start_cycles) as f64 * self.ns_per_cycle
    }

    /// Recycles `mbuf` (at the epoch merge, in canonical order) and
    /// counts one application drop on this worker's queue — the
    /// explicit form of [`Verdict::Drop`] for packets the app
    /// previously [`Verdict::Consumed`] (e.g. a full handoff ring).
    pub fn drop_packet(&mut self, mbuf: u32) {
        self.freed.push(mbuf);
        self.dropped += 1;
    }
}

/// A queue application: the per-packet half of the polling loop.
///
/// One instance exists *per worker* (the engine takes a `Vec<A>`), so
/// instances own their worker's state outright. Shared state (a KVS
/// index, routing tables) is read-only during epochs; cross-worker
/// *transfers* (pipeline handoff) go through the epoch hook
/// ([`Engine::set_epoch_hook`]).
pub trait QueueApp {
    /// Processes one received packet on `ctx.worker` and decides its
    /// fate. Runs timed work against `ctx.m` on `ctx.core`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict;

    /// Non-RX work for this worker (e.g. draining a handoff ring).
    /// Push transmissions into `tx`; recycle drops with
    /// [`Ctx::drop_packet`]. Returns how many packets moved — it MUST
    /// make progress whenever [`QueueApp::has_backlog`] is true, or the
    /// engine's drain loop cannot terminate.
    fn pump(&mut self, _ctx: &mut Ctx<'_>, _tx: &mut Vec<TxDesc>) -> usize {
        0
    }

    /// Whether this worker has non-RX work pending (see
    /// [`QueueApp::pump`]).
    fn has_backlog(&self) -> bool {
        false
    }
}

/// Context handed to the epoch and control hooks (between epochs, after
/// the merge, with the pool live).
pub struct MergeCtx<'a> {
    /// The mbuf pool (for recycling buffers the hook drops).
    pub pool: &'a mut MbufPool,
    /// The machine. Hooks may run *timed* work against it (e.g. the
    /// KVS's §8 hot-set migration swaps): cycles land on the core they
    /// are charged to, exactly as worker-epoch work does.
    pub m: &'a mut Machine,
    app_drops: &'a mut [u64],
}

impl MergeCtx<'_> {
    /// Recycles `mbuf` and counts one application drop on `queue`.
    pub fn drop_packet(&mut self, queue: usize, mbuf: u32) {
        self.pool.put(mbuf);
        self.app_drops[queue] += 1;
    }
}

/// The cross-worker transfer hook, run after every epoch merge: move items between the per-worker apps (e.g. a pipeline
/// stage-1 outbox into stage-2's inbox). Returns how many items moved,
/// which keeps [`Engine::drain`] honest.
pub type EpochHook<A> = Box<dyn FnMut(&mut [A], &mut MergeCtx<'_>) -> usize>;

/// A periodic control-plane hook ([`Engine::set_control_hook`]): the
/// engine fires it at every multiple of the control period that a
/// [`Engine::run_until`] horizon crosses, after catching simulated time
/// up to exactly that boundary. The third argument is the boundary time
/// (ns). Unlike the epoch hook — which runs whenever the *scheduler*
/// decides an epoch is due, a cadence that legitimately differs between
/// [`Scheduler::EventDriven`] and [`Scheduler::ReferenceTick`] — the
/// control hook's firing times are a pure function of the horizon
/// sequence, so a controller's decisions stay bit-identical across both
/// schedulers. Hooks may run timed work
/// against `MergeCtx::m`; the cycles are folded into the owning
/// workers' free-at times exactly like epoch-hook time.
pub type ControlHook<A> = Box<dyn FnMut(&mut [A], &mut MergeCtx<'_>, f64)>;

/// Per-queue slice of the final [`EngineReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLedger {
    /// Frames the load generator offered that steered to this queue.
    pub offered: u64,
    /// Completions a previous run left in this queue's ready ring.
    pub carried: u64,
    /// Frames transmitted by this queue's worker.
    pub delivered: u64,
    /// NIC/driver drops.
    pub nic: NicDrops,
    /// Admission-control sheds.
    pub admit: AdmitDrops,
    /// Application drops.
    pub app_drops: u64,
    /// Completions still in the ready ring at finish.
    pub in_flight: u64,
}

/// What a finished engine run reports. Aggregates satisfy
/// `offered + carried == delivered + nic.total() + admit.total() +
/// app_drops + in_flight`, and each [`QueueLedger`] satisfies the same
/// per queue (both asserted in [`Engine::finish`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Frames offered.
    pub offered: u64,
    /// Completions carried in from a previous run.
    pub carried: u64,
    /// Frames transmitted.
    pub delivered: u64,
    /// Aggregate NIC/driver drops.
    pub nic: NicDrops,
    /// Aggregate admission-control sheds.
    pub admit: AdmitDrops,
    /// Aggregate application drops.
    pub app_drops: u64,
    /// Completions left in ready rings (closed-loop runs end with some).
    pub in_flight: u64,
    /// The per-queue breakdown; sums to the aggregate fields above.
    pub per_queue: Vec<QueueLedger>,
    /// Per-group ledgers when [`Engine::set_queue_groups`] partitioned
    /// the queues (e.g. one group per tenant): entry `g` sums the
    /// ledgers of every queue mapped to group `g`, each satisfying the
    /// same conservation identity (asserted in [`Engine::finish`]), and
    /// the groups together partition the aggregate. Empty when no
    /// grouping was installed.
    pub per_group: Vec<QueueLedger>,
    /// Simulated run duration: the latest worker free-at time, ≥ 1 ns.
    pub duration_ns: f64,
    /// The last offered frame's arrival time.
    pub last_arrival_ns: f64,
    /// Wire bits offered (for Gbps math).
    pub offered_wire_bits: u64,
    /// Wire bits transmitted.
    pub tx_wire_bits: u64,
    /// Scheduler counters for this run: the only report field that
    /// legitimately differs between [`Scheduler::EventDriven`] and
    /// [`Scheduler::ReferenceTick`].
    pub sched: SchedStats,
}

// ---------------------------------------------------------------------
// Epoch worker polls.
// ---------------------------------------------------------------------

/// The per-epoch constants every worker's poll loop reads.
#[derive(Clone, Copy)]
struct EpochParams {
    burst: usize,
    ns_per_cycle: f64,
    /// Poll horizon; `f64::INFINITY` in single-poll (`step`) mode.
    horizon: f64,
    single_poll: bool,
}

/// One poll iteration's deferred cross-worker effects.
struct PollOutcome {
    tx: Vec<TxDesc>,
    /// The TX path was stalled at transmit time: frames are shed
    /// (recycled + counted) instead of committed.
    tx_stalled: bool,
    dropped: u64,
    freed: Vec<u32>,
}

/// What one worker's epoch hands to the merge.
struct TaskOutcome {
    worker: usize,
    polls: Vec<PollOutcome>,
    free_ns: f64,
    ended_idle: bool,
    moved: usize,
}

/// Runs worker `worker`'s polling loop for one epoch, directly on the
/// machine and its RX queue. Buffer recycling, TX commits and refills
/// are returned as a [`TaskOutcome`] for the merge.
fn run_task<A: QueueApp>(
    app: &mut A,
    hw: &mut Hw<'_>,
    faults: &FaultState,
    worker: usize,
    spec: WorkerSpec,
    free_ns: f64,
    ep: EpochParams,
) -> TaskOutcome {
    let core = spec.core;
    let mut polls = Vec::new();
    let mut moved_total = 0usize;
    let mut free = free_ns;
    let mut ended_idle = false;
    loop {
        if !ep.single_poll && free >= ep.horizon {
            break;
        }
        let has_rx = spec.queue.is_some_and(|q| hw.port.ready_count(q) > 0);
        if !has_rx && !app.has_backlog() {
            ended_idle = true;
            if !ep.single_poll {
                // Idle-poll forward to the horizon; the idle re-arm
                // refill happens at the merge.
                free = ep.horizon;
            }
            break;
        }
        let start_cycles = hw.m.now(core);
        let start_ns = free;
        let batch = match spec.queue {
            Some(q) => hw.port.rx_burst(hw.m, hw.pool, q, core, ep.burst).0,
            None => Vec::new(),
        };
        let mut moved = batch.len();
        let mut tx: Vec<TxDesc> = Vec::with_capacity(batch.len());
        let mut freed: Vec<u32> = Vec::new();
        let dropped;
        {
            let mut ctx = Ctx {
                m: hw.m,
                core,
                worker,
                queue: spec.queue,
                start_cycles,
                start_ns,
                ns_per_cycle: ep.ns_per_cycle,
                dropped: 0,
                freed: &mut freed,
            };
            for comp in &batch {
                match app.on_packet(&mut ctx, comp) {
                    Verdict::Tx(desc) => tx.push(desc),
                    Verdict::Drop => ctx.drop_packet(comp.mbuf),
                    Verdict::Consumed => {}
                }
            }
            moved += app.pump(&mut ctx, &mut tx);
            dropped = ctx.dropped;
        }
        let mut tx_stalled = false;
        if !tx.is_empty() {
            let t_tx = start_ns + (hw.m.now(core) - start_cycles) as f64 * ep.ns_per_cycle;
            if faults.tx_stalled(t_tx) {
                // The TX descriptor path is wedged: fully processed
                // frames cannot leave the box; the merge recycles them.
                tx_stalled = true;
            } else {
                rte::nic::tx_wire(hw.m, core, &tx);
            }
        }
        let busy = (hw.m.now(core) - start_cycles) as f64 * ep.ns_per_cycle;
        free = start_ns + busy;
        moved_total += moved;
        polls.push(PollOutcome {
            tx,
            tx_stalled,
            dropped,
            freed,
        });
        if ep.single_poll {
            break;
        }
    }
    TaskOutcome {
        worker,
        polls,
        free_ns: free,
        ended_idle,
        moved: moved_total,
    }
}

/// An engine-internal delayed event (see [`events`]).
enum EngineEvent {
    /// The carried worker index has pending work; an epoch merge is
    /// owed once a catch-up horizon passes its free-at time.
    Merge(usize),
}

/// The engine: clocks, fault state, and drop ledgers around one
/// [`QueueApp`] instance per worker.
pub struct Engine<A: QueueApp> {
    apps: Vec<A>,
    epoch_hook: Option<EpochHook<A>>,
    /// Periodic control-plane hook plus its period and next boundary
    /// (ns). `next_control_ns` only ever advances by whole periods, so
    /// the firing schedule is scheduler-independent.
    control_hook: Option<ControlHook<A>>,
    control_period_ns: f64,
    next_control_ns: f64,
    /// Queue → report-group map ([`Engine::set_queue_groups`]); empty
    /// when ungrouped.
    queue_groups: Vec<usize>,
    cfg: EngineConfig,
    /// The virtual-time event queue: at most one pending [`EngineEvent::Merge`]
    /// per worker (deduplicated by `merge_pending`), keyed on the
    /// worker's free-at time via [`events::time_key`]. Unused by
    /// [`Scheduler::ReferenceTick`].
    events: DelayedQueue<EngineEvent>,
    /// Whether worker `w` has a merge event in `events`.
    merge_pending: Vec<bool>,
    /// Queue → polling-worker map (every port queue has exactly one).
    queue_worker: Vec<usize>,
    /// Lazily applied idle-clock forward: every worker's effective
    /// free-at time is `free_ns[w].max(idle_floor)`. Raised in O(1) by
    /// catch-up calls where nothing behind the horizon can change
    /// state; materialized into `free_ns` before any epoch runs.
    idle_floor: f64,
    sched: SchedStats,
    free_ns: Vec<f64>,
    ns_per_cycle: f64,
    faults: FaultState,
    nic: Vec<NicDrops>,
    admit: Vec<AdmitDrops>,
    app_drops: Vec<u64>,
    offered_q: Vec<u64>,
    delivered_q: Vec<u64>,
    carried: Vec<u64>,
    offered: u64,
    delivered: u64,
    offered_wire_bits: u64,
    tx_wire_bits: u64,
    last_arrival_ns: f64,
    base_stats: rte::nic::PortStats,
}

impl<A: QueueApp> Engine<A> {
    /// Assembles the engine around one app instance per worker
    /// (`apps[w]` belongs to `cfg.workers[w]`) and performs the initial
    /// descriptor posting (each queue topped up to `queue_depth` minus
    /// any completions carried over from a previous run — the ring's
    /// slots are shared by posted descriptors and unharvested
    /// completions).
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry: no workers, an app count that
    /// differs from the worker count, zero burst/depth, a worker queue
    /// outside the port, a queue polled by two workers, two workers on
    /// one core (their clocks would collide), or a port queue no worker
    /// polls.
    pub fn new(apps: Vec<A>, cfg: EngineConfig, hw: &mut Hw<'_>) -> Self {
        assert!(!cfg.workers.is_empty(), "no workers");
        assert_eq!(
            apps.len(),
            cfg.workers.len(),
            "one QueueApp instance per worker"
        );
        assert!(cfg.burst > 0 && cfg.queue_depth > 0, "bad queue geometry");
        let queues = hw.port.num_queues();
        let mut polled = vec![false; queues];
        for (i, w) in cfg.workers.iter().enumerate() {
            assert!(w.core < hw.m.config().cores, "worker core off-machine");
            assert!(
                !cfg.workers[..i].iter().any(|o| o.core == w.core),
                "core {} driven by two workers",
                w.core
            );
            if let Some(q) = w.queue {
                assert!(q < queues, "worker polls a queue the port lacks");
                assert!(!polled[q], "queue {q} polled by two workers");
                polled[q] = true;
            }
        }
        assert!(
            polled.iter().all(|&p| p),
            "every port queue needs a polling worker"
        );
        let carried: Vec<u64> = (0..queues).map(|q| hw.port.ready_count(q) as u64).collect();
        let ns_per_cycle = 1.0 / hw.m.config().freq_ghz;
        let base_stats = hw.port.stats();
        let mut queue_worker = vec![0usize; queues];
        for (w, spec) in cfg.workers.iter().enumerate() {
            if let Some(q) = spec.queue {
                queue_worker[q] = w;
            }
        }
        let workers = cfg.workers.len();
        let mut eng = Self {
            events: DelayedQueue::new(),
            merge_pending: vec![false; workers],
            queue_worker,
            idle_floor: 0.0,
            sched: SchedStats::default(),
            free_ns: vec![0.0; cfg.workers.len()],
            ns_per_cycle,
            faults: FaultState::new(cfg.faults.clone()),
            nic: vec![NicDrops::default(); queues],
            admit: vec![AdmitDrops::default(); queues],
            app_drops: vec![0; queues],
            offered_q: vec![0; queues],
            delivered_q: vec![0; queues],
            carried,
            offered: 0,
            delivered: 0,
            offered_wire_bits: 0,
            tx_wire_bits: 0,
            last_arrival_ns: 0.0,
            base_stats,
            apps,
            epoch_hook: None,
            control_hook: None,
            control_period_ns: 0.0,
            next_control_ns: f64::INFINITY,
            queue_groups: Vec::new(),
            cfg,
        };
        for w in 0..eng.cfg.workers.len() {
            if let Some(q) = eng.cfg.workers[w].queue {
                let core = eng.cfg.workers[w].core;
                let target = eng.cfg.queue_depth - hw.port.ready_count(q);
                hw.port.refill(hw.m, hw.pool, q, core, hw.policy, target);
            }
        }
        // Completions carried in from a previous run make their workers
        // busy from time zero — they owe a merge before any horizon.
        for w in 0..eng.cfg.workers.len() {
            if eng.worker_busy(hw, w) {
                eng.note_merge_due(w);
            }
        }
        eng
    }

    /// Installs the cross-worker transfer hook, run after every epoch
    /// merge (see [`EpochHook`]).
    pub fn set_epoch_hook(&mut self, hook: EpochHook<A>) {
        self.epoch_hook = Some(hook);
    }

    /// Installs a periodic control-plane hook (see [`ControlHook`]),
    /// fired at every multiple of `period_ns` a [`Engine::run_until`]
    /// horizon crosses — the first boundary is `period_ns` itself.
    /// [`Engine::step`]/[`Engine::drain`] do not advance the boundary
    /// clock; a harness that wants control decisions over the drain
    /// tail must `run_until` past it first.
    ///
    /// # Panics
    ///
    /// Panics when `period_ns` is not positive and finite.
    pub fn set_control_hook(&mut self, period_ns: f64, hook: ControlHook<A>) {
        assert!(
            period_ns.is_finite() && period_ns > 0.0,
            "control period must be positive and finite"
        );
        self.control_hook = Some(hook);
        self.control_period_ns = period_ns;
        self.next_control_ns = period_ns;
    }

    /// Partitions the port's queues into report groups: `groups[q]` is
    /// the group of queue `q` (group ids must be dense, `0..max+1`).
    /// [`Engine::finish`] then emits one summed [`QueueLedger`] per
    /// group in [`EngineReport::per_group`] and asserts the
    /// conservation identity for each — the per-tenant double-entry
    /// ledgers of the multi-tenant studies.
    ///
    /// # Panics
    ///
    /// Panics when `groups` does not cover every queue exactly once or
    /// the group ids are not dense.
    pub fn set_queue_groups(&mut self, groups: Vec<usize>) {
        assert_eq!(groups.len(), self.nic.len(), "one group id per port queue");
        let n = groups.iter().max().map_or(0, |&g| g + 1);
        for g in 0..n {
            assert!(
                groups.contains(&g),
                "group ids must be dense: {g} of {n} unused"
            );
        }
        self.queue_groups = groups;
    }

    /// Worker `w`'s application (inspection).
    pub fn app(&self, w: usize) -> &A {
        &self.apps[w]
    }

    /// All per-worker applications (inspection).
    pub fn apps(&self) -> &[A] {
        &self.apps
    }

    /// Worker `w`'s application (mutation between polls).
    pub fn app_mut(&mut self, w: usize) -> &mut A {
        &mut self.apps[w]
    }

    /// The global simulated clock: the latest worker free-at time
    /// (including any lazily forwarded idle time).
    pub fn now_ns(&self) -> f64 {
        self.free_ns.iter().copied().fold(self.idle_floor, f64::max)
    }

    /// Worker `w`'s effective free-at time (lazy idle forward applied).
    fn eff_free(&self, w: usize) -> f64 {
        self.free_ns[w].max(self.idle_floor)
    }

    /// Whether worker `w` has pending work: a completion waiting in its
    /// RX queue, or application backlog. The same predicate
    /// `run_epoch`'s partition uses.
    fn worker_busy(&self, hw: &Hw<'_>, w: usize) -> bool {
        self.cfg.workers[w]
            .queue
            .is_some_and(|q| hw.port.ready_count(q) > 0)
            || self.apps[w].has_backlog()
    }

    /// Records that worker `w` owes an epoch merge: schedules its merge
    /// event at its effective free-at time (at most one pending event
    /// per worker).
    fn note_merge_due(&mut self, w: usize) {
        if self.cfg.scheduler == Scheduler::ReferenceTick || self.merge_pending[w] {
            return;
        }
        self.merge_pending[w] = true;
        self.events
            .push(events::time_key(self.eff_free(w)), EngineEvent::Merge(w));
    }

    /// Re-schedules merge events for every still-busy worker. Runs
    /// after each dispatched epoch (and after `step`'s clock sync, so
    /// keys reflect the synced clocks).
    fn resched_merges(&mut self, hw: &Hw<'_>) {
        if self.cfg.scheduler == Scheduler::ReferenceTick {
            return;
        }
        for w in 0..self.cfg.workers.len() {
            if !self.merge_pending[w] && self.worker_busy(hw, w) {
                self.note_merge_due(w);
            }
        }
    }

    /// Applies the lazy idle forward to the per-worker clocks (before
    /// any code that reads `free_ns` directly: epoch partitions, poll
    /// start times).
    fn materialize_floor(&mut self) {
        if self.idle_floor > 0.0 {
            for f in &mut self.free_ns {
                if *f < self.idle_floor {
                    *f = self.idle_floor;
                }
            }
        }
    }

    /// Whether advancing idle workers to `h` would do more than forward
    /// their clocks: true when some worker behind the horizon polls an
    /// under-posted ring *and* the pool could actually supply a refill
    /// (a starved refill during a pool outage is a pure no-op —
    /// `MbufPool::get` under outage has no side effects). When false,
    /// the tick-stepper's whole idle branch reduces to "set every
    /// behind clock to `h`", which [`Engine::idle_advance`] defers in
    /// O(1) via `idle_floor`.
    fn idle_rearm_needed(&self, hw: &Hw<'_>, h: f64) -> bool {
        if hw.pool.in_outage() || hw.pool.available() == 0 {
            return false;
        }
        self.cfg.workers.iter().enumerate().any(|(w, spec)| {
            self.eff_free(w) < h
                && spec
                    .queue
                    .is_some_and(|q| hw.port.posted_count(q) < self.cfg.queue_depth)
        })
    }

    /// Frames offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Frames transmitted so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Offers one frame at `t_ns`: routes it, draws its faults (with
    /// the target queue known, so queue-scoped windows apply), lets the
    /// workers catch up to the present, then delivers through the NIC.
    /// Every failure is classified into the per-queue ledgers; the
    /// `Err` is returned so closed-loop callers can back off. Frames
    /// offered this way carry no deadline — see
    /// [`Engine::offer_with_deadline`].
    pub fn offer(
        &mut self,
        hw: &mut Hw<'_>,
        flow: &FlowTuple,
        frame: &[u8],
        t_ns: f64,
    ) -> Result<usize, Rejection> {
        self.offer_with_deadline(hw, flow, frame, t_ns, f64::INFINITY)
    }

    /// [`Engine::offer`] for a frame that must complete by the absolute
    /// simulated time `deadline_ns`. The deadline feeds the
    /// [`AdmissionPolicy::DeadlineInfeasible`] filter; it is *not*
    /// carried into the frame (applications encode deadlines in their
    /// own wire formats, e.g. `kvs::proto`).
    pub fn offer_with_deadline(
        &mut self,
        hw: &mut Hw<'_>,
        flow: &FlowTuple,
        frame: &[u8],
        t_ns: f64,
        deadline_ns: f64,
    ) -> Result<usize, Rejection> {
        let (q, mark) = hw.port.route(flow);
        // Draw this frame's faults before the catch-up: a pool-exhaustion
        // window must already be in force while the workers run to the
        // arrival (their refills are what the outage starves). Shed
        // frames draw too, so the admission policy never shifts the
        // fault sequence of later frames.
        let fault = self.faults.draw_for_queue(t_ns, q);
        hw.pool.set_outage(fault.pool_blocked);
        self.run_until(hw, t_ns);
        // An arrival is processed synchronously at its own virtual time
        // — it counts as an event without ever sitting in the queue.
        self.sched.events_processed += 1;
        self.offered += 1;
        self.offered_q[q] += 1;
        self.offered_wire_bits += trafficgen::arrival::wire_bits(frame.len() as u16);
        self.last_arrival_ns = self.last_arrival_ns.max(t_ns);
        // The admission filter sits in the driver's ingress path: after
        // the wire and MAC stages (a frame the link dropped, the RX
        // engine stalled on, or that failed CRC never reaches it) but
        // before descriptor allocation, so sheds are cheap — no mbuf,
        // no ring slot.
        let wire_lost = fault.link_down || fault.stall || fault.corrupt;
        if !wire_lost {
            let backlog = hw.port.ready_count(q);
            if let Some(cause) = self.cfg.admission.reject(backlog, t_ns, deadline_ns) {
                match cause {
                    ShedCause::QueueDepth => self.admit[q].depth_shed += 1,
                    ShedCause::Deadline => self.admit[q].deadline_shed += 1,
                }
                return Err(Rejection::Shed(cause));
            }
        }
        match hw.port.deliver_routed(hw.m, frame, q, mark, t_ns, fault) {
            Ok(()) => {
                // The completion just made `q`'s polling worker busy; it
                // owes a merge once a horizon passes its free-at time.
                self.note_merge_due(self.queue_worker[q]);
                Ok(q)
            }
            Err(reason) => {
                let n = &mut self.nic[q];
                match reason {
                    DropReason::NoDescriptor => {
                        // The NIC only sees the ring; the engine knows
                        // whether descriptors were missing because the
                        // *pool* was dry.
                        if hw.pool.in_outage() || hw.pool.available() == 0 {
                            n.pool_starved += 1;
                        } else {
                            n.nodesc += 1;
                        }
                    }
                    DropReason::Overrun => n.overrun += 1,
                    DropReason::CrcError => n.crc += 1,
                    DropReason::LinkDown => n.link_down += 1,
                    DropReason::RxStall => n.rx_stall += 1,
                    DropReason::ReadyOverrun => n.ready_overrun += 1,
                }
                Err(Rejection::Nic(reason))
            }
        }
    }

    /// The explicit backpressure signal for queue `q`: true when the
    /// next no-deadline offer would be shed by the admission policy, or
    /// when the ready ring is full (so the NIC would drop it anyway).
    /// Clients use this to stretch their retry backoff instead of
    /// hammering a saturated queue.
    pub fn backpressured(&self, hw: &Hw<'_>, q: usize) -> bool {
        let backlog = hw.port.ready_count(q);
        let threshold = self
            .cfg
            .admission
            .depth_threshold()
            .unwrap_or(self.cfg.queue_depth)
            .min(self.cfg.queue_depth);
        backlog >= threshold
    }

    /// Runs every worker's polling loop until simulated time `until_ns`
    /// — one epoch: workers run in worker order to the horizon, then the
    /// merge walk commits their buffer effects in the same order. Cross-worker handoff
    /// (the epoch hook) is applied once, after the merge, so pipeline
    /// stages see each other's output with epoch granularity.
    ///
    /// Under [`Scheduler::EventDriven`] (the default) the epoch is
    /// dispatched only when the event queue says a worker actually owes
    /// work before the horizon; otherwise simulated time jumps to
    /// `until_ns` without one. The resulting [`EngineReport`] is
    /// bit-identical either way (only [`EngineReport::sched`] differs)
    /// — `crates/engine/tests/differential.rs` pins this.
    /// With a control hook installed ([`Engine::set_control_hook`]) the
    /// horizon is segmented at control boundaries: catch up to each
    /// crossed multiple of the period, fire the hook there, and only
    /// then continue — so the controller observes the machine at exact,
    /// scheduler-independent virtual times.
    pub fn run_until(&mut self, hw: &mut Hw<'_>, until_ns: f64) {
        if self.control_hook.is_some() {
            while self.next_control_ns <= until_ns {
                let boundary = self.next_control_ns;
                self.catch_up(hw, boundary);
                self.fire_control(hw, boundary);
                self.next_control_ns += self.control_period_ns;
            }
        }
        self.catch_up(hw, until_ns);
    }

    /// Scheduler-dispatched catch-up to one horizon (the whole of
    /// `run_until` when no control hook is installed).
    fn catch_up(&mut self, hw: &mut Hw<'_>, until_ns: f64) {
        match self.cfg.scheduler {
            Scheduler::ReferenceTick => {
                self.run_epoch(hw, until_ns, false);
            }
            Scheduler::EventDriven => self.advance_to(hw, until_ns),
        }
    }

    /// Fires the control hook at boundary time `t`, folding any timed
    /// work it ran into the owning workers' free-at times (the same
    /// accounting as epoch-hook time, see `run_epoch`).
    fn fire_control(&mut self, hw: &mut Hw<'_>, t: f64) {
        let Some(mut hook) = self.control_hook.take() else {
            return;
        };
        self.materialize_floor();
        let before: Vec<u64> = (0..self.cfg.workers.len())
            .map(|w| hw.m.now(self.cfg.workers[w].core))
            .collect();
        let mut mc = MergeCtx {
            pool: hw.pool,
            m: hw.m,
            app_drops: &mut self.app_drops,
        };
        hook(&mut self.apps, &mut mc, t);
        for (w, &start) in before.iter().enumerate() {
            let delta = hw.m.now(self.cfg.workers[w].core) - start;
            if delta > 0 {
                self.free_ns[w] += delta as f64 * self.ns_per_cycle;
            }
        }
        self.control_hook = Some(hook);
        // The hook may have created backlog (or consumed it); re-key
        // merge events against the workers' current state.
        self.resched_merges(hw);
    }

    /// Event-driven catch-up to horizon `h`, equivalent to
    /// `run_epoch(h, false)` in everything but wall-clock:
    ///
    /// 1. **Fast path** — every worker already free at (or past) `h`:
    ///    the tick-stepper's partition would be empty on both sides
    ///    (`free_ns < horizon` is strict), so the whole epoch was the
    ///    post-merge hook — and the epoch-hook contract (DESIGN.md §3f)
    ///    makes hooks at workless epochs no-ops. O(1) return.
    /// 2. **Merge due** — a pending merge event fires strictly before
    ///    `h`: some worker is busy behind the horizon, so dispatch a
    ///    real epoch. Event keys can be stale (a worker's clock moves
    ///    after its event is pushed, e.g. by `step`'s sync); popped
    ///    events are therefore validated against the worker's *current*
    ///    state — dropped if it is no longer busy, re-keyed if its
    ///    free-at time moved past `h`. Staleness only ever delays a
    ///    key, never advances it past the work (clocks are monotone and
    ///    keys are pushed when the work appears), so a busy worker
    ///    behind `h` always has an event before `h`: the dispatch
    ///    decision exactly matches the tick-stepper's partition.
    /// 3. **Idle advance** — nobody owes work before `h`: the
    ///    tick-stepper would only forward clocks and re-arm under-posted
    ///    rings of idle workers. Run that re-arm pass for real when it
    ///    would do something ([`Engine::idle_rearm_needed`]), else
    ///    defer the clock forward in O(1) via `idle_floor`.
    fn advance_to(&mut self, hw: &mut Hw<'_>, h: f64) {
        let raw_min = self.free_ns.iter().copied().fold(f64::INFINITY, f64::min);
        if h <= raw_min.max(self.idle_floor) {
            return;
        }
        let limit = events::time_key(h);
        let mut due = false;
        while let Some((_, EngineEvent::Merge(w))) = self.events.pop_before(limit) {
            self.sched.events_processed += 1;
            self.merge_pending[w] = false;
            if !self.worker_busy(hw, w) {
                // Stale: the pending work this event announced was
                // already consumed by an earlier epoch or `step`.
                continue;
            }
            if self.eff_free(w) < h {
                due = true;
            } else {
                // Still busy, but its clock was synced past the horizon
                // (`step`); re-key at the current free-at time.
                self.note_merge_due(w);
            }
        }
        if due {
            self.materialize_floor();
            self.run_epoch(hw, h, false);
            self.resched_merges(hw);
        } else {
            self.idle_advance(hw, h);
        }
    }

    /// Advances simulated time to `h` with no worker busy behind it.
    /// When an idle re-arm could take effect, replicates the
    /// tick-stepper's idle branch verbatim (forward every behind clock
    /// to `h`, topping up each such worker's under-posted ring first);
    /// otherwise just raises `idle_floor`.
    fn idle_advance(&mut self, hw: &mut Hw<'_>, h: f64) {
        if !self.idle_rearm_needed(hw, h) {
            self.idle_floor = h;
            return;
        }
        self.materialize_floor();
        for w in 0..self.cfg.workers.len() {
            if self.free_ns[w] >= h {
                continue;
            }
            let spec = self.cfg.workers[w];
            if let Some(q) = spec.queue {
                if hw.port.posted_count(q) < self.cfg.queue_depth {
                    hw.port
                        .refill(hw.m, hw.pool, q, spec.core, hw.policy, self.cfg.queue_depth);
                }
            }
            self.free_ns[w] = h;
        }
    }

    /// One poll round over every worker with pending work, then a clock
    /// sync: all workers advance to the latest free-at time. Closed-loop
    /// callers alternate `offer(.., now_ns())` top-ups with `step`, and
    /// the sync guarantees those offers never trigger catch-up
    /// processing mid-top-up. Returns how many packets moved; zero means
    /// the engine is drained (or wedged by faults) and the caller should
    /// stop.
    pub fn step(&mut self, hw: &mut Hw<'_>) -> usize {
        let moved = self.run_epoch(hw, f64::INFINITY, true);
        let now = self.now_ns();
        for f in &mut self.free_ns {
            *f = now;
        }
        // The sync moved every clock; any worker still holding work owes
        // a merge keyed at the synced time.
        self.resched_merges(hw);
        moved
    }

    /// Polls until no worker moves a packet (open-loop tail drain).
    pub fn drain(&mut self, hw: &mut Hw<'_>) {
        while self.step(hw) > 0 {}
    }

    /// One epoch: partition, run each active worker in worker order,
    /// merge.
    ///
    /// In horizon mode (`single_poll == false`) every worker behind
    /// `horizon_ns` participates and polls until it runs dry or reaches
    /// the horizon. In single-poll mode (`step`) every worker with
    /// pending work polls exactly once. Returns packets moved.
    fn run_epoch(&mut self, hw: &mut Hw<'_>, horizon_ns: f64, single_poll: bool) -> usize {
        // The partition (and the poll start times) read the raw clocks;
        // fold any deferred idle forward in first.
        self.materialize_floor();
        self.sched.epochs_dispatched += 1;
        // Partition the workers: `active` run the loop; `idle` (behind
        // the horizon with nothing to do) only get the idle re-arm
        // refill at the merge.
        let mut active: Vec<usize> = Vec::new();
        let mut idle: Vec<usize> = Vec::new();
        for w in 0..self.cfg.workers.len() {
            let spec = self.cfg.workers[w];
            let busy = spec.queue.is_some_and(|q| hw.port.ready_count(q) > 0)
                || self.apps[w].has_backlog();
            if busy && (single_poll || self.free_ns[w] < horizon_ns) {
                active.push(w);
            } else if !single_poll && self.free_ns[w] < horizon_ns {
                idle.push(w);
            }
        }
        if !active.is_empty() {
            self.sched.epochs_with_work += 1;
        }
        let ep = EpochParams {
            burst: self.cfg.burst,
            ns_per_cycle: self.ns_per_cycle,
            horizon: horizon_ns,
            single_poll,
        };
        // The partition was taken before anyone polled, so a worker's
        // membership does not depend on what earlier workers did.
        let outcomes: Vec<TaskOutcome> = active
            .iter()
            .map(|&w| {
                let spec = self.cfg.workers[w];
                run_task(
                    &mut self.apps[w],
                    hw,
                    &self.faults,
                    w,
                    spec,
                    self.free_ns[w],
                    ep,
                )
            })
            .collect();
        // Merge, in canonical worker order (ascending worker index;
        // `active` and `idle` are each ascending and disjoint, so one
        // merged walk preserves it).
        let mut moved = 0usize;
        let mut oi = 0usize;
        let mut ii = 0usize;
        for w in 0..self.cfg.workers.len() {
            if oi < outcomes.len() && outcomes[oi].worker == w {
                let o = &outcomes[oi];
                oi += 1;
                let spec = self.cfg.workers[w];
                let aq = spec.queue.unwrap_or(0);
                // 1. Per poll, in order: app drops, then the TX fate.
                for p in &o.polls {
                    for &mb in &p.freed {
                        hw.pool.put(mb);
                    }
                    self.app_drops[aq] += p.dropped;
                    if p.tx_stalled {
                        for d in &p.tx {
                            hw.pool.put(d.mbuf);
                        }
                        self.nic[aq].tx_stall += p.tx.len() as u64;
                    } else if !p.tx.is_empty() {
                        hw.port.tx_commit(hw.pool, &p.tx);
                        self.delivered += p.tx.len() as u64;
                        self.delivered_q[aq] += p.tx.len() as u64;
                        for d in &p.tx {
                            self.tx_wire_bits += trafficgen::arrival::wire_bits(d.len);
                        }
                    }
                }
                moved += o.moved;
                self.free_ns[w] = o.free_ns;
                // 2. Refill the worker's queue. A real RX ring has
                // `depth` slots shared by posted descriptors and
                // not-yet-harvested completions; top up only the slots
                // this epoch freed.
                if let Some(q) = spec.queue {
                    let target = self.cfg.queue_depth.saturating_sub(hw.port.ready_count(q));
                    let (_, cycles) = hw
                        .port
                        .refill(hw.m, hw.pool, q, spec.core, hw.policy, target);
                    if !o.ended_idle {
                        // Busy workers pay the refill on their schedule
                        // clock; idle workers already idled to the
                        // horizon (the refill hides in the idle time).
                        self.free_ns[w] += cycles as f64 * self.ns_per_cycle;
                    }
                }
            } else if ii < idle.len() && idle[ii] == w {
                ii += 1;
                let spec = self.cfg.workers[w];
                // An idle PMD still re-arms its RX ring. Without this, a
                // transient pool outage that drains the posted ring would
                // leave the queue dry forever once the pool recovers.
                if let Some(q) = spec.queue {
                    if hw.port.posted_count(q) < self.cfg.queue_depth {
                        hw.port.refill(
                            hw.m,
                            hw.pool,
                            q,
                            spec.core,
                            hw.policy,
                            self.cfg.queue_depth,
                        );
                    }
                }
                self.free_ns[w] = horizon_ns;
            }
        }
        // 3. Cross-worker handoff, after every worker's merge.
        if let Some(hook) = self.epoch_hook.as_mut() {
            // Timed machine work a hook performs on a worker's core
            // (e.g. a batched migration at the merge) occupies that
            // core: fold the hook's clock delta into the worker's
            // availability so its next poll starts after the batch.
            // Hooks at workless epochs are no-ops (DESIGN §3f), so this
            // fold never moves a clock when nothing happened — the
            // schedulers' epochs-with-work coincide and stay
            // bit-identical.
            let before: Vec<u64> = (0..self.cfg.workers.len())
                .map(|w| hw.m.now(self.cfg.workers[w].core))
                .collect();
            let mut mc = MergeCtx {
                pool: hw.pool,
                m: hw.m,
                app_drops: &mut self.app_drops,
            };
            moved += hook(&mut self.apps, &mut mc);
            for (w, &start) in before.iter().enumerate() {
                let delta = hw.m.now(self.cfg.workers[w].core) - start;
                if delta > 0 {
                    self.free_ns[w] += delta as f64 * self.ns_per_cycle;
                }
            }
        }
        moved
    }

    /// Ends the run: clears any pool outage, asserts conservation
    /// (globally, per queue, and against the port's own counters), and
    /// returns the report plus the per-worker applications. Does *not*
    /// drain — open-loop callers should [`Engine::drain`] first;
    /// closed-loop callers end with requests legitimately in flight.
    pub fn finish(self, hw: &mut Hw<'_>) -> (EngineReport, Vec<A>) {
        hw.pool.set_outage(false);
        let queues = self.nic.len();
        let per_queue: Vec<QueueLedger> = (0..queues)
            .map(|q| QueueLedger {
                offered: self.offered_q[q],
                carried: self.carried[q],
                delivered: self.delivered_q[q],
                nic: self.nic[q],
                admit: self.admit[q],
                app_drops: self.app_drops[q],
                in_flight: hw.port.ready_count(q) as u64,
            })
            .collect();
        for (q, l) in per_queue.iter().enumerate() {
            assert_eq!(
                l.offered + l.carried,
                l.delivered + l.nic.total() + l.admit.total() + l.app_drops + l.in_flight,
                "queue {q} conservation: offered {} + carried {} != delivered {} \
                 + nic [{}] + admit [{}] + app {} + in_flight {}",
                l.offered,
                l.carried,
                l.delivered,
                l.nic,
                l.admit,
                l.app_drops,
                l.in_flight
            );
        }
        // Group ledgers: sum the per-queue ledgers of each report group
        // and assert the same double-entry identity per group. With the
        // per-queue identities already proven, the group sums inherit
        // conservation by construction — the assert documents (and pins)
        // that the groups *partition* the aggregate rather than sample it.
        let per_group: Vec<QueueLedger> = if self.queue_groups.is_empty() {
            Vec::new()
        } else {
            let n = self.queue_groups.iter().max().unwrap() + 1;
            (0..n)
                .map(|g| {
                    let qs = || (0..queues).filter(|&q| self.queue_groups[q] == g);
                    QueueLedger {
                        offered: qs().map(|q| per_queue[q].offered).sum(),
                        carried: qs().map(|q| per_queue[q].carried).sum(),
                        delivered: qs().map(|q| per_queue[q].delivered).sum(),
                        nic: NicDrops::sum(qs().map(|q| &per_queue[q].nic)),
                        admit: AdmitDrops::sum(qs().map(|q| &per_queue[q].admit)),
                        app_drops: qs().map(|q| per_queue[q].app_drops).sum(),
                        in_flight: qs().map(|q| per_queue[q].in_flight).sum(),
                    }
                })
                .collect()
        };
        for (g, l) in per_group.iter().enumerate() {
            assert_eq!(
                l.offered + l.carried,
                l.delivered + l.nic.total() + l.admit.total() + l.app_drops + l.in_flight,
                "group {g} conservation"
            );
        }
        let nic = NicDrops::sum(per_queue.iter().map(|l| &l.nic));
        let admit = AdmitDrops::sum(per_queue.iter().map(|l| &l.admit));
        let app_drops: u64 = per_queue.iter().map(|l| l.app_drops).sum();
        let in_flight: u64 = per_queue.iter().map(|l| l.in_flight).sum();
        let carried: u64 = self.carried.iter().sum();
        assert_eq!(
            self.offered + carried,
            self.delivered + nic.total() + admit.total() + app_drops + in_flight,
            "conservation violated: offered {} + carried {carried} != delivered {} \
             + nic [{nic}] + admit [{admit}] + app {app_drops} + in_flight {in_flight}",
            self.offered,
            self.delivered,
        );
        // Cross-check the engine's classification against the NIC's own
        // counters (deltas over this run).
        let s = hw.port.stats();
        let b = self.base_stats;
        assert_eq!(self.delivered, s.tx_pkts - b.tx_pkts, "tx accounting");
        assert_eq!(
            nic.nodesc + nic.pool_starved,
            s.rx_nodesc - b.rx_nodesc,
            "descriptor-drop classification must partition rx_nodesc"
        );
        assert_eq!(nic.crc, s.rx_crc - b.rx_crc, "crc accounting");
        assert_eq!(nic.overrun, s.rx_overrun - b.rx_overrun, "overrun");
        assert_eq!(nic.link_down, s.rx_linkdown - b.rx_linkdown, "link");
        assert_eq!(nic.rx_stall, s.rx_stall - b.rx_stall, "stall");
        assert_eq!(
            nic.ready_overrun,
            s.rx_ready_overrun - b.rx_ready_overrun,
            "ready-overrun accounting"
        );
        let report = EngineReport {
            offered: self.offered,
            carried,
            delivered: self.delivered,
            nic,
            admit,
            app_drops,
            in_flight,
            per_queue,
            per_group,
            duration_ns: self.now_ns().max(1.0),
            last_arrival_ns: self.last_arrival_ns,
            offered_wire_bits: self.offered_wire_bits,
            tx_wire_bits: self.tx_wire_bits,
            sched: self.sched,
        };
        self.sched.add_to_totals();
        (report, self.apps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;
    use rte::steering::{Rss, Steering};

    /// Echo every packet back (a MacSwap-free forwarder).
    #[derive(Clone)]
    struct Echo {
        work: u64,
    }

    impl QueueApp for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
            ctx.m.advance(ctx.core, self.work);
            Verdict::Tx(TxDesc {
                mbuf: comp.mbuf,
                data_pa: comp.data_pa,
                len: comp.len,
            })
        }
    }

    fn setup(queues: usize, depth: usize) -> (Machine, MbufPool, Port) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let pool = MbufPool::create(&mut m, (4 * queues * depth) as u32, 128, 2048).unwrap();
        let port = Port::new(0, Steering::Rss(Rss::new(queues)), depth);
        (m, pool, port)
    }

    fn flow(i: u32) -> FlowTuple {
        FlowTuple::tcp(0x0a00_0000 + i, 1000 + (i as u16), 0xc0a8_0001, 80)
    }

    fn echo_apps(work: u64, workers: usize) -> Vec<Echo> {
        vec![Echo { work }; workers]
    }

    fn run_echo() -> EngineReport {
        let (mut m, mut pool, mut port) = setup(2, 64);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(300, 2),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(2),
                queue_depth: 64,
                burst: 16,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        for i in 0..500u32 {
            let t = i as f64 * 10_000.0; // 100 kpps: everyone keeps up.
            eng.offer(&mut hw, &flow(i % 32), &[0u8; 64], t).unwrap();
        }
        eng.drain(&mut hw);
        eng.finish(&mut hw).0
    }

    #[test]
    fn echo_delivers_everything_at_low_rate() {
        let rep = run_echo();
        assert_eq!(rep.offered, 500);
        assert_eq!(rep.delivered, 500);
        assert_eq!(rep.nic.total() + rep.app_drops, 0);
        assert_eq!(rep.in_flight, 0);
        assert!(rep.duration_ns >= 500.0 * 10_000.0 * 0.9);
        // Per-queue ledgers partition the aggregate.
        let sum: u64 = rep.per_queue.iter().map(|l| l.delivered).sum();
        assert_eq!(sum, rep.delivered);
        assert!(rep.per_queue.iter().all(|l| l.delivered > 0));
    }

    #[test]
    fn echo_is_identical_across_runs() {
        assert_eq!(run_echo(), run_echo());
    }

    #[test]
    fn overload_drops_but_conserves() {
        let (mut m, mut pool, mut port) = setup(1, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(10_000, 1), // ~3 µs/pkt service.
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        for i in 0..2_000u32 {
            let t = i as f64 * 50.0; // 20 Mpps: hopeless.
            let _ = eng.offer(&mut hw, &flow(i % 8), &[0u8; 64], t);
        }
        eng.drain(&mut hw);
        let (rep, _) = eng.finish(&mut hw);
        assert!(rep.nic.nodesc > 0, "overload must exhaust descriptors");
        assert!(rep.delivered > 0, "the loop still makes progress");
        assert_eq!(rep.offered, rep.delivered + rep.nic.total() + rep.app_drops);
    }

    /// Offers a steady trickle with a 1 µs control hook installed and
    /// returns (boundary times seen, report).
    fn run_with_control(scheduler: Scheduler) -> (Vec<f64>, EngineReport) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (mut m, mut pool, mut port) = setup(2, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(300, 2),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(2),
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler,
            },
            &mut hw,
        );
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&seen);
        eng.set_control_hook(
            1_000.0,
            Box::new(move |apps, _mc, t| {
                assert_eq!(apps.len(), 2);
                log.borrow_mut().push(t);
            }),
        );
        for i in 0..40u32 {
            // Irregular gaps so horizons cross boundaries mid-stride.
            let t = i as f64 * 137.0;
            let _ = eng.offer(&mut hw, &flow(i), &[0u8; 64], t);
        }
        eng.run_until(&mut hw, 6_500.0);
        eng.drain(&mut hw);
        let (rep, _) = eng.finish(&mut hw);
        (Rc::try_unwrap(seen).unwrap().into_inner(), rep)
    }

    #[test]
    fn control_hook_fires_at_exact_boundaries_under_both_schedulers() {
        // 40 arrivals spread to ~5.3 µs, final horizon 6.5 µs: every
        // multiple of the 1 µs period up to 6 µs must fire, exactly
        // once, at exactly the boundary time — independent of which
        // scheduler dispatched the epochs in between.
        let (ref_times, ref_rep) = run_with_control(Scheduler::ReferenceTick);
        assert_eq!(
            ref_times,
            vec![1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0]
        );
        for scheduler in [Scheduler::EventDriven, Scheduler::ReferenceTick] {
            let (times, rep) = run_with_control(scheduler);
            assert_eq!(times, ref_times, "{scheduler:?} boundaries");
            // Everything but the scheduler counters is bit-identical.
            assert_eq!(rep.per_queue, ref_rep.per_queue);
            assert_eq!(rep.duration_ns, ref_rep.duration_ns);
            assert_eq!(rep.delivered, ref_rep.delivered);
        }
    }

    #[test]
    fn control_hook_timed_work_lands_in_busy_time() {
        // A hook that burns cycles on a worker's core must push that
        // worker's free-at time (and so the run duration) forward, the
        // same accounting as epoch-hook time.
        let run = |burn: u64| {
            let (mut m, mut pool, mut port) = setup(1, 32);
            let mut policy = rte::nic::FixedHeadroom(128);
            let mut hw = Hw {
                m: &mut m,
                port: &mut port,
                pool: &mut pool,
                policy: &mut policy,
            };
            let mut eng = Engine::new(
                echo_apps(300, 1),
                EngineConfig {
                    workers: WorkerSpec::run_to_completion(1),
                    queue_depth: 32,
                    burst: 8,
                    faults: FaultPlan::none(),
                    execution: Execution::Serial,
                    admission: AdmissionPolicy::AcceptAll,
                    scheduler: Scheduler::default(),
                },
                &mut hw,
            );
            eng.set_control_hook(
                500.0,
                Box::new(move |_apps, mc, _t| {
                    mc.m.advance(0, burn);
                }),
            );
            for i in 0..10u32 {
                let _ = eng.offer(&mut hw, &flow(i), &[0u8; 64], i as f64 * 100.0);
            }
            eng.run_until(&mut hw, 2_000.0);
            eng.drain(&mut hw);
            eng.finish(&mut hw).0.duration_ns
        };
        let idle_hook = run(0);
        let busy_hook = run(50_000);
        assert!(
            busy_hook > idle_hook,
            "hook cycles must extend busy time: {busy_hook} vs {idle_hook}"
        );
    }

    #[test]
    fn queue_groups_partition_the_aggregate() {
        let (mut m, mut pool, mut port) = setup(4, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(300, 4),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(4),
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        eng.set_queue_groups(vec![0, 0, 1, 1]);
        for i in 0..400u32 {
            let _ = eng.offer(&mut hw, &flow(i), &[0u8; 64], i as f64 * 20.0);
        }
        eng.drain(&mut hw);
        let (rep, _) = eng.finish(&mut hw);
        assert_eq!(rep.per_group.len(), 2);
        for (field, agg) in [
            (
                rep.per_group.iter().map(|g| g.offered).sum::<u64>(),
                rep.offered,
            ),
            (
                rep.per_group.iter().map(|g| g.delivered).sum::<u64>(),
                rep.delivered,
            ),
            (
                rep.per_group.iter().map(|g| g.in_flight).sum::<u64>(),
                rep.in_flight,
            ),
        ] {
            assert_eq!(field, agg, "groups must partition the aggregate");
        }
        assert_eq!(
            rep.per_group.iter().map(|g| g.nic.total()).sum::<u64>(),
            rep.nic.total()
        );
        // Group 0 == queues {0,1}, group 1 == queues {2,3}.
        assert_eq!(
            rep.per_group[0].offered,
            rep.per_queue[0].offered + rep.per_queue[1].offered
        );
    }

    /// Drives the same hopeless 20 Mpps overload as
    /// `overload_drops_but_conserves`, under the given admission policy
    /// and with every offer carrying `deadline_ns` past its arrival.
    fn run_overload(admission: AdmissionPolicy, deadline_ns: f64) -> EngineReport {
        let (mut m, mut pool, mut port) = setup(1, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(10_000, 1),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        for i in 0..2_000u32 {
            let t = i as f64 * 50.0;
            let _ = eng.offer_with_deadline(&mut hw, &flow(i % 8), &[0u8; 64], t, t + deadline_ns);
        }
        eng.drain(&mut hw);
        eng.finish(&mut hw).0
    }

    #[test]
    fn queue_depth_policy_sheds_before_descriptor_exhaustion() {
        let rep = run_overload(
            AdmissionPolicy::QueueDepth { max_backlog: 8 },
            f64::INFINITY,
        );
        assert!(rep.admit.depth_shed > 0, "overload must shed on depth");
        assert_eq!(rep.admit.deadline_shed, 0);
        // The filter caps the backlog below the ring size, so the ring
        // itself never runs out of descriptors.
        assert_eq!(rep.nic.nodesc, 0, "shedding must pre-empt nodesc");
        assert!(rep.delivered > 0);
        assert_eq!(
            rep.offered,
            rep.delivered + rep.nic.total() + rep.admit.total() + rep.app_drops
        );
    }

    #[test]
    fn deadline_policy_sheds_infeasible_frames_only() {
        // Service is ~3.3 µs/pkt; a 10 µs deadline admits a backlog of
        // at most ~3, so most of the 20 Mpps storm is shed as
        // infeasible. Without deadlines the same policy never sheds.
        let est = 10_000.0 * 0.476; // cycles → ns at 2.1 GHz.
        let policy = AdmissionPolicy::DeadlineInfeasible {
            est_service_ns: est,
        };
        let with_deadline = run_overload(policy, 10_000.0);
        assert!(with_deadline.admit.deadline_shed > 0, "must shed");
        assert_eq!(with_deadline.admit.depth_shed, 0);
        assert_eq!(
            with_deadline.offered,
            with_deadline.delivered
                + with_deadline.nic.total()
                + with_deadline.admit.total()
                + with_deadline.app_drops
        );
        let without = run_overload(policy, f64::INFINITY);
        assert_eq!(
            without.admit.total(),
            0,
            "frames without a deadline are never shed as infeasible"
        );
    }

    #[test]
    fn backpressure_signal_tracks_the_admission_threshold() {
        let (mut m, mut pool, mut port) = setup(1, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(1_000_000, 1), // So slow nothing is served below.
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 32,
                burst: 1,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::QueueDepth { max_backlog: 4 },
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        assert!(!eng.backpressured(&hw, 0), "empty queue: no pressure");
        // Five offers a few ns apart: the worker pulls exactly one into
        // service (~476 µs of work) during the catch-up after the first
        // offer, so four completions pile up in the ready ring.
        for i in 0..4u32 {
            eng.offer(&mut hw, &flow(0), &[0u8; 64], i as f64).unwrap();
        }
        assert!(
            !eng.backpressured(&hw, 0),
            "backlog below the shed threshold: no pressure yet"
        );
        // The fifth offer fills the backlog to the threshold: the
        // signal flips, and the very next offer is shed exactly as the
        // signal promised.
        eng.offer(&mut hw, &flow(0), &[0u8; 64], 4.0).unwrap();
        assert!(
            eng.backpressured(&hw, 0),
            "backlog at the shed threshold must signal backpressure"
        );
        let err = eng.offer(&mut hw, &flow(0), &[0u8; 64], 5.0).unwrap_err();
        assert_eq!(err, Rejection::Shed(ShedCause::QueueDepth));
        eng.drain(&mut hw);
        let (rep, _) = eng.finish(&mut hw);
        assert_eq!(rep.admit.depth_shed, 1);
        assert_eq!(rep.delivered, 5);
    }

    #[test]
    fn tx_stall_window_sheds_processed_frames() {
        let (mut m, mut pool, mut port) = setup(1, 64);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(100, 1),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 64,
                burst: 8,
                faults: FaultPlan::none().with_tx_stall(rte::fault::Window::new(100_000, 300_000)),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        let before = hw.pool.available();
        for i in 0..100u32 {
            let t = i as f64 * 5_000.0; // 0..500 µs, spanning the window.
            eng.offer(&mut hw, &flow(3), &[0u8; 64], t).unwrap();
        }
        eng.drain(&mut hw);
        let (rep, _) = eng.finish(&mut hw);
        assert!(rep.nic.tx_stall > 0, "the stall window must bite");
        assert_eq!(rep.delivered + rep.nic.tx_stall, 100);
        assert_eq!(
            hw.pool.available(),
            before,
            "stalled frames' buffers are recycled, not leaked"
        );
    }

    #[test]
    fn per_queue_stall_degrades_only_its_queue() {
        let (mut m, mut pool, mut port) = setup(4, 64);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(200, 4),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(4),
                queue_depth: 64,
                burst: 16,
                faults: FaultPlan::none()
                    .with_queue_rx_stall(1, rte::fault::Window::new(0, u64::MAX)),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        for i in 0..800u32 {
            let t = i as f64 * 2_000.0;
            let _ = eng.offer(&mut hw, &flow(i), &[0u8; 64], t);
        }
        eng.drain(&mut hw);
        let (rep, _) = eng.finish(&mut hw);
        assert!(rep.per_queue[1].offered > 0, "RSS spreads to queue 1");
        assert_eq!(
            rep.per_queue[1].nic.rx_stall, rep.per_queue[1].offered,
            "queue 1 loses everything"
        );
        assert_eq!(rep.per_queue[1].delivered, 0);
        for q in [0, 2, 3] {
            assert_eq!(
                rep.per_queue[q].delivered, rep.per_queue[q].offered,
                "queue {q} must be untouched"
            );
        }
    }

    #[test]
    fn clock_is_monotone_across_offers() {
        let (mut m, mut pool, mut port) = setup(1, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(500, 1),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        let mut prev = 0.0;
        for i in 0..300u32 {
            let t = i as f64 * 700.0;
            let _ = eng.offer(&mut hw, &flow(1), &[0u8; 64], t);
            let now = eng.now_ns();
            assert!(now >= prev, "clock went backwards: {now} < {prev}");
            prev = now;
        }
    }

    #[test]
    #[should_panic(expected = "polled by two workers")]
    fn double_polling_a_queue_is_rejected() {
        let (mut m, mut pool, mut port) = setup(1, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let _ = Engine::new(
            echo_apps(1, 2),
            EngineConfig {
                workers: vec![
                    WorkerSpec {
                        core: 0,
                        queue: Some(0),
                    },
                    WorkerSpec {
                        core: 1,
                        queue: Some(0),
                    },
                ],
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
    }

    #[test]
    #[should_panic(expected = "driven by two workers")]
    fn sharing_a_core_is_rejected() {
        let (mut m, mut pool, mut port) = setup(2, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let _ = Engine::new(
            echo_apps(1, 2),
            EngineConfig {
                workers: vec![
                    WorkerSpec {
                        core: 0,
                        queue: Some(0),
                    },
                    WorkerSpec {
                        core: 0,
                        queue: Some(1),
                    },
                ],
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
    }
}
