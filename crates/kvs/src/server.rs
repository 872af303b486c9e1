//! The multi-queue KVS server loop and its throughput measurement.
//!
//! Fig. 8 measures server-side transactions per second with the client
//! saturating the server ("a client sends requests ... at high rate to
//! stress the server. We measured the performance ... on the server side
//! so that we could ignore the networking bottlenecks"). The server here
//! runs closed-loop on the shared [`engine::Engine`]: every RX queue is
//! kept stocked with requests by its own client generator, one worker
//! core polls each queue, and TPS is requests served over the serving
//! cores' busy time. With one queue this is exactly the paper's Fig. 8
//! setup; with N queues it is the §8 multi-core extension, where
//! [`crate::store::Placement::Striped`] homes each core's key class in
//! that core's closest slice.

use crate::migrate::{HotMigrator, MigrationPolicy};
use crate::proto::{
    read_deadline, read_request, write_request, KvOp, RequestGen, REQUEST_SIZE, VALUE_OFF,
};
use crate::store::{KvStore, Placement};
use engine::{
    AdmissionPolicy, Ctx, Engine, EngineConfig, Execution, Hw, MergeCtx, NicDrops, QueueApp,
    Scheduler, Verdict, WorkerSpec,
};
use llc_sim::machine::Machine;
use rte::fault::FaultPlan;
use rte::mempool::MbufPool;
use rte::nic::{DropReason, HeadroomPolicy, Port, RxCompletion, TxDesc};
use trafficgen::FlowTuple;

/// Frame offset where the KVS payload begins (after Ethernet/IPv4/TCP).
pub const PAYLOAD_OFF: usize = 54;

/// Per-request server work besides store access: RX bookkeeping, request
/// parse, response assembly. Calibrated so the all-cached request path
/// lands near the paper's ~160-cycle figure (§3.1).
pub const SERVE_WORK: u64 = 15;

/// How (and whether) the serving cores migrate their hot areas (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationMode {
    /// No migration. Stores with a hot area are still *monitored*
    /// (hot-hit counters) but never mutated.
    #[default]
    Off,
    /// The PR 4 baseline: promote the whole observed top set every
    /// `epoch` accesses, unconditionally
    /// ([`MigrationPolicy::Always`]).
    Always {
        /// Accesses per migration epoch (per core).
        epoch: usize,
    },
    /// The cost-aware self-tuning controller
    /// ([`MigrationPolicy::CostAware`]), with its economics measured
    /// from the machine model per serving core and `epoch` as the
    /// initial (self-tuned) epoch length.
    CostAware {
        /// Initial accesses per migration epoch (per core).
        epoch: usize,
    },
}

impl MigrationMode {
    /// The configured epoch length, when migration is on.
    pub fn epoch(&self) -> Option<usize> {
        match *self {
            MigrationMode::Off => None,
            MigrationMode::Always { epoch } | MigrationMode::CostAware { epoch } => Some(epoch),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Serving cores: core *i* polls RX queue *i*, for `0 ≤ i < cores`.
    pub cores: usize,
    /// Requests to serve (across all cores).
    pub requests: usize,
    /// PMD burst size.
    pub burst: usize,
    /// RX descriptor ring depth (per queue).
    pub queue_depth: usize,
    /// GET ratio in permille (1000 = 100 % GET).
    pub get_permille: u32,
    /// RNG seed.
    pub seed: u64,
    /// Fault-injection plan applied to offered requests.
    pub faults: FaultPlan,
    /// Hot-set migration mode (§8). When not [`MigrationMode::Off`],
    /// each serving core runs a [`HotMigrator`] over its hot area,
    /// which requires a placement with one hot area per core:
    /// [`Placement::HotSliceAware`] on a single core or
    /// [`Placement::StripedHot`] with one slice per core.
    pub migration: MigrationMode,
    /// Event-driven virtual-time scheduling (default) or the engine's
    /// reference tick-stepper; reports are bit-identical either way
    /// (only `EngineReport::sched` differs).
    pub scheduler: Scheduler,
}

impl ServerConfig {
    /// Fig. 8 defaults: one core, bursts of 32, no faults.
    pub fn fig8(requests: usize, get_permille: u32, seed: u64) -> Self {
        Self {
            cores: 1,
            requests,
            burst: 32,
            queue_depth: 256,
            get_permille,
            seed,
            faults: FaultPlan::none(),
            scheduler: Scheduler::default(),
            migration: MigrationMode::Off,
        }
    }

    /// The same configuration serving on `cores` cores (queue *i* on
    /// core *i*).
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// The same configuration with a fault plan applied.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The same configuration with unconditional (always-migrate)
    /// hot-set migration every `epoch` accesses per core.
    ///
    /// # Panics
    ///
    /// Panics when `epoch` is 0.
    #[must_use]
    pub fn with_migration(mut self, epoch: usize) -> Self {
        assert!(epoch > 0, "migration epoch must be positive");
        self.migration = MigrationMode::Always { epoch };
        self
    }

    /// The same configuration with the cost-aware self-tuning migration
    /// controller, starting from `epoch` accesses per core.
    ///
    /// # Panics
    ///
    /// Panics when `epoch` is 0.
    #[must_use]
    pub fn with_cost_aware_migration(mut self, epoch: usize) -> Self {
        assert!(epoch > 0, "migration epoch must be positive");
        self.migration = MigrationMode::CostAware { epoch };
        self
    }
}

/// Per-cause drop accounting for a server run: the shared NIC/driver
/// ledger plus the KVS's software-level causes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerDrops {
    /// NIC/driver drops (descriptor exhaustion, pool starvation, CRC,
    /// link, stalls, TX-path faults), as accounted by the engine.
    pub nic: NicDrops,
    /// Requests delivered but rejected by the parser (bad opcode).
    pub malformed: u64,
    /// Requests delivered but too short to carry opcode/key/value.
    pub truncated: u64,
    /// Requests already past their wire deadline when the server picked
    /// them up (expired-on-arrival: dropped before the store access, no
    /// response sent).
    pub expired: u64,
}

impl ServerDrops {
    /// Every request dropped, across all causes.
    pub fn total(&self) -> u64 {
        self.nic.total() + self.malformed + self.truncated + self.expired
    }
}

impl std::fmt::Display for ServerDrops {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} malformed={} truncated={} expired={}",
            self.nic, self.malformed, self.truncated, self.expired
        )
    }
}

/// One RX queue's share of a server run. The per-queue reports of a
/// [`ServerReport`] partition the aggregate exactly: summing any counter
/// over the queues reproduces the aggregate value.
#[derive(Debug, Clone, Copy)]
pub struct QueueReport {
    /// The queue (and its serving core).
    pub queue: usize,
    /// Requests offered to this queue this run.
    pub offered: u64,
    /// Completions a previous run left in this queue's ready ring.
    pub carried: u64,
    /// Requests served (responses transmitted) by this queue's core.
    pub served: u64,
    /// GETs among the processed requests.
    pub gets: u64,
    /// Per-cause drop accounting for this queue.
    pub drops: ServerDrops,
    /// Requests still sitting in this queue's RX ring at the end.
    pub in_flight: u64,
    /// Busy cycles on this queue's serving core.
    pub busy_cycles: u64,
    /// This core's transactions per second.
    pub tps: f64,
    /// Served requests whose key was resident in this core's hot area
    /// at access time (0 when the placement has no hot area).
    pub hot_hits: u64,
    /// Keys this core's migrator promoted into its hot area.
    pub migrated: u64,
    /// Cycles this core spent performing migration swaps (included in
    /// `busy_cycles`).
    pub migration_cycles: u64,
    /// Candidate swaps the cost-aware economics rejected on this core
    /// (projected benefit ≤ measured swap cost, or dormant epochs).
    pub swaps_vetoed: u64,
    /// Approved swaps deferred past a merge's batch cap on this core.
    pub swaps_deferred: u64,
    /// Executed swaps whose projected benefit was ≤ the measured cost —
    /// structurally 0 under [`MigrationMode::CostAware`]; under
    /// [`MigrationMode::Always`] the swaps the economics would refuse.
    pub swaps_at_loss: u64,
}

/// What a server run reports.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Requests the clients offered this run.
    pub offered: u64,
    /// Completions carried in from a previous run on the same port.
    pub carried: u64,
    /// Requests served (responses transmitted).
    pub served: u64,
    /// GETs among the processed requests.
    pub gets: u64,
    /// Per-cause drop accounting (`offered + carried == served +
    /// drops.total() + in_flight` — asserted before this report is built).
    pub drops: ServerDrops,
    /// Requests still sitting in the RX rings when the run ended.
    pub in_flight: u64,
    /// Busy cycles on the busiest serving core (the run's wall time).
    pub busy_cycles: u64,
    /// Transactions per second at the machine's frequency (aggregate
    /// over all cores, measured over the busiest core's time).
    pub tps: f64,
    /// Mean cycles per request on the busiest core.
    pub cycles_per_request: f64,
    /// Served requests whose key was hot at access time, summed over
    /// all cores (the per-queue `hot_hits` partition this exactly).
    pub hot_hits: u64,
    /// Keys promoted into hot areas, summed over all cores (the
    /// per-queue `migrated` partition this exactly).
    pub migrated: u64,
    /// Cycles spent on migration swaps, summed over all cores (the
    /// per-queue `migration_cycles` partition this exactly).
    pub migration_cycles: u64,
    /// Candidate swaps the cost-aware economics rejected, summed over
    /// all cores (per-queue `swaps_vetoed` partition this exactly).
    pub swaps_vetoed: u64,
    /// Approved swaps deferred past merge batch caps, summed over all
    /// cores (per-queue `swaps_deferred` partition this exactly).
    pub swaps_deferred: u64,
    /// Executed swaps at a projected loss, summed over all cores
    /// (per-queue `swaps_at_loss` partition this exactly; structurally
    /// 0 under [`MigrationMode::CostAware`]).
    pub swaps_at_loss: u64,
    /// The per-queue breakdown; counters sum exactly to the aggregate.
    pub per_queue: Vec<QueueReport>,
}

impl ServerReport {
    /// Fraction of served requests that found their key already in a
    /// hot slot (0 when nothing was served or no hot area exists).
    pub fn hot_hit_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.hot_hits as f64 / self.served as f64
        }
    }
}

/// Finds a client 5-tuple (varying the source port upward from `base`)
/// that the port's steering maps to `queue`. The multi-queue closed
/// loop uses one such flow per queue so each request generator feeds
/// exactly one serving core.
///
/// # Panics
///
/// Panics when no source port steers to `queue` (impossible for RSS
/// over a power-of-two queue count).
pub fn flow_for_queue(port: &mut Port, base: FlowTuple, queue: usize) -> FlowTuple {
    for p in 0..=u16::MAX {
        let f = FlowTuple {
            src_port: base.src_port.wrapping_add(p),
            ..base
        };
        if port.route(&f).0 == queue {
            return f;
        }
    }
    panic!("no source port steers to queue {queue}")
}

/// What happened to one *delivered* request: the shared serve path's
/// outcome vocabulary, used by the closed-loop [`KvApp`], the
/// open-loop server app (`crate::openloop`), and external tenants
/// embedding the KVS serve path (`tenancy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Parsed, in deadline, store accessed, response transmitted.
    Ok {
        /// The request's opcode.
        op: KvOp,
    },
    /// Past its wire deadline on arrival; dropped before the store
    /// access, no response sent.
    Expired,
    /// Too short to carry opcode/key (or a SET value cut off).
    Truncated,
    /// Unknown opcode.
    Malformed,
}

/// The serve path every KVS server app shares: parse the request from
/// the frame's first cache line, check its wire deadline, run the store
/// access, and (for a served request) write the response payload in
/// place. Returns the outcome plus this request's hot-hit delta (0
/// without a migrator). The *caller* turns the outcome into a
/// [`Verdict`] and its own counters.
pub fn serve_packet(
    store: &KvStore,
    migrator: Option<&mut HotMigrator>,
    ctx: &mut Ctx<'_>,
    comp: &RxCompletion,
) -> (Served, u64) {
    // Parse the request: opcode + key + deadline live in the frame's
    // first 64 B line, the one CacheDirector places. Never read past
    // the (possibly truncated) frame.
    let wire_len = usize::from(comp.len);
    let mut req_bytes = [0u8; 64];
    let readable = wire_len.min(req_bytes.len());
    ctx.m
        .read_bytes(ctx.core, comp.data_pa, &mut req_bytes[..readable]);
    let Some(req) = read_request(&req_bytes[..readable]) else {
        let outcome = if wire_len < crate::proto::KEY_OFF + 4 {
            Served::Truncated
        } else {
            Served::Malformed
        };
        return (outcome, 0);
    };
    if req.op == KvOp::Set && wire_len < VALUE_OFF + 64 {
        // A SET whose value was cut off on the wire.
        return (Served::Truncated, 0);
    }
    // Expired-on-arrival: the parse already happened (header read is
    // timed), but the store access and response are skipped — the
    // cheapest place to cut an overloaded queue's losses.
    if let Some(deadline_ns) = read_deadline(&req_bytes[..readable]) {
        if ctx.wall_ns() > deadline_ns {
            return (Served::Expired, 0);
        }
    }
    ctx.m.advance(ctx.core, SERVE_WORK);
    let mut hot_hits = 0;
    if let Some(mig) = migrator {
        // Untimed bookkeeping: counts feed the next migration epoch
        // and the hot-hit ledger, without perturbing served timing.
        hot_hits = mig.note(req.key) as u64;
    }
    match req.op {
        KvOp::Get => {
            let mut value = [0u8; 64];
            store.get(ctx.m, ctx.core, req.key, &mut value);
            // Write the value into the response payload.
            ctx.m
                .write_bytes(ctx.core, comp.data_pa.add(VALUE_OFF as u64), &value);
        }
        KvOp::Set => {
            let mut data = [0u8; 64];
            ctx.m
                .read_bytes(ctx.core, comp.data_pa.add(VALUE_OFF as u64), &mut data);
            store.set(ctx.m, ctx.core, req.key, &data);
        }
    }
    (Served::Ok { op: req.op }, hot_hits)
}

/// The KVS as a [`QueueApp`]: parse → store access → response, with
/// served/GET/parse-failure counters. One instance exists per worker
/// (queue); all instances share one read-only [`KvStore`] handle —
/// SETs mutate simulated memory only, and the multi-queue key
/// partition keeps concurrent workers' writes disjoint.
struct KvApp<'s> {
    store: &'s KvStore,
    served: u64,
    gets: u64,
    malformed: u64,
    truncated: u64,
    expired: u64,
    /// This queue's hot-area monitor/migrator; `None` when the store's
    /// placement declares no hot area for this core. Access counting
    /// happens untimed in `on_packet`; the timed migration swaps run
    /// only at epoch merges (see `epoch_migrate`), once every worker of
    /// the epoch has polled.
    migrator: Option<HotMigrator>,
    hot_hits: u64,
    migrated: u64,
    migration_cycles: u64,
    swaps_vetoed: u64,
    swaps_deferred: u64,
    swaps_at_loss: u64,
}

impl KvApp<'_> {
    /// Runs this core's migration at an epoch merge when due. Called
    /// from the engine's epoch hook, after every worker of the epoch
    /// has run, so the timed swaps land on this core at a fixed point
    /// of the epoch.
    fn epoch_migrate(&mut self, mc: &mut MergeCtx<'_>) {
        let Some(mig) = &mut self.migrator else {
            return;
        };
        if !mig.epoch_due() {
            return;
        }
        let rep = mig
            .run_epoch(mc.m, self.store)
            .expect("noted keys were parsed from served requests, so they are in range");
        self.migrated += rep.migrated as u64;
        self.migration_cycles += rep.cycles;
        self.swaps_vetoed += rep.vetoed;
        self.swaps_deferred += rep.deferred;
        self.swaps_at_loss += rep.at_loss;
    }
}

impl QueueApp for KvApp<'_> {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        let (outcome, hot_hits) = serve_packet(self.store, self.migrator.as_mut(), ctx, comp);
        self.hot_hits += hot_hits;
        match outcome {
            Served::Ok { op } => {
                if op == KvOp::Get {
                    self.gets += 1;
                }
                self.served += 1;
                Verdict::Tx(TxDesc {
                    mbuf: comp.mbuf,
                    data_pa: comp.data_pa,
                    len: comp.len,
                })
            }
            Served::Expired => {
                self.expired += 1;
                Verdict::Drop
            }
            Served::Truncated => {
                self.truncated += 1;
                Verdict::Drop
            }
            Served::Malformed => {
                self.malformed += 1;
                Verdict::Drop
            }
        }
    }
}

/// Runs the closed-loop server benchmark.
///
/// `gens` supplies one client generator per RX queue (each must steer
/// to its own queue — see [`flow_for_queue`]); requests are DMA-ed into
/// mbufs through the normal NIC path (DDIO), served from `store` by one
/// worker core per queue, and responses transmitted back. Completions a
/// previous run left in the ready rings are served this run without
/// being offered this run; the engine's conservation invariant carries
/// them in.
///
/// # Panics
///
/// Panics when `gens.len() != cfg.cores`, the port's queue count does
/// not match, or a generator's flow steers to the wrong queue.
pub fn run_server(
    m: &mut Machine,
    store: &KvStore,
    pool: &mut MbufPool,
    port: &mut Port,
    policy: &mut dyn HeadroomPolicy,
    gens: &mut [RequestGen],
    cfg: &ServerConfig,
) -> ServerReport {
    let cores = cfg.cores;
    assert!(cores > 0, "no serving cores");
    assert_eq!(gens.len(), cores, "one request generator per queue");
    assert_eq!(port.num_queues(), cores, "one RX queue per serving core");
    for (i, g) in gens.iter().enumerate() {
        assert_eq!(
            port.route(&g.flow()).0,
            i,
            "generator {i}'s flow must steer to queue {i} (see flow_for_queue)"
        );
    }
    // A hot area can be monitored/migrated only when each serving core
    // owns exactly one: HotSliceAware's single hot area on one core, or
    // StripedHot's per-class hot pools with one class per core. (Two
    // cores sharing one hot area would hold diverging resident views
    // and silently undo each other's swaps.)
    let monitored = match store.placement() {
        Placement::HotSliceAware { .. } => cores == 1,
        Placement::StripedHot { slices, .. } => slices.len() == cores,
        _ => false,
    };
    assert!(
        cfg.migration == MigrationMode::Off || monitored,
        "migration needs one hot area per serving core \
         (HotSliceAware on a single core, or StripedHot with one slice \
         per core); got {:?} on {} cores",
        store.placement(),
        cores
    );
    // With migration off the migrators still monitor hot hits;
    // usize::MAX keeps `epoch_due` forever false.
    let epoch_len = cfg.migration.epoch().unwrap_or(usize::MAX);
    let apps: Vec<KvApp<'_>> = (0..cores)
        .map(|q| KvApp {
            store,
            served: 0,
            gets: 0,
            malformed: 0,
            truncated: 0,
            expired: 0,
            migrator: monitored.then(|| {
                let mig = HotMigrator::for_store(m, store, q, epoch_len)
                    .expect("placement declared a hot area for every serving core");
                if let MigrationMode::CostAware { .. } = cfg.migration {
                    // Economics measured per core: each serving core's
                    // slice distances price its own migrations.
                    mig.with_policy(MigrationPolicy::cost_aware(m, q))
                } else {
                    mig
                }
            }),
            hot_hits: 0,
            migrated: 0,
            migration_cycles: 0,
            swaps_vetoed: 0,
            swaps_deferred: 0,
            swaps_at_loss: 0,
        })
        .collect();
    let ecfg = EngineConfig {
        workers: WorkerSpec::run_to_completion(cores),
        queue_depth: cfg.queue_depth,
        burst: cfg.burst,
        faults: cfg.faults.clone(),
        execution: Execution::Serial,
        admission: AdmissionPolicy::AcceptAll,
        scheduler: cfg.scheduler,
    };
    let mut hw = Hw {
        m,
        port,
        pool,
        policy,
    };
    let mut eng = Engine::new(apps, ecfg, &mut hw);
    if cfg.migration != MigrationMode::Off {
        // Migration runs at epoch merges, after every worker of the
        // epoch, so the timed swaps land at a scheduler-independent
        // point. The hook moves no packets, hence 0.
        eng.set_epoch_hook(Box::new(|apps, mc| {
            for app in apps.iter_mut() {
                app.epoch_migrate(mc);
            }
            0
        }));
    }
    let starts: Vec<u64> = (0..cores).map(|c| hw.m.now(c)).collect();
    let mut frame = vec![0u8; REQUEST_SIZE];
    let mut seq = 0u64;
    // A generous ceiling on total offers: under pathological fault plans
    // that reject or shed nearly every frame (so `served` cannot reach
    // the target), the loop still terminates with conservation intact.
    let offer_cap = (cfg.requests as u64)
        .saturating_mul(16)
        .saturating_add(16 * (cfg.queue_depth * cores) as u64);
    // The clients keep every queue saturated (closed loop): top each
    // queue up with fresh requests before each poll round. The attempt
    // cap bounds a top-up when the fault plan rejects every frame (e.g.
    // a stall window, where no offer consumes a descriptor).
    while (eng.delivered() as usize) < cfg.requests && eng.offered() < offer_cap {
        let t = eng.now_ns();
        let mut progressed = false;
        for (q, gen) in gens.iter_mut().enumerate() {
            let mut attempts = 0;
            while hw.port.posted_count(q) > 0 && attempts < 2 * cfg.queue_depth {
                attempts += 1;
                let req = gen.next_request();
                nfv::packet::encode_frame(&mut frame, &gen.flow(), REQUEST_SIZE, t, seq);
                seq += 1;
                write_request(&mut frame, &req);
                match eng.offer(&mut hw, &gen.flow(), &frame, t) {
                    Ok(_) => progressed = true,
                    Err(engine::Rejection::Nic(DropReason::NoDescriptor)) => break,
                    Err(_) => {}
                }
            }
        }
        if eng.step(&mut hw) > 0 {
            progressed = true;
        }
        if !progressed {
            // Wedged: every queue rejected its offers and no worker had
            // anything to poll (e.g. an unbounded stall window).
            break;
        }
    }
    // Closed-loop runs legitimately end with requests in flight; the
    // engine asserts conservation per queue, globally, and against the
    // NIC's counters.
    let (rep, apps) = eng.finish(&mut hw);
    let freq_hz = hw.m.config().freq_ghz * 1e9;
    let mut busy_max = 0u64;
    let mut per_queue = Vec::with_capacity(cores);
    for (q, l) in rep.per_queue.iter().enumerate() {
        let busy = hw.m.now(q) - starts[q];
        busy_max = busy_max.max(busy);
        per_queue.push(QueueReport {
            queue: q,
            offered: l.offered,
            carried: l.carried,
            served: l.delivered,
            gets: apps[q].gets,
            drops: ServerDrops {
                nic: l.nic,
                malformed: apps[q].malformed,
                truncated: apps[q].truncated,
                expired: apps[q].expired,
            },
            in_flight: l.in_flight,
            busy_cycles: busy,
            tps: if busy == 0 {
                0.0
            } else {
                l.delivered as f64 / (busy as f64 / freq_hz)
            },
            hot_hits: apps[q].hot_hits,
            migrated: apps[q].migrated,
            migration_cycles: apps[q].migration_cycles,
            swaps_vetoed: apps[q].swaps_vetoed,
            swaps_deferred: apps[q].swaps_deferred,
            swaps_at_loss: apps[q].swaps_at_loss,
        });
    }
    let drops = ServerDrops {
        nic: rep.nic,
        malformed: apps.iter().map(|a| a.malformed).sum(),
        truncated: apps.iter().map(|a| a.truncated).sum(),
        expired: apps.iter().map(|a| a.expired).sum(),
    };
    debug_assert_eq!(
        rep.app_drops,
        drops.malformed + drops.truncated + drops.expired
    );
    let served = rep.delivered;
    let tps = if busy_max == 0 {
        0.0
    } else {
        served as f64 / (busy_max as f64 / freq_hz)
    };
    ServerReport {
        offered: rep.offered,
        carried: rep.carried,
        served,
        gets: apps.iter().map(|a| a.gets).sum(),
        drops,
        in_flight: rep.in_flight,
        busy_cycles: busy_max,
        tps,
        cycles_per_request: if served == 0 {
            0.0
        } else {
            busy_max as f64 / served as f64
        },
        hot_hits: apps.iter().map(|a| a.hot_hits).sum(),
        migrated: apps.iter().map(|a| a.migrated).sum(),
        migration_cycles: apps.iter().map(|a| a.migration_cycles).sum(),
        swaps_vetoed: apps.iter().map(|a| a.swaps_vetoed).sum(),
        swaps_deferred: apps.iter().map(|a| a.swaps_deferred).sum(),
        swaps_at_loss: apps.iter().map(|a| a.swaps_at_loss).sum(),
        per_queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Placement;
    use llc_sim::hash::{SliceHash, XorSliceHash};
    use llc_sim::machine::MachineConfig;
    use rte::nic::FixedHeadroom;
    use rte::steering::{Rss, Steering};
    use slice_aware::alloc::SliceAllocator;
    use trafficgen::ZipfGen;

    struct Bench {
        m: Machine,
        store: KvStore,
        pool: MbufPool,
        port: Port,
    }

    fn build(n: usize, placement: Placement, region_mb: usize) -> Bench {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20));
        let region = m.mem_mut().alloc(region_mb << 20, 1 << 20).unwrap();
        let h = XorSliceHash::haswell_8slice();
        let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
        let store = KvStore::build(&mut m, &mut alloc, n, placement).unwrap();
        let pool = MbufPool::create(&mut m, 1024, 128, 2048).unwrap();
        let port = Port::new(0, Steering::Rss(Rss::new(1)), 256);
        Bench {
            m,
            store,
            pool,
            port,
        }
    }

    fn run(bench: &mut Bench, get_permille: u32, theta: f64, requests: usize) -> ServerReport {
        let n = bench.store.len() as u64;
        let keygen = ZipfGen::new(n, theta, 99);
        let mut gens = [RequestGen::new(keygen, get_permille, 7)];
        let mut policy = FixedHeadroom(128);
        let cfg = ServerConfig::fig8(requests, get_permille, 1);
        run_server(
            &mut bench.m,
            &bench.store,
            &mut bench.pool,
            &mut bench.port,
            &mut policy,
            &mut gens,
            &cfg,
        )
    }

    #[test]
    fn serves_all_requests() {
        let mut b = build(4096, Placement::Normal, 16);
        let rep = run(&mut b, 1000, 0.99, 2000);
        assert!(rep.served >= 2000);
        assert_eq!(rep.gets, rep.served, "100% GET workload");
        assert!(rep.tps > 0.0);
        assert!(rep.cycles_per_request > 0.0);
    }

    #[test]
    fn get_set_mix_hits_both_paths() {
        let mut b = build(4096, Placement::Normal, 16);
        let rep = run(&mut b, 500, 0.0, 2000);
        let frac = rep.gets as f64 / rep.served as f64;
        assert!((frac - 0.5).abs() < 0.06, "GET fraction {frac}");
    }

    #[test]
    fn set_then_get_roundtrips_through_packets() {
        // Functional check outside the closed loop: a SET followed by a
        // GET returns the stored bytes in the response payload.
        let mut b = build(256, Placement::Normal, 16);
        let core = 0;
        let mut policy = FixedHeadroom(128);
        b.port
            .refill(&mut b.m, &mut b.pool, 0, core, &mut policy, 8);
        let flow = trafficgen::FlowTuple::tcp(1, 2, 3, 4);
        let mut frame = vec![0u8; REQUEST_SIZE];
        // SET key 5 = 0x77s.
        nfv::packet::encode_frame(&mut frame, &flow, REQUEST_SIZE, 0.0, 0);
        write_request(
            &mut frame,
            &crate::proto::KvRequest {
                op: KvOp::Set,
                key: 5,
            },
        );
        frame[crate::proto::VALUE_OFF..crate::proto::VALUE_OFF + 64].fill(0x77);
        b.port.deliver(&mut b.m, &frame, &flow, 0.0).unwrap();
        let (batch, _) = b.port.rx_burst(&mut b.m, &b.pool, 0, core, 4);
        let comp = batch[0];
        let mut data = [0u8; 64];
        b.m.read_bytes(
            core,
            comp.data_pa.add(crate::proto::VALUE_OFF as u64),
            &mut data,
        );
        b.store.set(&mut b.m, core, 5, &data);
        b.pool.put(comp.mbuf);
        let mut out = [0u8; 64];
        b.store.get(&mut b.m, core, 5, &mut out);
        assert_eq!(out, [0x77u8; 64]);
    }

    #[test]
    fn faulty_client_degrades_gracefully() {
        use rte::fault::Window;
        let mut b = build(4096, Placement::Normal, 16);
        let n = b.store.len() as u64;
        let keygen = ZipfGen::new(n, 0.99, 99);
        let mut gens = [RequestGen::new(keygen, 500, 7)];
        let mut policy = FixedHeadroom(128);
        let cfg = ServerConfig::fig8(2000, 500, 1).with_faults(
            FaultPlan::frame_indexed()
                .with_seed(3)
                .with_corrupt_prob(0.10)
                .with_truncate_prob(0.05)
                .with_link_flap(Window::new(100, 150)),
        );
        let rep = run_server(
            &mut b.m,
            &b.store,
            &mut b.pool,
            &mut b.port,
            &mut policy,
            &mut gens,
            &cfg,
        );
        // Despite the lossy client, the server still reaches its target
        // and every offered request is accounted for (the conservation
        // assert inside run_server already enforced it; restate here).
        assert!(rep.served >= 2000, "served {}", rep.served);
        assert!(
            rep.drops.nic.crc > 0,
            "corruption must surface as CRC drops"
        );
        assert_eq!(rep.drops.nic.link_down, 50, "flap window covers 50 frames");
        assert!(rep.drops.truncated > 0, "mid-length cuts reach the parser");
        assert_eq!(
            rep.offered + rep.carried,
            rep.served + rep.drops.total() + rep.in_flight,
            "conservation restated from the report"
        );
    }

    #[test]
    fn four_core_queue_reports_partition_the_aggregate() {
        // The §8 multi-core extension: four serving cores, RSS over four
        // queues, each core's key class homed in its closest slice. The
        // per-queue reports must partition every aggregate counter
        // exactly.
        let cores = 4;
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20));
        let region = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
        let h = XorSliceHash::haswell_8slice();
        let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
        let slices: Vec<usize> = (0..cores).map(|c| m.closest_slice(c)).collect();
        let store =
            KvStore::build(&mut m, &mut alloc, 4096, Placement::Striped { slices }).unwrap();
        let mut pool = MbufPool::create(&mut m, 4096, 128, 2048).unwrap();
        let mut port = Port::new(0, Steering::Rss(Rss::new(cores)), 256);
        let base = trafficgen::FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
        let mut gens: Vec<RequestGen> = (0..cores)
            .map(|q| {
                let flow = flow_for_queue(&mut port, base, q);
                let keygen = ZipfGen::new(4096 / cores as u64, 0.99, 11 + q as u64);
                RequestGen::new(keygen, 900, 7 + q as u64)
                    .with_flow(flow)
                    .with_key_partition(cores as u32, q as u32)
            })
            .collect();
        let mut policy = FixedHeadroom(128);
        let cfg = ServerConfig::fig8(8000, 900, 1).with_cores(cores);
        let rep = run_server(
            &mut m,
            &store,
            &mut pool,
            &mut port,
            &mut policy,
            &mut gens,
            &cfg,
        );
        assert!(rep.served >= 8000, "served {}", rep.served);
        assert_eq!(rep.per_queue.len(), cores);
        assert_partitions(&rep);
        // Striped has no hot area: nothing is monitored or migrated.
        assert_eq!(rep.hot_hits, 0);
        assert_eq!(rep.migrated, 0);
        assert_eq!(rep.migration_cycles, 0);
    }

    /// Asserts every per-queue counter — including the migration ledger
    /// columns — sums exactly to its aggregate, and per-queue
    /// conservation holds.
    fn assert_partitions(rep: &ServerReport) {
        let (mut off, mut car, mut srv, mut gets, mut inf, mut drp) = (0, 0, 0, 0, 0, 0);
        let (mut hh, mut mig, mut mcyc) = (0, 0, 0);
        let (mut veto, mut defer, mut loss) = (0, 0, 0);
        for qr in &rep.per_queue {
            assert!(qr.served > 0, "queue {} served nothing", qr.queue);
            assert!(qr.busy_cycles > 0 && qr.tps > 0.0, "queue {}", qr.queue);
            assert_eq!(
                qr.offered + qr.carried,
                qr.served + qr.drops.total() + qr.in_flight,
                "queue {} conservation",
                qr.queue
            );
            assert!(
                qr.hot_hits <= qr.served,
                "queue {}: hot hits beyond served",
                qr.queue
            );
            assert!(
                qr.migration_cycles <= qr.busy_cycles,
                "queue {}: migration cycles beyond busy time",
                qr.queue
            );
            off += qr.offered;
            car += qr.carried;
            srv += qr.served;
            gets += qr.gets;
            inf += qr.in_flight;
            drp += qr.drops.total();
            hh += qr.hot_hits;
            mig += qr.migrated;
            mcyc += qr.migration_cycles;
            veto += qr.swaps_vetoed;
            defer += qr.swaps_deferred;
            loss += qr.swaps_at_loss;
        }
        assert_eq!(off, rep.offered, "offered must partition");
        assert_eq!(car, rep.carried, "carried must partition");
        assert_eq!(srv, rep.served, "served must partition");
        assert_eq!(gets, rep.gets, "gets must partition");
        assert_eq!(inf, rep.in_flight, "in_flight must partition");
        assert_eq!(drp, rep.drops.total(), "drops must partition");
        assert_eq!(hh, rep.hot_hits, "hot_hits must partition");
        assert_eq!(mig, rep.migrated, "migrated must partition");
        assert_eq!(
            mcyc, rep.migration_cycles,
            "migration_cycles must partition"
        );
        assert_eq!(veto, rep.swaps_vetoed, "swaps_vetoed must partition");
        assert_eq!(defer, rep.swaps_deferred, "swaps_deferred must partition");
        assert_eq!(loss, rep.swaps_at_loss, "swaps_at_loss must partition");
    }

    /// Four-core StripedHot run: Zipf clients with scrambled keys so
    /// the popular set starts cold. Returns the report.
    fn run_striped_hot(requests: usize, migration: MigrationMode) -> ServerReport {
        let cores = 4;
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20));
        let region = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
        let h = XorSliceHash::haswell_8slice();
        let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
        let slices: Vec<usize> = (0..cores).map(|c| m.closest_slice(c)).collect();
        let store = KvStore::build(
            &mut m,
            &mut alloc,
            4096,
            Placement::StripedHot {
                slices,
                hot_per_core: 64,
            },
        )
        .unwrap();
        let mut pool = MbufPool::create(&mut m, 4096, 128, 2048).unwrap();
        let mut port = Port::new(0, Steering::Rss(Rss::new(cores)), 256);
        let base = trafficgen::FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
        let mut gens: Vec<RequestGen> = (0..cores)
            .map(|q| {
                let flow = flow_for_queue(&mut port, base, q);
                let keygen = ZipfGen::new(4096 / cores as u64, 0.99, 11 + q as u64);
                RequestGen::new(keygen, 900, 7 + q as u64)
                    .with_flow(flow)
                    .with_key_partition(cores as u32, q as u32)
                    .with_key_scramble(21 + q as u64)
            })
            .collect();
        let mut policy = FixedHeadroom(128);
        let mut cfg = ServerConfig::fig8(requests, 900, 1).with_cores(cores);
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

    #[test]
    fn migration_lifts_hot_hit_rate_and_the_ledger_partitions() {
        let baseline = run_striped_hot(12_000, MigrationMode::Off);
        let migrated = run_striped_hot(12_000, MigrationMode::Always { epoch: 1000 });
        // Monitor-only: counters tick, nothing moves.
        assert!(
            baseline.hot_hits > 0,
            "scrambled Zipf still grazes hot slots"
        );
        assert_eq!(baseline.migrated, 0);
        assert_eq!(baseline.migration_cycles, 0);
        assert_eq!(baseline.swaps_vetoed, 0);
        // Migrating: every core promoted keys, paid timed cycles for
        // it, and the per-queue ledger partitions the new columns.
        assert_partitions(&migrated);
        for qr in &migrated.per_queue {
            assert!(qr.migrated > 0, "queue {} never migrated", qr.queue);
            assert!(
                qr.migration_cycles > 0,
                "queue {} swaps were free",
                qr.queue
            );
        }
        // Always never vetoes or defers, but the measured economics
        // flag its uneconomic tail swaps.
        assert_eq!(migrated.swaps_vetoed, 0);
        assert_eq!(migrated.swaps_deferred, 0);
        assert!(
            migrated.swaps_at_loss > 0,
            "a Zipf tail must produce at-loss swaps under Always"
        );
        assert!(
            migrated.hot_hit_rate() > baseline.hot_hit_rate(),
            "migration must lift the hot-hit rate: {} vs {}",
            migrated.hot_hit_rate(),
            baseline.hot_hit_rate()
        );
    }

    #[test]
    fn cost_aware_migration_vetoes_the_tail_and_never_swaps_at_a_loss() {
        let aware = run_striped_hot(12_000, MigrationMode::CostAware { epoch: 1000 });
        assert_partitions(&aware);
        assert!(aware.migrated > 0, "the Zipf head must still migrate");
        assert_eq!(
            aware.swaps_at_loss, 0,
            "cost-aware migration must never execute an at-loss swap"
        );
        assert!(
            aware.swaps_vetoed > 0,
            "the Zipf tail must be vetoed by the economics"
        );
        // The controller migrates a strict subset of what Always moves.
        let always = run_striped_hot(12_000, MigrationMode::Always { epoch: 1000 });
        assert!(
            aware.migrated < always.migrated,
            "cost-aware ({}) must swap less than Always ({})",
            aware.migrated,
            always.migrated
        );
    }

    #[test]
    fn uniform_traffic_server_backs_off_to_zero_swaps() {
        // Stationary uniform clients on a migrating StripedHot server:
        // the controller must veto everything, back off, and report
        // zero executed swaps — the server-level half of the dormancy
        // acceptance criterion.
        let cores = 4;
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20));
        let region = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
        let h = XorSliceHash::haswell_8slice();
        let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
        let slices: Vec<usize> = (0..cores).map(|c| m.closest_slice(c)).collect();
        let store = KvStore::build(
            &mut m,
            &mut alloc,
            4096,
            Placement::StripedHot {
                slices,
                hot_per_core: 64,
            },
        )
        .unwrap();
        let mut pool = MbufPool::create(&mut m, 4096, 128, 2048).unwrap();
        let mut port = Port::new(0, Steering::Rss(Rss::new(cores)), 256);
        let base = trafficgen::FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
        let mut gens: Vec<RequestGen> = (0..cores)
            .map(|q| {
                let flow = flow_for_queue(&mut port, base, q);
                // theta = 0: stationary uniform keys.
                let keygen = ZipfGen::new(4096 / cores as u64, 0.0, 11 + q as u64);
                RequestGen::new(keygen, 900, 7 + q as u64)
                    .with_flow(flow)
                    .with_key_partition(cores as u32, q as u32)
            })
            .collect();
        let mut policy = FixedHeadroom(128);
        let mut cfg = ServerConfig::fig8(16_000, 900, 1).with_cores(cores);
        cfg.migration = MigrationMode::CostAware { epoch: 500 };
        let rep = run_server(
            &mut m,
            &store,
            &mut pool,
            &mut port,
            &mut policy,
            &mut gens,
            &cfg,
        );
        assert_partitions(&rep);
        assert_eq!(rep.migrated, 0, "uniform traffic must never migrate");
        assert_eq!(rep.migration_cycles, 0);
        assert_eq!(rep.swaps_at_loss, 0);
    }

    #[test]
    #[should_panic(expected = "migration needs one hot area per serving core")]
    fn migration_rejects_placements_without_a_hot_area() {
        let mut b = build(4096, Placement::Normal, 16);
        let keygen = ZipfGen::new(4096, 0.99, 99);
        let mut gens = [RequestGen::new(keygen, 1000, 7)];
        let mut policy = FixedHeadroom(128);
        let cfg = ServerConfig::fig8(100, 1000, 1).with_migration(64);
        run_server(
            &mut b.m,
            &b.store,
            &mut b.pool,
            &mut b.port,
            &mut policy,
            &mut gens,
            &cfg,
        );
    }

    #[test]
    fn skewed_slice_aware_beats_normal() {
        // The Fig. 8 headline at small scale: value store larger than the
        // LLC, Zipf keys, 100% GET.
        let n = 1 << 19; // 512k values = 32 MB > 20 MB LLC.
        let mut aware = build(n, Placement::SliceAware { slice: 0 }, 384);
        let mut normal = build(n, Placement::Normal, 384);
        let warm = 40_000;
        let measured = 60_000;
        let _ = run(&mut aware, 1000, 0.99, warm);
        let _ = run(&mut normal, 1000, 0.99, warm);
        let ra = run(&mut aware, 1000, 0.99, measured);
        let rn = run(&mut normal, 1000, 0.99, measured);
        assert!(
            ra.tps > rn.tps,
            "slice-aware TPS {} must beat normal {}",
            ra.tps,
            rn.tps
        );
    }

    #[test]
    fn uniform_keys_show_no_meaningful_gap() {
        let n = 1 << 19;
        let mut aware = build(n, Placement::SliceAware { slice: 0 }, 384);
        let mut normal = build(n, Placement::Normal, 384);
        let ra = run(&mut aware, 1000, 0.0, 30_000);
        let rn = run(&mut normal, 1000, 0.0, 30_000);
        let gap = (ra.tps - rn.tps).abs() / rn.tps;
        assert!(gap < 0.05, "uniform gap {gap} should be small");
    }
}
