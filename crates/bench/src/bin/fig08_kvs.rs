//! Fig. 8: emulated KVS — average transactions per second for GET/SET
//! mixes, Zipf(0.99) and uniform keys, slice-aware vs. normal values.
//!
//! One serving core; requests in 128 B TCP packets through the NIC path.
//! Scale note: the paper's store is 2^24 64 B values (1 GB). The default
//! here is 2^21 (128 MB — still 6.4x the LLC, preserving the hit-rate
//! structure); pass a third argument `24` to run the full-size store.

use kvs::proto::RequestGen;
use kvs::server::{flow_for_queue, run_server, MigrationMode, ServerConfig};
use kvs::store::{KvStore, Placement};
use llc_sim::hash::{SliceHash, XorSliceHash};
use llc_sim::machine::{Machine, MachineConfig};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use trafficgen::{FlowTuple, PhaseGen, PhaseSchedule, ZipfGen};
use xstats::report::{f, Table};

/// One benchmark point: warm-up pass, then a measured run.
///
/// `make_placement` sees the built machine (the migration study homes
/// each core's hot pool in that core's closest slice); `scramble`
/// passes client keys through a seeded bijection so Zipf popularity is
/// decorrelated from key identity; `migration` selects the §8 hot-set
/// migration policy; `churn` runs every client through the given phase
/// schedule (rank rotation per phase — the non-stationary workload of
/// the `--churn` study).
#[allow(clippy::too_many_arguments)]
fn run_config(
    n_values: usize,
    make_placement: &dyn Fn(&Machine) -> Placement,
    theta: f64,
    get_permille: u32,
    requests: usize,
    cores: usize,
    scramble: bool,
    migration: MigrationMode,
    churn: Option<&PhaseSchedule>,
) -> Result<kvs::ServerReport, Box<dyn std::error::Error>> {
    // The slice-aware carving needs ~slices x the store's footprint.
    let store_bytes = n_values * 64;
    let region_bytes = (store_bytes * 9).max(64 << 20);
    let mut m = Machine::new(
        MachineConfig::haswell_e5_2667_v3()
            .with_dram_capacity(region_bytes + store_bytes + (256 << 20)),
    );
    let placement = make_placement(&m);
    let region = m.mem_mut().alloc(region_bytes, 1 << 20)?;
    let hash = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| hash.slice_of(pa));
    let store = KvStore::build(&mut m, &mut alloc, n_values, placement.clone())?;
    let mut pool = MbufPool::create(&mut m, (1024 * cores) as u32, 128, 2048)?;
    let mut port = Port::new(0, Steering::Rss(Rss::new(cores)), 256);
    let make_gen = |keygen: ZipfGen, q: u64| match churn {
        Some(schedule) => RequestGen::phased(
            PhaseGen::new(keygen, schedule.clone(), 5150 + q),
            get_permille,
            77 + q,
        ),
        None => RequestGen::new(keygen, get_permille, 77 + q),
    };
    let mut gens: Vec<RequestGen> = if cores == 1 {
        let keygen = ZipfGen::new(n_values as u64, theta, 4242);
        vec![make_gen(keygen, 0)]
    } else {
        // Multi-queue (§8): each queue's client draws from its own key
        // class so concurrent workers' SETs stay disjoint.
        let base = FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
        (0..cores)
            .map(|q| {
                let flow = flow_for_queue(&mut port, base, q);
                let keygen = ZipfGen::new((n_values / cores) as u64, theta, 4242 + q as u64);
                make_gen(keygen, q as u64)
                    .with_flow(flow)
                    .with_key_partition(cores as u32, q as u32)
            })
            .collect()
    };
    if scramble {
        gens = gens
            .into_iter()
            .enumerate()
            .map(|(q, g)| g.with_key_scramble(4300 + q as u64))
            .collect();
    }
    let mut policy = FixedHeadroom(128);
    let mut cfg = ServerConfig::fig8(requests, get_permille, 1).with_cores(cores);
    cfg.scheduler = bench::scheduler_from_args();
    cfg.migration = migration;
    // Warm-up pass (the paper averages many runs on a hot server). With
    // migration enabled it also pre-migrates the store, so the measured
    // run starts from a layout the warm-up's migrator left behind —
    // exactly what HotMigrator::for_store must read correctly.
    let warm = ServerConfig {
        requests: requests / 4,
        ..cfg.clone()
    };
    run_server(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut gens,
        &warm,
    );
    let rep = run_server(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut gens,
        &cfg,
    );
    if std::env::var("KVS_DEBUG").is_ok() {
        eprintln!(
            "  [{placement:?} theta={theta} get={get_permille}] cycles/request = {:.1}",
            rep.cycles_per_request
        );
    }
    Ok(rep)
}

fn flag<T: std::str::FromStr>(args: &[String], prefix: &str) -> Option<T> {
    args.iter()
        .find_map(|a| a.strip_prefix(prefix).and_then(|v| v.parse().ok()))
}

/// The `--migrate=<epoch>` study: static Striped vs. StripedHot vs.
/// StripedHot with §8 hot-set migration, all multi-queue with scrambled
/// Zipf clients (so the popular keys start *cold* and only migration
/// can move them into the slice-local hot pools).
#[allow(clippy::too_many_arguments)]
fn run_migration_study(
    n_values: usize,
    log2_n: u32,
    theta: f64,
    epoch: usize,
    requests: usize,
    cores: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    // Hot pool per core: the §3 half-slice rule of thumb, capped at an
    // eighth of the core's key class so the hot area stays selective at
    // smoke scale.
    let class_len = n_values / cores;
    let hot_per_core = (20_000 / cores).min(class_len / 8).max(1);
    // The study is about epoch boundaries: guarantee every core sees at
    // least three of them in the measured run, whatever scale was asked
    // for (at --smoke scale the raw request budget would never reach
    // one).
    let requests = requests.max(cores * epoch * 3);
    println!(
        "Fig. 8 addendum — §8 hot-set migration, {cores} core(s), 2^{log2_n} x 64 B values, \
         Zipf({theta}) scrambled keys, epoch {epoch}, {requests} requests/point\n"
    );
    let striped = |m: &Machine| Placement::Striped {
        slices: (0..cores).map(|c| m.closest_slice(c)).collect(),
    };
    let striped_hot = move |m: &Machine| Placement::StripedHot {
        slices: (0..cores).map(|c| m.closest_slice(c)).collect(),
        hot_per_core,
    };
    type StudyConfig<'a> = (&'a str, &'a dyn Fn(&Machine) -> Placement, MigrationMode);
    let configs: [StudyConfig<'_>; 3] = [
        ("Striped (static)", &striped, MigrationMode::Off),
        ("StripedHot", &striped_hot, MigrationMode::Off),
        (
            "StripedHot+migrate",
            &striped_hot,
            MigrationMode::Always { epoch },
        ),
    ];
    let mut t = Table::new([
        "Config",
        "HotHit%",
        "MTPS",
        "Cycles/req",
        "Migrated",
        "MigCycles",
    ]);
    let mut reports = Vec::new();
    for (label, make_placement, migration) in configs {
        let rep = run_config(
            n_values,
            make_placement,
            theta,
            950,
            requests,
            cores,
            true,
            migration,
            None,
        )?;
        t.row([
            label.to_string(),
            f(rep.hot_hit_rate() * 100.0, 1),
            f(rep.tps / 1e6, 3),
            f(rep.cycles_per_request, 1),
            rep.migrated.to_string(),
            rep.migration_cycles.to_string(),
        ]);
        reports.push(rep);
    }
    println!("{}", t.render());
    let [stat, hot, mig] = &reports[..] else {
        unreachable!()
    };
    println!(
        "hot-hit-rate delta vs static Striped: {:+.1} pts migrated, {:+.1} pts unmigrated",
        (mig.hot_hit_rate() - stat.hot_hit_rate()) * 100.0,
        (hot.hot_hit_rate() - stat.hot_hit_rate()) * 100.0
    );
    println!(
        "mean-latency delta vs static Striped: {:+.1}% migrated, {:+.1}% unmigrated",
        (mig.cycles_per_request - stat.cycles_per_request) / stat.cycles_per_request * 100.0,
        (hot.cycles_per_request - stat.cycles_per_request) / stat.cycles_per_request * 100.0
    );
    println!(
        "\nStatic Striped has no hot area (hot-hit-rate 0 by construction); StripedHot \
         pins each core's first {hot_per_core} class keys in its closest slice; with \
         --migrate the per-core HotMigrator re-fills those slots with the epoch's \
         observed hot set through timed swaps (cost in MigCycles, included in busy \
         time). Keys are scrambled, so the Zipf head starts cold in every config."
    );
    Ok(())
}

/// The `--churn=<epoch>` study: hot-set churn (each client's rank→key
/// mapping rotates every phase, so the popular keys go cold three times
/// per run) served by a StripedHot layout under three policies — no
/// migration, §8 always-migrate, and the cost-aware self-tuning
/// controller. The claim under test: economics beat both extremes on
/// TPS, and the cost-aware controller never executes a swap at a
/// projected loss.
#[allow(clippy::too_many_arguments)]
fn run_churn_study(
    n_values: usize,
    log2_n: u32,
    theta: f64,
    epoch: usize,
    requests: usize,
    cores: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let class_len = n_values / cores;
    let hot_per_core = (20_000 / cores).min(class_len / 8).max(1);
    // Every core sees at least six epoch boundaries (two per phase), so
    // the controller gets a convergence window inside each phase even
    // at --smoke scale.
    let requests = requests.max(cores * epoch * 6);
    let phases = 3usize;
    let phase_len = (requests / cores / phases).max(1) as u64;
    // Any non-zero rotation lands on a disjoint key set (clients
    // scramble their ranks); a third of the class keeps the three
    // phases' heads pairwise far apart.
    let step = (class_len as u64 / 3).max(1);
    let schedule = PhaseSchedule::hot_set_churn(phases, phase_len, step);
    println!(
        "Fig. 8 addendum — cost-aware migration under hot-set churn, {cores} core(s), \
         2^{log2_n} x 64 B values, Zipf({theta}) scrambled keys, {phases} phases x \
         {phase_len} draws/client (rank rotation {step}), epoch {epoch}, \
         {requests} requests/point\n"
    );
    let striped_hot = move |m: &Machine| Placement::StripedHot {
        slices: (0..cores).map(|c| m.closest_slice(c)).collect(),
        hot_per_core,
    };
    let configs: [(&str, MigrationMode); 3] = [
        ("StripedHot (static)", MigrationMode::Off),
        ("Always-migrate", MigrationMode::Always { epoch }),
        ("Cost-aware", MigrationMode::CostAware { epoch }),
    ];
    let mut t = Table::new([
        "Config",
        "HotHit%",
        "MTPS",
        "Cycles/req",
        "Migrated",
        "Vetoed",
        "Deferred",
        "AtLoss",
        "MigCycles",
    ]);
    let mut reports = Vec::new();
    for (label, migration) in configs {
        let rep = run_config(
            n_values,
            &striped_hot,
            theta,
            950,
            requests,
            cores,
            true,
            migration,
            Some(&schedule),
        )?;
        t.row([
            label.to_string(),
            f(rep.hot_hit_rate() * 100.0, 1),
            f(rep.tps / 1e6, 3),
            f(rep.cycles_per_request, 1),
            rep.migrated.to_string(),
            rep.swaps_vetoed.to_string(),
            rep.swaps_deferred.to_string(),
            rep.swaps_at_loss.to_string(),
            rep.migration_cycles.to_string(),
        ]);
        reports.push(rep);
    }
    println!("{}", t.render());
    let [stat, always, aware] = &reports[..] else {
        unreachable!()
    };
    println!(
        "cost-aware TPS delta: {:+.1}% vs static, {:+.1}% vs always-migrate",
        (aware.tps - stat.tps) / stat.tps * 100.0,
        (aware.tps - always.tps) / always.tps * 100.0
    );
    println!(
        "cost-aware swaps at a projected loss: {} (always-migrate executed {})",
        aware.swaps_at_loss, always.swaps_at_loss
    );
    println!(
        "\nEvery phase rotates each client's rank->key mapping, so the Zipf head \
         becomes a disjoint, cold key set. Always-migrate re-fills whole hot pools \
         every epoch and pays for the unprofitable tail (AtLoss counts swaps whose \
         projected benefit was below the measured swap cost); the cost-aware \
         controller swaps only candidates that clear its running cost estimate, \
         defers past its batch cap, and backs off once the hot set is captured."
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(1, 150_000);
    let args: Vec<String> = std::env::args().collect();
    let default_log2 = if scale.smoke { 14 } else { 21 };
    let log2_n: u32 = args
        .get(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_log2);
    let n_values = 1usize << log2_n;
    let cores: usize = flag(&args, "--cores=").unwrap_or(1);
    let zipf: f64 = flag(&args, "--zipf=").unwrap_or(0.99);
    if args
        .iter()
        .any(|a| a == "--churn" || a.starts_with("--churn="))
    {
        let epoch = flag::<usize>(&args, "--churn=").unwrap_or(4096);
        let res = run_churn_study(n_values, log2_n, zipf, epoch, scale.packets, cores);
        bench::eprint_sched_totals("fig08_kvs");
        return res;
    }
    if let Some(epoch) = flag::<usize>(&args, "--migrate=") {
        let res = run_migration_study(n_values, log2_n, zipf, epoch, scale.packets, cores);
        bench::eprint_sched_totals("fig08_kvs");
        return res;
    }
    println!(
        "Fig. 8 — emulated KVS, {cores} core(s), 2^{log2_n} x 64 B values, {} requests/point\n",
        scale.packets
    );
    // Hot set sized to half a slice (the §3 rule of thumb).
    let hot = Placement::HotSliceAware {
        slice: 0,
        hot_count: 20_000,
    };
    let mut t = Table::new([
        "Workload",
        "SliceAll-Skewed",
        "SliceHot-Skewed",
        "Normal-Skewed",
        "SliceHot-Uniform",
        "Normal-Uniform",
    ]);
    let mut improvements = Vec::new();
    for (label, permille) in [("100% GET", 1000u32), ("95% GET", 950), ("50% GET", 500)] {
        let mut cells = vec![label.to_string()];
        let mut by_cfg = Vec::new();
        for (placement, theta) in [
            (Placement::SliceAware { slice: 0 }, zipf),
            (hot.clone(), zipf),
            (Placement::Normal, zipf),
            (hot.clone(), 0.0),
            (Placement::Normal, 0.0),
        ] {
            let tps = run_config(
                n_values,
                &|_| placement.clone(),
                theta,
                permille,
                scale.packets,
                cores,
                false,
                MigrationMode::Off,
                None,
            )?
            .tps / 1e6;
            by_cfg.push(tps);
            cells.push(f(tps, 3));
        }
        improvements.push((label, (by_cfg[1] - by_cfg[2]) / by_cfg[2] * 100.0));
        t.row(cells);
    }
    println!("{}(all values in MTPS)\n", t.render());
    for (label, imp) in improvements {
        println!("hot-slice skewed improvement at {label}: {:+.1}%", imp);
    }
    println!(
        "\nPaper Fig. 8 (2^24 values): skewed slice-aware 21.26/20.91/18.42 vs normal \
         18.95/18.76/17.21 MTPS (+12.2%/+11.4%/+7.0%); uniform ~6.8 both (DRAM-bound).\n\
         Under an LRU LLC, placing *all* values in one slice trades away 7/8 of \
         the cache's capacity and cancels the latency gain; placing the *hot set* \
         (the §8 refinement) keeps the direction of the paper's result. See \
         EXPERIMENTS.md."
    );
    bench::eprint_sched_totals("fig08_kvs");
    Ok(())
}
