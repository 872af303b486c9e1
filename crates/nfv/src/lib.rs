//! An element-based NFV framework over the `rte` substrate, plus the
//! event-driven testbed runtime of the paper's §5.
//!
//! The paper evaluates CacheDirector on Metron (an NFV platform built on
//! FastClick): packets flow through chains of small *elements*, pinned
//! run-to-completion on each core. This crate provides:
//!
//! * **Packet codecs** ([`packet`]): Ethernet/IPv4/TCP frames with the
//!   LoadGen timestamp in the payload.
//! * **Dataplane state in simulated memory**: a DIR-24-8 longest-prefix
//!   router table ([`lpm`]) and an open-addressing flow table
//!   ([`table`]) — both reside in simulated DRAM so every lookup walks
//!   the cache hierarchy and costs the cycles it should.
//! * **Elements** ([`element`], [`elements`]): MacSwap (the §5.1 simple
//!   forwarding app) and the §5.2 stateful chain Router → NAPT → LB.
//! * **The testbed** ([`runtime`]): LoadGen → DuT → LoadGen, reproducing
//!   the measurement methodology of Fig. 11 — constant-rate arrivals,
//!   per-core run-to-completion polling with descriptor-limited queues,
//!   end-to-end latency per packet with the loopback component separated
//!   out.

//! # Examples
//!
//! A minimal experiment: 64 B packets at low rate through the simple
//! forwarding app, stock DPDK vs CacheDirector:
//!
//! ```
//! use nfv::runtime::{run_experiment, ChainSpec, HeadroomMode, RunConfig, SteeringKind};
//! use trafficgen::{ArrivalSchedule, CampusTrace};
//!
//! let mut cfg = RunConfig::paper_defaults(
//!     ChainSpec::MacSwap,
//!     SteeringKind::Rss,
//!     HeadroomMode::CacheDirector { preferred_slices: 1 },
//! );
//! cfg.cores = 2;
//! cfg.queue_depth = 64;
//! cfg.mbufs = 512;
//! let mut trace = CampusTrace::fixed_size(64, 16, 1);
//! let mut sched = ArrivalSchedule::constant_pps(1000.0);
//! let res = run_experiment(cfg, &mut trace, &mut sched, 200).expect("config fits");
//! assert_eq!(res.delivered, 200);
//! let p99 = res.summary().unwrap().percentile(99.0);
//! assert!(p99 > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod element;
pub mod elements;
pub mod lpm;
pub mod packet;
pub mod pipeline;
pub mod runtime;
pub mod table;

pub use element::{Action, Ctx, Element, ServiceChain};
pub use runtime::{HeadroomMode, RunConfig, RunResult};
