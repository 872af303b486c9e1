//! Workload generation: skewed key distributions, a synthetic campus
//! trace, and packet arrival schedules.
//!
//! The paper's evaluation drives its systems with three workload sources,
//! all reproduced here:
//!
//! * **Zipf-distributed keys** ([`zipf`]): the KVS experiment (Fig. 8)
//!   "used MICA's library to generate skewed (0.99) keys" — MICA in turn
//!   uses the Gray et al. SIGMOD '94 method, implemented in
//!   [`zipf::ZipfGen`].
//! * **A campus packet trace** ([`trace`]): the NFV experiments replay a
//!   real campus trace whose published shape is "26.9 % of frames smaller
//!   than 100 B; 11.8 % between 100 & 500 B; the remaining more than
//!   500 B" (§5). [`trace::CampusTrace`] synthesises a deterministic
//!   trace with that size mix over a realistic flow population, since the
//!   original capture is not redistributable (see DESIGN.md §2).
//! * **Arrival schedules** ([`arrival`]): constant-rate packet pacing at a
//!   given pps or Gbps on the wire, used by the load generator (§5,
//!   Table 2).
//! * **Open-loop generators** ([`openloop`]): Poisson arrivals, burst
//!   trains and phase-shifting rate profiles (ramps, flash crowds) that
//!   keep sending regardless of what the server absorbs — the load
//!   source for the overload/knee studies.
//! * **Phase-shifting key generators** ([`phase`]): non-stationary key
//!   distributions — Zipf hot-set churn, diurnal rotation, flash-crowd
//!   hot keys — indexed by draw count so they compose with any arrival
//!   process or fault plan. The workload source for the §8 hot-set
//!   migration churn studies.
//! * **Trace replay** ([`replay`]): a v2 tracefile records per-packet
//!   `arrival_ns` ([`tracefile`]); [`replay::TraceReplay`] feeds that
//!   timestamp column back through the [`arrival::Arrivals`] trait, so
//!   recorded or synthesized traces drive the open-loop run loops with
//!   their original inter-arrival structure.

#![forbid(unsafe_code)]

pub mod arrival;
pub mod flow;
pub mod openloop;
pub mod phase;
pub mod replay;
pub mod rng;
pub mod trace;
pub mod tracefile;
pub mod zipf;

pub use arrival::{gbps_to_pps, ArrivalSchedule, Arrivals};
pub use flow::FlowTuple;
pub use openloop::{OpenLoopGen, RateProfile};
pub use phase::{FlashCrowd, Phase, PhaseGen, PhaseSchedule};
pub use replay::TraceReplay;
pub use rng::Rng64;
pub use trace::{CampusTrace, PacketSpec, SizeMix};
pub use tracefile::TimedPacket;
pub use zipf::{ZipfConstants, ZipfGen};
