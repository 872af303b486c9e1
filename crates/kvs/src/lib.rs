//! An emulated in-memory key-value store with slice-aware value
//! placement (paper §3.1, Fig. 8).
//!
//! The paper's KVS experiment: a DPDK application on **one core** serves
//! GET/SET requests for 64 B keys and 64 B values arriving in 128 B TCP
//! packets; values are `2^24` slots (1 GB); keys are drawn either
//! uniformly or Zipf(0.99) "using MICA's library". Slice-aware mode
//! allocates every value slot from memory mapping to the serving core's
//! closest LLC slice, so the *hot* values — the ones that stay cached —
//! are always reached at minimum latency.
//!
//! Like the paper's, this is an *emulated* store: the index is a direct
//! key→slot array (no hashing/versioning/eviction machinery), which the
//! paper lists among its §8 caveats. The index array itself lives in
//! simulated memory and is allocated normally in both modes — only value
//! placement differs, isolating the effect under study.

//! # Examples
//!
//! ```
//! use kvs::store::{KvStore, Placement};
//! use llc_sim::hash::{SliceHash, XorSliceHash};
//! use llc_sim::machine::{Machine, MachineConfig};
//! use slice_aware::alloc::SliceAllocator;
//!
//! let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3());
//! let region = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
//! let h = XorSliceHash::haswell_8slice();
//! let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
//! let closest = m.closest_slice(0);
//! let mut kv = KvStore::build(
//!     &mut m,
//!     &mut alloc,
//!     1024,
//!     Placement::SliceAware { slice: closest },
//! )
//! .unwrap();
//! kv.set(&mut m, 0, 42, &[7u8; 64]);
//! let mut out = [0u8; 64];
//! kv.get(&mut m, 0, 42, &mut out);
//! assert_eq!(out, [7u8; 64]);
//! // Every value line really is in core 0's closest slice.
//! let pa = kv.value_pa(&mut m, 42);
//! assert_eq!(m.slice_of(pa), closest);
//! ```

#![forbid(unsafe_code)]

pub mod large;
pub mod migrate;
pub mod openloop;
pub mod proto;
pub mod server;
pub mod store;

pub use large::{LargeKvStore, LargePlacement};
pub use migrate::{CostModel, HotMigrator, MigrateError, MigrationPolicy, MigrationReport};
pub use openloop::{
    run_openloop, run_openloop_streaming, CompletionSink, OpenLoopConfig, OpenLoopReport,
};
pub use proto::{KvOp, KvRequest};
pub use server::{run_server, MigrationMode, ServerConfig, ServerReport};
pub use store::{KvStore, Placement, SwapError};
