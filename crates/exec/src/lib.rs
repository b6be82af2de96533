#![warn(missing_docs)]

//! Parallel runtime and shared join kernels.
//!
//! Every algorithm in the study is assembled from the primitives in this
//! crate, mirroring how the paper's codebase reuses Balkesen et al.'s kernels
//! across all eight algorithms (§4.2.2):
//!
//! - [`pool`] — scoped worker threads and barriers (the pthread harness).
//! - [`executor`] — the persistent worker-pool executor: parked, named,
//!   optionally pinned workers reused across runs and window closes, with
//!   the exact `run_workers` contract.
//! - [`topology`] — affinity-mask and CPU-topology discovery (SMT
//!   siblings, NUMA nodes) plus the `compact`/`scatter` placement plans
//!   and raw `sched_setaffinity` pinning, all dependency-free.
//! - [`timer`] — per-thread phase timers; wall time stands in for RDTSC and
//!   is converted to cycles at the nominal 2.6 GHz of the paper's machine.
//! - [`radix`] — histogram-based radix partitioning, sequential and
//!   parallel (the PRJ substrate, also used by the Figure 18 sweep).
//! - [`sort`] — the two sort backends: a deliberately branchy scalar
//!   mergesort and a branchless, auto-vectorizable sorting-network variant
//!   standing in for the original AVX `avxsort` (Figure 21).
//! - [`merge`] — k-way (MWay) and successive pairwise (MPass) merging.
//! - [`mergejoin`] — the duplicate-aware sorted-merge join kernel, plus the
//!   run-provenance variant PMJ's merge phase needs.
//! - [`hashtable`] — NPJ's per-bucket latched shared table, PRJ's
//!   thread-local chained table and SHJ's single-owner cache-line bucket
//!   tables.
//! - [`window_index`] — the evictable hash index over resident window
//!   content that backs the IBWJ engine family, on `BucketTable`'s lines.

pub mod executor;
pub mod hashtable;
pub mod latch;
pub mod merge;
pub mod mergejoin;
pub mod pool;
pub mod radix;
pub mod sort;
pub mod timer;
pub mod topology;
pub mod window_index;

pub use executor::Executor;
pub use hashtable::{BucketTable, LocalTable, SharedTable};
pub use latch::Latch;
pub use pool::run_workers;
pub use sort::SortBackend;
pub use timer::{
    cpu_clock, ns_to_cycles, ClockSource, CpuClock, PhaseTimer, TimerParts, NOMINAL_GHZ,
};
pub use topology::{affinity_core_count, affinity_mask, CoreInfo, CpuSet, PinPolicy, Topology};
pub use window_index::WindowIndex;
