#![warn(missing_docs)]

//! # iawj-obs
//!
//! The study's observability layer — the instrumentation behind the paper's
//! decomposed measurements (§5.3 time breakdown, per-phase attribution,
//! CPU-utilisation timelines), made first-class:
//!
//! - [`SpanJournal`] — a low-overhead per-worker journal of `(name,
//!   begin_ns, end_ns)` span events plus instant marks (barrier releases,
//!   merge-pass boundaries, window flushes). Ring-buffered over a
//!   preallocated buffer; a disabled journal allocates nothing and every
//!   record call is a single predictable branch.
//! - [`LogHistogram`] — an HDR-style log-bucketed histogram with ≤ 1%
//!   relative error, mergeable across workers, so latency quantiles are
//!   computed over *every* match instead of a sampled subset.
//! - [`chrome_trace`] — Chrome Trace Event Format export (open the file in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) to see one
//!   timeline lane per worker).
//! - [`json`] — a dependency-free JSON writer/parser used by the exporters
//!   and their tests.
//! - [`report`] — the human-readable Figure-7-style phase breakdown table.
//! - [`perf`] — hardware performance counters via raw `perf_event_open`
//!   syscalls (cycles, instructions, cache/TLB misses, branch mispredicts)
//!   with graceful degradation wherever the kernel refuses.
//! - [`snapshot`] — the versioned `BENCH_<fig>.json` benchmark-snapshot
//!   schema: the repo's machine-readable perf trajectory.
//! - [`diff`] — snapshot comparison with regression thresholds, backing
//!   the `iawj bench-diff` subcommand.
//! - [`stream`] — the per-interval metrics tick emitted by the continuous
//!   streaming join service (`iawj serve`).
//!
//! This crate is deliberately dependency-free (it sits below `iawj-common`
//! so the match sink can embed a histogram).

pub mod chrome;
pub mod diff;
pub mod hist;
pub mod journal;
pub mod json;
pub mod perf;
pub mod report;
pub mod snapshot;
pub mod stream;

pub use chrome::{chrome_trace, chrome_trace_with_cores};
pub use diff::{diff, DiffReport, DiffThresholds, RunDiff, Verdict};
pub use hist::LogHistogram;
pub use journal::{
    Mark, Span, SpanJournal, MARK_EXEC_DISPATCH, MARK_EXEC_PARK, MARK_EXEC_UNPINNED,
    MARK_INDEX_EVICT, MARK_INDEX_INSERT, MARK_INDEX_REPART, MARK_LATCH_WAIT,
    MARK_STREAM_BACKPRESSURE, MARK_STREAM_CLOSE, MARK_STREAM_INGEST, MARK_STREAM_LATE,
};
pub use perf::{CounterDelta, CounterSource, PerfError, PerfSampler, COUNTER_NAMES, N_COUNTERS};
pub use report::{breakdown_table, PhaseRow};
pub use snapshot::{BenchSnapshot, CachesimPerTuple, PhaseSnapshot, RunSnapshot, SCHEMA_VERSION};
pub use stream::StreamTick;
