#![warn(missing_docs)]

//! Shared foundations of the intra-window-join (IaWJ) study.
//!
//! This crate defines the data model of the paper's §2 — tuples, streams, and
//! time-based windows — together with the deterministic random-number and
//! Zipf-distribution machinery every workload generator is built on, and the
//! integer hash function shared by all hash-based join algorithms.
//!
//! Everything here is dependency-free and deterministic: two runs with the
//! same seed produce byte-identical streams, which is what makes the
//! correctness tests of the eight join algorithms meaningful.

pub mod arena;
pub mod hash;
pub mod kernel;
pub mod phase;
pub mod quantile;
pub mod rate;
pub mod rng;
pub mod sink;
pub mod spsc;
pub mod tuple;
pub mod window;
pub mod zipf;

pub use arena::ChunkedVec;
pub use hash::hash_key;
pub use kernel::{prefetch_read, KernelBackend, DEFAULT_PREFETCH_DIST};
pub use phase::{Phase, PhaseBreakdown, PhaseCounters, PHASES};
pub use quantile::P2Quantile;
pub use rate::Rate;
pub use rng::Rng;
pub use sink::{CollectingSink, CountingSink, MatchRecord, Sink};
pub use spsc::{stream_channel, RecvError, StreamReceiver, StreamSender};
pub use tuple::{Key, Ts, Tuple};
pub use window::Window;
pub use zipf::Zipf;
