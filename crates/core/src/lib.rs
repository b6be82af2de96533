#![warn(missing_docs)]

//! The intra-window join (IaWJ) algorithms of the study.
//!
//! Eight algorithms span the design space of Table 2 — execution approach
//! (lazy / eager) × join method (hash / sort) × partitioning scheme:
//!
//! | Name     | Approach | Method | Partitioning                        |
//! |----------|----------|--------|-------------------------------------|
//! | NPJ      | lazy     | hash   | none (shared table)                 |
//! | PRJ      | lazy     | hash   | cache-aware radix replication       |
//! | MWay     | lazy     | sort   | equisized range partitioning        |
//! | MPass    | lazy     | sort   | equisized range partitioning        |
//! | SHJ^JM   | eager    | hash   | join-matrix (content-insensitive)   |
//! | SHJ^JB   | eager    | hash   | join-biclique (content-sensitive)   |
//! | PMJ^JM   | eager    | sort   | join-matrix                         |
//! | PMJ^JB   | eager    | sort   | join-biclique                       |
//!
//! plus the handshake-join strawman the paper's §6 uses for validation.
//!
//! The [`runner`] executes any of them over a [`iawj_datagen::Dataset`]
//! under a [`config::RunConfig`], gating tuple availability with the
//! [`clock::EventClock`], and returns a [`output::RunResult`] carrying the
//! three §4.1 metrics (throughput, quantile latency, progressiveness) plus
//! the §5.3 six-phase time breakdown and a memory-consumption trace.
//! [`decision`] implements the Figure 4 decision tree, and [`trace`] runs
//! the cache-simulated profiles behind Figure 8, Table 5 and Figure 19a.

pub mod adaptive;
pub mod algo;
pub mod clock;
pub mod config;
pub mod decision;
pub mod distribute;
pub mod eager;
pub mod index;
pub mod lazy;
mod ledger;
pub mod metrics;
pub mod output;
pub mod reference;
pub mod runner;
pub mod streaming;
pub mod trace;
pub mod windowing;

pub use algo::Algorithm;
pub use clock::EventClock;
pub use config::{ExecConfig, IndexConfig, RunConfig};
pub use iawj_exec::{Executor, PinPolicy};
pub use output::RunResult;
pub use runner::{execute, execute_on};
pub use streaming::{run_replay, ClosedWindow, StreamConfig, StreamReport, StreamingJoin};
