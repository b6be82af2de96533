//! The eager join approach (§3.2): stream join engines driven by a gated
//! per-worker pull loop.
//!
//! Every eager worker owns two [`View`]s (its slice of R and S under the
//! distribution scheme) and one [`Engine`] (SHJ or PMJ state). The loop
//! alternates pulling available batches from both views — when one stream
//! has nothing available the worker reads from the other, and when neither
//! does it stalls (the Wait phase), exactly the behaviour §4.2.2 describes.
//!
//! Work distribution note: engines driven by this loop (SHJ, PMJ, hybrid,
//! and IBWJ's key-ownership workers) never hand work between workers. The
//! distribution schemes are ownership contracts — a JB worker's state only
//! joins tuples of its key classes, a JM worker covers a fixed matrix cell
//! — so migrating a pulled tuple to another worker would silently drop its
//! matches. Dynamic rebalancing for eager engines means re-partitioning
//! (PanJoin-style, as IBWJ_PART does between epochs).

pub mod handshake;
pub mod hybrid;
pub mod pmj;
pub mod shj;

use crate::clock::EventClock;
use crate::config::RunConfig;
use crate::distribute::{Take, View};
use crate::lazy::EmitClock;
use crate::output::WorkerOut;
use iawj_common::{Phase, Tuple};
use iawj_exec::PhaseTimer;
use std::time::Duration;

/// Tuples pulled per batch. Small enough that availability is checked with
/// fine granularity, large enough to amortise the phase-timer switches.
pub const BATCH: usize = 64;

/// A per-worker eager join engine.
pub trait Engine {
    /// Process a batch of newly arrived R tuples.
    fn on_r(
        &mut self,
        batch: &[Tuple],
        timer: &mut PhaseTimer,
        emit: &mut EmitClock<'_>,
        out: &mut WorkerOut,
    );

    /// Process a batch of newly arrived S tuples.
    fn on_s(
        &mut self,
        batch: &[Tuple],
        timer: &mut PhaseTimer,
        emit: &mut EmitClock<'_>,
        out: &mut WorkerOut,
    );

    /// Both streams are exhausted: flush any remaining work (PMJ's final
    /// sort + merge phase; a no-op for SHJ).
    fn finish(&mut self, timer: &mut PhaseTimer, emit: &mut EmitClock<'_>, out: &mut WorkerOut);

    /// Bytes of state this engine currently holds (Figure 19b gauge).
    fn state_bytes(&self) -> usize;
}

/// Drive one eager worker to completion: pull, process, stall, repeat.
pub fn drive_worker<E: Engine>(
    mut engine: E,
    mut r_view: View<'_>,
    mut s_view: View<'_>,
    cfg: &RunConfig,
    clock: &EventClock,
) -> WorkerOut {
    let mut out = WorkerOut::new(cfg.sample_every);
    let mut timer = cfg.timer_for(Phase::Other, clock.epoch());
    let mut emit = EmitClock::new(clock);
    let mut r_batch: Vec<Tuple> = Vec::with_capacity(BATCH);
    let mut s_batch: Vec<Tuple> = Vec::with_capacity(BATCH);
    // Physical partitioning (Figure 17): retain value copies of every
    // dispatched tuple in worker-local buffers.
    let mut retained: Vec<Tuple> = Vec::new();
    let physical = cfg.jm.physical_partition;
    let mut processed_since_sample = 0usize;

    loop {
        timer.switch_to(Phase::Partition);
        r_batch.clear();
        let r_take = r_view.take_batch(clock, BATCH, &mut r_batch);
        s_batch.clear();
        let s_take = s_view.take_batch(clock, BATCH, &mut s_batch);
        if physical {
            retained.extend_from_slice(&r_batch);
            retained.extend_from_slice(&s_batch);
        }

        if !r_batch.is_empty() || !s_batch.is_empty() {
            // The emit clock caches between reads; a worker coming out of a
            // stall would otherwise stamp matches with pre-stall time.
            emit.refresh();
        }
        if !r_batch.is_empty() {
            engine.on_r(&r_batch, &mut timer, &mut emit, &mut out);
        }
        if !s_batch.is_empty() {
            engine.on_s(&s_batch, &mut timer, &mut emit, &mut out);
        }
        processed_since_sample += r_batch.len() + s_batch.len();

        if cfg.mem_sample_every > 0 && processed_since_sample >= cfg.mem_sample_every {
            processed_since_sample = 0;
            let bytes = engine.state_bytes()
                + r_view.log_bytes()
                + s_view.log_bytes()
                + retained.capacity() * std::mem::size_of::<Tuple>();
            out.mem_samples.push((clock.now_ms(), bytes));
        }

        match (r_take, s_take) {
            (Take::Exhausted, Take::Exhausted) => break,
            (Take::Got(_), _) | (_, Take::Got(_)) => {}
            _ => {
                // Neither stream has an arrived tuple: stall until one does.
                if timer.current() != Phase::Wait {
                    timer.instant("stall");
                }
                timer.switch_to(Phase::Wait);
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
    timer.instant("flush");
    engine.finish(&mut timer, &mut emit, &mut out);
    if cfg.mem_sample_every > 0 {
        let bytes = engine.state_bytes()
            + r_view.log_bytes()
            + s_view.log_bytes()
            + retained.capacity() * std::mem::size_of::<Tuple>();
        out.mem_samples.push((clock.now_ms(), bytes));
    }
    out.set_timing(timer.finish_parts());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counting engine for loop-behaviour tests.
    struct CountEngine {
        r: usize,
        s: usize,
        finished: bool,
    }

    impl Engine for CountEngine {
        fn on_r(
            &mut self,
            batch: &[Tuple],
            _t: &mut PhaseTimer,
            _e: &mut EmitClock<'_>,
            _o: &mut WorkerOut,
        ) {
            self.r += batch.len();
        }
        fn on_s(
            &mut self,
            batch: &[Tuple],
            _t: &mut PhaseTimer,
            _e: &mut EmitClock<'_>,
            out: &mut WorkerOut,
        ) {
            self.s += batch.len();
            out.sink.push(0, 0, 0, 1.0);
        }
        fn finish(&mut self, _t: &mut PhaseTimer, _e: &mut EmitClock<'_>, _o: &mut WorkerOut) {
            self.finished = true;
        }
        fn state_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn drives_both_streams_to_exhaustion() {
        let r: Vec<Tuple> = (0..200).map(|i| Tuple::new(i, 0)).collect();
        let s: Vec<Tuple> = (0..300).map(|i| Tuple::new(i, 0)).collect();
        let clock = EventClock::ungated();
        let cfg = RunConfig::with_threads(1);
        let rv = View::strided(&r, 0, 1);
        let sv = View::strided(&s, 0, 1);
        let out = drive_worker(
            CountEngine {
                r: 0,
                s: 0,
                finished: false,
            },
            rv,
            sv,
            &cfg,
            &clock,
        );
        assert!(out.sink.count() > 0);
        assert!(out.breakdown.total_ns() > 0);
    }

    #[test]
    fn stalls_then_completes_under_gating() {
        // Tuples arrive at 0 and ~30 stream-ms; with 10x speedup that is
        // 3 ms of real waiting in between.
        let r = vec![Tuple::new(1, 0), Tuple::new(2, 30)];
        let s = vec![Tuple::new(3, 0), Tuple::new(4, 30)];
        let clock = EventClock::start(10.0, true);
        let cfg = RunConfig::with_threads(1);
        let rv = View::strided(&r, 0, 1);
        let sv = View::strided(&s, 0, 1);
        let out = drive_worker(
            CountEngine {
                r: 0,
                s: 0,
                finished: false,
            },
            rv,
            sv,
            &cfg,
            &clock,
        );
        assert!(
            out.breakdown[Phase::Wait] > 0,
            "worker must have stalled waiting for the 30 ms tuples"
        );
    }

    #[test]
    fn physical_partitioning_retains_copies() {
        let r: Vec<Tuple> = (0..100).map(|i| Tuple::new(i, 0)).collect();
        let s: Vec<Tuple> = Vec::new();
        let clock = EventClock::ungated();
        let mut cfg = RunConfig::with_threads(1);
        cfg.jm.physical_partition = true;
        cfg.mem_sample_every = 10;
        let rv = View::strided(&r, 0, 1);
        let sv = View::strided(&s, 0, 1);
        let out = drive_worker(
            CountEngine {
                r: 0,
                s: 0,
                finished: false,
            },
            rv,
            sv,
            &cfg,
            &clock,
        );
        let last_bytes = out.mem_samples.last().expect("final mem sample").1;
        assert!(
            last_bytes >= 100 * 8,
            "retained buffer must be accounted: {last_bytes}"
        );
    }
}
