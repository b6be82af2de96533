//! A hybrid eager/lazy engine — the paper's §5.2 closing observation made
//! concrete: *"an interesting future research area to explore how to
//! orchestrate both approaches to achieve optimal progressiveness at all
//! time"*.
//!
//! Under light load the engine behaves exactly like SHJ — matches stream
//! out the moment both sides have arrived. When a pull delivers a *full*
//! batch (the dispatcher is saturated and per-tuple probing is falling
//! behind, the regime where §5.3.1 shows eager hashing thrashes), the
//! batch is deferred to a backlog instead. Once the backlog reaches
//! `flush_at` tuples — or input ends — it is joined in *bulk*: one sorted
//! merge-join for backlog×backlog plus one sequential probe pass per side
//! against the live tables, after which the backlog is folded into the
//! tables and the engine is eager again. Bursts are absorbed lazily,
//! steady trickles stay eager.
//!
//! Exactly-once argument: a tuple is either *eager* (processed through
//! SHJ) or *backlogged until flush F*. For a pair (r, s):
//! - both eager → classic SHJ exactness;
//! - r backlogged in F, s eager or flushed before F → r probes the S table
//!   during F, which contains s (and not vice versa: when s was processed,
//!   r was not yet in the R table);
//! - both in the same flush → the backlog×backlog merge join (tables do
//!   not yet contain either);
//! - s backlogged in a later flush F′ → s finds r then (r was folded in at
//!   F).
//!
//! Each pair is produced by exactly one of these steps.

use crate::eager::shj::ShjEngine;
use crate::eager::Engine;
use crate::lazy::EmitClock;
use crate::output::WorkerOut;
use iawj_common::{Phase, Sink, Tuple};
use iawj_exec::mergejoin::merge_join;
use iawj_exec::sort::{sort_packed, SortBackend};
use iawj_exec::PhaseTimer;

/// Per-worker hybrid state: an SHJ core plus a flushable backlog.
pub struct HybridEngine {
    shj: ShjEngine,
    r_backlog: Vec<Tuple>,
    s_backlog: Vec<Tuple>,
    /// A single `on_*` batch at least this full is deferred.
    defer_at_batch: usize,
    /// Combined backlog size that triggers a mid-stream bulk flush.
    flush_at: usize,
    sort: SortBackend,
    flushes: usize,
}

impl HybridEngine {
    /// Engine sized like [`ShjEngine`]. `defer_at_batch` is the saturation
    /// heuristic (`usize::MAX` disables deferral → pure SHJ); the backlog
    /// is bulk-joined every `16 × defer_at_batch` tuples or at end of
    /// input, whichever comes first.
    pub fn new(
        expected_r: usize,
        expected_s: usize,
        defer_at_batch: usize,
        sort: SortBackend,
    ) -> Self {
        HybridEngine {
            shj: ShjEngine::new(expected_r, expected_s),
            r_backlog: Vec::new(),
            s_backlog: Vec::new(),
            defer_at_batch: defer_at_batch.max(1),
            flush_at: defer_at_batch.saturating_mul(16).max(1024),
            sort,
            flushes: 0,
        }
    }

    /// How many tuples are currently deferred (diagnostics).
    pub fn backlog_len(&self) -> usize {
        self.r_backlog.len() + self.s_backlog.len()
    }

    /// Bulk flushes performed so far (diagnostics).
    pub fn flushes(&self) -> usize {
        self.flushes
    }

    /// Bulk-join and fold in the backlog.
    fn flush(&mut self, timer: &mut PhaseTimer, emit: &mut EmitClock<'_>, out: &mut WorkerOut) {
        if self.r_backlog.is_empty() && self.s_backlog.is_empty() {
            return;
        }
        self.flushes += 1;
        // Backlog × backlog: one sorted merge join.
        timer.switch_to(Phase::BuildSort);
        let mut r_sorted: Vec<u64> = self.r_backlog.iter().map(|t| t.pack()).collect();
        sort_packed(&mut r_sorted, self.sort);
        let mut s_sorted: Vec<u64> = self.s_backlog.iter().map(|t| t.pack()).collect();
        sort_packed(&mut s_sorted, self.sort);
        timer.switch_to(Phase::Probe);
        let mut local_now = emit.refresh();
        let mut n = 0u32;
        merge_join(&r_sorted, &s_sorted, |k, rts, sts| {
            n += 1;
            if n.is_multiple_of(32) {
                local_now = emit.now();
            }
            out.sink.push(k, rts, sts, local_now);
        });
        // Backlog × the eagerly-built tables (one sequential pass per side).
        for t in &self.r_backlog {
            let now = emit.now();
            self.shj
                .s_table()
                .probe(t.key, |s_ts| out.sink.push(t.key, t.ts, s_ts, now));
        }
        for t in &self.s_backlog {
            let now = emit.now();
            self.shj
                .r_table()
                .probe(t.key, |r_ts| out.sink.push(t.key, r_ts, t.ts, now));
        }
        // Fold the backlog into the tables so later arrivals find it.
        timer.switch_to(Phase::BuildSort);
        self.shj.insert_r_bulk(&self.r_backlog);
        self.shj.insert_s_bulk(&self.s_backlog);
        self.r_backlog.clear();
        self.s_backlog.clear();
    }
}

impl Engine for HybridEngine {
    fn on_r(
        &mut self,
        batch: &[Tuple],
        timer: &mut PhaseTimer,
        emit: &mut EmitClock<'_>,
        out: &mut WorkerOut,
    ) {
        if batch.len() >= self.defer_at_batch {
            timer.switch_to(Phase::Partition);
            self.r_backlog.extend_from_slice(batch);
            if self.backlog_len() >= self.flush_at {
                self.flush(timer, emit, out);
            }
        } else {
            self.shj.on_r(batch, timer, emit, out);
        }
    }

    fn on_s(
        &mut self,
        batch: &[Tuple],
        timer: &mut PhaseTimer,
        emit: &mut EmitClock<'_>,
        out: &mut WorkerOut,
    ) {
        if batch.len() >= self.defer_at_batch {
            timer.switch_to(Phase::Partition);
            self.s_backlog.extend_from_slice(batch);
            if self.backlog_len() >= self.flush_at {
                self.flush(timer, emit, out);
            }
        } else {
            self.shj.on_s(batch, timer, emit, out);
        }
    }

    fn finish(&mut self, timer: &mut PhaseTimer, emit: &mut EmitClock<'_>, out: &mut WorkerOut) {
        self.shj.finish(timer, emit, out);
        self.flush(timer, emit, out);
    }

    fn state_bytes(&self) -> usize {
        self.shj.state_bytes()
            + (self.r_backlog.capacity() + self.s_backlog.capacity()) * std::mem::size_of::<Tuple>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::EventClock;
    use crate::config::RunConfig;
    use crate::distribute::View;
    use crate::eager::drive_worker;
    use crate::reference::nested_loop_join;
    use iawj_common::{Rng, Window};

    fn random_stream(n: usize, keys: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|i| Tuple::new(rng.next_u32() % keys, (i % 64) as u32))
            .collect()
    }

    fn run_single(r: &[Tuple], s: &[Tuple], defer_at: usize) -> Vec<(u32, u32, u32)> {
        let clock = EventClock::ungated();
        let cfg = RunConfig::with_threads(1).record_all();
        let engine = HybridEngine::new(r.len(), s.len(), defer_at, SortBackend::Vectorized);
        let out = drive_worker(
            engine,
            View::strided(r, 0, 1),
            View::strided(s, 0, 1),
            &cfg,
            &clock,
        );
        let mut got: Vec<_> = out
            .sink
            .samples
            .iter()
            .map(|m| (m.key, m.r_ts, m.s_ts))
            .collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn pure_eager_mode_matches_reference() {
        let r = random_stream(400, 32, 1);
        let s = random_stream(500, 32, 2);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        assert_eq!(run_single(&r, &s, usize::MAX), expect);
    }

    #[test]
    fn always_deferring_matches_reference() {
        // defer_at = 1: every batch is backlogged; multiple mid-stream
        // flushes exercise the fold-in path.
        let r = random_stream(3000, 32, 3);
        let s = random_stream(3000, 32, 4);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        assert_eq!(run_single(&r, &s, 1), expect);
    }

    #[test]
    fn mixed_mode_exactly_once() {
        // Ungated pulls come in full batches (64) except the tails, so a
        // threshold of 64 routes most tuples through the backlog and the
        // tails through SHJ — every pair class is exercised.
        let r = random_stream(1000, 16, 5);
        let s = random_stream(1000, 16, 6);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        assert_eq!(run_single(&r, &s, 64), expect);
    }

    #[test]
    fn mid_stream_flushes_happen() {
        let r = random_stream(40_000, 64, 7);
        let s = random_stream(40_000, 64, 8);
        let clock = EventClock::ungated();
        let cfg = RunConfig::with_threads(1);
        let mut engine = HybridEngine::new(r.len(), s.len(), 64, SortBackend::Vectorized);
        // Drive by hand so we can inspect the engine afterwards.
        let mut timer = iawj_exec::PhaseTimer::start(Phase::Other);
        let mut emit = crate::lazy::EmitClock::new(&clock);
        let mut out = WorkerOut::new(cfg.sample_every);
        for chunk in r.chunks(64) {
            engine.on_r(chunk, &mut timer, &mut emit, &mut out);
        }
        for chunk in s.chunks(64) {
            engine.on_s(chunk, &mut timer, &mut emit, &mut out);
        }
        assert!(
            engine.flushes() > 1,
            "expected mid-stream flushes, got {}",
            engine.flushes()
        );
        engine.finish(&mut timer, &mut emit, &mut out);
        assert_eq!(engine.backlog_len(), 0);
        let expect = crate::reference::match_count(&r, &s, Window::of_len(64));
        assert_eq!(out.sink.count(), expect);
    }

    #[test]
    fn backlog_threshold_behaviour() {
        let mut e = HybridEngine::new(8, 8, 2, SortBackend::Scalar);
        let clock = EventClock::ungated();
        let mut emit = EmitClock::new(&clock);
        let mut timer = PhaseTimer::start(Phase::Other);
        let mut out = WorkerOut::new(1);
        e.on_r(&[Tuple::new(1, 0)], &mut timer, &mut emit, &mut out);
        assert_eq!(e.backlog_len(), 0, "below threshold stays eager");
        e.on_r(
            &[Tuple::new(1, 1), Tuple::new(1, 2)],
            &mut timer,
            &mut emit,
            &mut out,
        );
        assert_eq!(e.backlog_len(), 2, "threshold batch defers");
        e.on_s(&[Tuple::new(1, 3)], &mut timer, &mut emit, &mut out);
        assert_eq!(e.backlog_len(), 2, "small batches stay eager (not sticky)");
        // s@3 probed the r_table eagerly: only r@0 is there -> 1 match.
        assert_eq!(out.sink.count(), 1);
        e.finish(&mut timer, &mut emit, &mut out);
        assert_eq!(e.backlog_len(), 0);
        // Flush adds r@1,r@2 x s@3 via the s_table probe... r backlog
        // probes s_table which holds s@3 -> 2 more matches. Total 3.
        assert_eq!(out.sink.count(), 3);
    }
}
