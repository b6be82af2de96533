//! Progressive Merge Join (PMJ), after Dittrich et al., with the paper's
//! modernisation (§3.2.1): the sorting step is controlled by a parameter δ
//! (a fraction of the expected input) instead of the physical memory limit,
//! and runs live in main memory rather than on disk.
//!
//! Initial phase: accumulate δ-sized loads from both streams, sort each
//! into a run pair, and immediately scan-join the new pair. Merge phase (at
//! end of input): merge all runs of each stream with run provenance and
//! join *across* runs, skipping same-run pairs the initial phase already
//! produced.

use crate::eager::Engine;
use crate::lazy::EmitClock;
use crate::output::WorkerOut;
use iawj_common::{Phase, Sink, Tuple};
use iawj_exec::merge::kway_merge_tagged;
use iawj_exec::mergejoin::{merge_join, merge_join_cross_runs};
use iawj_exec::sort::{sort_packed, SortBackend};
use iawj_exec::PhaseTimer;

/// Per-worker PMJ state.
pub struct PmjEngine {
    /// Tuples per run (δ × expected per-worker input), at least 16.
    run_size: usize,
    sort: SortBackend,
    /// Cross-join new runs against old ones immediately (progressive
    /// merging) instead of one final merge phase.
    eager_merge: bool,
    r_pending: Vec<u64>,
    s_pending: Vec<u64>,
    r_runs: Vec<Vec<u64>>,
    s_runs: Vec<Vec<u64>>,
}

impl PmjEngine {
    /// Engine producing runs of `delta × expected` tuples, with the final
    /// merge phase (the paper's configuration).
    pub fn new(expected_per_stream: usize, delta: f64, sort: SortBackend) -> Self {
        Self::with_eager_merge(expected_per_stream, delta, sort, false)
    }

    /// Engine with progressive (per-run) cross merging when `eager_merge`.
    pub fn with_eager_merge(
        expected_per_stream: usize,
        delta: f64,
        sort: SortBackend,
        eager_merge: bool,
    ) -> Self {
        let run_size = ((expected_per_stream as f64 * delta).ceil() as usize).max(16);
        PmjEngine {
            run_size,
            sort,
            eager_merge,
            r_pending: Vec::new(),
            s_pending: Vec::new(),
            r_runs: Vec::new(),
            s_runs: Vec::new(),
        }
    }

    /// The configured tuples-per-run.
    pub fn run_size(&self) -> usize {
        self.run_size
    }

    /// Close the current load: sort both pending buffers into a run pair,
    /// join the pair, and shelve the runs for the merge phase.
    fn step(&mut self, timer: &mut PhaseTimer, emit: &mut EmitClock<'_>, out: &mut WorkerOut) {
        if self.r_pending.is_empty() && self.s_pending.is_empty() {
            return;
        }
        timer.switch_to(Phase::BuildSort);
        let mut r_run = std::mem::take(&mut self.r_pending);
        sort_packed(&mut r_run, self.sort);
        let mut s_run = std::mem::take(&mut self.s_pending);
        sort_packed(&mut s_run, self.sort);

        timer.switch_to(Phase::Probe);
        let now = emit.refresh();
        let mut local_now = now;
        let mut n = 0u32;
        merge_join(&r_run, &s_run, |k, rts, sts| {
            n += 1;
            if n.is_multiple_of(32) {
                local_now = emit.now();
            }
            out.sink.push(k, rts, sts, local_now);
        });
        if self.eager_merge {
            // Progressive merging: join the new runs against every earlier
            // run of the opposite stream right now. Pair (i, j) with i != j
            // is produced exactly when max(i, j)'s run closes.
            timer.switch_to(Phase::Merge);
            let mut local_now = emit.refresh();
            let mut n = 0u32;
            let mut sink_match = |k, rts, sts| {
                n += 1;
                if n.is_multiple_of(32) {
                    local_now = emit.now();
                }
                out.sink.push(k, rts, sts, local_now);
            };
            for old_s in &self.s_runs {
                merge_join(&r_run, old_s, &mut sink_match);
            }
            for old_r in &self.r_runs {
                merge_join(old_r, &s_run, &mut sink_match);
            }
        }
        self.r_runs.push(r_run);
        self.s_runs.push(s_run);
    }

    /// A load is complete when either side has gathered a full run — the
    /// stand-in for "reading input until memory is full" in the original.
    fn load_full(&self) -> bool {
        self.r_pending.len() >= self.run_size || self.s_pending.len() >= self.run_size
    }
}

impl Engine for PmjEngine {
    fn on_r(
        &mut self,
        batch: &[Tuple],
        timer: &mut PhaseTimer,
        emit: &mut EmitClock<'_>,
        out: &mut WorkerOut,
    ) {
        timer.switch_to(Phase::BuildSort);
        self.r_pending.extend(batch.iter().map(|t| t.pack()));
        if self.load_full() {
            self.step(timer, emit, out);
        }
    }

    fn on_s(
        &mut self,
        batch: &[Tuple],
        timer: &mut PhaseTimer,
        emit: &mut EmitClock<'_>,
        out: &mut WorkerOut,
    ) {
        timer.switch_to(Phase::BuildSort);
        self.s_pending.extend(batch.iter().map(|t| t.pack()));
        if self.load_full() {
            self.step(timer, emit, out);
        }
    }

    fn finish(&mut self, timer: &mut PhaseTimer, emit: &mut EmitClock<'_>, out: &mut WorkerOut) {
        // Final partial load.
        self.step(timer, emit, out);
        if self.eager_merge {
            // Every cross-run pair was already joined progressively.
            return;
        }
        if self.r_runs.len() <= 1 && self.s_runs.len() <= 1 {
            // A single run pair was fully joined in the initial phase.
            return;
        }
        // Merge phase: provenance-tagged merge of all runs per stream...
        timer.switch_to(Phase::Merge);
        let r_refs: Vec<&[u64]> = self.r_runs.iter().map(|r| r.as_slice()).collect();
        let (r_all, r_tags) = kway_merge_tagged(&r_refs);
        let s_refs: Vec<&[u64]> = self.s_runs.iter().map(|r| r.as_slice()).collect();
        let (s_all, s_tags) = kway_merge_tagged(&s_refs);

        // ...then join across runs, skipping the same-run pairs.
        timer.switch_to(Phase::Probe);
        let mut local_now = emit.refresh();
        let mut n = 0u32;
        merge_join_cross_runs(&r_all, &r_tags, &s_all, &s_tags, |k, rts, sts| {
            n += 1;
            if n.is_multiple_of(32) {
                local_now = emit.now();
            }
            out.sink.push(k, rts, sts, local_now);
        });
    }

    fn state_bytes(&self) -> usize {
        let vec_bytes = |v: &Vec<u64>| v.capacity() * 8;
        vec_bytes(&self.r_pending)
            + vec_bytes(&self.s_pending)
            + self.r_runs.iter().map(vec_bytes).sum::<usize>()
            + self.s_runs.iter().map(vec_bytes).sum::<usize>()
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

    fn run_single(r: &[Tuple], s: &[Tuple], delta: f64) -> Vec<(u32, u32, u32)> {
        let clock = EventClock::ungated();
        let cfg = RunConfig::with_threads(1).record_all();
        let engine = PmjEngine::new(r.len().max(s.len()), delta, SortBackend::Vectorized);
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
    fn matches_reference_across_deltas() {
        let r = random_stream(600, 48, 1);
        let s = random_stream(800, 48, 2);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        for &delta in &[0.05, 0.2, 0.5, 1.0] {
            assert_eq!(run_single(&r, &s, delta), expect, "delta={delta}");
        }
    }

    #[test]
    fn tiny_delta_many_runs_still_exact() {
        let r = random_stream(300, 8, 3);
        let s = random_stream(300, 8, 4);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        // run_size clamps at 16 -> ~19 runs per stream.
        assert_eq!(run_single(&r, &s, 0.0001), expect);
    }

    #[test]
    fn asymmetric_streams() {
        let r = random_stream(50, 16, 5);
        let s = random_stream(900, 16, 6);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        assert_eq!(run_single(&r, &s, 0.1), expect);
    }

    #[test]
    fn empty_side() {
        let r = random_stream(100, 8, 7);
        assert!(run_single(&r, &[], 0.2).is_empty());
        assert!(run_single(&[], &r, 0.2).is_empty());
    }

    #[test]
    fn eager_merge_matches_reference() {
        let r = random_stream(700, 24, 11);
        let s = random_stream(900, 24, 12);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        for &delta in &[0.05, 0.3, 1.0] {
            let clock = EventClock::ungated();
            let cfg = RunConfig::with_threads(1).record_all();
            let engine = PmjEngine::with_eager_merge(
                r.len().max(s.len()),
                delta,
                SortBackend::Vectorized,
                true,
            );
            let out = drive_worker(
                engine,
                View::strided(&r, 0, 1),
                View::strided(&s, 0, 1),
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
            assert_eq!(got, expect, "delta={delta}");
        }
    }

    #[test]
    fn run_size_respects_delta_and_floor() {
        assert_eq!(
            PmjEngine::new(1000, 0.2, SortBackend::Scalar).run_size(),
            200
        );
        assert_eq!(PmjEngine::new(10, 0.1, SortBackend::Scalar).run_size(), 16);
    }

    #[test]
    fn merge_phase_is_timed_with_many_runs() {
        let r = random_stream(2000, 64, 8);
        let s = random_stream(2000, 64, 9);
        let clock = EventClock::ungated();
        let cfg = RunConfig::with_threads(1);
        let engine = PmjEngine::new(2000, 0.05, SortBackend::Vectorized);
        let out = drive_worker(
            engine,
            View::strided(&r, 0, 1),
            View::strided(&s, 0, 1),
            &cfg,
            &clock,
        );
        assert!(out.breakdown[Phase::Merge] > 0, "merge phase must appear");
    }
}
