//! Symmetric Hash Join (SHJ), after Wilschut & Apers — the first hash-based
//! stream join and the default in most stream processing engines (§3.2.1).
//!
//! Each worker keeps two hash tables, one per input stream. A newly arrived
//! R tuple is inserted into the R table and immediately probes the S table
//! (and symmetrically for S), so matches appear as soon as both sides have
//! arrived. Exactly-once emission holds because the worker processes its
//! tuples sequentially: of any matching pair, whichever side is processed
//! second finds the first in the opposite table.
//!
//! The tables are [`BucketTable`]s: a key's head bucket is one cache line,
//! so a batch first prefetches, for every tuple, its head line in both
//! tables, and the insert and probe passes that follow find those lines
//! arriving instead of chasing a chain through DRAM one miss at a time.

use crate::eager::Engine;
use crate::lazy::EmitClock;
use crate::output::WorkerOut;
use iawj_common::{Phase, Tuple};
use iawj_exec::{BucketTable, PhaseTimer};

/// Per-worker SHJ state.
pub struct ShjEngine {
    r_table: BucketTable,
    s_table: BucketTable,
}

impl ShjEngine {
    /// Engine with tables pre-sized for the expected per-worker load.
    pub fn new(expected_r: usize, expected_s: usize) -> Self {
        ShjEngine {
            r_table: BucketTable::with_capacity(expected_r.max(16)),
            s_table: BucketTable::with_capacity(expected_s.max(16)),
        }
    }

    /// Put the head line of every batch tuple's key in flight, in both
    /// tables, ahead of the insert and probe passes.
    fn prefetch_heads(&self, batch: &[Tuple]) {
        for t in batch {
            self.r_table.prefetch(t.key);
            self.s_table.prefetch(t.key);
        }
    }
}

impl Engine for ShjEngine {
    fn on_r(
        &mut self,
        batch: &[Tuple],
        timer: &mut PhaseTimer,
        emit: &mut EmitClock<'_>,
        out: &mut WorkerOut,
    ) {
        timer.switch_to(Phase::BuildSort);
        self.prefetch_heads(batch);
        for t in batch {
            self.r_table.insert(t.key, t.ts);
        }
        timer.switch_to(Phase::Probe);
        for t in batch {
            let now = emit.now();
            self.s_table
                .probe(t.key, |s_ts| out.sink.push(t.key, t.ts, s_ts, now));
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
        self.prefetch_heads(batch);
        for t in batch {
            self.s_table.insert(t.key, t.ts);
        }
        timer.switch_to(Phase::Probe);
        for t in batch {
            let now = emit.now();
            self.r_table
                .probe(t.key, |r_ts| out.sink.push(t.key, r_ts, t.ts, now));
        }
    }

    fn finish(&mut self, _timer: &mut PhaseTimer, _emit: &mut EmitClock<'_>, _out: &mut WorkerOut) {
        // SHJ is fully incremental: nothing is deferred.
    }

    fn state_bytes(&self) -> usize {
        self.r_table.bytes() + self.s_table.bytes()
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

    #[test]
    fn single_worker_matches_reference() {
        let r = random_stream(400, 32, 1);
        let s = random_stream(500, 32, 2);
        let clock = EventClock::ungated();
        let cfg = RunConfig::with_threads(1).record_all();
        let out = drive_worker(
            ShjEngine::new(r.len(), s.len()),
            View::strided(&r, 0, 1),
            View::strided(&s, 0, 1),
            &cfg,
            &clock,
        );
        let mut got: Vec<_> = out
            .sink
            .samples()
            .iter()
            .map(|m| (m.key, m.r_ts, m.s_ts))
            .collect();
        got.sort_unstable();
        assert_eq!(got, nested_loop_join(&r, &s, Window::of_len(64)));
    }

    #[test]
    fn direct_interleaving_is_exactly_once() {
        // Drive the engine by hand with interleaved singleton batches.
        let mut e = ShjEngine::new(4, 4);
        let clock = EventClock::ungated();
        let mut emit = EmitClock::new(&clock);
        let mut timer = PhaseTimer::start(Phase::Other);
        let mut out = WorkerOut::new(1);
        e.on_r(&[Tuple::new(7, 1)], &mut timer, &mut emit, &mut out);
        e.on_s(&[Tuple::new(7, 2)], &mut timer, &mut emit, &mut out); // finds r@1 via r_table
        e.on_r(&[Tuple::new(7, 3)], &mut timer, &mut emit, &mut out); // finds s@2 via s_table
        assert_eq!(
            out.sink.count(),
            2,
            "matches (1,2) and (3,2), each exactly once"
        );
    }

    #[test]
    fn batch_insert_then_probe_does_not_self_match() {
        // A batch of R tuples must not match against the R table.
        let mut e = ShjEngine::new(4, 4);
        let clock = EventClock::ungated();
        let mut emit = EmitClock::new(&clock);
        let mut timer = PhaseTimer::start(Phase::Other);
        let mut out = WorkerOut::new(1);
        e.on_r(
            &[Tuple::new(1, 0), Tuple::new(1, 1)],
            &mut timer,
            &mut emit,
            &mut out,
        );
        assert_eq!(out.sink.count(), 0);
        e.on_s(&[Tuple::new(1, 2)], &mut timer, &mut emit, &mut out);
        assert_eq!(out.sink.count(), 2);
    }

    #[test]
    fn state_grows_with_inserts() {
        let mut e = ShjEngine::new(4, 4);
        let before = e.state_bytes();
        let clock = EventClock::ungated();
        let mut emit = EmitClock::new(&clock);
        let mut timer = PhaseTimer::start(Phase::Other);
        let mut out = WorkerOut::new(1);
        let batch: Vec<Tuple> = (0..1000).map(|i| Tuple::new(i, 0)).collect();
        e.on_r(&batch, &mut timer, &mut emit, &mut out);
        assert!(e.state_bytes() > before);
    }
}
