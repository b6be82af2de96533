//! The lazy (relational) join algorithms (§3.1).
//!
//! All four buffer the window's full input — i.e. wait until the last tuple
//! of the window has arrived — and then run a parallel relational join over
//! the complete tuple sets.
//!
//! Shared scaffolding lives here: `Slots` for barrier-separated data
//! exchange between workers, [`EmitClock`] for cheap per-match emission
//! timestamps, and `Scan`, the one work-distribution driver behind
//! `--scheduler {static,steal}`.

pub mod mpass;
pub mod mway;
pub mod npj;
pub mod prj;

use crate::clock::EventClock;
use crate::config::SchedConfig;
use iawj_exec::morsel::{for_each_morsel, MorselQueue, MARK_CLAIM, MARK_STEAL};
use iawj_exec::pool::chunk_range;
use iawj_exec::PhaseTimer;
use std::ops::Range;
use std::sync::OnceLock;

/// The journal side of a morsel claim: a `morsel:claim` mark per owned
/// morsel, a `morsel:steal` mark per stolen one. The marks are what make
/// Fig. 10-style scheduler comparisons inspectable in the exported trace.
pub(crate) fn claim_mark(timer: &mut PhaseTimer) -> impl FnMut(bool) + '_ {
    move |stolen| timer.instant(if stolen { MARK_STEAL } else { MARK_CLAIM })
}

/// One parallel scan of `0..len` by `threads` workers under the configured
/// scheduler, built once outside the parallel section and driven by every
/// worker through [`Scan::run`].
pub(crate) struct Scan {
    len: usize,
    threads: usize,
    /// Steal mode only: the shared claim queue.
    queue: Option<MorselQueue>,
}

impl Scan {
    /// A scan over tuples, claimed a morsel at a time in steal mode.
    pub(crate) fn new(sched: &SchedConfig, len: usize, threads: usize) -> Self {
        Self::claiming(sched, len, threads, sched.morsel_size)
    }

    /// A scan over coarse work items (merge ranges), claimed one at a time
    /// in steal mode.
    pub(crate) fn items(sched: &SchedConfig, items: usize, threads: usize) -> Self {
        Self::claiming(sched, items, threads, 1)
    }

    fn claiming(sched: &SchedConfig, len: usize, threads: usize, unit: usize) -> Self {
        let queue = sched
            .stealing()
            .then(|| MorselQueue::new(len, threads, unit));
        Scan {
            len,
            threads,
            queue,
        }
    }

    /// Worker `tid`'s share: under the static scheduler exactly one call
    /// of `f` with `chunk_range(len, threads, tid)` and no journal marks;
    /// under stealing one call per claimed morsel, each preceded by its
    /// [`claim_mark`]. `f` gets the timer back for its own phase switches.
    pub(crate) fn run(
        &self,
        tid: usize,
        timer: &mut PhaseTimer,
        mut f: impl FnMut(Range<usize>, &mut PhaseTimer),
    ) {
        match &self.queue {
            None => f(chunk_range(self.len, self.threads, tid), timer),
            Some(q) => {
                for_each_morsel(q, tid, |range, stolen| {
                    claim_mark(timer)(stolen);
                    f(range, timer);
                });
            }
        }
    }
}

/// One-shot exchange slots between workers: each slot is written exactly
/// once (by one worker) and read by others strictly after a barrier.
pub(crate) struct Slots<T>(Vec<OnceLock<T>>);

impl<T> Slots<T> {
    pub(crate) fn new(n: usize) -> Self {
        Slots((0..n).map(|_| OnceLock::new()).collect())
    }

    /// Publish slot `i`. Panics if published twice — that would be an
    /// algorithm bug.
    pub(crate) fn set(&self, i: usize, value: T) {
        if self.0[i].set(value).is_err() {
            panic!("slot {i} published twice");
        }
    }

    /// Read slot `i`; must only be called after the publishing barrier.
    pub(crate) fn get(&self, i: usize) -> &T {
        self.0[i]
            .get()
            .expect("slot read before the publishing barrier")
    }

    /// Number of slots.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// Caches the stream clock and refreshes it every few reads: a per-match
/// `Instant::now()` would cost as much as the probe itself, and sub-batch
/// emission-time granularity is far below a millisecond anyway. Public
/// because custom [`crate::eager::Engine`] implementations receive one.
pub struct EmitClock<'a> {
    clock: &'a EventClock,
    cached: f64,
    countdown: u32,
}

const EMIT_REFRESH: u32 = 32;

impl<'a> EmitClock<'a> {
    /// A fresh emit clock reading `clock`.
    pub fn new(clock: &'a EventClock) -> Self {
        EmitClock {
            clock,
            cached: clock.now_ms(),
            countdown: EMIT_REFRESH,
        }
    }

    /// Current stream time, refreshed every `EMIT_REFRESH` calls.
    #[inline]
    pub fn now(&mut self) -> f64 {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = EMIT_REFRESH;
            self.cached = self.clock.now_ms();
        }
        self.cached
    }

    /// Force a refresh (phase boundaries).
    #[inline]
    pub fn refresh(&mut self) -> f64 {
        self.cached = self.clock.now_ms();
        self.countdown = EMIT_REFRESH;
        self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iawj_exec::run_workers;

    #[test]
    fn slots_cross_thread_exchange() {
        let slots = Slots::new(4);
        let bar = std::sync::Barrier::new(4);
        let sums = run_workers(4, |tid| {
            slots.set(tid, tid * 100);
            bar.wait();
            (0..slots.len()).map(|i| *slots.get(i)).sum::<usize>()
        });
        assert_eq!(sums, vec![600; 4]);
    }

    /// The two schedulers behind the one driver: static is exactly one
    /// `chunk_range` call per worker with no journal marks; steal covers
    /// the same index space exactly once in morsel-sized claims, each
    /// journaled.
    #[test]
    fn scan_static_is_one_chunk_and_steal_claims_morsels() {
        use crate::config::RunConfig;
        use iawj_common::Phase;
        use iawj_exec::Scheduler;
        let epoch = std::time::Instant::now();
        for (sched, total_calls) in [(Scheduler::Static, 4), (Scheduler::Steal, 12)] {
            let cfg = RunConfig::with_threads(4)
                .scheduler(sched)
                .morsel_size(100)
                .with_journal();
            let scan = Scan::new(&cfg.sched, 1000, 4);
            let mut seen = vec![0u8; 1000];
            let (mut marks, mut calls) = (0, 0);
            // Workers run one after another here, so in steal mode the
            // first drains every deque; only the totals are scheduler facts.
            for tid in 0..4 {
                let mut timer = cfg.timer_for(Phase::Other, epoch);
                scan.run(tid, &mut timer, |range, _| {
                    calls += 1;
                    if sched == Scheduler::Static {
                        assert_eq!(range, chunk_range(1000, 4, tid));
                    }
                    range.for_each(|i| seen[i] += 1);
                });
                let journal = timer.finish_parts().journal;
                marks += journal.count_marks(MARK_CLAIM) + journal.count_marks(MARK_STEAL);
            }
            assert!(seen.iter().all(|&n| n == 1), "{sched}: exactly-once");
            // Steal: 4 deques of 250 indices at morsel 100, 3 claims each.
            assert_eq!(calls, total_calls, "{sched}");
            assert_eq!(marks, if sched == Scheduler::Static { 0 } else { 12 });
        }
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn double_publish_panics() {
        let slots = Slots::new(1);
        slots.set(0, 1);
        slots.set(0, 2);
    }

    #[test]
    fn emit_clock_advances() {
        let clock = EventClock::ungated();
        let mut ec = EmitClock::new(&clock);
        let first = ec.now();
        std::thread::sleep(std::time::Duration::from_millis(3));
        // After enough reads the cache refreshes and time moves forward.
        let mut last = first;
        for _ in 0..100 {
            last = ec.now();
        }
        assert!(last > first);
        assert!(ec.refresh() >= last);
    }
}
