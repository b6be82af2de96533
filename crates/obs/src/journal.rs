//! Per-worker span journal.
//!
//! Each worker owns one [`SpanJournal`]: a preallocated ring buffer of
//! `(name, begin_ns, end_ns)` spans plus instant [`Mark`]s (barrier
//! releases, merge-pass boundaries, window flushes). All timestamps are
//! nanoseconds since a shared epoch `Instant` so the lanes of every worker
//! line up in one trace. A journal built with [`SpanJournal::disabled`]
//! allocates nothing and rejects records with a single branch, which is
//! what makes it safe to thread through the kernel hot paths
//! unconditionally.

use crate::perf::CounterDelta;
use std::time::Instant;

/// Journal mark recorded once per contended latch acquisition: the build
/// or probe path found a shared-table bucket latch held and had to
/// spin-wait before acquiring it (the §5.3.2 NPJ contention signal).
pub const MARK_LATCH_WAIT: &str = "latch:wait";

/// Journal mark recorded once per non-empty ingest batch drained from the
/// streaming operator's SPSC ingress queues.
pub const MARK_STREAM_INGEST: &str = "stream:ingest";

/// Journal mark recorded once per window closed by the streaming operator
/// (watermark passed the window end, engine run complete, state evicted).
pub const MARK_STREAM_CLOSE: &str = "stream:close";

/// Journal mark recorded once per late tuple dropped by the streaming
/// operator: the tuple's timestamp was already behind the watermark.
pub const MARK_STREAM_LATE: &str = "stream:late";

/// Journal mark recorded when the streaming operator observes that a
/// producer had to block on a full ingress queue since the last poll
/// (the backpressure signal; episodes are counted at the queue).
pub const MARK_STREAM_BACKPRESSURE: &str = "stream:backpressure";

/// Journal mark recorded once per generation dispatched through the
/// persistent executor's worker pool (job published, workers woken).
pub const MARK_EXEC_DISPATCH: &str = "exec:dispatch";

/// Journal mark recorded when a pool worker parks on the dispatch condvar
/// to wait for the next generation.
pub const MARK_EXEC_PARK: &str = "exec:park";

/// Journal mark recorded when worker pinning degraded: the placement plan
/// was empty (no topology / masked cpuset) or `sched_setaffinity` was
/// denied, so the worker runs wherever the OS puts it.
pub const MARK_EXEC_UNPINNED: &str = "exec:unpinned";

/// Journal mark recorded once per batch of arrivals inserted into a
/// resident window index by the IBWJ engine family.
pub const MARK_INDEX_INSERT: &str = "index:insert";

/// Journal mark recorded once per eviction sweep that unlinked expired
/// entries from a resident window index.
pub const MARK_INDEX_EVICT: &str = "index:evict";

/// Journal mark recorded once per histogram-triggered repartitioning of
/// the partitioned index engine (IBWJ_PART's adaptive rebalance).
pub const MARK_INDEX_REPART: &str = "index:repart";

/// One closed interval of work attributed to a named phase or activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Static label, typically a `Phase::label()` like `"probe"`.
    pub name: &'static str,
    /// Nanoseconds since the journal epoch at which the span began.
    pub begin_ns: u64,
    /// Nanoseconds since the journal epoch at which the span ended.
    pub end_ns: u64,
    /// Hardware-counter deltas accumulated over the span, when the
    /// recording thread had a [`PerfSampler`](crate::perf::PerfSampler).
    pub counters: Option<CounterDelta>,
}

/// A point event: something that happened, with no duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark {
    /// Static label, e.g. `"barrier:build_done"` or `"merge-pass"`.
    pub name: &'static str,
    /// Nanoseconds since the journal epoch.
    pub at_ns: u64,
}

/// A bounded journal of [`Span`]s and [`Mark`]s for one worker.
///
/// When the ring is full the oldest entries are overwritten and counted in
/// [`SpanJournal::dropped`], so a runaway phase loop cannot grow memory.
#[derive(Clone, Debug)]
pub struct SpanJournal {
    epoch: Instant,
    spans: Vec<Span>,
    marks: Vec<Mark>,
    cap: usize,
    span_head: usize,
    mark_head: usize,
    dropped: u64,
}

impl SpanJournal {
    /// A journal with room for `cap` spans and `cap` marks, all timestamps
    /// relative to `epoch`. `cap == 0` yields a disabled journal.
    pub fn with_capacity(epoch: Instant, cap: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(cap),
            marks: Vec::with_capacity(cap),
            cap,
            span_head: 0,
            mark_head: 0,
            dropped: 0,
        }
    }

    /// A disabled journal: no allocation, every record is a no-op.
    pub fn disabled(epoch: Instant) -> Self {
        Self::with_capacity(epoch, 0)
    }

    /// Is this journal recording?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cap != 0
    }

    /// The shared time origin.
    #[inline]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch (0 for instants predating it).
    #[inline]
    pub fn elapsed_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record one span. No-op when disabled; overwrites the oldest entry
    /// when full.
    #[inline]
    pub fn record_span(&mut self, name: &'static str, begin: Instant, end: Instant) {
        self.record_span_with(name, begin, end, None);
    }

    /// Record one span with hardware-counter deltas attached. No-op when
    /// disabled; overwrites the oldest entry when full.
    #[inline]
    pub fn record_span_with(
        &mut self,
        name: &'static str,
        begin: Instant,
        end: Instant,
        counters: Option<CounterDelta>,
    ) {
        if self.cap == 0 {
            return;
        }
        let span = Span {
            name,
            begin_ns: self.elapsed_ns(begin),
            end_ns: self.elapsed_ns(end),
            counters,
        };
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.spans[self.span_head] = span;
            self.span_head = (self.span_head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Record one instant mark. No-op when disabled; overwrites the oldest
    /// entry when full.
    #[inline]
    pub fn mark(&mut self, name: &'static str, at: Instant) {
        if self.cap == 0 {
            return;
        }
        let mark = Mark {
            name,
            at_ns: self.elapsed_ns(at),
        };
        if self.marks.len() < self.cap {
            self.marks.push(mark);
        } else {
            self.marks[self.mark_head] = mark;
            self.mark_head = (self.mark_head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Retained spans in chronological order.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.spans.len());
        out.extend_from_slice(&self.spans[self.span_head..]);
        out.extend_from_slice(&self.spans[..self.span_head]);
        out
    }

    /// Retained marks in chronological order.
    pub fn marks(&self) -> Vec<Mark> {
        let mut out = Vec::with_capacity(self.marks.len());
        out.extend_from_slice(&self.marks[self.mark_head..]);
        out.extend_from_slice(&self.marks[..self.mark_head]);
        out
    }

    /// Number of retained spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of retained marks.
    pub fn mark_count(&self) -> usize {
        self.marks.len()
    }

    /// Number of retained marks with the given name (e.g. NPJ's
    /// `"latch:wait"` events). Counts only what the ring retained;
    /// overwritten marks are gone.
    pub fn count_marks(&self, name: &str) -> usize {
        self.marks.iter().filter(|m| m.name == name).count()
    }

    /// Number of retained marks with the given name whose instant falls
    /// inside a retained span named `span_name` — i.e. events attributed
    /// to a phase. Half-open span intervals (`begin_ns <= at < end_ns`)
    /// keep a mark landing exactly on a phase switch out of both phases'
    /// columns rather than in both.
    pub fn count_marks_in(&self, name: &str, span_name: &str) -> usize {
        self.marks
            .iter()
            .filter(|m| m.name == name)
            .filter(|m| {
                self.spans
                    .iter()
                    .any(|s| s.name == span_name && s.begin_ns <= m.at_ns && m.at_ns < s.end_ns)
            })
            .count()
    }

    /// Entries overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ns: u64) -> Instant {
        epoch + Duration::from_nanos(ns)
    }

    #[test]
    fn disabled_journal_allocates_nothing() {
        let mut j = SpanJournal::disabled(Instant::now());
        assert!(!j.enabled());
        let t = Instant::now();
        j.record_span("probe", t, t);
        j.mark("flush", t);
        assert_eq!(j.span_count(), 0);
        assert_eq!(j.mark_count(), 0);
        assert_eq!(j.spans.capacity(), 0);
        assert_eq!(j.marks.capacity(), 0);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn records_relative_to_epoch() {
        let epoch = Instant::now();
        let mut j = SpanJournal::with_capacity(epoch, 8);
        j.record_span("build/sort", at(epoch, 100), at(epoch, 250));
        j.mark("barrier:build_done", at(epoch, 250));
        let spans = j.spans();
        assert_eq!(
            spans,
            vec![Span {
                name: "build/sort",
                begin_ns: 100,
                end_ns: 250,
                counters: None
            }]
        );
        assert_eq!(
            j.marks(),
            vec![Mark {
                name: "barrier:build_done",
                at_ns: 250
            }]
        );
    }

    #[test]
    fn count_marks_filters_by_name() {
        let epoch = Instant::now();
        let mut j = SpanJournal::with_capacity(epoch, 8);
        j.mark(MARK_LATCH_WAIT, at(epoch, 1));
        j.mark(MARK_INDEX_INSERT, at(epoch, 2));
        j.mark(MARK_LATCH_WAIT, at(epoch, 3));
        assert_eq!(j.count_marks(MARK_LATCH_WAIT), 2);
        assert_eq!(j.count_marks(MARK_INDEX_INSERT), 1);
        assert_eq!(j.count_marks("absent"), 0);
    }

    #[test]
    fn record_span_with_attaches_counters() {
        let epoch = Instant::now();
        let mut j = SpanJournal::with_capacity(epoch, 4);
        let mut c = CounterDelta::zero();
        c.vals[0] = 42;
        j.record_span_with("probe", at(epoch, 10), at(epoch, 20), Some(c));
        j.record_span("wait", at(epoch, 20), at(epoch, 30));
        let spans = j.spans();
        assert_eq!(spans[0].counters, Some(c));
        assert_eq!(spans[1].counters, None);
    }

    #[test]
    fn count_marks_in_attributes_marks_to_phases() {
        let epoch = Instant::now();
        let mut j = SpanJournal::with_capacity(epoch, 16);
        j.record_span("build/sort", at(epoch, 0), at(epoch, 100));
        j.record_span("probe", at(epoch, 100), at(epoch, 200));
        j.mark(MARK_LATCH_WAIT, at(epoch, 50)); // in build/sort
        j.mark(MARK_LATCH_WAIT, at(epoch, 150)); // in probe
        j.mark(MARK_LATCH_WAIT, at(epoch, 160)); // in probe
        j.mark(MARK_STREAM_LATE, at(epoch, 170)); // in probe, other name
        j.mark(MARK_LATCH_WAIT, at(epoch, 300)); // outside every span
        assert_eq!(j.count_marks_in(MARK_LATCH_WAIT, "build/sort"), 1);
        assert_eq!(j.count_marks_in(MARK_LATCH_WAIT, "probe"), 2);
        assert_eq!(j.count_marks_in(MARK_STREAM_LATE, "probe"), 1);
        assert_eq!(j.count_marks_in(MARK_LATCH_WAIT, "wait"), 0);
        // A mark exactly on the switch boundary belongs to the later span.
        j.mark(MARK_STREAM_LATE, at(epoch, 100));
        assert_eq!(j.count_marks_in(MARK_STREAM_LATE, "build/sort"), 0);
        assert_eq!(j.count_marks_in(MARK_STREAM_LATE, "probe"), 2);
    }

    #[test]
    fn pre_epoch_instants_clamp_to_zero() {
        let early = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let epoch = Instant::now();
        let mut j = SpanJournal::with_capacity(epoch, 4);
        j.record_span("wait", early, at(epoch, 10));
        assert_eq!(j.spans()[0].begin_ns, 0);
        assert_eq!(j.spans()[0].end_ns, 10);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let epoch = Instant::now();
        let mut j = SpanJournal::with_capacity(epoch, 3);
        for i in 0..5u64 {
            j.record_span("probe", at(epoch, i * 10), at(epoch, i * 10 + 5));
        }
        let spans = j.spans();
        assert_eq!(spans.len(), 3);
        // Oldest two (begin 0, 10) were overwritten; order stays chronological.
        assert_eq!(
            spans.iter().map(|s| s.begin_ns).collect::<Vec<_>>(),
            vec![20, 30, 40]
        );
        assert_eq!(j.dropped(), 2);
    }

    #[test]
    fn capacity_is_preallocated_once() {
        let epoch = Instant::now();
        let mut j = SpanJournal::with_capacity(epoch, 16);
        let cap_before = j.spans.capacity();
        for i in 0..64u64 {
            j.record_span("partition", at(epoch, i), at(epoch, i + 1));
            j.mark("pass", at(epoch, i));
        }
        assert_eq!(j.spans.capacity(), cap_before, "ring must not reallocate");
        assert_eq!(j.span_count(), 16);
        assert_eq!(j.mark_count(), 16);
    }
}
