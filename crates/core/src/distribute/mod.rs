//! Stream distribution schemes (§3.2.2): how the two input streams are
//! spread over eager workers.
//!
//! Both schemes reduce to a per-worker pair of [`View`]s — gated cursors
//! over the shared input arrays that yield exactly the tuples this worker
//! must process:
//!
//! - **Join-Matrix (JM)**, content-insensitive: workers form an `r × c`
//!   matrix; worker `(i, j)` processes R-partition `i` (round-robin row
//!   striping) against S-partition `j`. Every `(r, s)` pair meets at exactly
//!   one worker; R is effectively replicated `c` times and S `r` times.
//! - **Join-Biclique (JB)**, content-sensitive: workers form `T / g` core
//!   groups of size `g`; a hash router assigns each key class to one group.
//!   Within a group, R tuples are *stored at one member* (round-robin — the
//!   dispatch status the router must maintain, §5.3.3) while S tuples are
//!   replicated to every member. Each member therefore sees a partition of
//!   the class's R and all of its S.

pub mod jb;
pub mod jm;

use crate::clock::EventClock;
use iawj_common::{hash_key, Ts, Tuple};

/// Result of pulling a batch from a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Take {
    /// At least one tuple was produced.
    Got(usize),
    /// Nothing available yet — the next tuple has not arrived.
    NotYet,
    /// The stream is fully consumed for this worker.
    Exhausted,
}

/// A gated cursor over one input stream, yielding this worker's tuples in
/// arrival order.
pub struct View<'a> {
    data: &'a [Tuple],
    next: usize,
    kind: ViewKind,
    /// Arrival horizon: the stream time last read off the clock. A tuple
    /// at or before it has arrived without another read — stream time is
    /// monotonic — so a read happens only at the first tuple past it.
    seen: f64,
    /// Dispatch-status log (JB): global indices of owned tuples. The paper
    /// measures this bookkeeping as JB's partition overhead.
    pub log: Vec<u32>,
}

enum ViewKind {
    /// Round-robin striding: process indices ≡ `offset` (mod `stride`).
    Strided { offset: usize, stride: usize },
    /// Hash-class filtering with optional round-robin ownership within the
    /// group: process tuples whose class is `group`; when `own_only`, only
    /// those whose within-class sequence number ≡ `member` (mod `g`).
    Class {
        groups: usize,
        group: usize,
        g: usize,
        member: usize,
        own_only: bool,
        seq: usize,
    },
}

impl<'a> View<'a> {
    /// JM-style strided view.
    pub fn strided(data: &'a [Tuple], offset: usize, stride: usize) -> Self {
        assert!(stride > 0 && offset < stride);
        View {
            data,
            next: 0,
            kind: ViewKind::Strided { offset, stride },
            seen: f64::NEG_INFINITY,
            log: Vec::new(),
        }
    }

    /// JB-style class view. `own_only` selects the round-robin-owned subset
    /// (used for R); otherwise every class tuple is yielded (used for S).
    pub fn class(
        data: &'a [Tuple],
        groups: usize,
        group: usize,
        g: usize,
        member: usize,
        own_only: bool,
    ) -> Self {
        assert!(groups > 0 && group < groups && g > 0 && member < g);
        View {
            data,
            next: 0,
            kind: ViewKind::Class {
                groups,
                group,
                g,
                member,
                own_only,
                seq: 0,
            },
            seen: f64::NEG_INFINITY,
            log: Vec::new(),
        }
    }

    /// Has every tuple of the underlying stream been passed?
    pub fn exhausted(&self) -> bool {
        self.next >= self.data.len()
    }

    /// Pull up to `max` available tuples into `out` (appended). Stops at
    /// the first not-yet-arrived tuple: a worker never inspects a tuple the
    /// router has not dispatched yet.
    pub fn take_batch(&mut self, clock: &EventClock, max: usize, out: &mut Vec<Tuple>) -> Take {
        if self.exhausted() {
            return Take::Exhausted;
        }
        let before = out.len();
        match self.kind {
            ViewKind::Strided { offset, stride } => {
                // Jump the cursor to the first index of our stripe.
                if self.next % stride != offset {
                    let base = self.next - self.next % stride;
                    self.next = if base + offset >= self.next {
                        base + offset
                    } else {
                        base + stride + offset
                    };
                }
                while out.len() - before < max && self.next < self.data.len() {
                    let t = self.data[self.next];
                    if !arrived(&mut self.seen, clock, t.ts) {
                        break;
                    }
                    out.push(t);
                    self.next += stride;
                }
            }
            ViewKind::Class {
                groups,
                group,
                g,
                member,
                own_only,
                ref mut seq,
            } => {
                while out.len() - before < max && self.next < self.data.len() {
                    let t = self.data[self.next];
                    if !arrived(&mut self.seen, clock, t.ts) {
                        break;
                    }
                    if class_of(t.key, groups) == group {
                        if own_only {
                            let owned = *seq % g == member;
                            *seq += 1;
                            if owned {
                                self.log.push(self.next as u32);
                                out.push(t);
                            }
                        } else {
                            out.push(t);
                        }
                    }
                    self.next += 1;
                }
            }
        }
        if out.len() > before {
            Take::Got(out.len() - before)
        } else if self.exhausted() {
            Take::Exhausted
        } else {
            Take::NotYet
        }
    }

    /// Bytes held by the dispatch-status log.
    pub fn log_bytes(&self) -> usize {
        self.log.capacity() * std::mem::size_of::<u32>()
    }
}

/// Has a tuple with arrival timestamp `ts` arrived? Ungated clocks say yes
/// at once; otherwise the clock is read only when `ts` lies past the
/// horizon `seen`, which the read then advances.
#[inline]
fn arrived(seen: &mut f64, clock: &EventClock, ts: Ts) -> bool {
    if !clock.gated() || f64::from(ts) <= *seen {
        return true;
    }
    *seen = clock.now_ms();
    f64::from(ts) <= *seen
}

/// Hash class of a key for a `groups`-way router.
#[inline]
pub fn class_of(key: u32, groups: usize) -> usize {
    (hash_key(key) % groups as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(n: usize) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(i as u32, 0)).collect()
    }

    fn drain(view: &mut View<'_>, clock: &EventClock) -> Vec<Tuple> {
        let mut out = Vec::new();
        loop {
            match view.take_batch(clock, 8, &mut out) {
                Take::Exhausted => break,
                Take::NotYet => panic!("ungated clock must never stall"),
                Take::Got(_) => {}
            }
        }
        out
    }

    #[test]
    fn strided_views_tile_the_stream() {
        let data = tuples(103);
        let clock = EventClock::ungated();
        let mut all = Vec::new();
        for off in 0..4 {
            let mut v = View::strided(&data, off, 4);
            all.extend(drain(&mut v, &clock));
        }
        assert_eq!(all.len(), 103);
        let mut keys: Vec<u32> = all.iter().map(|t| t.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn class_views_partition_r_within_group() {
        let data = tuples(500);
        let clock = EventClock::ungated();
        let groups = 3;
        let g = 2;
        let mut all = Vec::new();
        for group in 0..groups {
            for member in 0..g {
                let mut v = View::class(&data, groups, group, g, member, true);
                let got = drain(&mut v, &clock);
                // Owned tuples of the right class only.
                assert!(got.iter().all(|t| class_of(t.key, groups) == group));
                assert_eq!(v.log.len(), got.len());
                all.extend(got);
            }
        }
        // Union over all (group, member) covers the stream exactly once.
        assert_eq!(all.len(), 500);
    }

    #[test]
    fn class_view_replicates_s_within_group() {
        let data = tuples(100);
        let clock = EventClock::ungated();
        let groups = 4;
        for group in 0..groups {
            let expect: Vec<u32> = data
                .iter()
                .filter(|t| class_of(t.key, groups) == group)
                .map(|t| t.key)
                .collect();
            for member in 0..2 {
                let mut v = View::class(&data, groups, group, 2, member, false);
                let got: Vec<u32> = drain(&mut v, &clock).iter().map(|t| t.key).collect();
                assert_eq!(got, expect, "every member sees all class tuples");
                assert!(v.log.is_empty(), "replicated side keeps no status log");
            }
        }
    }

    #[test]
    fn gating_stops_at_unavailable() {
        let data: Vec<Tuple> = (0..10).map(|i| Tuple::new(i, i * 1000)).collect();
        let clock = EventClock::start(1.0, true);
        let mut v = View::strided(&data, 0, 1);
        let mut out = Vec::new();
        // Only the ts=0 tuple has arrived.
        match v.take_batch(&clock, 100, &mut out) {
            Take::Got(n) => assert_eq!(n, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(v.take_batch(&clock, 100, &mut out), Take::NotYet);
        assert!(!v.exhausted());
    }

    #[test]
    fn the_first_pull_reads_the_clock() {
        let data = vec![Tuple::new(1, 0)];
        let clock = EventClock::start(1.0, true);
        let mut v = View::strided(&data, 0, 1);
        assert_eq!(v.seen, f64::NEG_INFINITY);
        assert_eq!(v.take_batch(&clock, 8, &mut Vec::new()), Take::Got(1));
        assert!(v.seen >= 0.0, "horizon {} was not read", v.seen);
    }

    #[test]
    fn a_tuple_at_exactly_the_horizon_has_arrived() {
        // Stream time is ~0 ms, so a clock read would hold back the ts = 5
        // tuple; at a horizon of 5 it passes without one, and the ts = 6
        // tuple behind it reads the clock and waits.
        let data = vec![Tuple::new(1, 5), Tuple::new(2, 6)];
        let clock = EventClock::start(1.0, true);
        let mut v = View::strided(&data, 0, 1);
        v.seen = 5.0;
        let mut out = Vec::new();
        assert_eq!(v.take_batch(&clock, 8, &mut out), Take::Got(1));
        assert_eq!(out, [Tuple::new(1, 5)]);
        assert!(v.seen < 5.0, "the ts = 6 tuple re-read the clock");
    }

    #[test]
    fn an_ungated_clock_is_never_read() {
        let data = tuples(100);
        let clock = EventClock::ungated();
        let mut strided = View::strided(&data, 1, 3);
        let mut class = View::class(&data, 2, 0, 2, 1, true);
        drain(&mut strided, &clock);
        drain(&mut class, &clock);
        assert_eq!(strided.seen, f64::NEG_INFINITY);
        assert_eq!(class.seen, f64::NEG_INFINITY);
    }

    #[test]
    fn batch_size_respected() {
        let data = tuples(100);
        let clock = EventClock::ungated();
        let mut v = View::strided(&data, 0, 1);
        let mut out = Vec::new();
        assert_eq!(v.take_batch(&clock, 7, &mut out), Take::Got(7));
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn empty_stream_is_exhausted() {
        let data: Vec<Tuple> = Vec::new();
        let clock = EventClock::ungated();
        let mut v = View::strided(&data, 0, 2);
        let mut out = Vec::new();
        assert_eq!(v.take_batch(&clock, 8, &mut out), Take::Exhausted);
    }
}
