//! Morsel-driven work stealing (Leis et al., SIGMOD 2014), the antidote to
//! the static-chunk skew collapse of the paper's Fig. 10: instead of handing
//! each worker one fixed [`chunk_range`](crate::pool::chunk_range), the input
//! index space is carved into fixed-size *morsels* and workers claim them
//! dynamically. Each worker owns a deque of contiguous morsels seeded from
//! its static chunk, so the uncontended fast path touches the same cache
//! lines as static scheduling; only when a worker drains its own deque does
//! it steal — half of the largest victim's remaining morsels in one atomic
//! claim.
//!
//! Exactly-once is by construction, not by protocol subtlety: every claim
//! (owner or thief) goes through the same per-deque `fetch_add` cursor
//! bounded by a fixed upper end, so two claimants can never receive
//! overlapping ranges and no CAS retry loop exists. With one worker the
//! driver degrades to an in-order scan of `0..len`, i.e. exactly the static
//! `chunk_range(len, 1, 0)` behaviour.

use crate::pool::chunk_range;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default morsel size in tuples. Large enough that the claim `fetch_add`
/// amortises to noise, small enough that a θ=0.99 Zipf straggler sheds
/// meaningful work.
pub const DEFAULT_MORSEL: usize = 1024;

/// Journal mark emitted when a worker claims a morsel from its own deque.
pub const MARK_CLAIM: &str = "morsel:claim";
/// Journal mark emitted when a worker processes a stolen morsel.
pub const MARK_STEAL: &str = "morsel:steal";

/// Which work-distribution policy a run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// One fixed `chunk_range` per worker (the paper's baseline).
    #[default]
    Static,
    /// Morsel-driven work stealing via [`MorselQueue`].
    Steal,
}

impl Scheduler {
    /// All schedulers, for sweeps and differential tests.
    pub const ALL: [Scheduler; 2] = [Scheduler::Static, Scheduler::Steal];
}

impl std::str::FromStr for Scheduler {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "static" => Ok(Scheduler::Static),
            "steal" => Ok(Scheduler::Steal),
            other => Err(format!("unknown scheduler '{other}' (static|steal)")),
        }
    }
}

impl std::fmt::Display for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scheduler::Static => "static",
            Scheduler::Steal => "steal",
        })
    }
}

/// One worker's claimable range. `lo..hi` is fixed at construction; `next`
/// is the shared claim cursor. Owners and thieves both advance `next` with
/// a single `fetch_add`, which is what makes every index claimable at most
/// once: the cursor can overshoot `hi` (a failed claim still advances it)
/// but can never hand the same sub-range to two callers.
struct Deque {
    hi: usize,
    next: AtomicUsize,
}

impl Deque {
    fn new(r: Range<usize>) -> Self {
        Deque {
            hi: r.end,
            next: AtomicUsize::new(r.start),
        }
    }

    /// Claim up to `n` indices; `None` once the deque is drained.
    fn claim(&self, n: usize) -> Option<Range<usize>> {
        debug_assert!(n > 0);
        let start = self.next.fetch_add(n, Ordering::Relaxed);
        if start >= self.hi {
            return None;
        }
        Some(start..(start + n).min(self.hi))
    }

    /// Indices not yet claimed (0 once drained, even if the cursor
    /// overshot).
    fn remaining(&self) -> usize {
        self.hi.saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

/// A work-stealing queue over the index space `0..len`: one [`Deque`] per
/// worker, seeded from that worker's static `chunk_range` so locality
/// matches the static scheduler until the first steal.
pub struct MorselQueue {
    deques: Vec<Deque>,
    morsel: usize,
    len: usize,
}

impl MorselQueue {
    /// A queue over `0..len` for `workers` workers claiming `morsel`
    /// indices at a time (clamped to at least 1).
    pub fn new(len: usize, workers: usize, morsel: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let morsel = morsel.max(1);
        let deques = (0..workers)
            .map(|i| Deque::new(chunk_range(len, workers, i)))
            .collect();
        MorselQueue {
            deques,
            morsel,
            len,
        }
    }

    /// Total index space covered by the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the covered index space empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured morsel size.
    pub fn morsel(&self) -> usize {
        self.morsel
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Unclaimed indices across all deques (racy snapshot; exact once all
    /// workers have returned from [`for_each_morsel`]).
    pub fn remaining(&self) -> usize {
        self.deques.iter().map(Deque::remaining).sum()
    }
}

/// Drive worker `tid` over `q`: drain the worker's own deque morsel by
/// morsel, then steal half of the largest victim's remaining morsels at a
/// time until every deque is empty. `f` receives each claimed range (at
/// most `q.morsel()` long) plus whether it was stolen. Ranges from one
/// worker's own deque arrive in ascending order; with `workers == 1` the
/// whole of `0..len` is visited in order, matching the static scheduler.
pub fn for_each_morsel<F>(q: &MorselQueue, tid: usize, mut f: F)
where
    F: FnMut(Range<usize>, bool),
{
    let m = q.morsel;
    while let Some(r) = q.deques[tid].claim(m) {
        f(r, false);
    }
    if q.deques.len() == 1 {
        return;
    }
    // Pick the victim with the most unclaimed work, until all are drained.
    while let Some((_, victim)) = q
        .deques
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != tid)
        .max_by_key(|(_, d)| d.remaining())
    {
        let left = victim.remaining();
        if left == 0 {
            break; // every other deque is drained too
        }
        // Steal half of the victim's remaining morsels in one claim.
        let take = (left.div_ceil(m) / 2).max(1) * m;
        let Some(r) = victim.claim(take) else {
            continue; // lost the race; rescan for a victim
        };
        let mut lo = r.start;
        while lo < r.end {
            let hi = (lo + m).min(r.end);
            f(lo..hi, true);
            lo = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_workers;
    use std::sync::Mutex;

    #[test]
    fn scheduler_parses_and_prints() {
        assert_eq!("static".parse::<Scheduler>().unwrap(), Scheduler::Static);
        assert_eq!("steal".parse::<Scheduler>().unwrap(), Scheduler::Steal);
        assert!("morsel".parse::<Scheduler>().is_err());
        assert_eq!(Scheduler::Static.to_string(), "static");
        assert_eq!(Scheduler::Steal.to_string(), "steal");
        assert_eq!(Scheduler::default(), Scheduler::Static);
    }

    #[test]
    fn single_worker_visits_in_order() {
        let q = MorselQueue::new(1000, 1, 64);
        let mut seen = Vec::new();
        let mut claims = 0;
        for_each_morsel(&q, 0, |r, stolen| {
            assert!(!stolen, "nobody to steal from");
            assert!(r.len() <= 64);
            claims += 1;
            seen.extend(r);
        });
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
        assert_eq!(claims, 16); // ceil(1000/64)
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let q = MorselQueue::new(0, 4, 8);
        assert!(q.is_empty());
        for tid in 0..4 {
            for_each_morsel(&q, tid, |_, _| panic!("no work exists"));
        }
    }

    #[test]
    fn lone_runner_steals_everything() {
        // Only worker 0 shows up; it must drain all four deques.
        let q = MorselQueue::new(997, 4, 10);
        let mut seen = vec![None; 997];
        for_each_morsel(&q, 0, |r, stolen| {
            for i in r {
                assert!(seen[i].is_none(), "index {i} claimed twice");
                seen[i] = Some(stolen);
            }
        });
        // Its own chunk is claimed, every other worker's chunk stolen.
        for (i, s) in seen.iter().enumerate() {
            let own = chunk_range(997, 4, 0).contains(&i);
            assert_eq!(*s, Some(!own), "index {i}");
        }
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn concurrent_workers_cover_exactly_once() {
        let len = 100_000;
        let q = MorselQueue::new(len, 8, 128);
        let claimed = Mutex::new(vec![0u8; len]);
        run_workers(8, |tid| {
            let mut local = Vec::new();
            for_each_morsel(&q, tid, |r, _| local.extend(r));
            let mut c = claimed.lock().unwrap();
            for i in local {
                c[i] += 1;
            }
        });
        let c = claimed.lock().unwrap();
        assert!(c.iter().all(|&n| n == 1), "each index exactly once");
    }

    #[test]
    fn morsel_size_is_clamped_to_one() {
        let q = MorselQueue::new(5, 2, 0);
        assert_eq!(q.morsel(), 1);
        let mut seen = Vec::new();
        for tid in 0..2 {
            for_each_morsel(&q, tid, |r, _| seen.extend(r));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
