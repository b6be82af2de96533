//! Merging sorted runs: the k-way merge behind MWay, the successive
//! pairwise merging behind MPass, and the provenance-tagged merge PMJ's
//! merge phase relies on.

use crate::sort::{merge_into, SortBackend};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Merge two sorted slices into `out` (appended), branching on every
/// comparison.
pub fn merge_two_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Multi-way merge of sorted runs into one sorted vector (the MWay shuffle).
/// Uses a binary heap keyed on `(value, run)`; ties resolve to the lower run
/// index, making the output deterministic.
pub fn kway_merge(runs: &[&[u64]]) -> Vec<u64> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(ri, r)| Reverse((r[0], ri, 0)))
        .collect();
    while let Some(Reverse((v, ri, idx))) = heap.pop() {
        out.push(v);
        let next = idx + 1;
        if next < runs[ri].len() {
            heap.push(Reverse((runs[ri][next], ri, next)));
        }
    }
    out
}

/// Multi-way merge that also reports which run each output element came
/// from — PMJ's merge phase needs provenance to avoid re-emitting matches
/// its initial phase already produced.
pub fn kway_merge_tagged(runs: &[&[u64]]) -> (Vec<u64>, Vec<u32>) {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut tags = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(ri, r)| Reverse((r[0], ri, 0)))
        .collect();
    while let Some(Reverse((v, ri, idx))) = heap.pop() {
        out.push(v);
        tags.push(ri as u32);
        let next = idx + 1;
        if next < runs[ri].len() {
            heap.push(Reverse((runs[ri][next], ri, next)));
        }
    }
    (out, tags)
}

/// Successive two-way merging (the MPass shuffle): pairs of runs are
/// merged each pass until one run remains, the first pass reading the
/// borrowed runs. `Vectorized` merges with the bitonic kernel
/// ([`merge_into`]), `Scalar` with the branching [`merge_two_into`] (the
/// Figure 21 no-SIMD merge). Returns an empty vector for no runs.
pub fn merge_passes(runs: &[&[u64]], backend: SortBackend) -> Vec<u64> {
    let mut level: Vec<Cow<[u64]>> = runs.iter().map(|&r| Cow::Borrowed(r)).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            next.push(match (it.next(), backend) {
                (None, _) => a,
                (Some(b), SortBackend::Vectorized) => {
                    let mut out = vec![0; a.len() + b.len()];
                    merge_into(&a, &b, &mut out);
                    Cow::Owned(out)
                }
                (Some(b), SortBackend::Scalar) => {
                    let mut out = Vec::new();
                    merge_two_into(&a, &b, &mut out);
                    Cow::Owned(out)
                }
            });
        }
        level = next;
    }
    level.pop().map(Cow::into_owned).unwrap_or_default()
}

/// [`merge_passes`] over owned runs with the vectorized backend.
pub fn pairwise_merge(runs: Vec<Vec<u64>>) -> Vec<u64> {
    let refs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
    merge_passes(&refs, SortBackend::Vectorized)
}

/// The half-open segment of a sorted run whose values lie in `[lo, hi)` —
/// how MWay/MPass assign each thread a disjoint output key range.
pub fn run_segment(run: &[u64], lo: u64, hi: u64) -> &[u64] {
    let start = run.partition_point(|&v| v < lo);
    let end = run.partition_point(|&v| v < hi);
    &run[start..end]
}

/// Pick `n - 1` splitter values dividing the merged key space into `n`
/// roughly equal ranges, by sampling the runs. Returned splitters are
/// strictly increasing; together with `0` and `u64::MAX` they form the
/// half-open range bounds `[b[i], b[i+1])`.
pub fn choose_splitters(runs: &[&[u64]], n: usize) -> Vec<u64> {
    if n <= 1 {
        return Vec::new();
    }
    let mut sample: Vec<u64> = Vec::new();
    for r in runs {
        // Up to 64 evenly spaced samples per run.
        let step = (r.len() / 64).max(1);
        sample.extend(r.iter().step_by(step));
    }
    sample.sort_unstable();
    sample.dedup();
    if sample.is_empty() {
        return Vec::new();
    }
    let mut splitters = Vec::with_capacity(n - 1);
    for i in 1..n {
        let idx = i * sample.len() / n;
        let v = sample[idx.min(sample.len() - 1)];
        if splitters.last() != Some(&v) {
            splitters.push(v);
        }
    }
    splitters
}

/// Expand splitters into `len+1` half-open range bounds covering all of
/// `u64`: `[0, s0), [s0, s1), ..., [s_last, MAX]`.
pub fn splitter_bounds(splitters: &[u64]) -> Vec<(u64, u64)> {
    let mut bounds = Vec::with_capacity(splitters.len() + 1);
    let mut lo = 0u64;
    for &s in splitters {
        bounds.push((lo, s));
        lo = s;
    }
    bounds.push((lo, u64::MAX));
    bounds
}

/// A tournament loser tree over `k` sorted runs — the classic DBMS k-way
/// merge structure. Each pop costs ⌈log2 k⌉ comparisons against *losers*
/// only (a binary heap re-compares against winners too), which is why
/// multi-way merges in database engines use it. `kway_merge_loser` is the
/// drop-in counterpart of [`kway_merge`]; the `kernels` bench compares
/// them.
pub struct LoserTree<'a> {
    runs: Vec<&'a [u64]>,
    /// Cursor per run.
    pos: Vec<usize>,
    /// Internal nodes: index of the losing run at each tree node.
    tree: Vec<usize>,
    /// Current overall winner run, or `usize::MAX` when drained.
    winner: usize,
    k: usize,
}

impl<'a> LoserTree<'a> {
    /// Build the tree over the given sorted runs with one recursive
    /// tournament: each internal node keeps the *loser* of its subtrees'
    /// final, its winner moves up.
    pub fn new(runs: &[&'a [u64]]) -> Self {
        let k = runs.len().next_power_of_two().max(1);
        let mut t = LoserTree {
            runs: runs.to_vec(),
            pos: vec![0; runs.len()],
            tree: vec![usize::MAX; k],
            winner: usize::MAX,
            k,
        };
        t.winner = t.build(1);
        t
    }

    /// Play the subtree rooted at `node`; store losers, return the winner.
    fn build(&mut self, node: usize) -> usize {
        if node >= self.k {
            let leaf = node - self.k;
            return if leaf < self.runs.len() {
                leaf
            } else {
                usize::MAX
            };
        }
        let l = self.build(2 * node);
        let r = self.build(2 * node + 1);
        let (win, lose) = if self.beats(l, r) { (l, r) } else { (r, l) };
        self.tree[node] = lose;
        win
    }

    /// Current head value of run `r`, or `None` when exhausted.
    #[inline]
    fn head(&self, r: usize) -> Option<u64> {
        if r == usize::MAX {
            return None;
        }
        self.runs[r].get(self.pos[r]).copied()
    }

    /// Does run `a` beat (sort before) run `b`? Exhausted runs lose; ties
    /// resolve to the lower run index for determinism.
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.head(a), self.head(b)) {
            (Some(x), Some(y)) => x < y || (x == y && a < b),
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Pop the smallest value across all runs.
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        let w = self.winner;
        let value = self.head(w)?;
        self.pos[w] += 1;
        // Replay w's path from its leaf to the root.
        let mut contender = w;
        let mut node = (self.k + w) / 2;
        while node > 0 {
            if self.beats(self.tree[node], contender) {
                std::mem::swap(&mut self.tree[node], &mut contender);
            }
            node /= 2;
        }
        self.winner = contender;
        Some(value)
    }
}

/// K-way merge via a loser tree; output identical to [`kway_merge`].
pub fn kway_merge_loser(runs: &[&[u64]]) -> Vec<u64> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut tree = LoserTree::new(runs);
    while let Some(v) = tree.pop() {
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iawj_common::Rng;

    fn sorted_run(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed);
        let mut v: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 20).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn merge_two_basic() {
        let mut out = Vec::new();
        merge_two_into(&[1, 3, 5], &[2, 4, 6], &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn merge_two_with_empty() {
        let mut out = Vec::new();
        merge_two_into(&[], &[1, 2], &mut out);
        assert_eq!(out, vec![1, 2]);
        out.clear();
        merge_two_into(&[1, 2], &[], &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn kway_equals_sorted_concat() {
        let runs: Vec<Vec<u64>> = (0..5).map(|i| sorted_run(200 + i, i as u64)).collect();
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let merged = kway_merge(&refs);
        let mut expect: Vec<u64> = runs.iter().flatten().copied().collect();
        expect.sort_unstable();
        assert_eq!(merged, expect);
    }

    #[test]
    fn kway_empty_and_single() {
        assert!(kway_merge(&[]).is_empty());
        let r = sorted_run(10, 9);
        assert_eq!(kway_merge(&[&r]), r);
        assert_eq!(kway_merge(&[&[][..], &r]), r);
    }

    #[test]
    fn tagged_merge_provenance_is_consistent() {
        let a = vec![1u64, 4, 7];
        let b = vec![2u64, 4, 9];
        let (vals, tags) = kway_merge_tagged(&[&a, &b]);
        assert_eq!(vals, vec![1, 2, 4, 4, 7, 9]);
        // Each tagged element must actually occur in its claimed run.
        for (&v, &t) in vals.iter().zip(tags.iter()) {
            let run = if t == 0 { &a } else { &b };
            assert!(run.contains(&v));
        }
        // Ties resolve to the lower run id first.
        assert_eq!(&tags[2..4], &[0, 1]);
    }

    #[test]
    fn loser_tree_equals_heap_merge() {
        for k in [0usize, 1, 2, 3, 5, 8, 13] {
            let runs: Vec<Vec<u64>> = (0..k).map(|i| sorted_run(37 * (i + 1), i as u64)).collect();
            let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            assert_eq!(kway_merge_loser(&refs), kway_merge(&refs), "k={k}");
        }
    }

    #[test]
    fn loser_tree_handles_empty_and_duplicate_runs() {
        let a = vec![1u64, 1, 1];
        let b: Vec<u64> = vec![];
        let c = vec![1u64, 2];
        let refs: Vec<&[u64]> = vec![&a, &b, &c];
        assert_eq!(kway_merge_loser(&refs), vec![1, 1, 1, 1, 2]);
    }

    #[test]
    fn pairwise_equals_kway() {
        let runs: Vec<Vec<u64>> = (0..7).map(|i| sorted_run(100, 100 + i as u64)).collect();
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let expect = kway_merge(&refs);
        assert_eq!(pairwise_merge(runs), expect);
    }

    #[test]
    fn pairwise_trivial_cases() {
        assert!(pairwise_merge(vec![]).is_empty());
        assert_eq!(pairwise_merge(vec![vec![3, 5]]), vec![3, 5]);
    }

    #[test]
    fn run_segments_tile_the_run() {
        let run = sorted_run(1000, 42);
        let refs = [run.as_slice()];
        let splitters = choose_splitters(&refs, 4);
        let bounds = splitter_bounds(&splitters);
        let total: usize = bounds
            .iter()
            .map(|&(lo, hi)| run_segment(&run, lo, hi).len())
            .sum();
        // [lo, u64::MAX) misses only values equal to u64::MAX, which the
        // >>20 shift in sorted_run rules out.
        assert_eq!(total, run.len());
        // Segments must be contiguous and ordered.
        let mut rebuilt = Vec::new();
        for &(lo, hi) in &bounds {
            rebuilt.extend_from_slice(run_segment(&run, lo, hi));
        }
        assert_eq!(rebuilt, run);
    }

    #[test]
    fn splitters_are_strictly_increasing() {
        let runs: Vec<Vec<u64>> = (0..4).map(|i| sorted_run(512, i as u64)).collect();
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let s = choose_splitters(&refs, 8);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
        assert!(s.len() <= 7);
    }

    #[test]
    fn splitters_on_constant_data_collapse() {
        let run = vec![5u64; 100];
        let s = choose_splitters(&[&run], 4);
        // All sample values equal: at most one distinct splitter.
        assert!(s.len() <= 1);
        let bounds = splitter_bounds(&s);
        let total: usize = bounds
            .iter()
            .map(|&(lo, hi)| run_segment(&run, lo, hi).len())
            .sum();
        assert_eq!(total, 100);
    }
}
