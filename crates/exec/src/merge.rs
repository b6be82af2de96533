//! Merging sorted runs: the multi-way merge behind MWay, the successive
//! pairwise merging behind MPass, and the provenance-tagged merge PMJ's
//! merge phase relies on.
//!
//! MWay and MPass both merge with the two-way vector kernel
//! ([`merge_into`]). What keeps MWay multi-way is how often an element
//! goes to memory: [`merge_multiway`] cuts its runs into cache-sized
//! sub-ranges and merges each sub-range's segments pairwise inside two
//! reused L2-sized buffers, so every element is written to memory once
//! whatever the number of runs, while [`merge_passes`] writes it once per
//! pass, ⌈log₂ k⌉ times for k runs.

use crate::sort::{merge_branching, merge_into, SortBackend};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A slice-to-slice two-way merge: `out.len() == a.len() + b.len()`.
type Merge = fn(&[u64], &[u64], &mut [u64]);

/// The two-way merge of `backend`: the bitonic kernel ([`merge_into`]),
/// or the branching merge of the Figure 21 no-SIMD build.
fn two_way(backend: SortBackend) -> Merge {
    match backend {
        SortBackend::Vectorized => merge_into,
        SortBackend::Scalar => merge_branching,
    }
}

/// Elements per sub-range of [`merge_multiway`]: 32 Ki (256 KiB), so a
/// sub-range's two buffers (512 KiB) stay in a 2 MiB L2.
const SUB_RANGE: usize = 1 << 15;

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

/// Multi-way merge of sorted runs into one sorted vector through a binary
/// heap keyed on `(value, run)`; ties resolve to the lower run index,
/// making the output deterministic. No engine merges with it: it is the
/// scalar reference the merge tests compare against, and the benchmark's
/// `exec.merge.kway_ns_pt` layer probe (`benchmark/src/probes.rs`) times
/// it.
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
/// ([`merge_into`]), `Scalar` with the branching merge (the Figure 21
/// no-SIMD merge). Returns an empty vector for no runs.
pub fn merge_passes(runs: &[&[u64]], backend: SortBackend) -> Vec<u64> {
    let merge = two_way(backend);
    let mut level: Vec<Cow<[u64]>> = runs.iter().map(|&r| Cow::Borrowed(r)).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            next.push(match it.next() {
                None => a,
                Some(b) => {
                    let mut out = vec![0; a.len() + b.len()];
                    merge(&a, &b, &mut out);
                    Cow::Owned(out)
                }
            });
        }
        level = next;
    }
    level.pop().map(Cow::into_owned).unwrap_or_default()
}

/// Multi-way merge of sorted runs in one pass over memory (the MWay
/// shuffle). One or two runs merge straight into the output. More are cut
/// by sampled value splitters into sub-ranges of about `SUB_RANGE`
/// elements; each sub-range's segments are merged pairwise through two
/// reused cache-sized buffers, the last pass into the output. Same
/// backends as [`merge_passes`].
pub fn merge_multiway(runs: &[&[u64]], backend: SortBackend) -> Vec<u64> {
    let merge = two_way(backend);
    let runs: Vec<&[u64]> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
    let total = runs.iter().map(|r| r.len()).sum();
    let mut out = vec![0u64; total];
    let splitters = if runs.len() > 2 {
        choose_splitters(&runs, total.div_ceil(SUB_RANGE))
    } else {
        Vec::new()
    };
    let mut bufs = [Vec::new(), Vec::new()];
    let mut starts = vec![0usize; runs.len()];
    let mut at = 0;
    for hi in splitters.iter().map(Some).chain([None]) {
        let segs: Vec<&[u64]> = runs
            .iter()
            .zip(&mut starts)
            .map(|(run, start)| {
                let end = hi.map_or(run.len(), |&s| run.partition_point(|&v| v < s));
                let seg = &run[*start..end];
                *start = end;
                seg
            })
            .collect();
        let n: usize = segs.iter().map(|s| s.len()).sum();
        merge_tree(&segs, &mut out[at..at + n], &mut bufs, merge);
        at += n;
    }
    out
}

/// Merge the sorted `segs` into `out` by pairwise passes that ping-pong
/// between `bufs` (grown to `out`'s length); only the last pass writes
/// `out`.
fn merge_tree(segs: &[&[u64]], out: &mut [u64], bufs: &mut [Vec<u64>; 2], merge: Merge) {
    if segs.len() <= 2 {
        merge(
            segs.first().copied().unwrap_or(&[]),
            segs.get(1).copied().unwrap_or(&[]),
            out,
        );
        return;
    }
    let n = out.len();
    for buf in bufs.iter_mut() {
        if buf.len() < n {
            buf.resize(n, 0);
        }
    }
    let [src, dst] = bufs;
    let (mut src, mut dst) = (&mut src[..n], &mut dst[..n]);
    // First pass: the borrowed segments, pairwise into `src`.
    let mut at = 0;
    for pair in segs.chunks(2) {
        let (a, b) = (pair[0], pair.get(1).copied().unwrap_or(&[]));
        merge(a, b, &mut src[at..at + a.len() + b.len()]);
        at += a.len() + b.len();
    }
    let mut lens: Vec<usize> = segs
        .chunks(2)
        .map(|p| p.iter().map(|s| s.len()).sum())
        .collect();
    while lens.len() > 2 {
        let mut at = 0;
        for pair in lens.chunks(2) {
            let (la, lb) = (pair[0], pair.get(1).copied().unwrap_or(0));
            let (a, b) = src[at..at + la + lb].split_at(la);
            merge(a, b, &mut dst[at..at + la + lb]);
            at += la + lb;
        }
        lens = lens.chunks(2).map(|p| p.iter().sum()).collect();
        std::mem::swap(&mut src, &mut dst);
    }
    let (a, b) = src.split_at(lens[0]);
    merge(a, b, out);
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
    fn multiway_equals_heap_merge() {
        for backend in [SortBackend::Vectorized, SortBackend::Scalar] {
            for k in [0usize, 1, 2, 3, 5, 8, 13] {
                let runs: Vec<Vec<u64>> =
                    (0..k).map(|i| sorted_run(37 * (i + 1), i as u64)).collect();
                let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
                assert_eq!(
                    merge_multiway(&refs, backend),
                    kway_merge(&refs),
                    "k={k} {backend:?}"
                );
            }
        }
    }

    #[test]
    fn multiway_handles_empty_and_duplicate_runs() {
        let a = vec![1u64, 1, 1];
        let b: Vec<u64> = vec![];
        let c = vec![1u64, 2];
        let refs: Vec<&[u64]> = vec![&a, &b, &c];
        assert_eq!(
            merge_multiway(&refs, SortBackend::Vectorized),
            vec![1, 1, 1, 1, 2]
        );
    }

    #[test]
    fn multiway_cuts_large_merges_into_sub_ranges() {
        // Enough elements for several sub-ranges, with an odd run count so
        // a lone run rides through the passes, and a run of one value.
        let mut runs: Vec<Vec<u64>> = (0..5)
            .map(|i| sorted_run(SUB_RANGE / 2 + i, 50 + i as u64))
            .collect();
        runs.push(vec![1 << 40; SUB_RANGE]);
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        assert_eq!(
            merge_multiway(&refs, SortBackend::Vectorized),
            kway_merge(&refs)
        );
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
