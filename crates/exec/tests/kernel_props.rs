//! Property-based tests of the kernel layer: the invariants every join
//! algorithm silently relies on.

use iawj_common::hash::{bucket_of, hash_key};
use iawj_common::kernel::{hash_batch8, hash_keys_into, tuple_buckets_into, HASH_BLOCK};
use iawj_common::{KernelBackend, Tuple};
use iawj_exec::hashtable::{LocalTable, SharedTable};
use iawj_exec::merge::{
    choose_splitters, kway_merge, kway_merge_tagged, merge_multiway, merge_passes, merge_two_into,
    pairwise_merge, run_segment, splitter_bounds,
};
use iawj_exec::sort::{merge_into, sort_packed, sort_packed_kernel, SortBackend};
use proptest::prelude::*;
use std::collections::HashMap;

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The edge sizes the batched (8-wide) kernels must survive: empty input,
/// sub-block, exact block, block+1, and a large non-multiple.
const KERNEL_SIZES: &[usize] = &[0, 1, 7, 8, 9, 4097];

/// Deterministic key stream. `skew` ~ Zipf theta: 0.0 draws near-uniform
/// keys, 0.99 collapses the domain so duplicates are dense.
fn keys_for(n: usize, seed: u64, skew: f64) -> Vec<u32> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if skew > 0.5 {
                (x % 17) as u32 // heavy duplication, like theta = 0.99
            } else {
                x as u32
            }
        })
        .collect()
}

/// Deterministic packed-u64 stream for the sort kernels, same skew rule.
fn packed_for(n: usize, seed: u64, skew: f64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if skew > 0.5 {
                x % 17
            } else {
                x
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn merge_two_into_agrees_with_merge_into(a in proptest::collection::vec(any::<u64>(), 0..500),
                                             b in proptest::collection::vec(any::<u64>(), 0..500)) {
        let a = sorted(a);
        let b = sorted(b);
        let mut out1 = Vec::new();
        merge_two_into(&a, &b, &mut out1);
        let mut out2 = vec![0; a.len() + b.len()];
        merge_into(&a, &b, &mut out2);
        prop_assert_eq!(&out1, &out2);
        let expect = sorted(a.iter().chain(b.iter()).copied().collect());
        prop_assert_eq!(out1, expect);
    }

    #[test]
    fn kway_and_pairwise_agree(runs in proptest::collection::vec(
        proptest::collection::vec(any::<u64>(), 0..120), 0..8)) {
        let runs: Vec<Vec<u64>> = runs.into_iter().map(sorted).collect();
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let k = kway_merge(&refs);
        let expect = sorted(runs.iter().flatten().copied().collect());
        prop_assert_eq!(&k, &expect);
        prop_assert_eq!(&merge_passes(&refs, SortBackend::Scalar), &expect);
        prop_assert_eq!(&merge_passes(&refs, SortBackend::Vectorized), &expect);
        prop_assert_eq!(pairwise_merge(runs.clone()), expect);
        // Tagged merge yields the same values with valid provenance.
        let (vals, tags) = kway_merge_tagged(&refs);
        prop_assert_eq!(&vals, &k);
        for (&v, &t) in vals.iter().zip(tags.iter()) {
            prop_assert!(runs[t as usize].contains(&v));
        }
    }

    #[test]
    fn merge_multiway_agrees_with_kway_merge(
        shapes in proptest::collection::vec((0usize..120, 0u8..3, any::<u64>()), 0..10)) {
        // k in 0..=9 runs, each random, empty or one repeated value.
        let runs: Vec<Vec<u64>> = shapes
            .iter()
            .map(|&(len, kind, seed)| match kind {
                0 => sorted(packed_for(len, seed, 0.0)),
                1 => Vec::new(),
                _ => vec![seed % 3; len],
            })
            .collect();
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let expect = kway_merge(&refs);
        for backend in [SortBackend::Scalar, SortBackend::Vectorized] {
            prop_assert_eq!(&merge_multiway(&refs, backend), &expect, "{:?}", backend);
        }
    }

    #[test]
    fn splitter_segments_tile_every_run(
        runs in proptest::collection::vec(
            proptest::collection::vec(0u64..u64::MAX - 1, 1..200), 1..5),
        n in 1usize..9) {
        let runs: Vec<Vec<u64>> = runs.into_iter().map(sorted).collect();
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let bounds = splitter_bounds(&choose_splitters(&refs, n));
        for run in &runs {
            let total: usize = bounds.iter()
                .map(|&(lo, hi)| run_segment(run, lo, hi).len())
                .sum();
            // Every element except a possible u64::MAX (excluded above) is
            // covered exactly once.
            prop_assert_eq!(total, run.len());
        }
    }

    #[test]
    fn local_table_agrees_with_hashmap(ops in proptest::collection::vec((any::<u8>(), 0u32..64), 0..800)) {
        let mut table = LocalTable::with_capacity(16);
        let mut model: HashMap<u32, Vec<u32>> = HashMap::new();
        for (i, &(_, key)) in ops.iter().enumerate() {
            table.insert(key, i as u32);
            model.entry(key).or_default().push(i as u32);
        }
        for key in 0u32..64 {
            let mut got = Vec::new();
            table.probe(key, |ts| got.push(ts));
            got.sort_unstable();
            let mut expect = model.get(&key).cloned().unwrap_or_default();
            expect.sort_unstable();
            prop_assert_eq!(got, expect, "key {}", key);
        }
    }

    #[test]
    fn hash_kernels_agree_with_scalar_hash(seed in any::<u64>()) {
        for (&n, &skew) in KERNEL_SIZES.iter().flat_map(|n| [(n, &0.0f64), (n, &0.99)]) {
            let keys = keys_for(n, seed, skew);
            // Block-wise batched hash vs. the scalar reference, both backends.
            for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
                let mut out = vec![0u64; keys.len()];
                hash_keys_into(backend, &keys, &mut out);
                for (k, h) in keys.iter().zip(out.iter()) {
                    prop_assert_eq!(*h, hash_key(*k), "{:?} n={}", backend, n);
                }
            }
            for chunk in keys.chunks_exact(HASH_BLOCK) {
                let block: [u32; HASH_BLOCK] = chunk.try_into().unwrap();
                let scalar = hash_batch8(KernelBackend::Scalar, &block);
                let simd = hash_batch8(KernelBackend::Simd, &block);
                prop_assert_eq!(scalar, simd);
                for (k, h) in block.iter().zip(scalar.iter()) {
                    prop_assert_eq!(*h, hash_key(*k));
                }
            }
        }
    }

    #[test]
    fn bucket_derivation_kernels_agree(seed in any::<u64>()) {
        let mask = (1u64 << 10) - 1;
        for (&n, &skew) in KERNEL_SIZES.iter().flat_map(|n| [(n, &0.0f64), (n, &0.99)]) {
            let tuples: Vec<Tuple> = keys_for(n, seed, skew)
                .iter()
                .enumerate()
                .map(|(i, &k)| Tuple::new(k, i as u32))
                .collect();
            let mut scalar = Vec::new();
            let mut simd = Vec::new();
            tuple_buckets_into(KernelBackend::Scalar, &tuples, mask, &mut scalar);
            tuple_buckets_into(KernelBackend::Simd, &tuples, mask, &mut simd);
            prop_assert_eq!(&scalar, &simd, "n={}", n);
            for (t, &b) in tuples.iter().zip(scalar.iter()) {
                prop_assert_eq!(b, bucket_of(t.key, mask));
            }
        }
    }

    #[test]
    fn prefetched_probe_matches_unprefetched(seed in any::<u64>()) {
        for (&n, &skew) in KERNEL_SIZES.iter().flat_map(|n| [(n, &0.0f64), (n, &0.99)]) {
            let tuples: Vec<Tuple> = keys_for(n, seed, skew)
                .iter()
                .enumerate()
                .map(|(i, &k)| Tuple::new(k % 257, i as u32))
                .collect();
            // NPJ's pipeline: batched bucket derivation, prefetch ahead,
            // insert and probe through the `_at` split APIs.
            let table = SharedTable::with_capacity(n.max(8));
            let mut buckets = Vec::new();
            tuple_buckets_into(KernelBackend::Simd, &tuples, table.mask(), &mut buckets);
            for (i, t) in tuples.iter().enumerate() {
                if let Some(&ahead) = buckets.get(i + 4) {
                    table.prefetch_bucket(ahead);
                }
                table.insert_at(buckets[i], t.key, t.ts);
            }
            // Reference: plain per-tuple build of a single-owner table.
            let mut plain = LocalTable::with_capacity(n.max(8));
            for t in &tuples {
                plain.insert(t.key, t.ts);
            }
            // Probe both ways for every key; multisets of payloads must match.
            for probe_key in 0..257u32 {
                let mut via_at = Vec::new();
                let b = bucket_of(probe_key, table.mask());
                table.prefetch_bucket(b);
                table.probe_at(b, probe_key, |ts| via_at.push(ts));
                let mut direct = Vec::new();
                plain.probe(probe_key, |ts| direct.push(ts));
                via_at.sort_unstable();
                direct.sort_unstable();
                prop_assert_eq!(via_at, direct, "key {} n={}", probe_key, n);
            }
        }
    }

    #[test]
    fn simd_sort_matches_sort_unstable(seed in any::<u64>()) {
        for (&n, &skew) in KERNEL_SIZES.iter().flat_map(|n| [(n, &0.0f64), (n, &0.99)]) {
            let data = packed_for(n, seed, skew);
            let expect = sorted(data.clone());
            for backend in [SortBackend::Scalar, SortBackend::Vectorized] {
                for kernel in [KernelBackend::Scalar, KernelBackend::Simd] {
                    let mut v = data.clone();
                    sort_packed_kernel(&mut v, backend, kernel);
                    prop_assert_eq!(&v, &expect, "{:?}/{:?} n={}", backend, kernel, n);
                }
            }
        }
    }

    #[test]
    fn sort_packed_kernel_equals_sort_unstable(len in 0usize..100_000, kind in 0u8..3, seed in any::<u64>()) {
        // Lengths across several cache blocks; full-range, all-equal and
        // 3-distinct-key vectors.
        let data: Vec<u64> = match kind {
            0 => packed_for(len, seed, 0.0),
            1 => vec![seed; len],
            _ => packed_for(len, seed, 0.0).iter().map(|x| (x % 3) << 32).collect(),
        };
        let expect = sorted(data.clone());
        for backend in [SortBackend::Scalar, SortBackend::Vectorized] {
            for kernel in [KernelBackend::Scalar, KernelBackend::Simd] {
                let mut v = data.clone();
                sort_packed_kernel(&mut v, backend, kernel);
                prop_assert_eq!(&v, &expect, "{:?}/{:?} len={}", backend, kernel, len);
            }
        }
    }

    #[test]
    fn sort_backends_idempotent(data in proptest::collection::vec(any::<u64>(), 0..800)) {
        for backend in [SortBackend::Scalar, SortBackend::Vectorized] {
            let mut v = data.clone();
            sort_packed(&mut v, backend);
            let once = v.clone();
            sort_packed(&mut v, backend);
            prop_assert_eq!(&v, &once, "{:?} not idempotent", backend);
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}

#[test]
fn shared_table_concurrent_stress() {
    // 8 threads × 4 rounds of mixed-key inserts; total count must be exact
    // and every key's chain complete.
    let table = SharedTable::with_capacity(1 << 12);
    iawj_exec::run_workers(8, |tid| {
        for round in 0..4u32 {
            for k in 0..512u32 {
                table.insert(k % 97, tid as u32 * 1000 + round * 100 + k % 7);
            }
        }
    });
    assert_eq!(table.len(), 8 * 4 * 512);
    let mut total = 0usize;
    for k in 0..97u32 {
        let mut n = 0;
        table.probe(k, |_| n += 1);
        total += n;
    }
    assert_eq!(total, 8 * 4 * 512);
}
