//! Property tests of the cache-line bucket tables against the chained
//! [`LocalTable`]:
//!
//! - NPJ's latched [`SharedTable`]: across input sizes that sit on the
//!   bucket-layout edges, uniform and heavily skewed keys, and worker
//!   counts, a concurrent build must hold exactly the multiset a
//!   single-owner table holds — nothing lost to a racing overflow claim,
//!   nothing duplicated by a relinked chain.
//! - SHJ's single-owner [`BucketTable`]: over duplication, sizing and sizes
//!   whose heads and overflow lines cross the 1024-line chunk edges, it must
//!   hold the same multiset with an exact `len()` and a monotone `bytes()`,
//!   also while it is probed between inserts.
//! - The evictable [`WindowIndex`] on the same lines: under random insert,
//!   evict and range-probe sequences it must agree with a `Vec` model across
//!   head growth, and eviction must pack every chain into exactly the lines
//!   its tuples need while later inserts reuse the freed lines before
//!   allocating, so sliding churn leaks nothing.
//!
//! Sizes are kept small enough for the nightly Miri job to walk the raw
//! arena, the hand-aligned allocation and the `UnsafeCell` bucket accesses
//! in reasonable time.

use iawj_common::hash::bucket_of;
use iawj_common::{Rng, Zipf};
use iawj_exec::pool::chunk_range;
use iawj_exec::{run_workers, BucketTable, LocalTable, SharedTable, WindowIndex};
use proptest::collection;
use proptest::prelude::*;

/// Tuple slots of one 64-byte bucket (`hashtable::SLOTS`, which is private):
/// `SLOTS` tuples of one key fill a head bucket exactly, `SLOTS + 1` claim
/// the first overflow bucket.
const SLOTS: usize = 7;

const KEY_SPACE: usize = 256;

/// `n` pairs with Zipf(θ) keys over [`KEY_SPACE`] and distinct payloads.
fn pairs(n: usize, seed: u64, theta: f64) -> Vec<(u32, u32)> {
    let zipf = Zipf::new(KEY_SPACE, theta);
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| (zipf.sample(&mut rng) as u32, i as u32))
        .collect()
}

/// `n` pairs in a seeded random order whose keys `0..n.div_ceil(dupe)` each
/// occur `dupe` times (the last one fewer), with distinct payloads.
fn duplicated(n: usize, dupe: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut keys: Vec<u32> = (0..n).map(|i| (i / dupe) as u32).collect();
    Rng::new(seed).shuffle(&mut keys);
    keys.into_iter().zip(0..).collect()
}

/// All `(key, ts)` pairs reachable by probing keys `0..keys`, sorted.
fn drain(keys: u32, probe: impl Fn(u32, &mut dyn FnMut(u32))) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for k in 0..keys {
        probe(k, &mut |ts| out.push((k, ts)));
    }
    out.sort_unstable();
    out
}

/// Build `input` into a table sized for `expected` from `threads` workers.
fn build_shared(input: &[(u32, u32)], expected: usize, threads: usize) -> SharedTable {
    let table = SharedTable::with_capacity(expected);
    run_workers(threads, |tid| {
        for &(k, ts) in &input[chunk_range(input.len(), threads, tid)] {
            table.insert(k, ts);
        }
    });
    table
}

/// The layout-edge grid, exhaustively: empty, one tuple, a head bucket
/// exactly full, its first overflow, and enough for long chains — uniform
/// and Zipf(0.99) keys, 1/2/4/8 workers.
#[test]
fn concurrent_build_matches_single_owner_table() {
    for n in [0, 1, SLOTS, SLOTS + 1, 4097] {
        for theta in [0.0, 0.99] {
            let input = pairs(n, n as u64, theta);
            let mut local = LocalTable::with_capacity(n);
            for &(k, ts) in &input {
                local.insert(k, ts);
            }
            let want = drain(KEY_SPACE as u32, |k, f| local.probe(k, f));
            for threads in [1, 2, 4, 8] {
                let table = build_shared(&input, n, threads);
                let cell = format!("n={n} theta={theta} threads={threads}");
                assert_eq!(table.len(), n, "{cell}");
                assert_eq!(table.is_empty(), n == 0, "{cell}");
                assert_eq!(
                    drain(KEY_SPACE as u32, |k, f| table.probe(k, f)),
                    want,
                    "{cell}"
                );
            }
        }
    }
}

/// Sizes of the single-owner grid. Overflow lines live in chunks of 1024,
/// so overflow line 1024 opens the second chunk and 2048 the third. The
/// undersized cells (`expected = n / 8`) of 16 384 inserts chain past the
/// third, and of 8192 (Miri) past the second; `expected = n` and `8n` give
/// 1024 to 32 768 heads with few or no overflow lines.
#[cfg(not(miri))]
const BUCKET_SIZES: &[usize] = &[0, 1, SLOTS, SLOTS + 1, 4096, 16_384];
#[cfg(miri)]
const BUCKET_SIZES: &[usize] = &[0, 1, SLOTS + 1, 8192];

/// Overflow lines the grid must pass: into the third chunk natively, the
/// second under Miri.
const OVERFLOW_REACH: usize = if cfg!(miri) { 1024 } else { 2048 };

/// Head lines of a `BucketTable` sized for `expected` (its private rule:
/// one per 4 expected tuples, rounded up to a power of two).
fn heads(expected: usize) -> usize {
    (expected / 4).max(1).next_power_of_two()
}

#[test]
fn bucket_table_holds_what_a_local_table_holds() {
    let mut reach = 0;
    for dupe in [1, 4, 100] {
        for &n in BUCKET_SIZES {
            let input = duplicated(n, dupe, (n * dupe) as u64);
            let keys = n.div_ceil(dupe) as u32;
            let mut local = LocalTable::with_capacity(n);
            for &(k, ts) in &input {
                local.insert(k, ts);
            }
            let want = drain(keys, |k, f| local.probe(k, f));
            for expected in [n / 8, n, 8 * n] {
                let cell = format!("n={n} dupe={dupe} expected={expected}");
                let mut table = BucketTable::with_capacity(expected);
                let mut bytes = table.bytes();
                assert_eq!(bytes, heads(expected) * 64, "{cell}");
                for (i, &(k, ts)) in input.iter().enumerate() {
                    table.insert(k, ts);
                    assert_eq!(table.len(), i + 1, "{cell}");
                    assert!(
                        table.bytes() >= bytes,
                        "{cell}: bytes() shrank at insert {i}"
                    );
                    bytes = table.bytes();
                }
                assert_eq!(table.is_empty(), n == 0, "{cell}");
                assert_eq!(drain(keys, |k, f| table.probe(k, f)), want, "{cell}");
                reach = reach.max(bytes / 64 - heads(expected));
            }
        }
    }
    assert!(
        reach > OVERFLOW_REACH,
        "the grid claimed only {reach} overflow lines"
    );
}

/// Most operations of one build-while-probe sequence.
const MAX_OPS: usize = if cfg!(miri) { 300 } else { 1500 };

/// Keys of the index model: few enough that chains run over several lines.
const INDEX_KEYS: u32 = 24;

/// Lines a chain of `n` tuples holds once eviction has packed it: the head
/// always, and no partly filled line but the last.
fn packed_lines(n: usize) -> usize {
    n.div_ceil(SLOTS).max(1)
}

/// Every line `ix` has allocated that sits in a chain.
fn chained_bytes(ix: &WindowIndex) -> usize {
    (0..=ix.mask() as usize)
        .map(|b| ix.chain_lines(b))
        .sum::<usize>()
        * 64
}

#[test]
fn window_index_reuses_freed_lines_under_sliding_churn() {
    // A sliding window over a few hot keys in turn: each slide evicts the
    // oldest tuples and inserts as many new ones, so every chain's length
    // is steady. Once the window has filled, the footprint must stop
    // growing however long the stream runs, every freed line going back
    // into a chain.
    let (window, slide) = if cfg!(miri) { (126, 14) } else { (2100, 105) };
    let mut ix = WindowIndex::with_capacity(window);
    let mut ts = 0u32;
    let mut settled = 0;
    for step in 0..4 * window / slide {
        for _ in 0..slide {
            ix.insert(ts % 6, ts);
            ts += 1;
        }
        ix.evict_before(ts.saturating_sub(window as u32));
        assert_eq!(ix.len(), window.min(ts as usize));
        if step == 2 * window / slide {
            settled = ix.bytes();
        }
    }
    assert!(settled > 0);
    assert_eq!(ix.bytes(), settled, "the footprint grew under churn");
    let heads = ix.mask() as usize + 1;
    assert!(
        settled > (heads + 6) * 64,
        "the churn never needed an overflow line"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn build_while_probe_matches_local_tables(
        ops in collection::vec((any::<bool>(), 0u32..48), 1..MAX_OPS),
        expected in 0usize..300) {
        // SHJ's regime: each arrival goes into its own side's table, then
        // probes the other side's, which is still being built.
        let mut local = [LocalTable::with_capacity(expected), LocalTable::with_capacity(expected)];
        let mut table = [BucketTable::with_capacity(expected), BucketTable::with_capacity(expected)];
        for (ts, &(s_side, key)) in ops.iter().enumerate() {
            let (own, other) = (usize::from(s_side), usize::from(!s_side));
            local[own].insert(key, ts as u32);
            table[own].insert(key, ts as u32);
            let mut want = Vec::new();
            local[other].probe(key, |ts| want.push(ts));
            let mut got = Vec::new();
            table[other].probe(key, |ts| got.push(ts));
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, want, "op {}", ts);
        }
        for side in 0..2 {
            prop_assert_eq!(table[side].len(), local[side].len());
        }
    }

    #[test]
    fn undersized_table_grows_and_loses_nothing(
        expected in 0usize..65,
        n in 0usize..700,
        threads in 1usize..9,
        seed in 0u64..1000) {
        // Far more inserts than the table was sized for: chains run past the
        // overflow buckets of the first allocation into grown segments,
        // which racing workers must create exactly once.
        let input = pairs(n, seed, 0.99);
        let table = build_shared(&input, expected, threads);
        let mut want = input;
        want.sort_unstable();
        prop_assert_eq!(drain(KEY_SPACE as u32, |k, f| table.probe(k, f)), want);
    }

    #[test]
    fn window_index_matches_a_vec_model(
        ops in collection::vec((0u32..10, 0u32..INDEX_KEYS, 0u32..4), 1..MAX_OPS),
        expected in 0usize..100) {
        // The streaming operator's regime: inserts in (nearly) ts order,
        // evictions sliding a horizon of varying reach behind them, and
        // ts-range probes in between.
        let mut ix = WindowIndex::with_capacity(expected);
        let mut model: Vec<(u32, u32)> = Vec::new();
        let mut ts = 0u32;
        for (op, &(kind, key, step)) in ops.iter().enumerate() {
            match kind {
                0..=6 => {
                    let (mask, bytes) = (ix.mask(), ix.bytes());
                    ix.insert(key, ts);
                    model.push((key, ts));
                    ts += u32::from(step == 0);
                    if ix.mask() == mask && ix.bytes() > bytes {
                        // A new line only once no freed line is left.
                        prop_assert_eq!(chained_bytes(&ix), ix.bytes(), "op {}", op);
                    }
                }
                7 | 8 => {
                    let horizon = ts.saturating_sub(4 * key + step);
                    let stale = model.iter().filter(|&&(_, t)| t < horizon).count();
                    prop_assert_eq!(ix.evict_before(horizon), stale, "op {}", op);
                    model.retain(|&(_, t)| t >= horizon);
                    let mut per_chain = vec![0; ix.mask() as usize + 1];
                    for &(k, _) in &model {
                        per_chain[bucket_of(k, ix.mask())] += 1;
                    }
                    for (b, &n) in per_chain.iter().enumerate() {
                        prop_assert_eq!(ix.chain_lines(b), packed_lines(n), "op {} chain {}", op, b);
                    }
                }
                _ => {
                    let (lo, hi) = (ts.saturating_sub(4 * key), ts.saturating_sub(step));
                    let mut got = Vec::new();
                    ix.probe_range_at(bucket_of(key, ix.mask()), key, lo, hi, |t| got.push(t));
                    got.sort_unstable();
                    let want: Vec<u32> = model
                        .iter()
                        .filter(|&&(k, t)| k == key && (lo..hi).contains(&t))
                        .map(|&(_, t)| t)
                        .collect();
                    prop_assert_eq!(got, want, "op {}", op);
                }
            }
            prop_assert_eq!(ix.len(), model.len(), "op {}", op);
        }
        for key in 0..INDEX_KEYS {
            let want = model.iter().filter(|&&(k, _)| k == key).count();
            prop_assert_eq!(ix.count(key), want, "key {}", key);
        }
    }
}
