//! Property tests of the latched NPJ table: across input sizes that sit on
//! the bucket-layout edges, uniform and heavily skewed keys, and worker
//! counts, a concurrent build into [`SharedTable`] must hold exactly the
//! multiset a single-owner [`LocalTable`] holds — nothing lost to a racing
//! overflow claim, nothing duplicated by a relinked chain. Sizes are kept
//! small enough for the nightly Miri job to walk the raw arena, the
//! hand-aligned allocation and the `UnsafeCell` bucket accesses in
//! reasonable time.

use iawj_common::{Rng, Zipf};
use iawj_exec::pool::chunk_range;
use iawj_exec::{run_workers, LocalTable, SharedTable};
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

/// All `(key, ts)` pairs reachable by probing every key, sorted.
fn drain(probe: impl Fn(u32, &mut dyn FnMut(u32))) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for k in 0..KEY_SPACE as u32 {
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
            let want = drain(|k, f| local.probe(k, f));
            for threads in [1, 2, 4, 8] {
                let table = build_shared(&input, n, threads);
                let cell = format!("n={n} theta={theta} threads={threads}");
                assert_eq!(table.len(), n, "{cell}");
                assert_eq!(table.is_empty(), n == 0, "{cell}");
                assert_eq!(drain(|k, f| table.probe(k, f)), want, "{cell}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

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
        prop_assert_eq!(drain(|k, f| table.probe(k, f)), want);
    }
}
