//! Property tests for executor reuse: one long-lived pool, driven through
//! many consecutive heterogeneous dispatches, must behave exactly like
//! freshly-spawned scoped threads — same results, same tid→work mapping,
//! regardless of worker-count shrinkage/growth between generations or pin
//! policy.

use iawj_exec::executor::Executor;
use iawj_exec::pool::run_workers;
use iawj_exec::topology::PinPolicy;
use proptest::prelude::*;

/// One synthetic "run": `n` workers each fold a deterministic function of
/// (tid, seed) so any tid mix-up, dropped dispatch, or stale-generation
/// result changes the output.
fn workload(seed: u64) -> impl Fn(usize) -> u64 + Sync {
    move |tid| {
        let mut acc = seed ^ (tid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for i in 0..(seed % 257 + 1) {
            acc = acc.rotate_left(7).wrapping_add(i ^ tid as u64);
        }
        acc
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// 100 consecutive runs with per-run worker counts drawn from 1..=8:
    /// the reused pool must agree with `run_workers` on every single run.
    #[test]
    fn pool_reuse_matches_spawn_across_heterogeneous_runs(
        sizes in proptest::collection::vec(1usize..9, 100..101),
        seed in any::<u64>(),
    ) {
        let exec = Executor::new(PinPolicy::None, 8);
        for (i, &n) in sizes.iter().enumerate() {
            let f = workload(seed.wrapping_add(i as u64));
            let pooled = exec.run(n, &f);
            let spawned = run_workers(n, &f);
            prop_assert_eq!(pooled, spawned, "run {} (n={})", i, n);
        }
        prop_assert!(exec.generations() >= 1);
    }

    /// Pinning policies may move threads, never results: every policy
    /// produces the identical output vector for the same dispatch.
    #[test]
    fn pin_policies_never_change_results(
        n in 1usize..7,
        seed in any::<u64>(),
    ) {
        let f = workload(seed);
        let expect = run_workers(n, &f);
        for pin in PinPolicy::ALL {
            let exec = Executor::new(pin, n);
            prop_assert_eq!(exec.run(n, &f), expect.clone(), "pin={:?}", pin);
        }
    }

    /// A pool asked for more workers than it holds must degrade to the
    /// spawn path, not truncate the dispatch.
    #[test]
    fn capacity_shortfall_falls_back_to_spawning(
        cap in 1usize..4,
        n in 4usize..9,
        seed in any::<u64>(),
    ) {
        let exec = Executor::new(PinPolicy::None, cap);
        let f = workload(seed);
        prop_assert_eq!(exec.run(n, &f), run_workers(n, &f));
    }
}
