//! Property-based cross-crate tests: random workload shapes, every
//! algorithm must agree with the nested-loop oracle; plus invariants of
//! the kernel layer under arbitrary inputs.

use iawj_study::core::reference::nested_loop_join;
use iawj_study::core::{execute, Algorithm, RunConfig};
use iawj_study::datagen::MicroSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn all_algorithms_match_oracle(
        n_r in 1usize..400,
        n_s in 1usize..400,
        dupe in 1usize..20,
        skew in 0u8..3,
        threads in 1usize..6,
        seed in 0u64..1000,
    ) {
        let spec = MicroSpec::static_counts(n_r, n_s)
            .dupe(dupe)
            .skew_key(skew as f64 * 0.7)
            .seed(seed);
        let ds = spec.generate();
        let expect = nested_loop_join(&ds.r, &ds.s, ds.window);
        for algo in Algorithm::STUDIED {
            let cfg = RunConfig::with_threads(threads).record_all();
            let result = execute(algo, &ds, &cfg);
            let mut got: Vec<_> = result.samples.iter().map(|m| (m.key, m.r_ts, m.s_ts)).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expect, "{} n_r={} n_s={} dupe={} threads={}",
                algo, n_r, n_s, dupe, threads);
        }
    }

    #[test]
    fn npj_matches_oracle(
        n_r in 1usize..400,
        n_s in 1usize..400,
        dupe in 1usize..20,
        skew in 0u8..3,
        threads in 1usize..6,
        seed in 0u64..1000,
    ) {
        let ds = MicroSpec::static_counts(n_r, n_s)
            .dupe(dupe)
            .skew_key(skew as f64 * 0.7)
            .seed(seed)
            .generate();
        let expect = nested_loop_join(&ds.r, &ds.s, ds.window);
        let cfg = RunConfig::with_threads(threads).record_all();
        let result = execute(Algorithm::Npj, &ds, &cfg);
        let mut got: Vec<_> = result.samples.iter().map(|m| (m.key, m.r_ts, m.s_ts)).collect();
        got.sort_unstable();
        prop_assert_eq!(&got, &expect, "NPJ n_r={} n_s={} dupe={} threads={}",
            n_r, n_s, dupe, threads);
    }

    #[test]
    fn sort_backends_agree_with_std(mut data in proptest::collection::vec(any::<u64>(), 0..2000)) {
        use iawj_study::exec::sort::{sort_packed, SortBackend};
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut scalar = data.clone();
        sort_packed(&mut scalar, SortBackend::Scalar);
        prop_assert_eq!(&scalar, &expect);
        sort_packed(&mut data, SortBackend::Vectorized);
        prop_assert_eq!(&data, &expect);
    }

    #[test]
    fn radix_partition_is_a_permutation(
        keys in proptest::collection::vec(any::<u32>(), 0..2000),
        bits in 1u32..10,
        threads in 1usize..5,
    ) {
        use iawj_study::common::Tuple;
        use iawj_study::exec::radix::{partition_of, partition_parallel_exec};
        use iawj_study::exec::{Executor, PinPolicy};
        let tuples: Vec<Tuple> = keys.iter().enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u32)).collect();
        let exec = Executor::new(PinPolicy::None, threads);
        let part = partition_parallel_exec(&tuples, 0, bits, threads, &exec);
        let mut a: Vec<u64> = tuples.iter().map(|t| t.pack()).collect();
        let mut b: Vec<u64> = part.data.iter().map(|t| t.pack()).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        for p in 0..part.fanout() {
            for t in part.partition(p) {
                prop_assert_eq!(partition_of(t.key, 0, bits), p);
            }
        }
    }

    #[test]
    fn merge_join_count_matches_hashmap(
        r_keys in proptest::collection::vec(0u32..50, 0..300),
        s_keys in proptest::collection::vec(0u32..50, 0..300),
    ) {
        use iawj_study::exec::mergejoin::count_matches;
        use std::collections::HashMap;
        let mut r: Vec<u64> = r_keys.iter().enumerate().map(|(i, &k)| ((k as u64) << 32) | i as u64).collect();
        let mut s: Vec<u64> = s_keys.iter().enumerate().map(|(i, &k)| ((k as u64) << 32) | i as u64).collect();
        r.sort_unstable();
        s.sort_unstable();
        let mut freq: HashMap<u32, u64> = HashMap::new();
        for &k in &r_keys { *freq.entry(k).or_insert(0) += 1; }
        let expect: u64 = s_keys.iter().map(|k| freq.get(k).copied().unwrap_or(0)).sum();
        prop_assert_eq!(count_matches(&r, &s), expect);
    }

    #[test]
    fn zipf_samples_in_domain(n in 1usize..500, theta in 0.0f64..2.5, seed in 0u64..100) {
        use iawj_study::common::{Rng, Zipf};
        let z = Zipf::new(n, theta);
        let mut rng = Rng::new(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}
