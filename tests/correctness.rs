//! Cross-crate correctness: every algorithm (and the handshake strawman)
//! must produce exactly the reference multiset of matches on every
//! workload shape — streaming and static, unique and duplicated keys,
//! skewed and uniform, symmetric and asymmetric.

use iawj_study::core::reference::{match_count, nested_loop_join};
use iawj_study::core::{execute, Algorithm, RunConfig};
use iawj_study::datagen::{Dataset, MicroSpec};

fn canonical(result: &iawj_study::core::RunResult) -> Vec<(u32, u32, u32)> {
    let mut v: Vec<_> = result
        .samples
        .iter()
        .map(|m| (m.key, m.r_ts, m.s_ts))
        .collect();
    v.sort_unstable();
    v
}

fn assert_all_algorithms_exact(ds: &Dataset, threads: usize, label: &str) {
    let expect = nested_loop_join(&ds.r, &ds.s, ds.window);
    for algo in Algorithm::STUDIED {
        let cfg = RunConfig::with_threads(threads).record_all().speedup(500.0);
        let result = execute(algo, ds, &cfg);
        assert_eq!(
            canonical(&result),
            expect,
            "{algo} diverged on {label} with {threads} threads"
        );
    }
}

#[test]
fn static_unique_keys() {
    let ds = MicroSpec::static_counts(1200, 900).seed(1).generate();
    assert_all_algorithms_exact(&ds, 4, "static unique");
}

#[test]
fn static_heavy_duplication() {
    let ds = MicroSpec::static_counts(600, 600)
        .dupe(60)
        .seed(2)
        .generate();
    assert_all_algorithms_exact(&ds, 4, "static dupe=60");
}

#[test]
fn static_skewed_keys() {
    let ds = MicroSpec::static_counts(1500, 1500)
        .dupe(10)
        .skew_key(1.4)
        .seed(3)
        .generate();
    assert_all_algorithms_exact(&ds, 3, "static zipf keys");
}

#[test]
fn streaming_uniform() {
    let ds = MicroSpec::with_rates(2.0, 2.5).dupe(4).seed(4).generate();
    assert_all_algorithms_exact(&ds, 2, "streaming uniform");
}

#[test]
fn streaming_skewed_arrivals() {
    let ds = MicroSpec::with_rates(2.0, 2.0)
        .dupe(2)
        .skew_ts(1.6)
        .seed(5)
        .generate();
    assert_all_algorithms_exact(&ds, 4, "streaming zipf arrivals");
}

#[test]
fn asymmetric_cardinalities() {
    let ds = MicroSpec::static_counts(50, 3000)
        .dupe(5)
        .seed(6)
        .generate();
    assert_all_algorithms_exact(&ds, 4, "tiny R, large S");
    let ds = MicroSpec::static_counts(3000, 50)
        .dupe(5)
        .seed(7)
        .generate();
    assert_all_algorithms_exact(&ds, 4, "large R, tiny S");
}

#[test]
fn single_and_many_threads() {
    let ds = MicroSpec::static_counts(800, 800)
        .dupe(8)
        .seed(8)
        .generate();
    for threads in [1usize, 2, 5, 8] {
        assert_all_algorithms_exact(&ds, threads, "thread sweep");
    }
}

/// The cross-engine differential harness: every studied engine, against
/// the nested-loop oracle, over a randomized grid of seed × Zipf key skew ×
/// thread count — asserting the *exact sorted match set*, not just the
/// count. Skew θ=0.99 piles the join work onto a few radix partitions and
/// key ranges, the shape that starves static work splits.
#[test]
fn differential_all_engines_across_skew_threads() {
    for seed in [11u64, 12] {
        for theta in [0.0f64, 0.4, 0.99] {
            let ds = MicroSpec::static_counts(600, 600)
                .dupe(6)
                .skew_key(theta)
                .seed(seed)
                .generate();
            let expect = nested_loop_join(&ds.r, &ds.s, ds.window);
            for threads in [1usize, 2, 4] {
                for algo in Algorithm::STUDIED {
                    let cfg = RunConfig::with_threads(threads).record_all().speedup(500.0);
                    let result = execute(algo, &ds, &cfg);
                    assert_eq!(
                        canonical(&result),
                        expect,
                        "{algo} diverged (seed={seed} θ={theta} threads={threads})"
                    );
                }
            }
        }
    }
}

/// The index-engine differential harness guarding engines 9+: IBWJ and
/// IBWJ_PART against the nested-loop oracle over seed × Zipf key skew ×
/// thread count, asserting the exact sorted match set. θ=0.99
/// concentrates one key-hash partition, which is what actually forces
/// IBWJ_PART's histogram-driven LPT repartition between
/// epochs; the eager drive interleaves R/S batches, exercising the
/// insert-then-probe exactly-once argument on both engines.
#[test]
fn differential_index_engines_across_skew_threads() {
    for seed in [91u64, 92] {
        for theta in [0.0f64, 0.99] {
            let ds = MicroSpec::static_counts(600, 600)
                .dupe(6)
                .skew_key(theta)
                .seed(seed)
                .generate();
            let expect = nested_loop_join(&ds.r, &ds.s, ds.window);
            for threads in [1usize, 4] {
                for algo in Algorithm::INDEX {
                    let cfg = RunConfig::with_threads(threads).record_all().speedup(500.0);
                    let result = execute(algo, &ds, &cfg);
                    assert_eq!(
                        canonical(&result),
                        expect,
                        "{algo} diverged (seed={seed} θ={theta} threads={threads})"
                    );
                }
            }
        }
    }
}

/// The differential harness guarding NPJ's latched shared table: NPJ
/// against the nested-loop oracle over seed × Zipf key skew × thread count
/// (up to 8, past the engine grid above), asserting the exact
/// sorted match set. θ=0.99 concentrates the build and probe on a handful
/// of hot buckets, which is what actually forces contended latch
/// acquisitions and overflow-bucket claims.
#[test]
fn differential_npj_across_skew_threads() {
    for seed in [51u64, 52] {
        for theta in [0.0f64, 0.4, 0.99] {
            let ds = MicroSpec::static_counts(700, 700)
                .dupe(6)
                .skew_key(theta)
                .seed(seed)
                .generate();
            let expect = nested_loop_join(&ds.r, &ds.s, ds.window);
            for threads in [1usize, 2, 4, 8] {
                let cfg = RunConfig::with_threads(threads).record_all().speedup(500.0);
                let result = execute(Algorithm::Npj, &ds, &cfg);
                assert_eq!(
                    canonical(&result),
                    expect,
                    "NPJ diverged (seed={seed} θ={theta} threads={threads})"
                );
            }
        }
    }
}

/// The placement differential harness guarding the persistent executor:
/// every studied engine under every pin policy against the nested-loop
/// oracle, asserting the exact sorted match set. The pool must be
/// invisible to the join: same tid→work mapping, same merge order,
/// bitwise-identical output — pinning may only move threads, never tuples.
#[test]
fn differential_pin_policies_across_engines() {
    use iawj_study::core::PinPolicy;
    for seed in [91u64, 92] {
        let ds = MicroSpec::static_counts(600, 600)
            .dupe(6)
            .skew_key(0.99)
            .seed(seed)
            .generate();
        let expect = nested_loop_join(&ds.r, &ds.s, ds.window);
        for threads in [1usize, 4] {
            for algo in Algorithm::STUDIED {
                for pin in PinPolicy::ALL {
                    let cfg = RunConfig::with_threads(threads)
                        .record_all()
                        .speedup(500.0)
                        .pin(pin);
                    let result = execute(algo, &ds, &cfg);
                    assert_eq!(
                        canonical(&result),
                        expect,
                        "{algo} diverged (seed={seed} threads={threads} pin={pin:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn handshake_strawman_exact() {
    let ds = MicroSpec::static_counts(500, 500)
        .dupe(10)
        .seed(9)
        .generate();
    let expect = match_count(&ds.r, &ds.s, ds.window);
    for threads in [1usize, 3, 4] {
        let cfg = RunConfig::with_threads(threads).record_all();
        let result = execute(Algorithm::Handshake, &ds, &cfg);
        assert_eq!(result.matches, expect, "handshake with {threads} threads");
    }
}

#[test]
fn real_workload_counts_agree_across_algorithms() {
    // The four real-world generators at tiny scale: all algorithms must
    // count the same number of matches.
    use iawj_study::datagen::{debs, rovio, stock, ysb};
    for ds in [
        stock(0.02, 3),
        rovio(0.001, 3),
        ysb(0.001, 3),
        debs(0.005, 3),
    ] {
        let expect = match_count(&ds.r, &ds.s, ds.window);
        for algo in Algorithm::STUDIED {
            let cfg = RunConfig::with_threads(4).speedup(500.0);
            let result = execute(algo, &ds, &cfg);
            assert_eq!(result.matches, expect, "{algo} on {}", ds.name);
        }
    }
}
