//! Stress tests. The skew tests below run everywhere; the `#[ignore]`d
//! ones are too large for a debug build. CI's `stress` job runs both sets
//! in release: `cargo test --release --test stress -- --ignored` for the
//! large ones.

use iawj_study::core::reference::match_count;
use iawj_study::core::{execute, Algorithm, RunConfig};
use iawj_study::datagen::{rovio, MicroSpec};

mod common;

/// A θ=0.99 Zipf window: the Fig. 10 workload shape that collapses static
/// range partitioning. Hot keys concentrate quadratic join work in a few
/// radix partitions / key ranges.
fn zipf_window() -> iawj_study::datagen::Dataset {
    MicroSpec::static_counts(8000, 8000)
        .dupe(4)
        .skew_key(0.99)
        .seed(33)
        .generate()
}

#[test]
fn zipf_window_completes_with_equal_counts() {
    let ds = zipf_window();
    let expect = match_count(&ds.r, &ds.s, ds.window);
    for algo in Algorithm::STUDIED {
        let cfg = RunConfig::with_threads(8).speedup(500.0);
        let result = execute(algo, &ds, &cfg);
        assert_eq!(result.matches, expect, "{algo}");
    }
}

/// The Fig-8-style contention cell: under θ=0.99 at 8 threads NPJ's latched
/// table must still match the oracle. *Whether* a run contends depends on
/// the OS interleaving, so the `latch:wait` counting surface itself is
/// pinned under a scripted interleaving in `iawj-exec`
/// (`hashtable::tests::insert_into_a_held_bucket_counts_the_wait`), not by
/// comparing event totals here.
#[test]
fn npj_under_zipf_contention_matches_oracle() {
    let ds = MicroSpec::static_counts(20_000, 20_000)
        .dupe(4)
        .skew_key(0.99)
        .seed(44)
        .generate();
    let cfg = RunConfig::with_threads(8).speedup(500.0).with_journal();
    let result = execute(Algorithm::Npj, &ds, &cfg);
    assert_eq!(result.matches, match_count(&ds.r, &ds.s, ds.window));
}

#[test]
#[ignore = "large input; run with --ignored in release mode"]
fn million_tuple_static_join_all_algorithms() {
    let ds = MicroSpec::static_counts(500_000, 500_000)
        .dupe(20)
        .seed(1)
        .generate();
    let expect = match_count(&ds.r, &ds.s, ds.window);
    for algo in Algorithm::STUDIED {
        let cfg = RunConfig::with_threads(4);
        let result = execute(algo, &ds, &cfg);
        assert_eq!(result.matches, expect, "{algo}");
    }
}

#[test]
#[ignore = "large input; run with --ignored in release mode"]
fn rovio_at_five_percent_scale() {
    // ~300k tuples with dupe ~900: tens of millions of matches.
    let ds = rovio(0.05, 1);
    let expect = match_count(&ds.r, &ds.s, ds.window);
    for algo in [Algorithm::MPass, Algorithm::PmjJb, Algorithm::Npj] {
        let cfg = RunConfig::with_threads(4).speedup(100.0);
        let result = execute(algo, &ds, &cfg);
        assert_eq!(result.matches, expect, "{algo}");
    }
}

#[test]
#[ignore = "large input; run with --ignored in release mode"]
fn sniffed_fig4_inputs_match_the_exact_profile_at_4m() {
    common::check_sniff_grid(1 << 22);
}
