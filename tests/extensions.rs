//! Integration tests of the beyond-the-paper extensions: the hybrid
//! operator, the windowing layer, and the adaptive dispatcher — including
//! property-based checks that they never disagree with the oracle.

use iawj_study::common::{Tuple, Window};
use iawj_study::core::reference::{match_count, nested_loop_join};
use iawj_study::core::windowing::{execute_windowed, windows_for, WindowSpec};
use iawj_study::core::{execute, Algorithm, RunConfig};
use iawj_study::datagen::MicroSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn hybrid_matches_oracle_for_any_threshold(
        n in 50usize..500,
        dupe in 1usize..10,
        defer_at in 1usize..100,
        threads in 1usize..5,
        seed in 0u64..200,
    ) {
        let ds = MicroSpec::static_counts(n, n).dupe(dupe).seed(seed).generate();
        let mut cfg = RunConfig::with_threads(threads).record_all();
        cfg.hybrid.defer_at_batch = defer_at;
        let result = execute(Algorithm::HybridShj, &ds, &cfg);
        prop_assert_eq!(result.matches, match_count(&ds.r, &ds.s, ds.window));
    }

    #[test]
    fn tumbling_windows_equal_filtered_oracle(
        n in 20usize..300,
        keys in 2u32..40,
        span in 50u32..400,
        len in 10u32..200,
        seed in 0u64..100,
    ) {
        use iawj_study::common::Rng;
        let mut rng = Rng::new(seed);
        let mk = |rng: &mut Rng| -> Vec<Tuple> {
            let mut v: Vec<Tuple> = (0..n)
                .map(|_| Tuple::new(rng.below(keys as u64) as u32, rng.below(span as u64) as u32))
                .collect();
            v.sort_unstable_by_key(|t| t.ts);
            v
        };
        let r = mk(&mut rng);
        let s = mk(&mut rng);
        let spec = WindowSpec::Tumbling { len_ms: len };
        let cfg = RunConfig::with_threads(2).record_all();
        for wr in execute_windowed(Algorithm::Npj, &r, &s, spec, &cfg) {
            let w = wr.window;
            let expect = nested_loop_join(&r, &s, w).len() as u64;
            prop_assert_eq!(wr.result.matches, expect, "window {:?}", w);
        }
    }

    #[test]
    fn session_windows_cover_every_tuple_once(
        bursts in 1usize..4,
        gap in 50u32..200,
        seed in 0u64..100,
    ) {
        use iawj_study::common::Rng;
        let mut rng = Rng::new(seed);
        let mut r = Vec::new();
        let mut base = 0u32;
        for _ in 0..bursts {
            for _ in 0..30 {
                r.push(Tuple::new(rng.below(8) as u32, base + rng.below(40) as u32));
            }
            base += 40 + gap + 10; // guaranteed inter-burst silence > gap
        }
        r.sort_unstable_by_key(|t| t.ts);
        let ws = windows_for(WindowSpec::Session { gap_ms: gap }, &r, &[]);
        prop_assert_eq!(ws.len(), bursts, "{:?}", ws);
        for t in &r {
            let covering = ws.iter().filter(|w| w.contains(t.ts)).count();
            prop_assert_eq!(covering, 1, "tuple at {} covered {} times", t.ts, covering);
        }
    }
}

#[test]
fn hybrid_progressiveness_tracks_shj_under_light_load() {
    use iawj_study::core::metrics::time_to_fraction_ms;
    // Slow streams, moderately compressed: both eager operators deliver
    // matches inside the window while NPJ waits it out. (At much higher
    // compression the eager workers become CPU-bound on a time-sliced
    // host and their mid-window head start shrinks to scheduler noise.)
    let ds = MicroSpec::with_rates(10.0, 10.0).dupe(2).seed(9).generate();
    let cfg = RunConfig::with_threads(2).record_all().speedup(50.0);
    let shj = execute(Algorithm::ShjJm, &ds, &cfg);
    let hybrid = execute(Algorithm::HybridShj, &ds, &cfg);
    let lazy = execute(Algorithm::Npj, &ds, &cfg);
    let t50 = |r: &iawj_study::core::RunResult| time_to_fraction_ms(r, 0.5).unwrap();
    assert!(
        t50(&hybrid) < t50(&lazy),
        "hybrid {} must reach 50% before the lazy join {}",
        t50(&hybrid),
        t50(&lazy)
    );
    // And it must not be wildly behind plain SHJ.
    assert!(t50(&hybrid) < t50(&shj) * 3.0 + 100.0);
}

#[test]
fn windowed_runs_rebase_timestamps() {
    // A window starting at 500 must behave like one starting at 0.
    let r: Vec<Tuple> = (0..50).map(|i| Tuple::new(i % 10, 500 + i % 20)).collect();
    let s: Vec<Tuple> = (0..50).map(|i| Tuple::new(i % 10, 500 + i % 20)).collect();
    let cfg = RunConfig::with_threads(2);
    let out = execute_windowed(
        Algorithm::MPass,
        &r,
        &s,
        WindowSpec::Tumbling { len_ms: 600 },
        &cfg,
    );
    let total: u64 = out.iter().map(|w| w.result.matches).sum();
    assert_eq!(
        total,
        nested_loop_join(&r, &s, Window::of_len(1200)).len() as u64
    );
}

#[test]
fn adaptive_never_loses_badly_across_regimes() {
    use iawj_study::core::adaptive::execute_adaptive;
    use iawj_study::core::decision::Objective;
    // Each leaf of the Fig. 4 tree is the paper's measured winner for its
    // region, so "never loses badly" is a statement about which leaf the
    // sniffed workload reaches — not about wall-clock ratios on whatever
    // host runs the suite. Both regimes are data at rest (high rate) on 2
    // cores: few duplicates and a small join land on NPJ; dupe ≥ 10 takes
    // the sort-based side, and below 8 cores that is MWay.
    let regimes = [
        (
            MicroSpec::static_counts(20_000, 20_000).dupe(1).seed(1),
            Algorithm::Npj,
        ),
        (
            MicroSpec::static_counts(10_000, 10_000).dupe(100).seed(2),
            Algorithm::MWay,
        ),
    ];
    for (spec, leaf) in regimes {
        let ds = spec.generate();
        let cfg = RunConfig::with_threads(2);
        let adaptive = execute_adaptive(&ds, &cfg, Objective::Throughput);
        assert_eq!(
            adaptive.chosen, leaf,
            "Fig. 4 leaf for {:?}",
            adaptive.descriptor
        );
        assert_eq!(
            adaptive.result.matches,
            match_count(&ds.r, &ds.s, ds.window),
            "{leaf} via the adaptive dispatcher"
        );
    }
}
