//! Differential streaming test rig: the continuous [`StreamingJoin`]
//! operator must produce *exactly* the windows and match counts of the
//! batch [`execute_windowed`] oracle over the same streams — per window,
//! not just in total — across window types, engines, key skews, thread
//! counts and seeds. A bounded out-of-order variant (arrival order
//! shuffled within the allowed lateness) must still agree, because a
//! watermark holding `lateness` behind the maximum seen timestamp never
//! declares such a tuple late.

use iawj_common::Tuple;
use iawj_core::streaming::{run_replay, StreamConfig};
use iawj_core::windowing::{execute_windowed, WindowSpec};
use iawj_core::{Algorithm, RunConfig};
use iawj_datagen::{jitter_arrival_order, MicroSpec};

const ENGINES: &[Algorithm] = &[
    Algorithm::Npj,
    Algorithm::Prj,
    Algorithm::MWay,
    Algorithm::Handshake,
    // Index engines take the persistent-index close path on pane
    // geometries and the generic at-rest path on sessions — both must
    // reproduce the oracle window-for-window.
    Algorithm::Ibwj,
    Algorithm::IbwjPart,
];

const SPECS: &[WindowSpec] = &[
    WindowSpec::Tumbling { len_ms: 250 },
    WindowSpec::Sliding {
        len_ms: 250,
        slide_ms: 100,
    },
    WindowSpec::Session { gap_ms: 40 },
];

/// A pair of timestamp-ordered streams: ~`n` tuples per side spanning
/// `span_ms` of stream time, keys Zipf-skewed at `theta`.
fn streams(n: usize, span_ms: u32, theta: f64, seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let ds = MicroSpec {
        rate_r: n as f64 / span_ms as f64,
        rate_s: n as f64 / span_ms as f64,
        window_ms: span_ms,
        dupe: 4,
        skew_key: theta,
        skew_ts: 0.0,
        static_data: false,
        count_r: None,
        count_s: None,
        seed,
    }
    .generate();
    (ds.r, ds.s)
}

/// Assert the streaming report equals the batch oracle window-for-window.
fn assert_agrees(
    spec: WindowSpec,
    engine: Algorithm,
    threads: usize,
    (r, s): (&[Tuple], &[Tuple]),
    (arrival_r, arrival_s): (Vec<Tuple>, Vec<Tuple>),
    lateness: u32,
    ctx: &str,
) {
    let run = RunConfig::with_threads(threads);
    let oracle = execute_windowed(engine, r, s, spec, &run);
    let cfg = StreamConfig::new(spec, engine)
        .run_config(run)
        .lateness(lateness)
        .tick_every_ms(0.0);
    let report = run_replay(cfg, arrival_r, arrival_s, 64);

    assert_eq!(report.late_dropped, 0, "{ctx}: no tuple may be late");
    assert_eq!(
        report.windows.len(),
        oracle.len(),
        "{ctx}: window count differs"
    );
    for (got, want) in report.windows.iter().zip(&oracle) {
        assert_eq!(got.window, want.window, "{ctx}: window bounds differ");
        assert_eq!(
            got.matches, want.result.matches,
            "{ctx}: matches differ in window {:?}",
            want.window
        );
        assert_eq!(
            got.inputs_r + got.inputs_s,
            want.result.total_inputs,
            "{ctx}: inputs differ in window {:?}",
            want.window
        );
    }
    let oracle_total: u64 = oracle.iter().map(|w| w.result.matches).sum();
    assert_eq!(report.matches, oracle_total, "{ctx}: total matches differ");
    if let Some(via) = report.matches_via_multiplicity {
        assert_eq!(
            via, oracle_total,
            "{ctx}: multiplicity recombination differs"
        );
    }
}

#[test]
fn streaming_matches_batch_oracle_in_order() {
    for &spec in SPECS {
        for &engine in ENGINES {
            for seed in [11u64, 29] {
                for theta in [0.0, 0.99] {
                    for threads in [1usize, 4] {
                        let (r, s) = streams(200, 700, theta, seed);
                        let ctx = format!(
                            "{spec:?} {engine:?} seed={seed} theta={theta} threads={threads}"
                        );
                        assert_agrees(
                            spec,
                            engine,
                            threads,
                            (&r, &s),
                            (r.clone(), s.clone()),
                            0,
                            &ctx,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn streaming_matches_batch_oracle_out_of_order() {
    // Arrival order is a bounded shuffle of timestamp order: each tuple is
    // displaced at most `lateness` ms. The operator runs with exactly that
    // allowed lateness, so nothing is dropped and the per-window results
    // must still be identical to the in-order batch oracle.
    let lateness = 50u32;
    for &spec in SPECS {
        for &engine in ENGINES {
            for seed in [7u64, 23] {
                let (r, s) = streams(200, 700, 0.99, seed);
                let shuffled_r = jitter_arrival_order(&r, lateness, seed ^ 0xa5);
                let shuffled_s = jitter_arrival_order(&s, lateness, seed ^ 0x5a);
                assert_ne!(
                    (r == shuffled_r, s == shuffled_s),
                    (true, true),
                    "shuffle must actually reorder something"
                );
                let ctx = format!("{spec:?} {engine:?} seed={seed} out-of-order");
                assert_agrees(
                    spec,
                    engine,
                    2,
                    (&r, &s),
                    (shuffled_r, shuffled_s),
                    lateness,
                    &ctx,
                );
            }
        }
    }
}

#[test]
fn late_tuples_never_reach_the_persistent_index() {
    // A tuple behind the watermark is dropped before it can be indexed:
    // the index engines must agree with the oracle computed over the
    // punctual tuples alone, and count exactly the injected stragglers.
    let (r, s) = streams(200, 600, 0.4, 41);
    let spec = WindowSpec::Tumbling { len_ms: 150 };
    for &engine in &[Algorithm::Ibwj, Algorithm::IbwjPart] {
        let mut arrival_r = r.clone();
        arrival_r.push(Tuple::new(3, 0)); // arrives last, ~600 ms stale
        let run = RunConfig::with_threads(2);
        let oracle = execute_windowed(engine, &r, &s, spec, &run);
        let cfg = StreamConfig::new(spec, engine)
            .run_config(run)
            .tick_every_ms(0.0);
        let report = run_replay(cfg, arrival_r, s.clone(), 64);
        assert_eq!(report.late_dropped, 1, "{engine}");
        let got: Vec<u64> = report.windows.iter().map(|w| w.matches).collect();
        let want: Vec<u64> = oracle.iter().map(|w| w.result.matches).collect();
        assert_eq!(got, want, "{engine}: late tuple leaked into the index");
    }
}

#[test]
fn naive_and_shared_sliding_paths_agree() {
    // The naive per-window path and the pane-sharing path are two
    // implementations of the same semantics; lock them to each other and
    // to the oracle on a spec whose gcd pane (50 ms) is much smaller than
    // the window.
    let spec = WindowSpec::Sliding {
        len_ms: 250,
        slide_ms: 150,
    };
    let (r, s) = streams(250, 800, 0.5, 17);
    let run = RunConfig::with_threads(2);
    let oracle: Vec<u64> = execute_windowed(Algorithm::Npj, &r, &s, spec, &run)
        .iter()
        .map(|w| w.result.matches)
        .collect();
    for share in [true, false] {
        let cfg = StreamConfig::new(spec, Algorithm::Npj)
            .run_config(run.clone())
            .share_panes(share)
            .tick_every_ms(0.0);
        let report = run_replay(cfg, r.clone(), s.clone(), 64);
        let got: Vec<u64> = report.windows.iter().map(|w| w.matches).collect();
        assert_eq!(got, oracle, "share_panes={share}");
        assert_eq!(report.matches_via_multiplicity.is_some(), share);
    }
}
