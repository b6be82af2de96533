//! Property tests pinning the streaming operator's invariants under
//! arbitrary window specs, streams and queue shapes:
//!
//! 1. a window never closes before the watermark passes its end (lateness
//!    is already folded into the watermark),
//! 2. every non-late tuple lands in exactly the windows
//!    [`pair_multiplicity`] / [`windows_for`] predict,
//! 3. pane-shared sliding totals equal naive per-window re-joining,
//! 4. capacity-1 queues neither deadlock nor drop in-order tuples,
//! 5. the index engines' incremental pane-pair close equals NPJ's at-rest
//!    close window for window, over sliding, hopping and tumbling
//!    geometries and bounded out-of-order arrival.

use iawj_common::Tuple;
use iawj_core::streaming::{run_replay, StreamConfig, WM_END};
use iawj_core::windowing::{pair_multiplicity, windows_for, WindowSpec};
use iawj_core::{Algorithm, RunConfig};
use iawj_datagen::{jitter_arrival_order, MicroSpec};
use proptest::prelude::*;

/// Cases per property: 24, or `PROPTEST_CASES` when set (the CI
/// `stream-soak` job runs 64). An explicit `cases` would otherwise override
/// the variable.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

fn spec_from(kind: u8, a: u32, b: u32) -> WindowSpec {
    match kind % 3 {
        0 => WindowSpec::Tumbling { len_ms: a },
        1 => WindowSpec::Sliding {
            len_ms: a.max(b),
            slide_ms: a.min(b),
        },
        _ => WindowSpec::Session { gap_ms: b },
    }
}

fn streams(n: usize, span_ms: u32, seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let ds = MicroSpec {
        rate_r: n as f64 / span_ms as f64,
        rate_s: n as f64 / span_ms as f64,
        window_ms: span_ms,
        dupe: 3,
        skew_key: 0.5,
        skew_ts: 0.0,
        static_data: false,
        count_r: None,
        count_s: None,
        seed,
    }
    .generate();
    (ds.r, ds.s)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    /// (1) + (2): closes respect the watermark, and window membership is
    /// exactly what the spec arithmetic predicts.
    #[test]
    fn closes_respect_watermark_and_membership(
        kind in 0u8..3,
        a in 20u32..200,
        b in 20u32..200,
        n in 30usize..150,
        seed in 0u64..500,
    ) {
        let spec = spec_from(kind, a, b);
        let (r, s) = streams(n, 600, seed);
        let cfg = StreamConfig::new(spec, Algorithm::Npj)
            .run_config(RunConfig::with_threads(1))
            .tick_every_ms(0.0);
        let report = run_replay(cfg, r.clone(), s.clone(), 64);
        prop_assert_eq!(report.late_dropped, 0);

        // (1) A window closed by watermark advance only closes once the
        // watermark (which already holds lateness back) passed its end.
        // Flushed windows carry WM_END instead.
        for w in &report.windows {
            prop_assert!(
                w.watermark_ms == WM_END || w.watermark_ms >= w.window.end() as u64,
                "window {:?} closed at watermark {}", w.window, w.watermark_ms
            );
        }

        // The realized windows are exactly the predicted set, in order.
        let predicted = windows_for(spec, &r, &s);
        let got: Vec<_> = report.windows.iter().map(|w| w.window).collect();
        prop_assert_eq!(got, predicted);

        // (2) Each tuple is counted as an input of exactly the windows
        // containing it — pair_multiplicity at a single stamp.
        let assigned: u64 = report
            .windows
            .iter()
            .map(|w| (w.inputs_r + w.inputs_s) as u64)
            .sum();
        let expected: u64 = r
            .iter()
            .chain(&s)
            .map(|t| pair_multiplicity(spec, t.ts, t.ts))
            .sum();
        prop_assert_eq!(assigned, expected);
    }

    /// (3) Pane sharing is an optimization, not a semantics change: the
    /// shared path's per-window counts and its multiplicity-recombined
    /// total both equal the naive path's.
    #[test]
    fn pane_sharing_preserves_sliding_totals(
        len in 2u32..20,
        slide in 1u32..20,
        n in 30usize..120,
        seed in 0u64..500,
    ) {
        // Scale to tens of ms so windows overlap the ~400 ms stream.
        let spec = WindowSpec::Sliding { len_ms: len * 10, slide_ms: slide * 10 };
        let (r, s) = streams(n, 400, seed);
        let mk = |share: bool| {
            let cfg = StreamConfig::new(spec, Algorithm::Npj)
                .run_config(RunConfig::with_threads(1))
                .share_panes(share)
                .tick_every_ms(0.0);
            run_replay(cfg, r.clone(), s.clone(), 64)
        };
        let shared = mk(true);
        let naive = mk(false);
        let a: Vec<u64> = shared.windows.iter().map(|w| w.matches).collect();
        let b: Vec<u64> = naive.windows.iter().map(|w| w.matches).collect();
        prop_assert_eq!(a, b);
        prop_assert_eq!(shared.matches_via_multiplicity, Some(naive.matches));
    }

    /// (4) The smallest possible queues still deliver every tuple: no
    /// deadlock between two blocked producers and the draining operator,
    /// and nothing is dropped as late on an in-order stream.
    #[test]
    fn capacity_one_queues_neither_deadlock_nor_drop(
        kind in 0u8..3,
        a in 20u32..150,
        b in 20u32..150,
        n in 20usize..100,
        seed in 0u64..500,
    ) {
        let spec = spec_from(kind, a, b);
        let (r, s) = streams(n, 300, seed);
        let (nr, ns) = (r.len() as u64, s.len() as u64);
        let cfg = StreamConfig::new(spec, Algorithm::Npj)
            .run_config(RunConfig::with_threads(1))
            .tick_every_ms(0.0);
        let report = run_replay(cfg, r, s, 1);
        prop_assert_eq!(report.ingested_r, nr);
        prop_assert_eq!(report.ingested_s, ns);
        prop_assert_eq!(report.late_dropped, 0);
        prop_assert_eq!(report.final_watermark_ms, WM_END);
        prop_assert!(report.peak_queue_depth <= 1);
    }

    /// (5) The index engines count each pane pair once, when the later pane
    /// completes, and sum a window's cells at its close. Every geometry must
    /// give NPJ's per-window counts: `slide > len` leaves gap panes in no
    /// window, `gcd(len, slide) < slide` completes several panes at one
    /// close, and arrival jittered within the lateness completes a pane
    /// only once its stragglers are in.
    #[test]
    fn index_close_matches_npj_over_every_geometry(
        len in 1u32..12,
        slide in 1u32..12,
        unit in 5u32..30,
        n in 30usize..150,
        jitter in 0u32..40,
        seed in 0u64..500,
    ) {
        let spec = WindowSpec::Sliding { len_ms: len * unit, slide_ms: slide * unit };
        let (r, s) = streams(n, 600, seed);
        let counts = |engine: Algorithm, threads: usize, r: Vec<Tuple>, s: Vec<Tuple>| {
            let cfg = StreamConfig::new(spec, engine)
                .run_config(RunConfig::with_threads(threads))
                .lateness(jitter)
                .tick_every_ms(0.0);
            let report = run_replay(cfg, r, s, 16);
            assert_eq!(report.late_dropped, 0, "{engine} threads={threads}");
            assert_eq!(
                report.matches_via_multiplicity,
                Some(report.matches),
                "{engine} threads={threads}: recombination"
            );
            report
                .windows
                .iter()
                .map(|w| (w.window, w.matches))
                .collect::<Vec<_>>()
        };
        let want = counts(Algorithm::Npj, 1, r.clone(), s.clone());
        let arrival_r = jitter_arrival_order(&r, jitter, seed ^ 0xa5);
        let arrival_s = jitter_arrival_order(&s, jitter, seed ^ 0x5a);
        for engine in [Algorithm::Ibwj, Algorithm::IbwjPart] {
            for threads in [1, 2] {
                let got = counts(engine, threads, arrival_r.clone(), arrival_s.clone());
                prop_assert_eq!(&got, &want, "{} threads={} {:?}", engine, threads, spec);
            }
        }
    }
}
