//! Property tests of the arrival-gated path: under real time compression
//! and arbitrary arrival patterns, every distribution scheme must deliver
//! exactly the reference matches, and no view may ever yield a tuple
//! before its arrival time.

use iawj_study::core::reference::match_count;
use iawj_study::core::{execute, Algorithm, RunConfig};
use iawj_study::datagen::MicroSpec;
use proptest::prelude::*;

/// Cases per property: 8, or `PROPTEST_CASES` when set (the CI stress job
/// runs 64). An explicit `cases` would otherwise override the variable.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn gated_runs_are_exact_for_all_schemes(
        rate in 1.0f64..20.0,
        window in 20u32..120,
        dupe in 1usize..8,
        skew_ts in 0u8..2,
        threads in 1usize..5,
        seed in 0u64..300,
    ) {
        let ds = MicroSpec {
            rate_r: rate,
            rate_s: rate * 1.5,
            window_ms: window,
            dupe,
            skew_key: 0.0,
            skew_ts: skew_ts as f64 * 1.2,
            static_data: false,
            count_r: None,
            count_s: None,
            seed,
        }
        .generate();
        let expect = match_count(&ds.r, &ds.s, ds.window);
        // Heavy compression: the whole window replays in ~window/500 real ms,
        // exercising the stall/resume path under scheduler noise.
        for algo in [
            Algorithm::ShjJm,
            Algorithm::ShjJb,
            Algorithm::PmjJm,
            Algorithm::PmjJb,
            Algorithm::Npj,
            Algorithm::MPass,
        ] {
            let cfg = RunConfig::with_threads(threads).speedup(500.0);
            let result = execute(algo, &ds, &cfg);
            prop_assert_eq!(result.matches, expect, "{} diverged under gating", algo);
        }
    }

    #[test]
    fn no_match_is_emitted_before_both_inputs_arrived(
        rate in 2.0f64..15.0,
        seed in 0u64..100,
    ) {
        // Latency = emit - max(arrivals) must never be negative by more
        // than clock-read jitter; the sink clamps at 0, so instead check
        // emission stamps against arrival stamps directly.
        let ds = MicroSpec::with_rates(rate, rate).window_ms(100).seed(seed).generate();
        let cfg = RunConfig::with_threads(2).record_all().speedup(100.0);
        let result = execute(Algorithm::ShjJm, &ds, &cfg);
        for m in &result.samples {
            let arrival = m.r_ts.max(m.s_ts) as f64;
            // EmitClock caches up to 32 reads; allow 5 stream-ms of slack
            // (at 100x compression that is 50 us of real time).
            prop_assert!(
                m.emit_ms + 5.0 >= arrival,
                "match ({}, {}, {}) emitted at {} before arrival {}",
                m.key, m.r_ts, m.s_ts, m.emit_ms, arrival
            );
        }
    }
}
