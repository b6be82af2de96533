//! The YSB scenario (§4.2.1): a static campaigns table (R, 1000 unique
//! campaign ids) joined against a high-rate advertisement-event stream
//! (S), as an ad-analytics dashboard would.
//!
//! This example contrasts the two execution approaches on the same input:
//! the lazy NPJ (buffer the window, then join at full speed) against the
//! eager SHJ^JM (join every event on arrival) — the throughput-vs-latency
//! trade-off at the heart of the paper's §5.2.
//!
//! Run with: `cargo run --release --example ad_campaign_dashboard`

use iawj_study::core::metrics::{latency_quantile_exact_ms, time_to_fraction_ms};
use iawj_study::core::{execute, Algorithm, RunConfig};
use iawj_study::datagen::ysb;

fn main() {
    // 1% of paper volume: 1000 campaigns x 100k ad events over 1 second.
    let dataset = ysb(0.01, 1);
    println!(
        "campaigns table: {} rows (at rest); ad events: {} over {} ms",
        dataset.r.len(),
        dataset.s.len(),
        dataset.window.len_ms
    );

    let cfg = RunConfig::with_threads(4).speedup(50.0);
    println!(
        "\n{:<8} {:>12} {:>14} {:>16}",
        "algo", "tpt (t/ms)", "p95 lat (ms)", "t-to-50% (ms)"
    );
    for algo in [Algorithm::Npj, Algorithm::ShjJm] {
        let result = execute(algo, &dataset, &cfg);
        println!(
            "{:<8} {:>12.0} {:>14.1} {:>16.1}",
            algo.name(),
            result.throughput_tpms(),
            latency_quantile_exact_ms(&result, 0.95).unwrap_or(f64::NAN),
            time_to_fraction_ms(&result, 0.5).unwrap_or(f64::NAN),
        );
    }
    println!(
        "\nThe lazy join waits out the window (latency ~ window length) but \
         processes at memory speed; the eager join emits each campaign hit \
         as the event arrives."
    );
}
