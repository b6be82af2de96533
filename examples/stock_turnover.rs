//! The paper's Stock scenario (§4.2.1): join a trades stream (R) with a
//! quotes stream (S) on stock id within a 1-second window, then derive
//! per-stock turnover counts from the matches.
//!
//! Stock has *low* arrival rates with bursty spikes (Figure 3a), so the
//! Figure 4 decision tree picks the eager SHJ^JM — it delivers matches
//! the moment both sides have arrived, instead of waiting out the window.
//!
//! Run with: `cargo run --release --example stock_turnover`

use iawj_study::core::decision::{recommend_default, Objective, Workload};
use iawj_study::core::metrics::latency_quantile_exact_ms;
use iawj_study::core::{execute, Algorithm, RunConfig};
use iawj_study::datagen::stats::WorkloadStats;
use iawj_study::datagen::stock;
use std::collections::HashMap;

fn main() {
    // Statistical equivalent of the Shanghai Stock Exchange dataset at 20%
    // volume: trades (R) at ~12/ms, quotes (S) at ~15/ms, spiky arrivals.
    let dataset = stock(0.2, 1);
    let stats = WorkloadStats::measure(&dataset);
    println!(
        "trades: {} tuples over {} stocks (peak {} per ms)",
        stats.r.count, stats.r.distinct_keys, stats.r.peak_per_ms
    );
    println!(
        "quotes: {} tuples over {} stocks (peak {} per ms)",
        stats.s.count, stats.s.distinct_keys, stats.s.peak_per_ms
    );

    let pick = recommend_default(
        &Workload {
            rate_r: dataset.rate_r,
            rate_s: dataset.rate_s,
            dupe: stats.r.dupe_avg.max(stats.s.dupe_avg),
            skew_key: stats.r.skew_key_est,
            total_tuples: dataset.total_inputs(),
            cores: 4,
        },
        Objective::Latency,
    );
    println!("decision tree picks: {pick} (expected SHJ_JM for a low-rate stream)");
    assert_eq!(pick, Algorithm::ShjJm);

    // Record every match so we can aggregate turnover per stock.
    let cfg = RunConfig::with_threads(4).speedup(50.0).record_all();
    let result = execute(pick, &dataset, &cfg);
    println!("trade-quote matches: {}", result.matches);
    if let Some(p95) = latency_quantile_exact_ms(&result, 0.95) {
        println!("p95 match latency: {p95:.2} ms (stream time)");
    }

    // Turnover proxy: matched trade-quote pairs per stock id.
    let mut turnover: HashMap<u32, u64> = HashMap::new();
    for m in &result.samples {
        *turnover.entry(m.key).or_insert(0) += 1;
    }
    let mut top: Vec<(u32, u64)> = turnover.into_iter().collect();
    top.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("top-5 stocks by matched activity:");
    for (stock_id, n) in top.into_iter().take(5) {
        println!("  stock {stock_id:>4}: {n} matches");
    }
}
