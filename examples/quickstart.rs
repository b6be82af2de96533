//! Quickstart: generate a workload, ask the decision tree for an
//! algorithm, run the join, and read the three metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use iawj_study::core::decision::{recommend_default, Objective, Workload};
use iawj_study::core::metrics::{latency_quantile_exact_ms, progressiveness};
use iawj_study::core::{execute, RunConfig};
use iawj_study::datagen::MicroSpec;

fn main() {
    // A medium-rate synthetic workload: 2 x 200 tuples/ms over a 1-second
    // window, every key duplicated 10 times.
    let spec = MicroSpec::with_rates(200.0, 200.0).dupe(10).seed(7);
    let dataset = spec.generate();
    println!(
        "workload: |R|={} |S|={} keys={} window={}ms",
        dataset.r.len(),
        dataset.s.len(),
        spec.key_domain(),
        dataset.window.len_ms
    );

    // Ask the Figure 4 decision tree what to run.
    let descriptor = Workload {
        rate_r: dataset.rate_r,
        rate_s: dataset.rate_s,
        dupe: 20.0,
        skew_key: 0.0,
        total_tuples: dataset.total_inputs(),
        // The cores this process may actually use (affinity mask), not the
        // machine's count — under taskset/cgroups they differ.
        cores: iawj_study::exec::affinity_core_count().max(1),
    };
    let algorithm = recommend_default(&descriptor, Objective::Throughput);
    println!("decision tree picks: {algorithm}");

    // Run it. speedup(50) replays the 1 s window in 20 ms of wall time;
    // all reported times stay in stream milliseconds.
    let cfg = RunConfig::with_threads(4).speedup(50.0);
    let result = execute(algorithm, &dataset, &cfg);

    println!("matches:      {}", result.matches);
    println!("throughput:   {:.0} tuples/ms", result.throughput_tpms());
    if let Some(p95) = latency_quantile_exact_ms(&result, 0.95) {
        println!("p95 latency:  {p95:.1} ms");
    }
    let curve = progressiveness(&result);
    if let Some(&(t, _)) = curve.iter().find(|&&(_, f)| f >= 0.5) {
        println!("50% of matches delivered by {t:.0} ms (stream time)");
    }
}
