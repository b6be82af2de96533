//! The adaptive IaWJ operator (the paper's §7 future-work direction (i),
//! built in `iawj_core::adaptive`): sniff the workload characteristics of
//! each stream, calibrate the rate bands to this host,
//! and let the Figure 4 decision tree dispatch — one operator that is never
//! far from the per-region winner.
//!
//! Run with: `cargo run --release --example adaptive_operator`

use iawj_study::core::adaptive::execute_adaptive_with;
use iawj_study::core::decision::{calibrate, Objective};
use iawj_study::core::{execute, Algorithm, RunConfig};
use iawj_study::datagen::MicroSpec;

fn main() {
    let threads = 4;
    let thresholds = calibrate(threads);
    println!(
        "host calibration: low < {:.0} t/ms <= medium < {:.0} t/ms <= high",
        thresholds.rate_low, thresholds.rate_high
    );

    // Three workloads from different regions of the decision space.
    let scenarios = [
        ("slow sensors", MicroSpec::with_rates(20.0, 20.0).seed(1)),
        (
            "bursty dedup feed",
            MicroSpec::static_counts(40_000, 40_000).dupe(80).seed(2),
        ),
        (
            "unique-key firehose",
            MicroSpec::static_counts(120_000, 120_000).seed(3),
        ),
    ];

    for (label, spec) in scenarios {
        let dataset = spec.generate();
        let cfg = RunConfig::with_threads(threads).speedup(100.0);
        let outcome =
            execute_adaptive_with(&dataset, &cfg, Objective::Throughput, &thresholds, 0.05);
        println!(
            "\n{label}: sniffed rate_r={} dupe={:.1} -> picked {}",
            outcome.descriptor.rate_r, outcome.descriptor.dupe, outcome.chosen
        );
        println!(
            "  adaptive: {:>9.0} t/ms  ({} matches)",
            outcome.result.throughput_tpms(),
            outcome.result.matches
        );
        // How far from the best fixed choice?
        let mut best = (Algorithm::Npj, 0.0f64);
        for algo in Algorithm::STUDIED {
            let r = execute(algo, &dataset, &cfg);
            let tpt = r.throughput_tpms();
            if tpt > best.1 {
                best = (algo, tpt);
            }
        }
        println!("  best fixed: {:>7.0} t/ms  ({})", best.1, best.0);
    }
}
