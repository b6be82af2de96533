//! Executor scalability trajectory — throughput of a repeatedly-invoked
//! engine swept over threads × pin policy.
//!
//! A service that runs an engine per window close pays executor dispatch on
//! every invocation. Each cell therefore provisions ONE executor, runs the
//! engine `REPS` times through it (`execute_on`), and reports the median
//! run; the pin policies add placement on top of the unpinned pool.
//!
//! Emits `BENCH_fig13.json` when `IAWJ_BENCH_DIR` is set; the committed
//! baseline under `baselines/` is the trajectory CI diffs against. That
//! baseline also holds the per-run-spawning rows (`…/spawn`) whose loss in
//! every cell justified deleting the spawn executor; `bench-diff` reports
//! them as "only in old snapshot".

use iawj_bench::{banner, fmt, print_table, BenchEnv, SnapshotWriter};
use iawj_core::{execute_on, Algorithm, PinPolicy, RunConfig, RunResult};
use iawj_datagen::MicroSpec;

const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Repetitions per cell; the median is reported. Odd so the median is a
/// real run, small so the full sweep stays laptop-friendly.
const REPS: usize = 9;

/// The placement policies under comparison (labels match the committed
/// baseline's run keys).
const CONFIGS: [(PinPolicy, &str); 3] = [
    (PinPolicy::None, "pool"),
    (PinPolicy::Compact, "pool+compact"),
    (PinPolicy::Scatter, "pool+scatter"),
];

fn median_run(algo: Algorithm, ds: &iawj_datagen::Dataset, cfg: &RunConfig) -> RunResult {
    let exec = cfg.make_executor();
    let mut runs: Vec<RunResult> = (0..REPS)
        .map(|_| execute_on(algo, ds, cfg, &exec))
        .collect();
    runs.sort_by(|a, b| {
        a.throughput_tpms()
            .partial_cmp(&b.throughput_tpms())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    runs.swap_remove(REPS / 2)
}

fn main() {
    let env = BenchEnv::from_env();
    banner("Figure 13x — executor scalability (threads x pin)", &env);
    let mut snap = SnapshotWriter::new("fig13", &env);

    // A deliberately small static workload: per-invocation overhead (pool
    // dispatch) is the quantity under test, so the join body must not
    // drown it out. ~2k tuples a side joins in well under a
    // millisecond per thread.
    let ds = MicroSpec::static_counts(2000, 2000)
        .dupe(4)
        .seed(42)
        .generate();
    println!(
        "({} + {} static tuples, {REPS} reps per cell, median reported)",
        ds.r.len(),
        ds.s.len()
    );

    for algo in [Algorithm::Npj, Algorithm::MPass] {
        println!("\n--- {} (t/ms) ---", algo.name());
        let mut rows = Vec::new();
        for (pin, label) in CONFIGS {
            let mut row = vec![label.to_string()];
            for &t in &THREADS {
                let cfg = RunConfig::with_threads(t).speedup(env.speedup).pin(pin);
                let res = median_run(algo, &ds, &cfg);
                row.push(fmt(res.throughput_tpms()));
                snap.record(&format!("{}/{label}", ds.name), &cfg, &res);
            }
            rows.push(row);
        }
        print_table(&["executor", "1", "2", "4", "8"], &rows);
    }
    snap.write();
}
