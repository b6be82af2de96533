//! Figure 21: impact of the vectorized sort — per-phase cycles per input
//! tuple of the four sort-based engines with the vectorized sort backend
//! (the default: sorting-network blocks, branch-free merges, the AVX2
//! network where the CPU has it) vs `--scalar-sort` (insertion-sort blocks
//! and branching merges, the shape a non-SIMD build takes). This is the
//! paper's with/without-AVX switch; the hash engines have no sort phase.
//!
//! Emits `BENCH_fig21.json` (workload `Micro/<backend>`) so `iawj
//! bench-diff` can hold the gap across commits.

use iawj_bench::{banner, fmt, print_table, BenchEnv, SnapshotWriter};
use iawj_common::Phase;
use iawj_core::{execute, Algorithm};
use iawj_datagen::MicroSpec;
use iawj_exec::{cpu_clock, SortBackend};

const SORT_ENGINES: [Algorithm; 4] = [
    Algorithm::MWay,
    Algorithm::MPass,
    Algorithm::PmjJm,
    Algorithm::PmjJb,
];

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Figure 21 — vectorized vs scalar sort, sort-based algorithms (static Micro)",
        &env,
    );
    let clock = cpu_clock();
    println!(
        "(cycles at {:.2} GHz, {} clock)",
        clock.ghz,
        clock.source.label()
    );
    let n = (512_000.0 * env.scale * 10.0).max(20_000.0) as usize;
    let ds = MicroSpec::static_counts(n, n).dupe(4).seed(42).generate();
    let mut snap = SnapshotWriter::new("fig21", &env);
    let mut rows = Vec::new();
    // Sort-phase ns per backend, summed over the engines, for the headline
    // speedup line: [vectorized, scalar].
    let mut sort_ns = [0u64; 2];
    for algo in SORT_ENGINES {
        for (i, sort) in [SortBackend::Vectorized, SortBackend::Scalar]
            .into_iter()
            .enumerate()
        {
            let cfg = env.config().sort(sort);
            let res = execute(algo, &ds, &cfg);
            snap.record(&format!("Micro/{}", sort.label()), &cfg, &res);
            sort_ns[i] += res.breakdown[Phase::BuildSort];
            let per = 1.0 / res.total_inputs.max(1) as f64;
            rows.push(vec![
                format!("{}({})", algo.name(), sort.label()),
                fmt(res.breakdown.cycles(Phase::BuildSort, clock.ghz) * per),
                fmt(res.breakdown.cycles(Phase::Merge, clock.ghz) * per),
                fmt(res.breakdown.cycles(Phase::Probe, clock.ghz) * per),
                fmt(res.breakdown.busy_ns() as f64 * clock.ghz * per),
            ]);
        }
    }
    print_table(&["config", "sort", "merge", "join", "total"], &rows);
    if sort_ns[0] > 0 {
        println!(
            "\nsort-phase speedup (scalar/vectorized, all engines): {:.2}x",
            sort_ns[1] as f64 / sort_ns[0] as f64
        );
    }
    snap.write();
}
