//! Figure 7: six-phase execution-time breakdown (wait / partition /
//! build-sort / merge / probe / others) per algorithm per workload,
//! reported as total cycles (summed over threads) per input tuple.
//!
//! Cycles use the calibrated host clock (`IAWJ_CPU_GHZ` override →
//! perf-measured → assumed 2.6 GHz); the banner labels which. Runs carry
//! a span journal, so a companion table attributes the journaled
//! contention mark (`latch:wait`) to the phase it occurred in.

use iawj_bench::{banner, fmt, print_table, run, BenchEnv, SnapshotWriter};
use iawj_common::PHASES;
use iawj_core::Algorithm;
use iawj_exec::cpu_clock;
use iawj_obs::MARK_LATCH_WAIT;

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Figure 7 — execution time breakdown (cycles per input tuple)",
        &env,
    );
    let clock = cpu_clock();
    println!(
        "(cycles at {:.2} GHz, {} clock)",
        clock.ghz,
        clock.source.label()
    );
    let cfg = env.config().with_journal();
    let mut snap = SnapshotWriter::new("fig7", &env);
    for ds in env.real_workloads() {
        println!("\n--- {} ---", ds.name);
        let mut rows = Vec::new();
        let mut mark_rows = Vec::new();
        for algo in Algorithm::STUDIED {
            let res = run(algo, &ds, &cfg);
            snap.record(&ds.name, &cfg, &res);
            let per_tuple = 1.0 / res.total_inputs.max(1) as f64;
            let mut row = vec![algo.name().to_string()];
            for phase in PHASES {
                row.push(fmt(res.breakdown.cycles(phase, clock.ghz) * per_tuple));
            }
            row.push(fmt(res.breakdown.total_ns() as f64 * clock.ghz * per_tuple));
            rows.push(row);
            let per_1k = 1000.0 * per_tuple;
            let mut mark_row = vec![algo.name().to_string()];
            for span in ["partition", "build/sort", "probe"] {
                mark_row.push(fmt(
                    res.count_marks_in(MARK_LATCH_WAIT, span) as f64 * per_1k
                ));
            }
            mark_rows.push(mark_row);
        }
        print_table(
            &[
                "algo",
                "wait",
                "partition",
                "build/sort",
                "merge",
                "probe",
                "others",
                "total",
            ],
            &rows,
        );
        if mark_rows
            .iter()
            .any(|r| r[1..].iter().any(|c| c != "0" && c != "-"))
        {
            println!("\nlatch waits per 1k input tuples, by phase");
            print_table(
                &["algo", "latch@part", "latch@build", "latch@probe"],
                &mark_rows,
            );
        }
    }
    snap.write();
}
