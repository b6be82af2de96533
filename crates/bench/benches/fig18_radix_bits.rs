//! Figure 18: PRJ radix-bit sweep (#r = 8..18) — the partitioning-cost vs
//! probe-cost trade-off. Static Micro, cycles per input tuple, run once
//! per scatter mode so the direct-vs-SWWC ablation shares the sweep.

use iawj_bench::{banner, fmt, print_table, BenchEnv, SnapshotWriter};
use iawj_common::Phase;
use iawj_core::{execute, Algorithm, ScatterMode};
use iawj_datagen::MicroSpec;
use iawj_exec::cpu_clock;

const BITS: [u32; 6] = [8, 10, 12, 14, 16, 18];

fn main() {
    let env = BenchEnv::from_env();
    banner("Figure 18 — PRJ number of radix bits (static Micro)", &env);
    let clock = cpu_clock();
    println!(
        "(cycles at {:.2} GHz, {} clock)",
        clock.ghz,
        clock.source.label()
    );
    let n_r = (128_000.0 * env.scale * 10.0).max(1000.0) as usize;
    let ds = MicroSpec::static_counts(n_r, n_r * 10)
        .dupe(4)
        .seed(42)
        .generate();
    let mut snap = SnapshotWriter::new("fig18", &env);
    let mut rows = Vec::new();
    for &bits in &BITS {
        let mut row = vec![bits.to_string()];
        for mode in ScatterMode::ALL {
            let mut cfg = env.config();
            cfg.prj.radix_bits = bits;
            cfg.prj.scatter = mode;
            let res = execute(Algorithm::Prj, &ds, &cfg);
            snap.record(&format!("Micro/r{bits}"), &cfg, &res);
            let per = 1.0 / res.total_inputs.max(1) as f64;
            row.push(fmt(res.breakdown.cycles(Phase::Partition, clock.ghz) * per));
            if mode == ScatterMode::Direct {
                // Build+probe and total are scatter-invariant; report them
                // once, from the direct run.
                row.push(fmt((res.breakdown.cycles(Phase::BuildSort, clock.ghz)
                    + res.breakdown.cycles(Phase::Probe, clock.ghz))
                    * per));
                row.push(fmt(res.breakdown.busy_ns() as f64 * clock.ghz * per));
            }
        }
        rows.push(row);
    }
    print_table(
        &["#r", "part(direct)", "build+probe", "total", "part(swwc)"],
        &rows,
    );
    snap.write();
}
