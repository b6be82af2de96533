//! Figure 18: PRJ radix-bit sweep (#r = 8..18) — the partitioning-cost vs
//! probe-cost trade-off. Static Micro, cycles per input tuple, one run per
//! `#r`.

use iawj_bench::{banner, fmt, print_table, BenchEnv, SnapshotWriter};
use iawj_common::Phase;
use iawj_core::{execute, Algorithm};
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
        let mut cfg = env.config();
        cfg.prj.radix_bits = bits;
        let res = execute(Algorithm::Prj, &ds, &cfg);
        snap.record(&format!("Micro/r{bits}"), &cfg, &res);
        let per = 1.0 / res.total_inputs.max(1) as f64;
        rows.push(vec![
            bits.to_string(),
            fmt(res.breakdown.cycles(Phase::Partition, clock.ghz) * per),
            fmt((res.breakdown.cycles(Phase::BuildSort, clock.ghz)
                + res.breakdown.cycles(Phase::Probe, clock.ghz))
                * per),
            fmt(res.breakdown.busy_ns() as f64 * clock.ghz * per),
        ]);
    }
    print_table(&["#r", "partition", "build+probe", "total"], &rows);
    snap.write();
}
