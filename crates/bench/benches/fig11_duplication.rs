//! Figure 11: impact of key duplication (dupe 1 → 100; matches scale with
//! it). Sort-based algorithms overtake hash-based ones past dupe ≈ 10.

use iawj_bench::{banner, fmt, fmt_opt, print_curve, print_table, run, BenchEnv};
use iawj_core::metrics::{latency_quantile_exact_ms, progressiveness};
use iawj_core::Algorithm;

const DUPES: [usize; 4] = [1, 10, 50, 100];

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Figure 11 — key duplication sweep (v = 6400 t/ms, w = 1000 ms)",
        &env,
    );
    let cfg = env.config();
    let mut tpt_rows = Vec::new();
    let mut lat_rows = Vec::new();
    let mut top = Vec::new();
    for &dupe in &DUPES {
        let ds = env.micro(6400.0, 6400.0).dupe(dupe).generate();
        let mut tpt = vec![dupe.to_string()];
        let mut lat = vec![dupe.to_string()];
        for algo in Algorithm::STUDIED {
            let res = run(algo, &ds, &cfg);
            tpt.push(fmt(res.throughput_tpms()));
            lat.push(fmt_opt(latency_quantile_exact_ms(&res, 0.95)));
            if dupe == DUPES[DUPES.len() - 1] {
                top.push(res);
            }
        }
        tpt_rows.push(tpt);
        lat_rows.push(lat);
    }
    let mut cols = vec!["dupe"];
    cols.extend(Algorithm::STUDIED.iter().map(|a| a.name()));
    println!("\n(a) Throughput (tuples/ms)");
    print_table(&cols, &tpt_rows);
    println!("\n(b) 95th latency (ms)");
    print_table(&cols, &lat_rows);
    println!("\n(c) Progressiveness at dupe = {}", DUPES[DUPES.len() - 1]);
    for res in &top {
        print_curve(res.algorithm.name(), &progressiveness(res), 8);
    }
}
