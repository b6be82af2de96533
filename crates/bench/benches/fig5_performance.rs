//! Figure 5: throughput and 95th-percentile latency of all eight
//! algorithms over the four real-world workloads.

use iawj_bench::{banner, fmt, fmt_opt, print_table, run, BenchEnv, SnapshotWriter};
use iawj_core::metrics::latency_quantile_exact_ms;
use iawj_core::Algorithm;

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Figure 5 — throughput (tuples/ms) and 95th latency (ms), 4 workloads x 8 algorithms",
        &env,
    );
    let workloads = env.real_workloads();
    let cfg = env.config();
    let mut snap = SnapshotWriter::new("fig5", &env);
    let mut tpt_rows = Vec::new();
    let mut lat_rows = Vec::new();
    for ds in &workloads {
        let mut tpt = vec![ds.name.clone()];
        let mut lat = vec![ds.name.clone()];
        for algo in Algorithm::STUDIED {
            let res = run(algo, ds, &cfg);
            tpt.push(fmt(res.throughput_tpms()));
            lat.push(fmt_opt(latency_quantile_exact_ms(&res, 0.95)));
            snap.record(&ds.name, &cfg, &res);
        }
        tpt_rows.push(tpt);
        lat_rows.push(lat);
    }
    let mut cols = vec!["workload"];
    cols.extend(Algorithm::STUDIED.iter().map(|a| a.name()));
    println!("\n(a) Throughput (input tuples per stream-ms)");
    print_table(&cols, &tpt_rows);
    println!("\n(b) 95th-percentile processing latency (stream-ms)");
    print_table(&cols, &lat_rows);
    snap.write();
}
