//! Figure 13: impact of key skewness skew_key. PRJ is the sensitive one —
//! skew collapses its radix partitions; SHJ^JM improves via cache reuse.

use iawj_bench::{banner, fmt, fmt_opt, print_table, run, BenchEnv};
use iawj_core::metrics::latency_quantile_exact_ms;
use iawj_core::Algorithm;

const SKEWS: [f64; 6] = [0.0, 0.4, 0.8, 1.2, 1.6, 2.0];

fn main() {
    let env = BenchEnv::from_env();
    banner("Figure 13 — key skewness sweep (v = 12800 t/ms)", &env);
    let cfg = env.config();
    let mut tpt_rows = Vec::new();
    let mut lat_rows = Vec::new();
    for &skew in &SKEWS {
        let ds = env.micro(12800.0, 12800.0).skew_key(skew).generate();
        let mut tpt = vec![format!("{skew}")];
        let mut lat = vec![format!("{skew}")];
        for algo in Algorithm::STUDIED {
            let res = run(algo, &ds, &cfg);
            tpt.push(fmt(res.throughput_tpms()));
            lat.push(fmt_opt(latency_quantile_exact_ms(&res, 0.95)));
        }
        tpt_rows.push(tpt);
        lat_rows.push(lat);
    }
    let mut cols = vec!["skew_key"];
    cols.extend(Algorithm::STUDIED.iter().map(|a| a.name()));
    println!("\n(a) Throughput (tuples/ms)");
    print_table(&cols, &tpt_rows);
    println!("\n(b) 95th latency (ms)");
    print_table(&cols, &lat_rows);
}
