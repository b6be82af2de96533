//! Figure 14: impact of window length w (500 → 2500 ms). Amortised cost
//! per tuple stays flat; latency grows as more tuples queue up.

use iawj_bench::{banner, fmt, fmt_opt, print_table, run, BenchEnv};
use iawj_core::metrics::latency_quantile_exact_ms;
use iawj_core::Algorithm;

const WINDOWS: [u32; 5] = [500, 750, 1000, 1250, 1500];

fn main() {
    let env = BenchEnv::from_env();
    banner("Figure 14 — window length sweep (v = 12800 t/ms)", &env);
    let cfg = env.config();
    let mut tpt_rows = Vec::new();
    let mut lat_rows = Vec::new();
    for &w in &WINDOWS {
        let ds = env.micro(12800.0, 12800.0).window_ms(w).generate();
        let mut tpt = vec![w.to_string()];
        let mut lat = vec![w.to_string()];
        for algo in Algorithm::STUDIED {
            let res = run(algo, &ds, &cfg);
            tpt.push(fmt(res.throughput_tpms()));
            lat.push(fmt_opt(latency_quantile_exact_ms(&res, 0.95)));
        }
        tpt_rows.push(tpt);
        lat_rows.push(lat);
    }
    let mut cols = vec!["w (ms)"];
    cols.extend(Algorithm::STUDIED.iter().map(|a| a.name()));
    println!("\n(a) Throughput (tuples/ms)");
    print_table(&cols, &tpt_rows);
    println!("\n(b) 95th latency (ms)");
    print_table(&cols, &lat_rows);
}
