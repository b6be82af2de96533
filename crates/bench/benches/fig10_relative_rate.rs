//! Figure 10: impact of the relative arrival rate — v_R fixed at 1600
//! tuples/ms while v_S sweeps up to 25600.

use iawj_bench::{banner, fmt, fmt_opt, print_curve, print_table, run, BenchEnv};
use iawj_core::metrics::{latency_quantile_exact_ms, progressiveness};
use iawj_core::Algorithm;

const S_RATES: [f64; 5] = [1600.0, 3200.0, 6400.0, 12800.0, 25600.0];

fn main() {
    let env = BenchEnv::from_env();
    banner("Figure 10 — relative arrival rates (v_R = 1600 t/ms)", &env);
    let cfg = env.config();
    let mut tpt_rows = Vec::new();
    let mut lat_rows = Vec::new();
    let mut top_results = Vec::new();
    for &vs in &S_RATES {
        let ds = env.micro(1600.0, vs).generate();
        let mut tpt = vec![format!("{vs}")];
        let mut lat = vec![format!("{vs}")];
        for algo in Algorithm::STUDIED {
            let res = run(algo, &ds, &cfg);
            tpt.push(fmt(res.throughput_tpms()));
            lat.push(fmt_opt(latency_quantile_exact_ms(&res, 0.95)));
            if vs == S_RATES[S_RATES.len() - 1] {
                top_results.push(res);
            }
        }
        tpt_rows.push(tpt);
        lat_rows.push(lat);
    }
    let mut cols = vec!["v_S (t/ms)"];
    cols.extend(Algorithm::STUDIED.iter().map(|a| a.name()));
    println!("\n(a) Throughput (tuples/ms)");
    print_table(&cols, &tpt_rows);
    println!("\n(b) 95th latency (ms)");
    print_table(&cols, &lat_rows);
    println!("\n(c) Progressiveness at v_S = 25600 t/ms");
    for res in &top_results {
        print_curve(res.algorithm.name(), &progressiveness(res), 8);
    }
}
