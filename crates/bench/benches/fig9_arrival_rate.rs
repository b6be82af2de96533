//! Figure 9: impact of the input arrival rate v (both streams swept
//! together) on throughput, 95th latency, and progressiveness.

use iawj_bench::{banner, fmt, fmt_opt, print_curve, print_table, run, BenchEnv};
use iawj_core::metrics::{latency_quantile_exact_ms, progressiveness};
use iawj_core::Algorithm;

const RATES: [f64; 5] = [1600.0, 3200.0, 6400.0, 12800.0, 25600.0];

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Figure 9 — varying arrival rate v (unique keys, uniform arrivals)",
        &env,
    );
    let cfg = env.config();
    let mut tpt_rows = Vec::new();
    let mut lat_rows = Vec::new();
    let mut lowest_rate_results = Vec::new();
    for (ri, &rate) in RATES.iter().enumerate() {
        let ds = env.micro(rate, rate).generate();
        let mut tpt = vec![format!("{rate}")];
        let mut lat = vec![format!("{rate}")];
        for algo in Algorithm::STUDIED {
            let res = run(algo, &ds, &cfg);
            tpt.push(fmt(res.throughput_tpms()));
            lat.push(fmt_opt(latency_quantile_exact_ms(&res, 0.95)));
            if ri == 0 {
                lowest_rate_results.push(res);
            }
        }
        tpt_rows.push(tpt);
        lat_rows.push(lat);
    }
    let mut cols = vec!["v (t/ms)"];
    cols.extend(Algorithm::STUDIED.iter().map(|a| a.name()));
    println!("\n(a) Throughput (tuples/ms)");
    print_table(&cols, &tpt_rows);
    println!("\n(b) 95th latency (ms)");
    print_table(&cols, &lat_rows);
    println!("\n(c) Progressiveness at v = {} t/ms", RATES[0]);
    for res in &lowest_rate_results {
        print_curve(res.algorithm.name(), &progressiveness(res), 8);
    }
}
