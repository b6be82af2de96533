//! Figure 13: impact of key skewness skew_key. PRJ is the sensitive one —
//! skew collapses its radix partitions; SHJ^JM improves via cache reuse.
//! Part (c) compares static chunking against the morsel-steal scheduler
//! on the skew-sensitive lazy engines: stealing is exactly the remedy for
//! the thread starvation the paper blames for PRJ's drop.

use iawj_bench::{banner, fmt, fmt_opt, print_table, run, BenchEnv};
use iawj_core::metrics::latency_quantile_exact_ms;
use iawj_core::{Algorithm, Scheduler};

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

    // (c) scheduler ablation on the engines whose parallel loops starve
    // under skew. Same sweep, static vs morsel-steal throughput.
    const ABLATED: [Algorithm; 3] = [Algorithm::Prj, Algorithm::MPass, Algorithm::Npj];
    let mut sched_rows = Vec::new();
    for &skew in &SKEWS {
        let ds = env.micro(12800.0, 12800.0).skew_key(skew).generate();
        let mut row = vec![format!("{skew}")];
        for algo in ABLATED {
            for sched in Scheduler::ALL {
                let res = run(algo, &ds, &cfg.clone().scheduler(sched));
                row.push(fmt(res.throughput_tpms()));
            }
        }
        sched_rows.push(row);
    }
    let mut sched_cols = vec!["skew_key".to_string()];
    for algo in ABLATED {
        for sched in Scheduler::ALL {
            sched_cols.push(format!("{}/{sched}", algo.name()));
        }
    }
    let sched_cols: Vec<&str> = sched_cols.iter().map(String::as_str).collect();
    println!("\n(c) Throughput (tuples/ms), static vs morsel-steal scheduler");
    print_table(&sched_cols, &sched_rows);
}
