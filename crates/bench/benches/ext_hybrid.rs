//! Extension study: the hybrid eager/lazy operator (§5.2's orchestration
//! direction) against its parents. Under light load it should track
//! SHJ^JM's early progressiveness; under pressure its bulk tail should
//! close the throughput gap toward the lazy side.

use iawj_bench::{banner, fmt, fmt_opt, print_curve, print_table, run, BenchEnv};
use iawj_core::metrics::{latency_quantile_exact_ms, progressiveness, time_to_fraction_ms};
use iawj_core::Algorithm;

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Extension — hybrid eager/lazy operator vs SHJ_JM and NPJ",
        &env,
    );
    for (label, rate, dupe) in [
        ("light load, unique keys", 1600.0, 1),
        ("heavy load, unique keys", 25600.0, 1),
        ("heavy load, dupe=100", 12800.0, 100),
    ] {
        let ds = env.micro(rate, rate).dupe(dupe).generate();
        println!("\n--- {label} (v = {rate} t/ms x scale) ---");
        let mut rows = Vec::new();
        for algo in [Algorithm::ShjJm, Algorithm::HybridShj, Algorithm::Npj] {
            let res = run(algo, &ds, &env.config());
            rows.push(vec![
                algo.name().to_string(),
                fmt(res.throughput_tpms()),
                fmt_opt(latency_quantile_exact_ms(&res, 0.95)),
                fmt_opt(time_to_fraction_ms(&res, 0.5)),
            ]);
            print_curve(algo.name(), &progressiveness(&res), 6);
        }
        print_table(&["algo", "tpt (t/ms)", "p95 (ms)", "t50 (ms)"], &rows);
    }
}
