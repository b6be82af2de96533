//! Figure 8 companion — NPJ shared-table contention: the per-bucket latched
//! table swept over threads × key skew. Alongside throughput, each cell
//! reports the journaled `latch:wait` spin episodes per 1k build+probe
//! operations. Under high skew the table pays on *both* sides: probes take
//! the bucket latch across whole hot-chain scans (§5.3.2).

use iawj_bench::{banner, fmt, print_table, run, BenchEnv, SnapshotWriter};
use iawj_core::Algorithm;
use iawj_obs::MARK_LATCH_WAIT;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const SKEWS: [f64; 2] = [0.0, 0.99];

fn main() {
    let env = BenchEnv::from_env();
    banner("Figure 8 — NPJ latched table contention", &env);

    let mut snap = SnapshotWriter::new("fig8_npj", &env);
    let mut rows = Vec::new();
    for &skew in &SKEWS {
        let ds = env.micro(12800.0, 12800.0).skew_key(skew).generate();
        let ops = (ds.r.len() + ds.s.len()) as f64;
        for &threads in &THREADS {
            let mut cfg = env.config().with_journal();
            cfg.threads = threads;
            let res = run(Algorithm::Npj, &ds, &cfg);
            snap.record(&format!("Micro/skew{skew}"), &cfg, &res);
            rows.push(vec![
                format!("{skew}"),
                format!("{threads}"),
                fmt(res.throughput_tpms()),
                fmt(res.count_marks(MARK_LATCH_WAIT) as f64 * 1000.0 / ops),
            ]);
        }
    }
    println!("\nThroughput and journaled latch waits per 1k operations");
    print_table(&["skew_key", "threads", "t/ms", "latch:wait/1k"], &rows);
    snap.write();
}
