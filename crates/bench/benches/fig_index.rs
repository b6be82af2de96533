//! fig_index — where indexing the window beats rebuilding it.
//!
//! The paper's eight engines all join tuples at rest, so the streaming
//! service re-builds hash tables (or re-sorts) from scratch at every
//! window close. The index engines (IBWJ / IBWJ_PART) instead pay an
//! *incremental* maintenance cost — one insert per tuple at ingest, one
//! eviction sweep per close — and answer each close with probes only.
//! This harness sweeps window length × key skew × engine over sliding
//! windows whose length is a large multiple of the slide: the bigger the
//! window, the more rebuild work the at-rest engines repeat per close
//! while the index path's probe cost stays proportional to the slide.
//!
//! The final table replays the decision tree over the same corners: the
//! low-rate large-window region must select the index engines (the
//! `index_window_tuples` crossover), the skewed corner the partitioned
//! variant.
//!
//! Emits `BENCH_fig_index.json` when `IAWJ_BENCH_DIR` is set.

use iawj_bench::{banner, fmt, fmt_opt, print_table, BenchEnv, SnapshotWriter};
use iawj_common::{Rate, Tuple};
use iawj_core::decision::{recommend, Objective, Thresholds, Workload};
use iawj_core::streaming::{run_replay, StreamConfig};
use iawj_core::windowing::WindowSpec;
use iawj_core::Algorithm;
use iawj_datagen::MicroSpec;

const QUEUE_CAP: usize = 1024;

/// Timestamp-ordered Zipf-keyed streams spanning `span_ms` of stream time.
fn streams(rate: f64, span_ms: u32, theta: f64, seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let ds = MicroSpec {
        rate_r: rate,
        rate_s: rate,
        window_ms: span_ms,
        dupe: 4,
        skew_key: theta,
        skew_ts: 0.0,
        static_data: false,
        count_r: None,
        count_s: None,
        seed,
    }
    .generate();
    (ds.r, ds.s)
}

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "fig_index — index maintenance vs rebuild (window length x skew x engine)",
        &env,
    );
    let mut snap = SnapshotWriter::new("fig_index", &env);

    let span_ms = 8_000u32;
    let rate = 1000.0 * env.scale;
    let engines = [
        Algorithm::Npj,
        Algorithm::Prj,
        Algorithm::Ibwj,
        Algorithm::IbwjPart,
    ];
    // Window length grows while the slide stays len/4: every tuple is
    // re-joined 4x regardless of length, so the column trend isolates the
    // per-close rebuild cost the index engines avoid.
    let lens = [200u32, 800, 3200];

    for theta in [0.0f64, 0.99] {
        let (r, s) = streams(rate, span_ms, theta, 42);
        println!(
            "\n--- theta={theta} ({} + {} tuples over {span_ms} stream-ms) ---",
            r.len(),
            s.len()
        );
        let mut rows = Vec::new();
        for engine in engines {
            let mut row = vec![engine.name().to_string()];
            for len in lens {
                let spec = WindowSpec::Sliding {
                    len_ms: len,
                    slide_ms: len / 4,
                };
                let cfg = StreamConfig::new(spec, engine)
                    .run_config(env.config())
                    .tick_every_ms(0.0);
                let report = run_replay(cfg, r.clone(), s.clone(), QUEUE_CAP);
                snap.record_stream(
                    &format!("FigIndex/len{len}/theta{theta}"),
                    engine.name(),
                    &report,
                );
                row.push(format!(
                    "{} t/wall-ms, close p99 {} ms",
                    fmt(report.wall_tpms()),
                    fmt_opt(report.close_hist.quantile_ms(0.99)),
                ));
            }
            rows.push(row);
        }
        print_table(&["engine", "len=200", "len=800", "len=3200"], &rows);
    }

    // Decision-tree crossover: the same corners through `recommend`. A
    // low arrival rate leaves slack for incremental maintenance; the
    // window population decides whether rebuilding is still cheap enough.
    println!("\n--- decision tree (low arrival rate, throughput objective) ---");
    let th = Thresholds::default();
    let mut rows = Vec::new();
    for (label, total, skew) in [
        ("small window", 100_000usize, 0.0f64),
        ("large window", 4 << 20, 0.0),
        ("large window, skewed", 4 << 20, 1.4),
    ] {
        let w = Workload {
            rate_r: Rate::PerMs(2.0),
            rate_s: Rate::PerMs(2.0),
            dupe: 4.0,
            skew_key: skew,
            total_tuples: total,
            cores: env.threads,
        };
        let pick = recommend(&w, Objective::Throughput, &th);
        rows.push(vec![
            label.to_string(),
            format!("{total}"),
            format!("{skew}"),
            pick.name().to_string(),
        ]);
    }
    print_table(&["corner", "tuples", "skew", "recommends"], &rows);
    snap.write();
}
