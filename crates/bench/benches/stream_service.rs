//! Streaming service — sustained-ingest throughput of the continuous
//! [`StreamingJoin`] operator, swept over window spec × engine.
//!
//! Each cell replays a multi-second stream through capacity-bounded
//! ingress queues as fast as the operator drains them (no wall-clock
//! pacing), so the measured tuples-per-stream-ms is the *operator-limited*
//! sustained rate: pane assignment + watermark-driven closes + engine
//! runs, with backpressure throttling the producers whenever a close is
//! in flight. Sliding cells run the pane-sharing path; the `no-share`
//! column re-runs them naively to show what sharing buys.
//!
//! Emits `BENCH_stream.json` when `IAWJ_BENCH_DIR` is set. The committed
//! baseline also holds `Stream/exec-{spawn,pool}` rows: the close-latency
//! A/B that justified deleting the per-close-spawning executor.

use iawj_bench::{banner, fmt, fmt_opt, print_table, BenchEnv, SnapshotWriter};
use iawj_common::Rate;
use iawj_core::streaming::{run_replay, StreamConfig};
use iawj_core::windowing::WindowSpec;
use iawj_core::Algorithm;
use iawj_datagen::rate_stream;

const QUEUE_CAP: usize = 1024;

fn spec_label(spec: WindowSpec) -> String {
    match spec {
        WindowSpec::Tumbling { len_ms } => format!("tumbling:{len_ms}"),
        WindowSpec::Sliding { len_ms, slide_ms } => format!("sliding:{len_ms}/{slide_ms}"),
        WindowSpec::Session { gap_ms } => format!("session:{gap_ms}"),
    }
}

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Streaming service — sustained ingest (window spec x engine)",
        &env,
    );
    let mut snap = SnapshotWriter::new("stream", &env);

    // ~8 s of stream time at a rate the scale knob controls: the default
    // 0.01 scale ingests ~2x80k tuples per cell.
    let span_ms = 8_000u32;
    let rate = Rate::PerMs(1000.0 * env.scale);
    let r = rate_stream(rate, span_ms, 4096, 42);
    let s = rate_stream(rate, span_ms, 4096, 43);
    println!(
        "({} + {} tuples over {span_ms} stream-ms, queue cap {QUEUE_CAP})",
        r.len(),
        s.len()
    );

    let specs = [
        WindowSpec::Tumbling { len_ms: 500 },
        WindowSpec::Sliding {
            len_ms: 500,
            slide_ms: 250,
        },
        WindowSpec::Session { gap_ms: 50 },
    ];
    let engines = [
        Algorithm::Npj,
        Algorithm::Prj,
        Algorithm::MWay,
        Algorithm::ShjJm,
    ];

    for spec in specs {
        let label = spec_label(spec);
        println!("\n--- {label} ---");
        let mut rows = Vec::new();
        for engine in engines {
            let mut row = vec![engine.name().to_string()];
            let shares: &[bool] = match spec {
                WindowSpec::Sliding { .. } => &[true, false],
                _ => &[true],
            };
            let mut cells = vec!["-".to_string(); 2];
            for &share in shares {
                let cfg = StreamConfig::new(spec, engine)
                    .run_config(env.config())
                    .share_panes(share)
                    .tick_every_ms(0.0);
                let report = run_replay(cfg, r.clone(), s.clone(), QUEUE_CAP);
                let cell = format!(
                    "{} t/wall-ms, close p99 {} ms",
                    fmt(report.wall_tpms()),
                    fmt_opt(report.close_hist.quantile_ms(0.99)),
                );
                if share {
                    snap.record_stream(&format!("Stream/{label}"), engine.name(), &report);
                    row.push(format!("{}", report.windows.len()));
                    row.push(fmt(report.wall_ms));
                    cells[0] = cell;
                } else {
                    snap.record_stream(&format!("Stream/{label}/no-share"), engine.name(), &report);
                    cells[1] = cell;
                }
            }
            row.extend(cells);
            rows.push(row);
        }
        print_table(
            &["engine", "windows", "wall ms", "shared", "no-share"],
            &rows,
        );
    }

    snap.write();
}
