//! `iawj serve` — run the continuous streaming join service.
//!
//! Generates a Micro-style workload spanning `--duration-ms` of stream
//! time, pumps both sides through rate-limited sources into bounded SPSC
//! ingress queues (pacing compressed by `--speedup`), and drives a
//! [`StreamingJoin`] with the chosen window spec and engine. Periodic
//! [`StreamTick`] lines report throughput, watermark, queue depths, late
//! drops and backpressure; `--metrics-out` additionally writes each tick as
//! a `{"type":"stream",...}` JSONL line followed by a summary line.

use crate::args::{ArgError, Args};
use crate::workload::{apply_exec_opts, parse_algorithm, parse_threads, require_positive_finite};
use iawj_common::spsc::{stream_channel, MAX_QUEUE_CAP};
use iawj_core::streaming::{spawn_source, StreamConfig, StreamReport, StreamingJoin};
use iawj_core::windowing::WindowSpec;
use iawj_core::RunConfig;
use iawj_datagen::{MicroSpec, PacedSource, ReplaySource};
use iawj_obs::json::{quote, write_f64};
use iawj_obs::StreamTick;
use std::fmt::Write as _;

/// Parse `--window-spec tumbling:LEN | sliding:LEN/SLIDE | session:GAP`.
pub fn parse_window_spec(text: &str) -> Result<WindowSpec, ArgError> {
    let invalid = || ArgError::Invalid {
        key: "window-spec".into(),
        value: text.into(),
        expected: "tumbling:LEN | sliding:LEN/SLIDE | session:GAP (ms, positive)",
    };
    let (kind, rest) = text.split_once(':').ok_or_else(invalid)?;
    let parse_ms = |s: &str| s.parse::<u32>().ok().filter(|&v| v > 0);
    match kind {
        "tumbling" => Ok(WindowSpec::Tumbling {
            len_ms: parse_ms(rest).ok_or_else(invalid)?,
        }),
        "sliding" => {
            let (len, slide) = rest.split_once('/').ok_or_else(invalid)?;
            Ok(WindowSpec::Sliding {
                len_ms: parse_ms(len).ok_or_else(invalid)?,
                slide_ms: parse_ms(slide).ok_or_else(invalid)?,
            })
        }
        "session" => Ok(WindowSpec::Session {
            gap_ms: parse_ms(rest).ok_or_else(invalid)?,
        }),
        _ => Err(invalid()),
    }
}

/// Options `serve` accepts beyond the shared workload/run sets.
pub const SERVE_OPTS: &[&str] = &[
    "window-spec",
    "duration-ms",
    "lateness",
    "queue-cap",
    "tick-ms",
    "no-share",
];

/// `--queue-cap`'s accepted range, spelled out for the error message.
const QUEUE_CAP_RANGE: &str = "a queue capacity in 1..=16777216";
const _: () = assert!(MAX_QUEUE_CAP == 16_777_216, "update QUEUE_CAP_RANGE");

/// Run the service and render its report.
pub fn cmd_serve(args: &Args) -> Result<String, ArgError> {
    let algo = parse_algorithm(args)?;
    let spec = parse_window_spec(&args.get_or("window-spec", "tumbling:250".to_string())?)?;
    let duration_ms: u32 = args.get_or("duration-ms", 3000)?;
    let lateness: u32 = args.get_or("lateness", 0)?;
    let queue_cap: usize = args.get_or("queue-cap", 1024)?;
    let speedup = require_positive_finite("speedup", args.get_or("speedup", 25.0)?)?;
    let tick_ms = require_positive_finite("tick-ms", args.get_or("tick-ms", 250.0)?)?;
    let rate_r = require_positive_finite("rate-r", args.get_or("rate-r", 100.0)?)?;
    let rate_s = require_positive_finite("rate-s", args.get_or("rate-s", 100.0)?)?;
    let threads = parse_threads(args, 2.min(iawj_exec::affinity_core_count().max(1)))?;
    if duration_ms == 0 {
        return Err(ArgError::Invalid {
            key: "duration-ms".into(),
            value: "0".into(),
            expected: "a positive stream duration",
        });
    }
    // The ring preallocates its slots: an oversized capacity would panic or
    // abort in the allocator instead of failing here.
    if !(1..=MAX_QUEUE_CAP).contains(&queue_cap) {
        return Err(ArgError::Invalid {
            key: "queue-cap".into(),
            value: queue_cap.to_string(),
            expected: QUEUE_CAP_RANGE,
        });
    }
    // A Micro workload spanning the whole serve duration: the generator's
    // window is the stream, and its rates set the ingest rates.
    let micro = MicroSpec {
        rate_r,
        rate_s,
        window_ms: duration_ms,
        dupe: args.get_or("dupe", 1usize)?.max(1),
        skew_key: args.get_or("skew-key", 0.0)?,
        skew_ts: args.get_or("skew-ts", 0.0)?,
        static_data: false,
        count_r: None,
        count_s: None,
        seed: args.get_or("seed", 42)?,
    };
    let ds = micro.generate();
    let mut run = RunConfig::with_threads(threads);
    apply_exec_opts(args, &mut run)?;
    let cfg = StreamConfig::new(spec, algo)
        .lateness(lateness)
        .share_panes(!args.flag("no-share"))
        .run_config(run)
        .tick_every_ms(tick_ms);

    let (tx_r, rx_r) = stream_channel(queue_cap);
    let (tx_s, rx_s) = stream_channel(queue_cap);
    let h_r = spawn_source(PacedSource::new(ReplaySource::new(ds.r), speedup), tx_r);
    let h_s = spawn_source(PacedSource::new(ReplaySource::new(ds.s), speedup), tx_s);

    let json = args.flag("json");
    let mut dashboard = String::new();
    let mut tick_lines: Vec<String> = Vec::new();
    let report = StreamingJoin::new(cfg).run(
        rx_r,
        rx_s,
        |_w| {},
        |t: &StreamTick| {
            if !json {
                dashboard.push_str(&t.to_text());
                dashboard.push('\n');
            }
            tick_lines.push(t.to_jsonl());
        },
    );
    let _ = h_r.join();
    let _ = h_s.join();

    if let Some(path) = args.get("metrics-out") {
        let mut out = tick_lines.join("\n");
        out.push('\n');
        out.push_str(&summary_json(&report, algo.name(), spec));
        out.push('\n');
        std::fs::write(path, out).map_err(|e| ArgError::Invalid {
            key: "metrics-out".into(),
            value: format!("{path}: {e}"),
            expected: "a writable path",
        })?;
    }
    Ok(if json {
        summary_json(&report, algo.name(), spec)
    } else {
        let mut out = dashboard;
        out.push_str(&summary_text(&report, algo.name(), spec));
        out
    })
}

fn spec_label(spec: WindowSpec) -> String {
    match spec {
        WindowSpec::Tumbling { len_ms } => format!("tumbling:{len_ms}"),
        WindowSpec::Sliding { len_ms, slide_ms } => format!("sliding:{len_ms}/{slide_ms}"),
        WindowSpec::Session { gap_ms } => format!("session:{gap_ms}"),
    }
}

fn summary_text(r: &StreamReport, engine: &str, spec: WindowSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "engine:        {engine}");
    let _ = writeln!(out, "window spec:   {}", spec_label(spec));
    let _ = writeln!(
        out,
        "ingested:      {} tuples over {} stream-ms ({:.1} t/ms)",
        r.ingested_r + r.ingested_s,
        r.stream_ms,
        r.throughput_tpms()
    );
    let _ = writeln!(
        out,
        "windows:       {} closed, {} matches",
        r.windows.len(),
        r.matches
    );
    let _ = writeln!(
        out,
        "late dropped:  {}    backpressure waits: {}",
        r.late_dropped, r.backpressure_waits
    );
    let _ = writeln!(
        out,
        "close join ms: p50 {}  p99 {}  max {}",
        fmt_q(r.close_hist.quantile_ms(0.50)),
        fmt_q(r.close_hist.quantile_ms(0.99)),
        fmt_q(r.close_hist.max_ms()),
    );
    let _ = writeln!(
        out,
        "peak state:    {} panes resident, queue depth {}",
        r.peak_resident_panes, r.peak_queue_depth
    );
    let _ = writeln!(out, "wall time:     {:.0} ms", r.wall_ms);
    out
}

fn fmt_q(v: Option<f64>) -> String {
    v.map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into())
}

fn summary_json(r: &StreamReport, engine: &str, spec: WindowSpec) -> String {
    let mut out = String::from("{\"type\":\"stream_summary\",\"engine\":");
    out.push_str(&quote(engine));
    out.push_str(",\"window_spec\":");
    out.push_str(&quote(&spec_label(spec)));
    let _ = write!(
        out,
        ",\"ingested\":{},\"stream_ms\":{},\"windows\":{},\"matches\":{},\
         \"late_dropped\":{},\"backpressure_waits\":{},\"engine_runs\":{},\
         \"peak_resident_panes\":{},\"peak_queue_depth\":{},\"throughput_tpms\":",
        r.ingested_r + r.ingested_s,
        r.stream_ms,
        r.windows.len(),
        r.matches,
        r.late_dropped,
        r.backpressure_waits,
        r.engine_runs,
        r.peak_resident_panes,
        r.peak_queue_depth,
    );
    write_f64(&mut out, r.throughput_tpms());
    out.push_str(",\"close_p99_ms\":");
    match r.close_hist.quantile_ms(0.99) {
        Some(v) => write_f64(&mut out, v),
        None => out.push_str("null"),
    }
    out.push_str(",\"wall_ms\":");
    write_f64(&mut out, r.wall_ms);
    out.push('}');
    out
}
