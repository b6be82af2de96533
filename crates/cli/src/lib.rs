#![warn(missing_docs)]

//! The `iawj` command-line driver: generate a workload, run any studied
//! algorithm over it, sweep a parameter, consult the decision tree, or
//! profile an algorithm under the cache simulator — without writing Rust.
//!
//! ```text
//! iawj run --algo PRJ --workload ysb --scale 0.01 --threads 4
//! iawj run --algo SHJ_JM --rate-r 100 --rate-s 100 --dupe 10 --json
//! iawj recommend --rate-r 800 --rate-s 800 --dupe 50 --objective latency
//! iawj sweep --param dupe --values 1,10,100 --algo MPASS --static
//! iawj trace --algo NPJ --workload rovio --scale 0.002
//! ```

pub mod args;
pub mod serve;
pub mod summary;
pub mod workload;

use args::{ArgError, Args};
use iawj_core::adaptive::sniff;
use iawj_core::decision::{calibrate, recommend, Objective, Thresholds};
use iawj_core::{execute, trace};
use iawj_obs::{diff, BenchSnapshot, DiffThresholds};
use summary::{metrics_jsonl, RunSummary};
use workload::{build_config, build_dataset, parse_algorithm, RUN_OPTS, WORKLOAD_OPTS};

/// A CLI failure: what to print on stderr, and whether the usage text
/// should follow it. Argument mistakes want the usage; a bench-diff
/// regression wants only its report (it already says what to do).
#[derive(Debug)]
pub struct CliError {
    /// Text for stderr.
    pub message: String,
    /// Print [`USAGE`] after the message?
    pub show_usage: bool,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError {
            message: e.to_string(),
            show_usage: true,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError {
            message: message.to_string(),
            show_usage: true,
        }
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
iawj — intra-window join study driver

USAGE:
  iawj <run|serve|recommend|sweep|trace|generate|bench-diff> [options]

  Any subcommand also accepts --input-r FILE --input-s FILE to join your
  own key,ts CSV streams instead of a generated workload.

WORKLOAD OPTIONS (all subcommands):
  --workload micro|stock|rovio|ysb|debs   (default micro)
  --scale F          real-workload scale, 1.0 = paper size (default 0.01)
  --seed N           generator seed (default 42)
  micro only: --rate-r F --rate-s F --window MS --dupe N
              --skew-key F --skew-ts F --static --count-r N --count-s N

RUN OPTIONS (run, sweep, trace):
  --algo NAME        NPJ|PRJ|MWAY|MPASS|SHJ_JM|SHJ_JB|PMJ_JM|PMJ_JB|HANDSHAKE
                     |IBWJ|IBWJ_PART (dashes accepted: ibwj-part)
  --threads N        worker threads, > 0 (default 4, capped to the affinity
                     mask; oversubscribing the mask warns)
  --pin POLICY       pool worker placement: none|compact|scatter (default
                     none; compact packs SMT siblings and NUMA nodes,
                     scatter round-robins across nodes)
  --speedup F        stream-time compression, finite and > 0 (default 25)
  --sample-every N   match sampling rate (default 64)
  --delta F          PMJ sorting step size (default 0.2)
  --eager-merge      PMJ: progressive per-run merging instead of a final merge
  --radix-bits N     PRJ radix bits (default 10, must be in 1..=24)
  --group-size N     JB group size (default 2)
  --scalar-sort      disable the vectorizable sort backend
  --index-partitions N  IBWJ_PART sub-index partitions (default 4*threads,
                     rounded up to a power of two)
  --index-epochs N   IBWJ_PART repartition epochs per run (default 8, must be >0)
  --repart-factor F  IBWJ_PART imbalance trigger: rebalance when the heaviest
                     worker exceeds the ideal share by F (default 1.5)
  --evict-horizon N  index engines: evict entries more than N ms behind the
                     newest arrival (default: keep the whole window)
  --json             machine-readable output
  --perf             sample hardware counters per phase (perf_event; falls
                     back silently where unavailable)
  --trace-out FILE   write a Chrome-trace JSON profile (one lane per worker,
                     IPC/MPKI counter tracks when --perf sampled)
  --metrics-out FILE write a JSONL metrics journal (histogram, phases;
                     implies --perf)

SERVE OPTIONS (continuous streaming join; also takes --algo, --threads,
--speedup, --rate-r, --rate-s, --dupe, --skew-key, --skew-ts, --seed,
--json, --metrics-out):
  --window-spec S    tumbling:LEN | sliding:LEN/SLIDE | session:GAP in ms
                     (default tumbling:250)
  --duration-ms N    stream time to generate and ingest (default 3000)
  --lateness N       allowed out-of-orderness in ms (default 0)
  --queue-cap N      ingress SPSC queue capacity, 1..=16777216 (default 1024)
  --tick-ms F        metrics tick interval in wall ms (default 250)
  --no-share         disable pane sharing for sliding windows

RECOMMEND OPTIONS:
  --objective throughput|latency|progressiveness   (default throughput)
  --calibrate        measure this host's rate bands first

SWEEP OPTIONS:
  --param rate|dupe|skew-key|skew-ts|window
  --values A,B,C     parameter values to sweep

GENERATE OPTIONS:
  --out-r FILE --out-s FILE   write the workload's streams as CSV

BENCH-DIFF:
  iawj bench-diff OLD.json NEW.json [--max-tpt-drop F] [--max-p99-rise F]
                                    [--warn-only]
  Compare two BENCH_*.json snapshots per configuration. Exits non-zero
  when any matching run's throughput dropped more than --max-tpt-drop
  (default 0.20) or its p99 latency rose more than --max-p99-rise
  (default 0.50), unless --warn-only.
";

/// Entry point shared by the binary and the tests: returns the text to
/// print, or what to report on stderr.
pub fn run_cli(argv: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = argv.split_first().ok_or("no subcommand given")?;
    if cmd == "help" || cmd == "--help" {
        return Ok(USAGE.to_string());
    }
    if cmd == "bench-diff" {
        // Positional paths, which Args::parse would reject.
        return cmd_bench_diff(rest);
    }
    let args = Args::parse(rest).map_err(CliError::from)?;
    if args.flag("help") {
        return Ok(USAGE.to_string());
    }
    let out = match cmd.as_str() {
        "run" => cmd_run(&args),
        "serve" => args
            .check_known(&allowed(serve::SERVE_OPTS))
            .and_then(|()| serve::cmd_serve(&args)),
        "recommend" => cmd_recommend(&args),
        "sweep" => cmd_sweep(&args),
        "trace" => cmd_trace(&args),
        "generate" => cmd_generate(&args),
        other => Err(ArgError::Unexpected(other.to_string())),
    };
    out.map_err(CliError::from)
}

/// `iawj bench-diff <old.json> <new.json>` — compare two bench snapshots
/// and fail (non-zero exit) when a matching configuration regressed past
/// the thresholds, unless `--warn-only`.
fn cmd_bench_diff(rest: &[String]) -> Result<String, CliError> {
    if rest.first().map(|t| t.as_str()) == Some("--help") {
        return Ok(USAGE.to_string());
    }
    let positional: Vec<&String> = rest.iter().take_while(|t| !t.starts_with("--")).collect();
    if positional.len() != 2 {
        return Err("bench-diff takes exactly two snapshot paths: <old.json> <new.json>".into());
    }
    let args = Args::parse(&rest[2..]).map_err(CliError::from)?;
    args.check_known(&["max-tpt-drop", "max-p99-rise", "warn-only", "help"])?;
    if args.flag("help") {
        return Ok(USAGE.to_string());
    }
    let defaults = DiffThresholds::default();
    let thresholds = DiffThresholds {
        max_tpt_drop: args.get_or("max-tpt-drop", defaults.max_tpt_drop)?,
        max_p99_rise: args.get_or("max-p99-rise", defaults.max_p99_rise)?,
    };
    let load = |path: &str| -> Result<BenchSnapshot, CliError> {
        let text = std::fs::read_to_string(path).map_err(|e| CliError {
            message: format!("{path}: {e}"),
            show_usage: false,
        })?;
        BenchSnapshot::parse(&text).map_err(|e| CliError {
            message: format!("{path}: {e}"),
            show_usage: false,
        })
    };
    let old = load(positional[0])?;
    let new = load(positional[1])?;
    let report = diff(&old, &new, thresholds);
    let rendered = report.render();
    if report.regressed() && !args.flag("warn-only") {
        Err(CliError {
            message: rendered,
            show_usage: false,
        })
    } else {
        Ok(rendered)
    }
}

fn allowed(extra: &[&str]) -> Vec<&'static str> {
    let mut v: Vec<&str> = Vec::new();
    v.extend_from_slice(WORKLOAD_OPTS);
    v.extend_from_slice(RUN_OPTS);
    v.push("algo");
    // Leak is fine: a handful of static strings per process.
    v.extend_from_slice(extra);
    v.iter()
        .map(|s| -> &'static str { Box::leak(s.to_string().into_boxed_str()) })
        .collect()
}

fn cmd_run(args: &Args) -> Result<String, ArgError> {
    args.check_known(&allowed(&[]))?;
    let algo = parse_algorithm(args)?;
    let ds = build_dataset(args)?;
    let cfg = build_config(args)?;
    let result = execute(algo, &ds, &cfg);
    let summary = RunSummary::from_result(&result);
    let save = |key: &'static str, content: String| -> Result<(), ArgError> {
        if let Some(path) = args.get(key) {
            std::fs::write(path, content).map_err(|e| ArgError::Invalid {
                key: key.into(),
                value: format!("{path}: {e}"),
                expected: "a writable path",
            })?;
        }
        Ok(())
    };
    save("trace-out", result.chrome_trace())?;
    save("metrics-out", metrics_jsonl(&summary, &result))?;
    Ok(if args.flag("json") {
        summary.to_json()
    } else {
        summary.to_text()
    })
}

fn cmd_recommend(args: &Args) -> Result<String, ArgError> {
    args.check_known(&allowed(&["objective", "calibrate", "cores"]))?;
    let ds = build_dataset(args)?;
    // Calibration bands scale with the cores this process can actually
    // run on — the affinity-mask cardinality, not the machine.
    let cores: usize = args.get_or("cores", iawj_exec::affinity_core_count().max(1))?;
    let objective = match args.get_or("objective", "throughput".to_string())?.as_str() {
        "throughput" => Objective::Throughput,
        "latency" => Objective::Latency,
        "progressiveness" => Objective::Progressiveness,
        other => {
            return Err(ArgError::Invalid {
                key: "objective".into(),
                value: other.into(),
                expected: "throughput|latency|progressiveness",
            })
        }
    };
    let thresholds = if args.flag("calibrate") {
        calibrate(cores)
    } else {
        Thresholds::default()
    };
    let descriptor = sniff(&ds, 0.05, cores);
    let pick = recommend(&descriptor, objective, &thresholds);
    Ok(format!(
        "workload: rate_r={} rate_s={} dupe={:.1} skew_key={:.2} tuples={}\n\
         bands: low<{:.0} t/ms, high>={:.0} t/ms\n\
         recommendation ({objective:?}): {pick}",
        descriptor.rate_r,
        descriptor.rate_s,
        descriptor.dupe,
        descriptor.skew_key,
        descriptor.total_tuples,
        thresholds.rate_low,
        thresholds.rate_high,
    ))
}

fn cmd_sweep(args: &Args) -> Result<String, ArgError> {
    args.check_known(&allowed(&["param", "values"]))?;
    let algo = parse_algorithm(args)?;
    let param: String = args.require("param")?;
    let values: Vec<f64> = args.list("values")?;
    let cfg = build_config(args)?;
    let mut out = format!(
        "{:>10}  {:>12}  {:>12}  {:>10}\n",
        param, "tpt (t/ms)", "p95 (ms)", "matches"
    );
    for &v in &values {
        // Rebuild the workload with the swept parameter overridden.
        let ds = build_dataset_with_override(args, &param, v)?;
        let result = execute(algo, &ds, &cfg);
        let summary = RunSummary::from_result(&result);
        out.push_str(&format!(
            "{v:>10}  {:>12.1}  {:>12}  {:>10}\n",
            summary.throughput_tpms,
            summary
                .latency_p95_ms
                .map(|l| format!("{l:.1}"))
                .unwrap_or_else(|| "-".into()),
            summary.matches,
        ));
    }
    Ok(out)
}

/// Build the dataset with one Micro parameter replaced by the sweep value.
fn build_dataset_with_override(
    args: &Args,
    param: &str,
    value: f64,
) -> Result<iawj_datagen::Dataset, ArgError> {
    use iawj_datagen::MicroSpec;
    let base = MicroSpec {
        rate_r: args.get_or("rate-r", 1600.0)?,
        rate_s: args.get_or("rate-s", 1600.0)?,
        window_ms: args.get_or("window", 1000)?,
        dupe: args.get_or("dupe", 1usize)?.max(1),
        skew_key: args.get_or("skew-key", 0.0)?,
        skew_ts: args.get_or("skew-ts", 0.0)?,
        static_data: args.flag("static"),
        count_r: None,
        count_s: None,
        seed: args.get_or("seed", 42)?,
    };
    let spec = match param {
        "rate" => MicroSpec {
            rate_r: value,
            rate_s: value,
            ..base
        },
        "dupe" => MicroSpec {
            dupe: (value as usize).max(1),
            ..base
        },
        "skew-key" => MicroSpec {
            skew_key: value,
            ..base
        },
        "skew-ts" => MicroSpec {
            skew_ts: value,
            ..base
        },
        "window" => MicroSpec {
            window_ms: value as u32,
            ..base
        },
        other => {
            return Err(ArgError::Invalid {
                key: "param".into(),
                value: other.into(),
                expected: "rate|dupe|skew-key|skew-ts|window",
            })
        }
    };
    let mut spec = spec;
    if spec.static_data {
        spec.count_r = Some(spec.n_r());
        spec.count_s = Some(spec.n_s());
    }
    Ok(spec.generate())
}

fn cmd_trace(args: &Args) -> Result<String, ArgError> {
    args.check_known(&allowed(&[]))?;
    let algo = parse_algorithm(args)?;
    let ds = build_dataset(args)?;
    let cfg = build_config(args)?;
    let profile = trace::profile(algo, &ds, &cfg);
    let per = profile.per_tuple();
    let est = profile.estimate(&iawj_cachesim::CostModel::default());
    let (retiring, core, memory) = est.percentages();
    let mut out = format!(
        "algorithm: {}\ntuples: {}\nsimulated misses per tuple: dTLB {:.3}  L1D {:.3}  L2 {:.3}  L3 {:.3}\n",
        profile.algorithm, profile.tuples, per.dtlb, per.l1d, per.l2, per.l3
    );
    out.push_str(&format!(
        "top-down estimate: retiring {retiring:.1}%  core-bound {core:.1}%  memory-bound {memory:.1}%\n"
    ));
    for (phase, counters) in &profile.per_phase {
        out.push_str(&format!(
            "  {phase:<12} accesses {:>10}  L1D {:>8}  L2 {:>7}  L3 {:>7}\n",
            counters.accesses, counters.l1d_misses, counters.l2_misses, counters.l3_misses
        ));
    }
    Ok(out)
}

fn cmd_generate(args: &Args) -> Result<String, ArgError> {
    args.check_known(&allowed(&["out-r", "out-s"]))?;
    let ds = build_dataset(args)?;
    let save = |key: &'static str, stream: &[iawj_common::Tuple]| -> Result<String, ArgError> {
        let path: String = args.require(key)?;
        iawj_datagen::io::save_stream(stream, &path).map_err(|e| ArgError::Invalid {
            key: key.into(),
            value: format!("{path}: {e}"),
            expected: "a writable path",
        })?;
        Ok(path)
    };
    let pr = save("out-r", &ds.r)?;
    let ps = save("out-s", &ds.s)?;
    Ok(format!(
        "wrote {} tuples to {pr} and {} tuples to {ps}",
        ds.r.len(),
        ds.s.len()
    ))
}

/// Write the outcome of [`run_cli`] — its output on `out`, or the error
/// (followed by [`USAGE`] when it asks for it) on `err` — and pick the exit
/// code: success exactly when the run succeeded. A closed pipe on either
/// stream (`iawj run ... | head -1`) ends the writing early without
/// changing the code; any other failure to write the output is a failure.
pub fn emit(
    outcome: Result<String, CliError>,
    mut out: impl std::io::Write,
    mut err: impl std::io::Write,
) -> std::process::ExitCode {
    use std::process::ExitCode;
    let (written, code) = match outcome {
        Ok(output) => (
            writeln!(out, "{output}").and_then(|()| out.flush()),
            ExitCode::SUCCESS,
        ),
        Err(e) => {
            let written = if e.show_usage {
                writeln!(err, "error: {e}\n\n{USAGE}")
            } else {
                writeln!(err, "{e}")
            };
            (written.and_then(|()| err.flush()), ExitCode::FAILURE)
        }
    };
    match written {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => ExitCode::FAILURE,
        _ => code,
    }
}

/// Convenience for tests: run with &str arguments, errors as plain text.
pub fn run_cli_str(argv: &[&str]) -> Result<String, String> {
    let owned: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    run_cli(&owned).map_err(|e| e.message)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that fails every call with one error kind: `BrokenPipe`
    /// when its reader has gone away, like stdout piped into `head`.
    struct Failing(std::io::ErrorKind);

    impl std::io::Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn emit_writes_each_outcome_to_its_stream() {
        use std::process::ExitCode;
        let (mut out, mut err) = (Vec::new(), Vec::new());
        assert_eq!(
            emit(Ok("done".into()), &mut out, &mut err),
            ExitCode::SUCCESS
        );
        assert_eq!((out.as_slice(), err.as_slice()), (&b"done\n"[..], &b""[..]));

        let (mut out, mut err) = (Vec::new(), Vec::new());
        let usage_error = CliError::from("unknown option --bogus");
        assert_eq!(
            emit(Err(usage_error), &mut out, &mut err),
            ExitCode::FAILURE
        );
        let text = String::from_utf8(err).unwrap();
        assert!(out.is_empty());
        assert!(
            text.starts_with("error: unknown option --bogus\n\n"),
            "{text}"
        );
        assert!(text.ends_with(&format!("{USAGE}\n")));

        let mut err = Vec::new();
        let report = CliError {
            message: "regressed".into(),
            show_usage: false,
        };
        assert_eq!(emit(Err(report), Vec::new(), &mut err), ExitCode::FAILURE);
        assert_eq!(err, b"regressed\n");
    }

    /// A closed pipe is the reader's choice, not an error: the exit code
    /// stays the run's own, and nothing panics.
    #[test]
    fn emit_treats_a_closed_pipe_as_done() {
        use std::io::ErrorKind::BrokenPipe;
        use std::process::ExitCode;
        let done = emit(Ok("done".into()), Failing(BrokenPipe), Failing(BrokenPipe));
        assert_eq!(done, ExitCode::SUCCESS);
        let usage_error = CliError::from("unknown option --bogus");
        let failed = emit(Err(usage_error), Failing(BrokenPipe), Failing(BrokenPipe));
        assert_eq!(failed, ExitCode::FAILURE);
    }

    /// Any other write failure loses the output, so the run fails.
    #[test]
    fn emit_fails_when_the_output_is_lost() {
        let full = Failing(std::io::ErrorKind::StorageFull);
        let code = emit(Ok("done".into()), full, Vec::new());
        assert_eq!(code, std::process::ExitCode::FAILURE);
    }

    #[test]
    fn help_works() {
        assert!(run_cli_str(&["help"]).unwrap().contains("USAGE"));
        assert!(run_cli_str(&["run", "--help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn missing_subcommand_errors() {
        assert!(run_cli(&[]).is_err());
        assert!(run_cli_str(&["frobnicate"]).is_err());
    }

    #[test]
    fn run_text_output() {
        let out = run_cli_str(&[
            "run",
            "--algo",
            "NPJ",
            "--static",
            "--count-r",
            "500",
            "--count-s",
            "500",
            "--dupe",
            "5",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("algorithm:     NPJ"), "{out}");
        assert!(out.contains("matches:       2500"), "{out}");
    }

    #[test]
    fn serve_runs_a_short_stream() {
        let out = run_cli_str(&[
            "serve",
            "--algo",
            "NPJ",
            "--window-spec",
            "tumbling:100",
            "--duration-ms",
            "400",
            "--rate-r",
            "20",
            "--rate-s",
            "20",
            "--speedup",
            "200",
            "--threads",
            "1",
        ])
        .unwrap();
        assert!(out.contains("engine:        NPJ"), "{out}");
        assert!(out.contains("window spec:   tumbling:100"), "{out}");
        assert!(out.contains("windows:       4 closed"), "{out}");
    }

    #[test]
    fn serve_json_summary_parses() {
        let out = run_cli_str(&[
            "serve",
            "--algo",
            "SHJ_JM",
            "--window-spec",
            "sliding:100/50",
            "--duration-ms",
            "300",
            "--rate-r",
            "10",
            "--rate-s",
            "10",
            "--speedup",
            "300",
            "--threads",
            "1",
            "--json",
        ])
        .unwrap();
        let j = iawj_obs::json::Json::parse(&out).expect("summary is valid JSON");
        assert_eq!(
            j.get("type").and_then(iawj_obs::json::Json::as_str),
            Some("stream_summary")
        );
        assert_eq!(
            j.get("window_spec").and_then(iawj_obs::json::Json::as_str),
            Some("sliding:100/50")
        );
        assert!(j
            .get("matches")
            .and_then(iawj_obs::json::Json::as_u64)
            .is_some());
    }

    #[test]
    fn serve_rejects_bad_window_spec() {
        for bad in [
            "hopping:10",
            "tumbling:0",
            "sliding:100",
            "sliding:0/10",
            "",
        ] {
            let err = run_cli_str(&["serve", "--algo", "NPJ", "--window-spec", bad]).unwrap_err();
            assert!(err.contains("window-spec"), "{bad}: {err}");
        }
    }

    #[test]
    fn serve_rejects_nonpositive_speedup() {
        for bad in ["0", "-1", "NaN", "inf"] {
            let err = run_cli_str(&["serve", "--algo", "NPJ", "--speedup", bad]).unwrap_err();
            assert!(err.contains("speedup"), "{bad}: {err}");
        }
    }

    #[test]
    fn serve_rejects_nonpositive_tick_ms() {
        for bad in ["0", "-5", "NaN"] {
            let err = run_cli_str(&["serve", "--algo", "NPJ", "--tick-ms", bad]).unwrap_err();
            assert!(err.contains("tick-ms"), "{bad}: {err}");
        }
    }

    #[test]
    fn serve_rejects_nonpositive_rate_r() {
        for bad in ["0", "-100", "NaN"] {
            let err = run_cli_str(&["serve", "--algo", "NPJ", "--rate-r", bad]).unwrap_err();
            assert!(err.contains("rate-r"), "{bad}: {err}");
        }
    }

    #[test]
    fn serve_rejects_nonpositive_rate_s() {
        for bad in ["0", "-0.5", "NaN"] {
            let err = run_cli_str(&["serve", "--algo", "NPJ", "--rate-s", bad]).unwrap_err();
            assert!(err.contains("rate-s"), "{bad}: {err}");
        }
    }

    #[test]
    fn serve_rejects_queue_cap_outside_the_ring_bound() {
        // Past MAX_QUEUE_CAP the ring's preallocation used to panic
        // ("capacity overflow") or abort the process.
        for bad in ["0", "16777217", "1099511627776", &usize::MAX.to_string()] {
            let err = run_cli_str(&["serve", "--algo", "NPJ", "--queue-cap", bad]).unwrap_err();
            assert!(err.contains("queue-cap"), "{bad}: {err}");
            assert!(err.contains("1..=16777216"), "{bad}: {err}");
        }
    }

    #[test]
    fn run_json_output() {
        let out = run_cli_str(&[
            "run",
            "--algo",
            "PMJ_JB",
            "--static",
            "--count-r",
            "300",
            "--count-s",
            "300",
            "--json",
            "--threads",
            "2",
        ])
        .unwrap();
        let v = iawj_obs::json::Json::parse(&out).unwrap();
        assert_eq!(v.get("algorithm").and_then(|a| a.as_str()), Some("PMJ_JB"));
    }

    #[test]
    fn run_writes_trace_and_metrics_files() {
        use iawj_obs::json::Json;
        let dir = std::env::temp_dir().join("iawj_cli_obs");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json");
        let metrics = dir.join("m.jsonl");
        run_cli_str(&[
            "run",
            "--algo",
            "PRJ",
            "--static",
            "--count-r",
            "2000",
            "--count-s",
            "2000",
            "--dupe",
            "4",
            "--threads",
            "4",
            "--sample-every",
            "1",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        // The trace parses and has one named lane per worker.
        let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let lanes: std::collections::BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("tid").and_then(Json::as_u64))
            .collect();
        assert_eq!(lanes.len(), 4, "one lane per worker");
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
        // The metrics journal parses line by line and carries a histogram.
        let jsonl = std::fs::read_to_string(&metrics).unwrap();
        let hist_line = jsonl
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .find(|v| v.get("type").and_then(Json::as_str) == Some("histogram"))
            .expect("histogram line present");
        assert!(hist_line.get("count").and_then(Json::as_u64).unwrap() > 0);
        std::fs::remove_file(trace).unwrap();
        std::fs::remove_file(metrics).unwrap();
    }

    #[test]
    fn recommend_paths() {
        let out = run_cli_str(&[
            "recommend",
            "--static",
            "--count-r",
            "2000",
            "--count-s",
            "2000",
            "--dupe",
            "50",
        ])
        .unwrap();
        assert!(out.contains("recommendation"), "{out}");
        assert!(out.contains("MPASS") || out.contains("MWAY"), "{out}");
        let out = run_cli_str(&[
            "recommend",
            "--rate-r",
            "5",
            "--rate-s",
            "5",
            "--window",
            "100",
            "--objective",
            "latency",
        ])
        .unwrap();
        assert!(out.contains("SHJ_JM"), "{out}");
    }

    #[test]
    fn sweep_prints_one_row_per_value() {
        let out = run_cli_str(&[
            "sweep",
            "--algo",
            "NPJ",
            "--param",
            "dupe",
            "--values",
            "1,5",
            "--static",
            "--rate-r",
            "3",
            "--rate-s",
            "3",
            "--window",
            "100",
            "--threads",
            "2",
        ])
        .unwrap();
        let rows: Vec<&str> = out.lines().collect();
        assert_eq!(rows.len(), 3, "{out}"); // header + 2 values
    }

    #[test]
    fn trace_reports_counters() {
        let out = run_cli_str(&[
            "trace",
            "--algo",
            "SHJ_JM",
            "--static",
            "--count-r",
            "2000",
            "--count-s",
            "2000",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("misses per tuple"), "{out}");
        assert!(out.contains("memory-bound"), "{out}");
    }

    #[test]
    fn generate_then_run_from_csv() {
        let dir = std::env::temp_dir().join("iawj_cli_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let pr = dir.join("r.csv");
        let ps = dir.join("s.csv");
        let out = run_cli_str(&[
            "generate",
            "--static",
            "--count-r",
            "200",
            "--count-s",
            "200",
            "--dupe",
            "4",
            "--out-r",
            pr.to_str().unwrap(),
            "--out-s",
            ps.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote 200 tuples"), "{out}");
        let out = run_cli_str(&[
            "run",
            "--algo",
            "MWAY",
            "--threads",
            "2",
            "--input-r",
            pr.to_str().unwrap(),
            "--input-s",
            ps.to_str().unwrap(),
        ])
        .unwrap();
        assert!(
            out.contains("matches:       800"),
            "4 dupes each side over 50 keys: {out}"
        );
        std::fs::remove_file(pr).unwrap();
        std::fs::remove_file(ps).unwrap();
    }

    #[test]
    fn unknown_option_is_reported() {
        let err = run_cli_str(&["run", "--algo", "NPJ", "--bogus", "1"]).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        // Flags of deleted knobs are unknown options now: the spawn
        // executor, the lock-free NPJ table, the global kernel switch,
        // PRJ's write-combining scatter and the morsel-stealing scheduler.
        for (flag, value) in [
            ("--executor", "spawn"),
            ("--npj-table", "lockfree"),
            ("--kernel", "scalar"),
            ("--prefetch-dist", "4"),
            ("--scatter", "direct"),
            ("--scheduler", "steal"),
            ("--morsel-size", "1024"),
        ] {
            let err = run_cli_str(&["run", "--algo", "NPJ", flag, value]).unwrap_err();
            assert!(err.contains(&format!("unknown option {flag}")), "{err}");
        }
    }

    /// Zero workers and a zero, negative or NaN speedup used to reach a
    /// `RunConfig` or clock assertion; now each is a flag-level error.
    #[test]
    fn zero_threads_and_bad_speedup_are_errors_not_panics() {
        let run = [
            "run",
            "--algo",
            "PRJ",
            "--static",
            "--count-r",
            "100",
            "--count-s",
            "100",
        ];
        let serve = ["serve", "--algo", "NPJ", "--duration-ms", "100"];
        for (base, flag, value) in [
            (&run[..], "--threads", "0"),
            (&serve[..], "--threads", "0"),
            (&run[..], "--speedup", "0"),
            (&run[..], "--speedup", "nan"),
            (&run[..], "--speedup", "-1"),
        ] {
            let argv: Vec<&str> = base.iter().copied().chain([flag, value]).collect();
            let err = run_cli_str(&argv).unwrap_err();
            assert!(err.starts_with(&format!("{flag} ")), "{argv:?}: {err}");
        }
    }

    #[test]
    fn oversized_radix_bits_are_rejected_not_run() {
        let err = run_cli_str(&[
            "run",
            "--algo",
            "PRJ",
            "--static",
            "--count-r",
            "5000",
            "--count-s",
            "5000",
            "--threads",
            "2",
            "--radix-bits",
            "33",
        ])
        .unwrap_err();
        assert!(
            err.contains("radix-bits") && err.contains("1..=24"),
            "{err}"
        );
    }

    #[test]
    fn run_with_perf_flag_never_panics() {
        // On hosts without perf_event access this exercises the fallback.
        let out = run_cli_str(&[
            "run",
            "--algo",
            "NPJ",
            "--static",
            "--count-r",
            "300",
            "--count-s",
            "300",
            "--threads",
            "2",
            "--perf",
        ])
        .unwrap();
        assert!(out.contains("throughput:"), "{out}");
    }

    fn snapshot_fixture(tpt: f64, p99: f64) -> iawj_obs::BenchSnapshot {
        iawj_obs::BenchSnapshot {
            schema_version: iawj_obs::SCHEMA_VERSION,
            fig: "fig7".into(),
            git_sha: "deadbeef".into(),
            created_unix_s: 1,
            scale: 0.01,
            speedup: 25.0,
            threads: 4,
            clock_ghz: 2.6,
            clock_source: "assumed".into(),
            runs: vec![iawj_obs::RunSnapshot {
                workload: "Micro".into(),
                engine: "NPJ".into(),
                threads: 4,
                throughput_tpms: tpt,
                latency_p99_ms: Some(p99),
                latency_max_ms: Some(p99 * 2.0),
                matches: 1000,
                counter_source: "none".into(),
                phases: vec![],
                cachesim: None,
            }],
        }
    }

    fn write_snapshot(name: &str, snap: &iawj_obs::BenchSnapshot) -> String {
        let dir = std::env::temp_dir().join("iawj_cli_benchdiff");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, snap.to_json()).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn bench_diff_passes_on_identical_snapshots() {
        let old = write_snapshot("same_a.json", &snapshot_fixture(100.0, 5.0));
        let new = write_snapshot("same_b.json", &snapshot_fixture(100.0, 5.0));
        let out = run_cli_str(&["bench-diff", &old, &new]).unwrap();
        assert!(out.contains("OK"), "{out}");
        // A committed baseline, whose rows still carry a `scatter` column,
        // diffs clean against itself.
        let fig7 = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../baselines/BENCH_fig7.json"
        );
        let out = run_cli_str(&["bench-diff", fig7, fig7]).unwrap();
        assert!(out.contains("OK") && !out.contains("FAIL"), "{out}");
    }

    #[test]
    fn bench_diff_fails_on_throughput_regression() {
        let old = write_snapshot("reg_old.json", &snapshot_fixture(100.0, 5.0));
        // 25% throughput drop: past the default 20% threshold.
        let new = write_snapshot("reg_new.json", &snapshot_fixture(75.0, 5.0));
        let argv: Vec<String> = ["bench-diff", &old, &new]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run_cli(&argv).unwrap_err();
        assert!(!err.show_usage, "a regression report is not a usage error");
        assert!(err.message.contains("FAIL"), "{}", err.message);
        // The same pair passes with --warn-only or a wider threshold.
        let out = run_cli_str(&["bench-diff", &old, &new, "--warn-only"]).unwrap();
        assert!(out.contains("FAIL"), "{out}");
        run_cli_str(&["bench-diff", &old, &new, "--max-tpt-drop", "0.3"]).unwrap();
    }

    #[test]
    fn bench_diff_wants_two_paths_and_real_files() {
        let argv = vec!["bench-diff".to_string()];
        let err = run_cli(&argv).unwrap_err();
        assert!(err.show_usage);
        assert!(
            err.message.contains("two snapshot paths"),
            "{}",
            err.message
        );
        let err =
            run_cli_str(&["bench-diff", "/nonexistent/a.json", "/nonexistent/b.json"]).unwrap_err();
        assert!(err.contains("nonexistent"), "{err}");
    }

    #[test]
    fn bad_algorithm_is_reported() {
        let err = run_cli_str(&["run", "--algo", "BLOOM"]).unwrap_err();
        assert!(err.contains("algo"), "{err}");
    }
}
