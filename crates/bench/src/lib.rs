#![warn(missing_docs)]

//! Shared harness utilities for the per-figure/per-table benchmark targets.
//!
//! Every target in `benches/` regenerates one table or figure of the
//! paper's evaluation, printing the same rows/series. Workload sizes are
//! controlled by environment variables so the full suite runs on a laptop
//! by default and can be cranked toward paper scale:
//!
//! - `IAWJ_SCALE` — workload scale factor (default 0.01; 1.0 = the paper's
//!   cardinalities). Key-domain sizes stay fixed, so duplication scales.
//! - `IAWJ_SPEEDUP` — stream-time compression (default 25; 1 = real-time
//!   replay of the 1-second windows). Compressing time *raises* effective
//!   arrival pressure, which together with the reduced cardinalities keeps
//!   each workload in its qualitative band.
//! - `IAWJ_THREADS` — worker threads (default: min(8, cores), at least 2).
//!
//! All emitted times are in stream milliseconds, so series shapes are
//! comparable across settings.
//!
//! Set `IAWJ_CSV_DIR` to also write every printed table as a CSV file in
//! that directory (one file per table, named after the banner), ready for
//! plotting scripts.

use iawj_core::{execute, Algorithm, RunConfig, RunResult, StreamReport};
use iawj_datagen::{debs, rovio, stock, ysb, Dataset, MicroSpec};

/// Harness-wide settings read from the environment.
#[derive(Clone, Copy, Debug)]
pub struct BenchEnv {
    /// Workload scale (1.0 = paper cardinalities).
    pub scale: f64,
    /// Stream-time compression factor.
    pub speedup: f64,
    /// Worker threads.
    pub threads: usize,
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl BenchEnv {
    /// Read `IAWJ_SCALE` / `IAWJ_SPEEDUP` / `IAWJ_THREADS`.
    ///
    /// The thread default honours the affinity mask (cgroup/taskset), not
    /// the machine's core count — a harness restricted to two cores must
    /// not silently timeshare eight workers.
    pub fn from_env() -> Self {
        let cores = iawj_exec::affinity_core_count().max(1);
        BenchEnv {
            scale: env_f64("IAWJ_SCALE", 0.01),
            speedup: env_f64("IAWJ_SPEEDUP", 25.0),
            threads: env_usize("IAWJ_THREADS", cores.clamp(2, 8)),
        }
    }

    /// Default run configuration for this environment.
    pub fn config(&self) -> RunConfig {
        RunConfig::with_threads(self.threads).speedup(self.speedup)
    }

    /// The four real-world-equivalent workloads at this scale. Stock and
    /// DEBS are small enough to run closer to paper scale.
    pub fn real_workloads(&self) -> Vec<Dataset> {
        vec![
            stock((self.scale * 10.0).min(1.0), 42),
            rovio(self.scale, 42),
            ysb(self.scale, 42),
            debs((self.scale * 10.0).min(1.0), 42),
        ]
    }

    /// A Micro spec with both rates scaled into this environment.
    pub fn micro(&self, rate_r: f64, rate_s: f64) -> MicroSpec {
        MicroSpec::with_rates(rate_r * self.scale, rate_s * self.scale).seed(42)
    }
}

/// Execute and return the result, printing nothing.
pub fn run(algo: Algorithm, ds: &Dataset, cfg: &RunConfig) -> RunResult {
    execute(algo, ds, cfg)
}

// ---------------------------------------------------------------------------
// Machine-readable snapshots (BENCH_<fig>.json)
// ---------------------------------------------------------------------------

use iawj_common::PHASES;
use iawj_exec::cpu_clock;
use iawj_obs::{BenchSnapshot, CachesimPerTuple, PhaseSnapshot, RunSnapshot, SCHEMA_VERSION};

/// The current commit's abbreviated SHA, or `"unknown"` outside a repo.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Collects every configuration a harness target executed and writes them
/// as a versioned `BENCH_<fig>.json` when `IAWJ_BENCH_DIR` is set — the
/// machine-readable perf trajectory consumed by `iawj bench-diff`. With
/// the variable unset, recording is free and nothing is written.
pub struct SnapshotWriter {
    snap: BenchSnapshot,
}

impl SnapshotWriter {
    /// Start a snapshot for one figure/table tag (`"fig7"`, `"table5"`…).
    pub fn new(fig: &str, env: &BenchEnv) -> Self {
        let clock = cpu_clock();
        let created_unix_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        SnapshotWriter {
            snap: BenchSnapshot {
                schema_version: SCHEMA_VERSION,
                fig: fig.into(),
                git_sha: git_sha(),
                created_unix_s,
                scale: env.scale,
                speedup: env.speedup,
                threads: env.threads as u64,
                clock_ghz: clock.ghz,
                clock_source: clock.source.label().into(),
                runs: Vec::new(),
            },
        }
    }

    /// Record one executed configuration. `workload` may carry a
    /// parameter suffix (e.g. `"Micro/skew0.99"`) so sweep points stay
    /// distinct under `bench-diff`'s configuration key.
    pub fn record(&mut self, workload: &str, cfg: &RunConfig, res: &RunResult) {
        self.snap.runs.push(RunSnapshot {
            workload: workload.into(),
            engine: res.algorithm.name().into(),
            threads: cfg.threads as u64,
            throughput_tpms: res.throughput_tpms(),
            latency_p99_ms: res.hist.quantile_ms(0.99),
            latency_max_ms: res.hist.max_ms(),
            matches: res.matches,
            counter_source: res.counter_source.label().into(),
            phases: PHASES
                .iter()
                .map(|&p| PhaseSnapshot {
                    label: p.label().into(),
                    ns: res.breakdown[p],
                    counters: res.counters[p],
                })
                .collect(),
            cachesim: None,
        });
    }

    /// Record one continuous-streaming run. Streaming has no
    /// [`RunResult`]; the row maps the [`StreamReport`]'s service metrics
    /// onto the snapshot schema — throughput is the operator-limited
    /// sustained ingest rate in tuples per *wall* ms (replay is unpaced,
    /// so backpressure makes producers run exactly as fast as the
    /// operator drains), latency quantiles are per-window close (join)
    /// wall times.
    pub fn record_stream(&mut self, workload: &str, engine: &str, report: &StreamReport) {
        self.snap.runs.push(RunSnapshot {
            workload: workload.into(),
            engine: engine.into(),
            threads: self.snap.threads,
            throughput_tpms: report.wall_tpms(),
            latency_p99_ms: report.close_hist.quantile_ms(0.99),
            latency_max_ms: report.close_hist.max_ms(),
            matches: report.matches,
            counter_source: "none".into(),
            phases: Vec::new(),
            cachesim: None,
        });
    }

    /// Record a cache-simulator profile row (Table 5 / Fig. 19): no wall
    /// clock, only simulated per-tuple counters.
    pub fn record_cachesim(&mut self, workload: &str, engine: &str, per: CachesimPerTuple) {
        self.snap.runs.push(RunSnapshot {
            workload: workload.into(),
            engine: engine.into(),
            threads: self.snap.threads,
            throughput_tpms: 0.0,
            latency_p99_ms: None,
            latency_max_ms: None,
            matches: 0,
            counter_source: "cachesim".into(),
            phases: Vec::new(),
            cachesim: Some(per),
        });
    }

    /// Write `BENCH_<fig>.json` into `IAWJ_BENCH_DIR`, if set. Failures
    /// are reported but never abort a harness run.
    pub fn write(&self) {
        let Ok(dir) = std::env::var("IAWJ_BENCH_DIR") else {
            return;
        };
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.snap.fig));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.snap.to_json()))
        {
            Ok(()) => println!("(bench snapshot: {})", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

// ---------------------------------------------------------------------------
// Table printing
// ---------------------------------------------------------------------------

use std::sync::Mutex;

/// The active harness title (set by [`banner`]), used to name CSV files.
static CURRENT_TITLE: Mutex<Option<String>> = Mutex::new(None);
/// Per-title table counter so multiple tables per harness get distinct files.
static TABLE_SEQ: Mutex<usize> = Mutex::new(0);

/// Print a header line for a harness target.
pub fn banner(title: &str, env: &BenchEnv) {
    println!();
    println!("==============================================================");
    println!("{title}");
    println!(
        "(scale={}, speedup={}x, threads={})",
        env.scale, env.speedup, env.threads
    );
    println!("==============================================================");
    let slug: String = title
        .chars()
        .take_while(|&c| c != '—' && c != '(')
        .collect::<String>()
        .trim()
        .to_lowercase()
        .replace([' ', '/'], "_");
    *CURRENT_TITLE.lock().unwrap() = Some(slug);
    *TABLE_SEQ.lock().unwrap() = 0;
}

/// Write a printed table as CSV when `IAWJ_CSV_DIR` is set. Failures are
/// reported but never abort a harness run.
fn export_csv(columns: &[&str], rows: &[Vec<String>]) {
    let Ok(dir) = std::env::var("IAWJ_CSV_DIR") else {
        return;
    };
    let title = CURRENT_TITLE
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| "table".into());
    let seq = {
        let mut s = TABLE_SEQ.lock().unwrap();
        *s += 1;
        *s
    };
    let path = std::path::Path::new(&dir).join(format!("{title}_{seq}.csv"));
    let mut out = String::new();
    out.push_str(&columns.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Print an aligned table: `columns` then one row per entry.
pub fn print_table(columns: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = columns.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    for row in rows {
        println!("{}", fmt_row(row));
    }
    export_csv(columns, rows);
}

/// Format a float compactly (about 3 significant digits).
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        "-".into()
    } else if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Format an optional float.
pub fn fmt_opt(v: Option<f64>) -> String {
    v.map(fmt).unwrap_or_else(|| "-".into())
}

/// Print a progressiveness curve as `t_ms:frac%` pairs, thinned to `n`.
pub fn print_curve(label: &str, curve: &[(f64, f64)], n: usize) {
    let thin = iawj_core::metrics::thin_curve(curve, n);
    let cells: Vec<String> = thin
        .iter()
        .map(|(t, f)| format!("{}:{:.0}%", fmt(*t), f * 100.0))
        .collect();
    println!("{label:>10}  {}", cells.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        let env = BenchEnv::from_env();
        assert!(env.scale > 0.0);
        assert!(env.speedup > 0.0);
        assert!(env.threads >= 2);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(1.2345), "1.234");
        assert_eq!(fmt_opt(None), "-");
        assert_eq!(fmt(f64::NAN), "-");
    }

    #[test]
    fn csv_export_writes_files() {
        let dir = std::env::temp_dir().join("iawj_csv_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("IAWJ_CSV_DIR", &dir);
        let env = BenchEnv {
            scale: 0.01,
            speedup: 25.0,
            threads: 2,
        };
        banner("Figure 99 — csv export test", &env);
        print_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        std::env::remove_var("IAWJ_CSV_DIR");
        let file = dir.join("figure_99_1.csv");
        let content = std::fs::read_to_string(&file).expect("csv written");
        assert_eq!(content, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_writer_round_trips_through_bench_dir() {
        let dir = std::env::temp_dir().join("iawj_snapshot_writer_test");
        let _ = std::fs::remove_dir_all(&dir);
        let env = BenchEnv {
            scale: 0.01,
            speedup: 25.0,
            threads: 2,
        };
        let ds = MicroSpec::static_counts(300, 300)
            .dupe(3)
            .seed(7)
            .generate();
        let cfg = env.config();
        let res = run(Algorithm::Npj, &ds, &cfg);
        let mut w = SnapshotWriter::new("figtest", &env);
        w.record(&ds.name, &cfg, &res);
        w.record_cachesim(
            &ds.name,
            "PRJ",
            CachesimPerTuple {
                dtlb: 0.1,
                l1d: 1.5,
                l2: 0.4,
                l3: 0.2,
            },
        );
        // Without the env var nothing is written.
        w.write();
        assert!(!dir.exists());
        std::env::set_var("IAWJ_BENCH_DIR", &dir);
        w.write();
        std::env::remove_var("IAWJ_BENCH_DIR");
        let text = std::fs::read_to_string(dir.join("BENCH_figtest.json")).expect("written");
        let parsed = BenchSnapshot::parse(&text).expect("parses");
        assert_eq!(parsed.fig, "figtest");
        assert_eq!(parsed.runs.len(), 2);
        assert_eq!(parsed.runs[0].engine, "NPJ");
        assert!(parsed.runs[0].throughput_tpms > 0.0);
        assert_eq!(parsed.runs[0].phases.len(), 6);
        assert_eq!(parsed.runs[1].counter_source, "cachesim");
        assert!(parsed.runs[1].cachesim.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workloads_generate_at_small_scale() {
        let env = BenchEnv {
            scale: 0.005,
            speedup: 50.0,
            threads: 2,
        };
        let ws = env.real_workloads();
        let names: Vec<&str> = ws.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["Stock", "Rovio", "YSB", "DEBS"]);
        for ds in &ws {
            assert!(ds.total_inputs() > 0, "{}", ds.name);
        }
    }
}
