//! Building datasets and run configurations from CLI options.

use crate::args::{ArgError, Args};
use iawj_core::config::MAX_RADIX_BITS;
use iawj_core::{Algorithm, PinPolicy, RunConfig};
use iawj_datagen::{debs, rovio, stock, ysb, Dataset, MicroSpec};
use iawj_exec::{affinity_core_count, SortBackend};

/// Options shared by every dataset-consuming subcommand.
pub const WORKLOAD_OPTS: &[&str] = &[
    "workload", "scale", "seed", "rate-r", "rate-s", "window", "dupe", "skew-key", "skew-ts",
    "count-r", "count-s", "static", "input-r", "input-s",
];

/// Options shared by every executing subcommand.
pub const RUN_OPTS: &[&str] = &[
    "threads",
    "speedup",
    "sample-every",
    "delta",
    "radix-bits",
    "group-size",
    "scalar-sort",
    "eager-merge",
    "pin",
    "index-partitions",
    "index-epochs",
    "repart-factor",
    "evict-horizon",
    "json",
    "perf",
    "trace-out",
    "metrics-out",
];

/// Parse `--algo`.
pub fn parse_algorithm(args: &Args) -> Result<Algorithm, ArgError> {
    let name: String = args.require("algo")?;
    algorithm_by_name(&name).ok_or(ArgError::Invalid {
        key: "algo".into(),
        value: name,
        expected: "NPJ|PRJ|MWAY|MPASS|SHJ_JM|SHJ_JB|PMJ_JM|PMJ_JB|HANDSHAKE|IBWJ|IBWJ_PART",
    })
}

/// Case-insensitive algorithm lookup; dashes are accepted for underscores
/// (`ibwj-part` names `IBWJ_PART`).
pub fn algorithm_by_name(name: &str) -> Option<Algorithm> {
    let upper = name.to_ascii_uppercase().replace('-', "_");
    Algorithm::STUDIED
        .into_iter()
        .chain([Algorithm::Handshake])
        .chain(Algorithm::INDEX)
        .find(|a| a.name() == upper)
}

/// Build the dataset selected by `--workload` (default: micro), or load
/// both streams from CSV when `--input-r`/`--input-s` are given.
pub fn build_dataset(args: &Args) -> Result<Dataset, ArgError> {
    if args.get("input-r").is_some() || args.get("input-s").is_some() {
        return load_csv_dataset(args);
    }
    let workload: String = args.get_or("workload", "micro".to_string())?;
    let scale: f64 = args.get_or("scale", 0.01)?;
    let seed: u64 = args.get_or("seed", 42)?;
    match workload.as_str() {
        "stock" => Ok(stock(scale, seed)),
        "rovio" => Ok(rovio(scale, seed)),
        "ysb" => Ok(ysb(scale, seed)),
        "debs" => Ok(debs(scale, seed)),
        "micro" => {
            let mut spec = MicroSpec {
                rate_r: args.get_or("rate-r", 1600.0)?,
                rate_s: args.get_or("rate-s", 1600.0)?,
                window_ms: args.get_or("window", 1000)?,
                dupe: args.get_or("dupe", 1usize)?.max(1),
                skew_key: args.get_or("skew-key", 0.0)?,
                skew_ts: args.get_or("skew-ts", 0.0)?,
                static_data: args.flag("static"),
                count_r: None,
                count_s: None,
                seed,
            };
            if let Some(v) = args.get("count-r") {
                spec.count_r = Some(v.parse().map_err(|_| ArgError::Invalid {
                    key: "count-r".into(),
                    value: v.into(),
                    expected: "a tuple count",
                })?);
            }
            if let Some(v) = args.get("count-s") {
                spec.count_s = Some(v.parse().map_err(|_| ArgError::Invalid {
                    key: "count-s".into(),
                    value: v.into(),
                    expected: "a tuple count",
                })?);
            }
            if spec.static_data && spec.count_r.is_none() {
                spec.count_r = Some(spec.n_r());
                spec.count_s = Some(spec.n_s());
            }
            Ok(spec.generate())
        }
        other => Err(ArgError::Invalid {
            key: "workload".into(),
            value: other.into(),
            expected: "micro|stock|rovio|ysb|debs",
        }),
    }
}

/// Load both streams from `--input-r` / `--input-s` CSV files. The window
/// is `--window` (default: covers the latest timestamp).
fn load_csv_dataset(args: &Args) -> Result<Dataset, ArgError> {
    use iawj_common::{Rate, Window};
    use iawj_datagen::io::load_stream;
    let load = |key: &'static str| -> Result<Vec<iawj_common::Tuple>, ArgError> {
        let path: String = args.require(key)?;
        load_stream(&path).map_err(|e| ArgError::Invalid {
            key: key.into(),
            value: format!("{path}: {e}"),
            expected: "a readable key,ts CSV file",
        })
    };
    let r = load("input-r")?;
    let s = load("input-s")?;
    let max_ts = r
        .last()
        .map(|t| t.ts)
        .unwrap_or(0)
        .max(s.last().map(|t| t.ts).unwrap_or(0));
    let window_ms: u32 = args.get_or("window", max_ts.saturating_add(1))?;
    let rate = |stream: &[iawj_common::Tuple]| {
        if max_ts == 0 {
            Rate::Infinite
        } else {
            Rate::PerMs(stream.len() as f64 / max_ts as f64)
        }
    };
    Ok(Dataset {
        name: "csv".into(),
        rate_r: rate(&r),
        rate_s: rate(&s),
        r,
        s,
        window: Window::of_len(window_ms),
    })
}

/// Default `--threads`: 4, bounded by the cores this process may actually
/// use (the affinity-mask cardinality, not the machine's core count).
pub fn default_threads() -> usize {
    4.min(affinity_core_count().max(1))
}

/// Warn (don't reject) when `threads` exceeds the affinity mask:
/// oversubscription is a legitimate experiment, but silent timesharing
/// corrupts scalability readings.
pub fn warn_if_oversubscribed(threads: usize) {
    let avail = affinity_core_count();
    if threads > avail {
        eprintln!(
            "warning: --threads {threads} oversubscribes the {avail}-core affinity mask; \
             workers will timeshare"
        );
    }
}

/// Apply `--pin` to a run configuration. Shared by every subcommand that
/// executes joins so the knob means the same thing in one-shot runs and
/// the streaming service.
pub fn apply_exec_opts(args: &Args, cfg: &mut RunConfig) -> Result<(), ArgError> {
    if let Some(v) = args.get("pin") {
        cfg.exec.pin = v.parse::<PinPolicy>().map_err(|_| ArgError::Invalid {
            key: "pin".into(),
            value: v.into(),
            expected: "none|compact|scatter",
        })?;
    }
    Ok(())
}

/// Reject non-finite, zero, or negative values for rates and pacing knobs:
/// a NaN or ≤0 speedup stalls the paced sources forever (and trips the
/// event clock's assertion), a ≤0 tick never fires, and ≤0 ingest rates
/// generate nothing while claiming a duration.
pub fn require_positive_finite(key: &'static str, value: f64) -> Result<f64, ArgError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(ArgError::Invalid {
            key: key.into(),
            value: format!("{value}"),
            expected: "a finite value > 0",
        })
    }
}

/// `--threads`, or `default` when absent, warning on oversubscription. A
/// run needs at least one worker, so 0 is a flag-level error rather than a
/// rejected `RunConfig` later.
pub fn parse_threads(args: &Args, default: usize) -> Result<usize, ArgError> {
    let threads: usize = args.get_or("threads", default)?;
    if threads == 0 {
        return Err(ArgError::Invalid {
            key: "threads".into(),
            value: "0".into(),
            expected: "a positive worker count",
        });
    }
    warn_if_oversubscribed(threads);
    Ok(threads)
}

/// Build a run configuration from CLI options.
pub fn build_config(args: &Args) -> Result<RunConfig, ArgError> {
    let mut cfg = RunConfig::with_threads(parse_threads(args, default_threads())?).speedup(
        require_positive_finite("speedup", args.get_or("speedup", 25.0)?)?,
    );
    apply_exec_opts(args, &mut cfg)?;
    cfg.sample_every = args.get_or("sample-every", 64)?;
    cfg.pmj.delta = args.get_or("delta", cfg.pmj.delta)?;
    cfg.prj.radix_bits = args.get_or("radix-bits", cfg.prj.radix_bits)?;
    if !(1..=MAX_RADIX_BITS).contains(&cfg.prj.radix_bits) {
        return Err(ArgError::Invalid {
            key: "radix-bits".into(),
            value: cfg.prj.radix_bits.to_string(),
            expected: "a bit count in 1..=24",
        });
    }
    cfg.jb.group_size = args.get_or("group-size", cfg.jb.group_size)?;
    if args.flag("scalar-sort") {
        cfg.sort = SortBackend::Scalar;
    }
    cfg.pmj.eager_merge = args.flag("eager-merge");
    cfg.index.partitions = args.get_or("index-partitions", cfg.index.partitions)?;
    cfg.index.epochs = args.get_or("index-epochs", cfg.index.epochs)?;
    if cfg.index.epochs == 0 {
        return Err(ArgError::Invalid {
            key: "index-epochs".into(),
            value: "0".into(),
            expected: "a positive epoch count",
        });
    }
    cfg.index.repart_factor = args.get_or("repart-factor", cfg.index.repart_factor)?;
    if !(cfg.index.repart_factor.is_finite() && cfg.index.repart_factor >= 1.0) {
        return Err(ArgError::Invalid {
            key: "repart-factor".into(),
            value: format!("{}", cfg.index.repart_factor),
            expected: "a finite imbalance factor >= 1.0",
        });
    }
    if let Some(v) = args.get("evict-horizon") {
        cfg.index.evict_horizon_ms = Some(v.parse().map_err(|_| ArgError::Invalid {
            key: "evict-horizon".into(),
            value: v.into(),
            expected: "a horizon in ms",
        })?);
    }
    // Trace and metrics export need per-worker span journals.
    cfg.journal = args.get("trace-out").is_some() || args.get("metrics-out").is_some();
    // Hardware counters: explicit opt-in, and implied by the metrics
    // journal so its phase lines carry measured cycles where possible.
    cfg.perf = args.flag("perf") || args.get("metrics-out").is_some();
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn algorithm_lookup_is_case_insensitive() {
        assert_eq!(algorithm_by_name("npj"), Some(Algorithm::Npj));
        assert_eq!(algorithm_by_name("Shj_Jm"), Some(Algorithm::ShjJm));
        assert_eq!(algorithm_by_name("handshake"), Some(Algorithm::Handshake));
        assert_eq!(algorithm_by_name("ibwj"), Some(Algorithm::Ibwj));
        assert_eq!(algorithm_by_name("ibwj-part"), Some(Algorithm::IbwjPart));
        assert_eq!(algorithm_by_name("IBWJ_PART"), Some(Algorithm::IbwjPart));
        assert_eq!(algorithm_by_name("nope"), None);
    }

    #[test]
    fn index_knobs() {
        let cfg = build_config(&parse("")).unwrap();
        assert_eq!(cfg.index.partitions, 0);
        assert_eq!(cfg.index.epochs, 8);
        assert_eq!(cfg.index.evict_horizon_ms, None);
        let cfg = build_config(&parse(
            "--index-partitions 32 --index-epochs 4 --repart-factor 2.0 --evict-horizon 500",
        ))
        .unwrap();
        assert_eq!(cfg.index.partitions, 32);
        assert_eq!(cfg.index.epochs, 4);
        assert!((cfg.index.repart_factor - 2.0).abs() < 1e-9);
        assert_eq!(cfg.index.evict_horizon_ms, Some(500));
        assert!(build_config(&parse("--index-epochs 0")).is_err());
        assert!(build_config(&parse("--repart-factor 0.5")).is_err());
        assert!(build_config(&parse("--evict-horizon soon")).is_err());
    }

    #[test]
    fn micro_defaults() {
        let ds = build_dataset(&parse("--rate-r 5 --rate-s 5 --window 100 --seed 1")).unwrap();
        assert_eq!(ds.name, "Micro");
        assert_eq!(ds.r.len(), 500);
    }

    #[test]
    fn static_micro_with_counts() {
        let ds = build_dataset(&parse("--static --count-r 100 --count-s 200")).unwrap();
        assert!(ds.is_static());
        assert_eq!(ds.r.len(), 100);
        assert_eq!(ds.s.len(), 200);
    }

    #[test]
    fn real_workloads_by_name() {
        for name in ["stock", "rovio", "ysb", "debs"] {
            let ds = build_dataset(&parse(&format!("--workload {name} --scale 0.002"))).unwrap();
            assert!(ds.total_inputs() > 0, "{name}");
        }
    }

    #[test]
    fn bad_workload_is_an_error() {
        assert!(build_dataset(&parse("--workload tpch")).is_err());
    }

    #[test]
    fn config_knobs() {
        let cfg =
            build_config(&parse("--threads 2 --speedup 50 --delta 0.3 --scalar-sort")).unwrap();
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.sort, SortBackend::Scalar);
        assert!((cfg.pmj.delta - 0.3).abs() < 1e-9);
        assert!((cfg.speedup - 50.0).abs() < 1e-9);
    }

    /// Values the engines cannot run with are flag-level errors naming
    /// the flag, never a panic further down.
    #[test]
    fn zero_threads_and_bad_speedups_are_rejected() {
        for (flag, bad) in [
            ("threads", "0"),
            ("speedup", "0"),
            ("speedup", "-1"),
            ("speedup", "nan"),
            ("speedup", "inf"),
        ] {
            let err = build_config(&parse(&format!("--{flag} {bad}"))).unwrap_err();
            assert!(
                err.to_string().contains(&format!("--{flag}")),
                "--{flag} {bad}: {err}"
            );
        }
    }

    #[test]
    fn scheduler_knobs() {
        // Work distribution is fixed per engine; the steal flags are gone.
        for (flag, value) in [("--scheduler", "steal"), ("--morsel-size", "256")] {
            let err = parse(&format!("{flag} {value}"))
                .check_known(RUN_OPTS)
                .unwrap_err();
            assert_eq!(err.to_string(), format!("unknown option {flag}"));
        }
    }

    #[test]
    fn radix_bits_knob_is_bounded() {
        assert_eq!(
            build_config(&parse("--radix-bits 14"))
                .unwrap()
                .prj
                .radix_bits,
            14
        );
        for bad in ["0", "25", "33", "40", "64"] {
            let err = build_config(&parse(&format!("--radix-bits {bad}"))).unwrap_err();
            assert!(
                err.to_string().contains("radix-bits"),
                "--radix-bits {bad} must be rejected at the flag level: {err}"
            );
        }
    }

    #[test]
    fn perf_and_journal_knobs() {
        let cfg = build_config(&parse("")).unwrap();
        assert!(!cfg.perf);
        assert!(!cfg.journal);
        let cfg = build_config(&parse("--perf")).unwrap();
        assert!(cfg.perf);
        assert!(!cfg.journal);
        // A metrics journal implies both.
        let cfg = build_config(&parse("--metrics-out /tmp/m.jsonl")).unwrap();
        assert!(cfg.perf);
        assert!(cfg.journal);
        let cfg = build_config(&parse("--trace-out /tmp/t.json")).unwrap();
        assert!(cfg.journal);
        assert!(!cfg.perf);
    }

    #[test]
    fn pin_knob() {
        let cfg = build_config(&parse("")).unwrap();
        assert_eq!(cfg.exec.pin, PinPolicy::None);
        let cfg = build_config(&parse("--pin compact")).unwrap();
        assert_eq!(cfg.exec.pin, PinPolicy::Compact);
        let cfg = build_config(&parse("--pin scatter")).unwrap();
        assert_eq!(cfg.exec.pin, PinPolicy::Scatter);
        assert!(build_config(&parse("--pin numa")).is_err());
    }

    #[test]
    fn default_threads_respects_affinity_mask() {
        let d = default_threads();
        assert!(d >= 1 && d <= 4);
        assert!(d <= affinity_core_count().max(1));
    }

    #[test]
    fn scatter_knob() {
        // PRJ scatters one way; the write-combining flag is gone.
        let err = parse("--scatter swwc").check_known(RUN_OPTS).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --scatter");
    }
}
