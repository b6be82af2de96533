//! Output: the two JSON lines of a single run, and the multi-workload
//! passes (`full`, `aa`) that re-exec one child per workload and print the
//! report a person reads.

use crate::common::{Measured, Metric};
use crate::proc::{header, run_child};
use crate::spec::{MetricSpec, Spec};
use crate::stats::worsening;
use crate::Args;
use iawj_obs::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `benchmark/out/`, beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("trace_{workload}.json"))
}

/// Where the quiet gate keeps its record between the runs of a checkout.
pub fn quiet_record_path() -> PathBuf {
    out_dir().join("quiet_gate.txt")
}

pub fn write_trace(workload: &str, json: &str) -> Result<(), String> {
    let path = trace_path(workload);
    std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(&path, json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The workload-specific numbers, one JSON object on one line.
pub fn detail_line(detail: &[Metric]) -> String {
    format!("{{\"detail\": {}}}", metrics_object(detail))
}

/// The result object of the benchmark contract.
pub fn result_line(m: &Measured, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        metrics_object(metrics)
    )
}

/// What a workload child printed, parsed back.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
    detail: BTreeMap<String, (f64, String)>,
}

fn metric_map(obj: Option<&Json>) -> BTreeMap<String, (f64, String)> {
    let Some(Json::Obj(fields)) = obj else {
        return BTreeMap::new();
    };
    fields
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            let unit = m.get("unit")?.as_str()?.to_string();
            Some((name.clone(), (value, unit)))
        })
        .collect()
}

fn parse_child(stdout: &str) -> Option<ChildResult> {
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = Json::parse(lines.next()?).ok()?;
    let detail = lines.next().and_then(|l| Json::parse(l).ok());
    Some(ChildResult {
        correct: result.get("correct")?.as_bool()?,
        attempted: result.get("attempted")?.as_u64()?,
        failed: result.get("failed")?.as_u64()?,
        metrics: metric_map(result.get("metrics")),
        detail: metric_map(detail.as_ref().and_then(|d| d.get("detail"))),
    })
}

/// Run one workload in a child of its own. A child that dies, times out or
/// prints no result is one failed operation.
fn child(args: &Args, workload: &str, trace: bool) -> ChildResult {
    let mut argv: Vec<String> = vec![
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--trace".into(),
        if trace { "1" } else { "0" }.into(),
    ];
    if args.smoke {
        argv.push("--smoke".into());
    }
    let out = run_child(&argv);
    if let Some(e) = &out.error {
        eprintln!("{workload}: child {e}");
    }
    match parse_child(&out.stdout) {
        Some(r) if out.error.is_none() || !r.correct => r,
        _ => ChildResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: BTreeMap::new(),
            detail: BTreeMap::new(),
        },
    }
}

fn print_metrics(specs: &[MetricSpec], r: &ChildResult) {
    for spec in specs {
        let Some((value, unit)) = r.metrics.get(&spec.name) else {
            println!("  {:<40} missing", spec.name);
            continue;
        };
        let bound = spec
            .bound
            .map_or(String::new(), |b| format!("  (bound {:.0} %)", b * 100.0));
        println!("  {:<40} {value:>14.4} {unit}{bound}", spec.name);
    }
}

fn print_detail(r: &ChildResult, keep: impl Fn(&str) -> bool) {
    for (name, (value, unit)) in r.detail.iter().filter(|(n, _)| keep(n)) {
        println!("    {name:<42} {value:>14.4} {unit}");
    }
}

fn pass(args: &Args, spec: &Spec, trace: bool) -> Vec<(String, ChildResult)> {
    spec.workloads
        .iter()
        .map(|w| {
            eprintln!(
                "running {w} ({})",
                if trace { "traced" } else { "untraced" }
            );
            (w.clone(), child(args, w, trace))
        })
        .collect()
}

fn ops_line(workload: &str, r: &ChildResult) {
    println!(
        "{workload}: ops_attempted {} ops_failed {}{}",
        r.attempted,
        r.failed,
        if r.correct {
            ""
        } else {
            "  ** WRONG RESULTS **"
        }
    );
}

/// Every workload untraced, then every workload traced.
pub fn full(args: &Args) -> Result<bool, String> {
    let spec = Spec::load();
    println!("iawj-benchmark\n{}", header(args.seed, crate::THREADS));
    let untraced = pass(args, &spec, false);
    let traced = pass(args, &spec, true);

    println!("\n== end-to-end metrics (untraced pass) ==");
    for (w, r) in &untraced {
        ops_line(w, r);
        print_metrics(&spec.end_to_end, r);
        print_detail(r, |_| true);
    }
    println!("\n== per-layer metrics (traced pass) ==");
    let mut all_ok = true;
    for ((w, r), (_, base)) in traced.iter().zip(&untraced) {
        ops_line(w, r);
        print_metrics(&spec.per_layer, r);
        println!("  workload detail and self time by layer:");
        let e2e_names: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        print_detail(r, |n| !e2e_names.contains(&n));
        if let (Some((with, _)), Some((without, _))) =
            (r.detail.get("tput_mtps"), base.metrics.get("tput_mtps"))
        {
            println!(
                "  tput_mtps traced {with:.4} vs untraced {without:.4}: {:+.2} %",
                (with - without) / without * 100.0
            );
        }
        println!("  trace: {}", trace_path(w).display());
        all_ok &= r.failed == 0 && base.failed == 0;
    }
    Ok(all_ok)
}

/// The untraced pass twice; every (metric, workload) difference against
/// the metric's bound.
pub fn aa(args: &Args) -> Result<bool, String> {
    let spec = Spec::load();
    println!("iawj-benchmark --aa\n{}", header(args.seed, crate::THREADS));
    let first = pass(args, &spec, false);
    let second = pass(args, &spec, false);
    let mut within = true;
    println!(
        "\n{:<22} {:<14} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for ((w, a), (_, b)) in first.iter().zip(&second) {
        within &= a.failed == 0 && b.failed == 0;
        for m in &spec.end_to_end {
            let (Some((x, _)), Some((y, _))) = (a.metrics.get(&m.name), b.metrics.get(&m.name))
            else {
                println!("{w:<22} {:<14} missing", m.name);
                within = false;
                continue;
            };
            let diff = worsening(*x, *y, m.higher_is_better);
            let bound = m.bound.unwrap_or(0.0);
            let flag = if diff.abs() > bound { "  EXCEEDED" } else { "" };
            within &= diff.abs() <= bound;
            println!(
                "{w:<22} {:<14} {x:>12.4} {y:>12.4} {:>+9.2} {:>7.0}{flag}",
                m.name,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(within)
}
