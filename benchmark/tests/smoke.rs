//! The benchmark's self-test: every workload at 1/50 size, untraced and
//! traced, held to what `BENCHMARK.json` declares.

use iawj_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_iawj-benchmark");
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Slack when comparing span edges: the trace file keeps three decimals of
/// a microsecond.
const EDGE_SLACK_US: f64 = 0.002;

fn spec() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn declared(key: &str) -> Vec<String> {
    spec()
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {key}"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

struct Run {
    exit_ok: bool,
    /// The last line of standard output, when there was one and it parsed.
    result: Option<Json>,
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "11", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .args(extra)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    Run {
        exit_ok: out.status.success(),
        result: stdout.lines().last().and_then(|l| Json::parse(l).ok()),
    }
}

fn metric_names(result: &Json) -> BTreeSet<String> {
    match result.get("metrics") {
        Some(Json::Obj(m)) => m.keys().cloned().collect(),
        _ => panic!("the result has no metrics object"),
    }
}

/// Children lie inside their parent, self times are non-negative, and the
/// self times of the tree add up to the root span within 10 %.
fn check_trace(workload: &str) {
    let path = format!("{}/out/trace_{workload}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(!events.is_empty(), "{path} holds no spans");
    // id → (parent, start, end)
    let mut spans: BTreeMap<u64, (u64, f64, f64)> = BTreeMap::new();
    for e in events {
        let num = |v: Option<&Json>| v.and_then(Json::as_f64).expect("a number");
        let args = e.get("args").expect("args");
        assert_eq!(args.get("workload").and_then(Json::as_str), Some(workload));
        let (start, dur) = (num(e.get("ts")), num(e.get("dur")));
        assert!(dur >= 0.0);
        let id = num(args.get("id")) as u64;
        let parent = num(args.get("parent")) as u64;
        assert!(spans.insert(id, (parent, start, start + dur)).is_none());
    }
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for &(parent, start, end) in spans.values() {
        if parent != 0 {
            let (_, p_start, p_end) = spans[&parent];
            assert!(
                start >= p_start - EDGE_SLACK_US && end <= p_end + EDGE_SLACK_US,
                "{workload}: span [{start}, {end}] leaves its parent [{p_start}, {p_end}]"
            );
            children.entry(parent).or_default().push((start, end));
        }
    }
    let mut self_sum = 0.0;
    for (id, &(_, start, end)) in &spans {
        let mut kids = children.remove(id).unwrap_or_default();
        kids.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (mut covered, mut reach) = (0.0, start);
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let self_us = end - start - covered;
        assert!(self_us >= -EDGE_SLACK_US, "{workload}: negative self time");
        self_sum += self_us;
    }
    let roots: Vec<_> = spans.values().filter(|s| s.0 == 0).collect();
    assert_eq!(roots.len(), 1, "{workload}: one root span");
    let root_us = roots[0].2 - roots[0].1;
    assert!(
        (self_sum - root_us).abs() <= 0.10 * root_us,
        "{workload}: self times sum to {self_sum} us, the root span is {root_us} us"
    );
}

fn check_workload(workload: &str) {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let run = run(workload, trace, &[]);
        let result = run.result.expect("a result line");
        assert!(run.exit_ok, "{workload} trace={trace} exited non-zero");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let names = metric_names(&result);
        assert!(names.iter().all(|n| name_ok(n)));
        let want: BTreeSet<String> = declared(key).into_iter().collect();
        assert_eq!(
            names, want,
            "{workload}: {key} names differ from BENCHMARK.json"
        );
    }
    check_trace(workload);
}

#[test]
fn rest_hash() {
    check_workload("rest_hash");
}

#[test]
fn rest_sort() {
    check_workload("rest_sort");
}

#[test]
fn gated_eager() {
    check_workload("gated_eager");
}

#[test]
fn stream_tumbling() {
    check_workload("stream_tumbling");
}

#[test]
fn stream_sliding_index() {
    check_workload("stream_sliding_index");
}

#[test]
fn stream_panes_ooo() {
    check_workload("stream_panes_ooo");
}

#[test]
fn declaration_stays_inside_the_contract() {
    let workloads = declared("workloads");
    // One test above per declared workload, and nothing undeclared runs.
    assert_eq!(
        workloads,
        [
            "rest_hash",
            "rest_sort",
            "gated_eager",
            "stream_tumbling",
            "stream_sliding_index",
            "stream_panes_ooo"
        ]
    );
    assert!(workloads.len() <= 8);
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    assert!(e2e.len() <= 16 && layers.len() <= 128);
    assert!(e2e.iter().any(|n| n == "setup_s"));
    let all: BTreeSet<&String> = workloads.iter().chain(&e2e).chain(&layers).collect();
    assert_eq!(
        all.len(),
        workloads.len() + e2e.len() + layers.len(),
        "a name is used twice"
    );
    assert!(!run("no_such_workload", false, &[]).exit_ok);
}

#[test]
fn a_corrupted_expectation_fails_the_run() {
    for workload in ["rest_sort", "stream_tumbling"] {
        let run = run(workload, false, &["--corrupt-oracle"]);
        assert!(
            !run.exit_ok,
            "{workload}: a wrong result must exit non-zero"
        );
        let result = run.result.expect("a result line");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(result.get("failed").and_then(Json::as_u64).unwrap() >= 1);
    }
}
