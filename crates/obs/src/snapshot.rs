//! Machine-readable benchmark snapshots — the repo's perf trajectory.
//!
//! Each harness target can emit a `BENCH_<fig>.json` file: a versioned
//! record of what ran (git SHA, workload, engine, threads),
//! what it measured (throughput, exact p99/max
//! latency) and where the time went (per-phase nanoseconds with hardware
//! counters when [`perf`](crate::perf) could open them). Two snapshots of
//! the same figure taken at different commits are comparable row-by-row,
//! which is what [`diff`](crate::diff) and the `iawj bench-diff`
//! subcommand automate: speedups get *proven*, regressions get caught.
//!
//! The schema is versioned ([`SCHEMA_VERSION`]); [`BenchSnapshot::parse`]
//! rejects documents from a different major version rather than
//! misreading them.

use crate::json::{array, quote, write_f64, Json};
use crate::perf::{CounterDelta, COUNTER_NAMES};

/// Current snapshot schema version. Bump on any field change that a
/// `bench-diff` of old snapshots could silently misread.
pub const SCHEMA_VERSION: u64 = 1;

/// Document marker distinguishing snapshots from other JSON artifacts.
pub const SNAPSHOT_KIND: &str = "iawj-bench-snapshot";

/// Simulated per-tuple cache-hierarchy counters (from `iawj-cachesim`),
/// the fallback columns when hardware counters are unavailable.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CachesimPerTuple {
    /// Simulated dTLB misses per input tuple.
    pub dtlb: f64,
    /// Simulated L1D misses per input tuple.
    pub l1d: f64,
    /// Simulated L2 misses per input tuple.
    pub l2: f64,
    /// Simulated L3 misses per input tuple.
    pub l3: f64,
}

/// One phase of one run: wall time plus hardware counters (all-zero when
/// the run had no perf access — check the run's `counter_source`).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSnapshot {
    /// Phase label (`"probe"`, `"build/sort"`, …).
    pub label: String,
    /// Nanoseconds summed over workers.
    pub ns: u64,
    /// Hardware-counter deltas summed over workers.
    pub counters: CounterDelta,
}

/// One benchmark configuration's measured outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSnapshot {
    /// Workload name (`"Rovio"`, `"Micro/r10"`, …).
    pub workload: String,
    /// Engine name (`"NPJ"`, `"PMJ_JB"`, …).
    pub engine: String,
    /// Worker threads.
    pub threads: u64,
    /// Throughput in input tuples per stream-millisecond.
    pub throughput_tpms: f64,
    /// Exact 99th-percentile latency (stream-ms) from the histogram.
    pub latency_p99_ms: Option<f64>,
    /// Exact worst-case latency (stream-ms).
    pub latency_max_ms: Option<f64>,
    /// Total matches produced.
    pub matches: u64,
    /// `"perf"`, `"cachesim"` or `"none"` — what backs the counters.
    pub counter_source: String,
    /// Per-phase time + counters (may be empty for profile-only rows).
    pub phases: Vec<PhaseSnapshot>,
    /// Simulated per-tuple counters, when the row came from the cache
    /// simulator (Table 5 / Fig. 19 rows).
    pub cachesim: Option<CachesimPerTuple>,
}

impl RunSnapshot {
    /// The identity two snapshots are matched on by `bench-diff`.
    pub fn key(&self) -> String {
        format!("{}|{}|t{}", self.workload, self.engine, self.threads)
    }
}

/// A complete `BENCH_<fig>.json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSnapshot {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Figure/table tag (`"fig7"`, `"table5"`, …).
    pub fig: String,
    /// Git commit the snapshot was taken at (`"unknown"` outside a repo).
    pub git_sha: String,
    /// Unix seconds at write time.
    pub created_unix_s: u64,
    /// Harness scale factor.
    pub scale: f64,
    /// Harness stream-time compression factor.
    pub speedup: f64,
    /// Harness default thread count.
    pub threads: u64,
    /// ns→cycles clock used for derived cycle columns, in GHz.
    pub clock_ghz: f64,
    /// `"measured"`, `"env"` or `"assumed"` — where the clock came from.
    pub clock_source: String,
    /// One entry per benchmarked configuration.
    pub runs: Vec<RunSnapshot>,
}

fn opt(v: Option<f64>) -> String {
    v.map(|x| {
        let mut s = String::new();
        write_f64(&mut s, x);
        s
    })
    .unwrap_or_else(|| "null".into())
}

fn num(v: f64) -> String {
    let mut s = String::new();
    write_f64(&mut s, v);
    s
}

impl BenchSnapshot {
    /// Serialize as a JSON document (one run per line for reviewable
    /// diffs of committed baselines).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("\"kind\": {},\n", quote(SNAPSHOT_KIND)));
        out.push_str(&format!("\"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!("\"fig\": {},\n", quote(&self.fig)));
        out.push_str(&format!("\"git_sha\": {},\n", quote(&self.git_sha)));
        out.push_str(&format!("\"created_unix_s\": {},\n", self.created_unix_s));
        out.push_str(&format!("\"scale\": {},\n", num(self.scale)));
        out.push_str(&format!("\"speedup\": {},\n", num(self.speedup)));
        out.push_str(&format!("\"threads\": {},\n", self.threads));
        out.push_str(&format!("\"clock_ghz\": {},\n", num(self.clock_ghz)));
        out.push_str(&format!(
            "\"clock_source\": {},\n",
            quote(&self.clock_source)
        ));
        out.push_str("\"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            push_run(&mut out, r);
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Parse and validate a snapshot document. Errors name the offending
    /// field; a `schema_version` other than [`SCHEMA_VERSION`] is
    /// rejected outright.
    pub fn parse(text: &str) -> Result<BenchSnapshot, String> {
        let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\"")?;
        if kind != SNAPSHOT_KIND {
            return Err(format!("not a bench snapshot (kind = {kind:?})"));
        }
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing \"schema_version\"")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let str_field = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing \"{k}\""))
        };
        let f64_field = |k: &str| -> Result<f64, String> {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing \"{k}\""))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing \"{k}\""))
        };
        let runs_json = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("missing \"runs\"")?;
        let mut runs = Vec::with_capacity(runs_json.len());
        for (i, r) in runs_json.iter().enumerate() {
            runs.push(parse_run(r).map_err(|e| format!("runs[{i}]: {e}"))?);
        }
        Ok(BenchSnapshot {
            schema_version: version,
            fig: str_field("fig")?,
            git_sha: str_field("git_sha")?,
            created_unix_s: u64_field("created_unix_s")?,
            scale: f64_field("scale")?,
            speedup: f64_field("speedup")?,
            threads: u64_field("threads")?,
            clock_ghz: f64_field("clock_ghz")?,
            clock_source: str_field("clock_source")?,
            runs,
        })
    }
}

fn push_run(out: &mut String, r: &RunSnapshot) {
    out.push_str("  {");
    out.push_str(&format!("\"workload\": {}, ", quote(&r.workload)));
    out.push_str(&format!("\"engine\": {}, ", quote(&r.engine)));
    out.push_str(&format!("\"threads\": {}, ", r.threads));
    out.push_str(&format!(
        "\"throughput_tpms\": {}, ",
        num(r.throughput_tpms)
    ));
    out.push_str(&format!("\"latency_p99_ms\": {}, ", opt(r.latency_p99_ms)));
    out.push_str(&format!("\"latency_max_ms\": {}, ", opt(r.latency_max_ms)));
    out.push_str(&format!("\"matches\": {}, ", r.matches));
    out.push_str(&format!(
        "\"counter_source\": {}, ",
        quote(&r.counter_source)
    ));
    out.push_str("\"phases\": ");
    out.push_str(&array(r.phases.iter().map(|p| {
        let mut s = String::from("{");
        s.push_str(&format!("\"label\": {}, ", quote(&p.label)));
        s.push_str(&format!("\"ns\": {}, ", p.ns));
        s.push_str("\"counters\": {");
        for (i, name) in COUNTER_NAMES.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}: {}", quote(name), p.counters.vals[i]));
        }
        s.push_str("}}");
        s
    })));
    match r.cachesim {
        Some(c) => out.push_str(&format!(
            ", \"cachesim\": {{\"dtlb\": {}, \"l1d\": {}, \"l2\": {}, \"l3\": {}}}",
            num(c.dtlb),
            num(c.l1d),
            num(c.l2),
            num(c.l3)
        )),
        None => out.push_str(", \"cachesim\": null"),
    }
    out.push('}');
}

/// Parse one run row. Unknown fields are ignored — among them the
/// `npj_table`/`kernel`/`scatter`/`scheduler` columns of snapshots written
/// while those knobs existed.
fn parse_run(r: &Json) -> Result<RunSnapshot, String> {
    let str_field = |k: &str| -> Result<String, String> {
        r.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing \"{k}\""))
    };
    let phases_json = r
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("missing \"phases\"")?;
    let mut phases = Vec::with_capacity(phases_json.len());
    for p in phases_json {
        let label = p
            .get("label")
            .and_then(Json::as_str)
            .ok_or("phase missing \"label\"")?
            .to_string();
        let ns = p
            .get("ns")
            .and_then(Json::as_u64)
            .ok_or("phase missing \"ns\"")?;
        let mut counters = CounterDelta::zero();
        if let Some(c) = p.get("counters") {
            for (name, slot) in COUNTER_NAMES.iter().zip(counters.vals.iter_mut()) {
                if let Some(v) = c.get(name).and_then(Json::as_u64) {
                    *slot = v;
                }
            }
        }
        phases.push(PhaseSnapshot {
            label,
            ns,
            counters,
        });
    }
    let cachesim = match r.get("cachesim") {
        None | Some(Json::Null) => None,
        Some(c) => Some(CachesimPerTuple {
            dtlb: c.get("dtlb").and_then(Json::as_f64).unwrap_or(0.0),
            l1d: c.get("l1d").and_then(Json::as_f64).unwrap_or(0.0),
            l2: c.get("l2").and_then(Json::as_f64).unwrap_or(0.0),
            l3: c.get("l3").and_then(Json::as_f64).unwrap_or(0.0),
        }),
    };
    Ok(RunSnapshot {
        workload: str_field("workload")?,
        engine: str_field("engine")?,
        threads: r
            .get("threads")
            .and_then(Json::as_u64)
            .ok_or("missing \"threads\"")?,
        throughput_tpms: r
            .get("throughput_tpms")
            .and_then(Json::as_f64)
            .ok_or("missing \"throughput_tpms\"")?,
        latency_p99_ms: r.get("latency_p99_ms").and_then(Json::as_f64),
        latency_max_ms: r.get("latency_max_ms").and_then(Json::as_f64),
        matches: r.get("matches").and_then(Json::as_u64).unwrap_or(0),
        counter_source: str_field("counter_source")?,
        phases,
        cachesim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::IDX_CYCLES;

    pub(crate) fn sample_snapshot() -> BenchSnapshot {
        let mut counters = CounterDelta::zero();
        counters.vals[IDX_CYCLES] = 123_456;
        counters.vals[1] = 300_000;
        BenchSnapshot {
            schema_version: SCHEMA_VERSION,
            fig: "fig7".into(),
            git_sha: "deadbeef".into(),
            created_unix_s: 1_700_000_000,
            scale: 0.01,
            speedup: 25.0,
            threads: 4,
            clock_ghz: 2.6,
            clock_source: "assumed".into(),
            runs: vec![
                RunSnapshot {
                    workload: "Rovio".into(),
                    engine: "NPJ".into(),
                    threads: 4,
                    throughput_tpms: 812.5,
                    latency_p99_ms: Some(3.25),
                    latency_max_ms: Some(7.5),
                    matches: 123_456,
                    counter_source: "perf".into(),
                    phases: vec![PhaseSnapshot {
                        label: "probe".into(),
                        ns: 42_000_000,
                        counters,
                    }],
                    cachesim: None,
                },
                RunSnapshot {
                    workload: "Rovio".into(),
                    engine: "PRJ".into(),
                    threads: 4,
                    throughput_tpms: 1000.0,
                    latency_p99_ms: None,
                    latency_max_ms: None,
                    matches: 0,
                    counter_source: "cachesim".into(),
                    phases: vec![],
                    cachesim: Some(CachesimPerTuple {
                        dtlb: 0.25,
                        l1d: 2.5,
                        l2: 1.0,
                        l3: 0.125,
                    }),
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let snap = sample_snapshot();
        let parsed = BenchSnapshot::parse(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn keys_separate_configurations() {
        let snap = sample_snapshot();
        assert_eq!(snap.runs[0].key(), "Rovio|NPJ|t4");
        assert_eq!(snap.runs[1].key(), "Rovio|PRJ|t4");
        assert_ne!(snap.runs[0].key(), snap.runs[1].key());
    }

    #[test]
    fn rejects_wrong_version_and_kind() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let bad_version = json.replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = BenchSnapshot::parse(&bad_version).unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
        let bad_kind = json.replace(SNAPSHOT_KIND, "something-else");
        assert!(BenchSnapshot::parse(&bad_kind).is_err());
        assert!(BenchSnapshot::parse("not json").is_err());
        assert!(BenchSnapshot::parse("{}").is_err());
    }

    #[test]
    fn missing_run_fields_name_the_row() {
        let json = sample_snapshot()
            .to_json()
            .replace("\"engine\": \"PRJ\", ", "");
        let err = BenchSnapshot::parse(&json).unwrap_err();
        assert!(err.contains("runs[1]"), "{err}");
        assert!(err.contains("engine"), "{err}");
    }

    /// Every committed baseline still parses — including the ones written
    /// with `npj_table`/`kernel`/`scatter`/`scheduler` columns, which the
    /// reader ignores — and dropping those key components merges no rows
    /// within a file: every key is `workload|engine|tN`.
    #[test]
    fn committed_baselines_parse_with_unique_keys() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");
        let mut files = 0;
        for entry in std::fs::read_dir(dir).expect("baselines/ exists") {
            let path = entry.expect("readable dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable baseline");
            let snap = BenchSnapshot::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut keys: Vec<String> = snap.runs.iter().map(RunSnapshot::key).collect();
            for key in &keys {
                assert_eq!(key.split('|').count(), 3, "{name}: key {key}");
            }
            keys.sort_unstable();
            for pair in keys.windows(2) {
                assert_ne!(pair[0], pair[1], "{name}: two rows share a key");
            }
            files += 1;
        }
        assert!(files > 0, "no BENCH_*.json under {dir}");
    }
}
