//! Run summaries — the CLI's JSON and text interface for plotting
//! pipelines and scripts. JSON is written by hand through
//! [`iawj_obs::json`] so the workspace stays dependency-free.

use iawj_common::{PhaseCounters, PHASES};
use iawj_core::metrics::{latency_max_ms, latency_quantile_exact_ms, progressiveness, thin_curve};
use iawj_core::RunResult;
use iawj_exec::{cpu_clock, ns_to_cycles};
use iawj_obs::json::{array, quote, write_f64};
use iawj_obs::perf::{
    COUNTER_NAMES, IDX_BRANCH_MISSES, IDX_DTLB_MISSES, IDX_L1D_MISSES, IDX_LLC_MISSES,
};
use iawj_obs::{breakdown_table, PhaseRow};

/// The metrics of one run, flattened for JSON output.
#[derive(Debug)]
pub struct RunSummary {
    /// Algorithm name.
    pub algorithm: String,
    /// Worker threads used.
    pub threads: usize,
    /// Total input tuples.
    pub total_inputs: usize,
    /// Total matches.
    pub matches: u64,
    /// Throughput in tuples per stream-ms.
    pub throughput_tpms: f64,
    /// 95th-percentile latency in stream-ms (absent when no matches).
    /// Every quantile here comes from the histogram over all matches.
    pub latency_p95_ms: Option<f64>,
    /// Median latency in stream-ms.
    pub latency_p50_ms: Option<f64>,
    /// 99th-percentile latency in stream-ms.
    pub latency_p99_ms: Option<f64>,
    /// Exact worst-case latency from the histogram.
    pub latency_max_ms: Option<f64>,
    /// Stream time of the last match.
    pub last_emit_ms: f64,
    /// Total elapsed stream time.
    pub elapsed_ms: f64,
    /// CPU utilisation estimate (0..1).
    pub cpu_utilisation: f64,
    /// Per-phase share of total time, `[wait, partition, build_sort,
    /// merge, probe, other]`, each 0..1.
    pub phase_fractions: [f64; 6],
    /// Per-phase nanoseconds summed over workers, same order.
    pub phase_ns: [u64; 6],
    /// Per-phase cycles at the calibrated clock ([`cpu_clock`]), same
    /// order.
    pub phase_cycles: [f64; 6],
    /// The ns → cycles conversion frequency, in GHz.
    pub clock_ghz: f64,
    /// Where the clock came from: `"env"`, `"measured"` or `"assumed"`.
    pub clock_source: &'static str,
    /// Per-phase hardware-counter deltas summed over workers.
    pub counters: PhaseCounters,
    /// `"perf"` when the counters are real, `"none"` otherwise.
    pub counter_source: &'static str,
    /// Per-phase `(min, max)` nanoseconds across workers (skew columns of
    /// the breakdown table).
    pub phase_minmax_ns: [(u64, u64); 6],
    /// Progressiveness curve thinned to at most 32 `(stream_ms, fraction)`
    /// points.
    pub progress: Vec<(f64, f64)>,
}

impl RunSummary {
    /// Summarise a run result.
    pub fn from_result(r: &RunResult) -> Self {
        let mut phase_fractions = [0.0; 6];
        let mut phase_ns = [0u64; 6];
        let mut phase_cycles = [0.0; 6];
        let mut phase_minmax_ns = [(0u64, 0u64); 6];
        for (i, p) in PHASES.iter().enumerate() {
            phase_fractions[i] = r.breakdown.fraction(*p);
            phase_ns[i] = r.breakdown[*p];
            phase_cycles[i] = ns_to_cycles(phase_ns[i]);
            if !r.per_thread.is_empty() {
                let per: Vec<u64> = r.per_thread.iter().map(|b| b[*p]).collect();
                phase_minmax_ns[i] = (
                    *per.iter().min().expect("non-empty"),
                    *per.iter().max().expect("non-empty"),
                );
            }
        }
        let clock = cpu_clock();
        RunSummary {
            algorithm: r.algorithm.name().to_string(),
            threads: r.threads,
            total_inputs: r.total_inputs,
            matches: r.matches,
            throughput_tpms: r.throughput_tpms(),
            latency_p95_ms: latency_quantile_exact_ms(r, 0.95),
            latency_p50_ms: latency_quantile_exact_ms(r, 0.50),
            latency_p99_ms: latency_quantile_exact_ms(r, 0.99),
            latency_max_ms: latency_max_ms(r),
            last_emit_ms: r.last_emit_ms,
            elapsed_ms: r.elapsed_ms,
            cpu_utilisation: r.cpu_utilisation(),
            phase_fractions,
            phase_ns,
            phase_cycles,
            clock_ghz: clock.ghz,
            clock_source: clock.source.label(),
            counters: r.counters,
            counter_source: r.counter_source.label(),
            phase_minmax_ns,
            progress: thin_curve(&progressiveness(r), 32),
        }
    }

    /// Render as pretty JSON.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            let mut s = String::new();
            write_f64(&mut s, v);
            s
        }
        fn opt(v: Option<f64>) -> String {
            v.map(num).unwrap_or_else(|| "null".into())
        }
        fn field(out: &mut String, key: &str, val: String) {
            out.push_str("  ");
            out.push_str(&quote(key));
            out.push_str(": ");
            out.push_str(&val);
            out.push_str(",\n");
        }
        let mut out = String::from("{\n");
        field(&mut out, "algorithm", quote(&self.algorithm));
        field(&mut out, "threads", self.threads.to_string());
        field(&mut out, "total_inputs", self.total_inputs.to_string());
        field(&mut out, "matches", self.matches.to_string());
        field(&mut out, "throughput_tpms", num(self.throughput_tpms));
        field(&mut out, "latency_p50_ms", opt(self.latency_p50_ms));
        field(&mut out, "latency_p95_ms", opt(self.latency_p95_ms));
        field(&mut out, "latency_p99_ms", opt(self.latency_p99_ms));
        field(&mut out, "latency_max_ms", opt(self.latency_max_ms));
        field(&mut out, "last_emit_ms", num(self.last_emit_ms));
        field(&mut out, "elapsed_ms", num(self.elapsed_ms));
        field(&mut out, "cpu_utilisation", num(self.cpu_utilisation));
        field(
            &mut out,
            "phase_fractions",
            array(self.phase_fractions.iter().map(|&f| num(f))),
        );
        field(
            &mut out,
            "phase_ns",
            array(self.phase_ns.iter().map(|n| n.to_string())),
        );
        field(
            &mut out,
            "phase_cycles",
            array(self.phase_cycles.iter().map(|&c| num(c))),
        );
        field(&mut out, "clock_ghz", num(self.clock_ghz));
        field(&mut out, "clock_source", quote(self.clock_source));
        field(&mut out, "counter_source", quote(self.counter_source));
        field(
            &mut out,
            "phase_counters",
            array(PHASES.iter().map(|p| {
                let c = self.counters[*p];
                let mut obj = String::from("{");
                for (i, name) in COUNTER_NAMES.iter().enumerate() {
                    if i > 0 {
                        obj.push_str(", ");
                    }
                    obj.push_str(&format!("{}: {}", quote(name), c.vals[i]));
                }
                obj.push('}');
                obj
            })),
        );
        field(
            &mut out,
            "progress",
            array(self.progress.iter().map(|&(t, f)| array([num(t), num(f)]))),
        );
        // Drop the trailing comma before closing the object.
        out.truncate(out.trim_end_matches([',', '\n']).len());
        out.push_str("\n}");
        out
    }

    /// The six phases as table rows for [`breakdown_table`].
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        PHASES
            .iter()
            .enumerate()
            .map(|(i, p)| PhaseRow {
                label: p.label(),
                total_ns: self.phase_ns[i],
                min_ns: self.phase_minmax_ns[i].0,
                max_ns: self.phase_minmax_ns[i].1,
            })
            .collect()
    }

    /// Render as aligned human-readable text.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "algorithm:     {}", self.algorithm);
        let _ = writeln!(out, "threads:       {}", self.threads);
        let _ = writeln!(out, "inputs:        {}", self.total_inputs);
        let _ = writeln!(out, "matches:       {}", self.matches);
        let _ = writeln!(out, "throughput:    {:.1} tuples/ms", self.throughput_tpms);
        match self.latency_p95_ms {
            Some(p95) => {
                let _ = writeln!(out, "latency p95:   {p95:.2} ms");
            }
            None => {
                let _ = writeln!(out, "latency p95:   - (no matches)");
            }
        }
        if let (Some(p99), Some(max)) = (self.latency_p99_ms, self.latency_max_ms) {
            let _ = writeln!(out, "latency p99:   {p99:.2} ms (exact)  max: {max:.2} ms");
        }
        let _ = writeln!(
            out,
            "elapsed:       {:.1} ms (stream time)",
            self.elapsed_ms
        );
        let _ = writeln!(out, "cpu util:      {:.1}%", self.cpu_utilisation * 100.0);
        let labels = [
            "wait",
            "partition",
            "build/sort",
            "merge",
            "probe",
            "others",
        ];
        let shares: Vec<String> = labels
            .iter()
            .zip(self.phase_fractions.iter())
            .filter(|(_, &f)| f > 0.0005)
            .map(|(l, f)| format!("{l} {:.1}%", f * 100.0))
            .collect();
        let _ = writeln!(out, "phases:        {}", shares.join(", "));
        if let Some(&(t, _)) = self.progress.iter().find(|&&(_, frac)| frac >= 0.5) {
            let _ = writeln!(out, "50% matches:   by {t:.1} ms");
        }
        let _ = writeln!(
            out,
            "breakdown:     (cycles at {:.2} GHz, {} clock)",
            self.clock_ghz, self.clock_source
        );
        out.push_str(&breakdown_table(&self.phase_rows(), self.clock_ghz));
        out.push_str(&self.counters_text());
        out
    }

    /// The hardware-counter table, or a one-line note when the run had no
    /// perf access (cachesim columns via `iawj trace` remain available).
    fn counters_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.counter_source != "perf" {
            let _ = writeln!(
                out,
                "hw counters:   unavailable (perf_event denied or unsupported; \
                 `iawj trace` reports simulated cache misses)"
            );
            return out;
        }
        let _ = writeln!(
            out,
            "hw counters:   per phase (misses per kilo-instruction in brackets)"
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>14} {:>14} {:>6} {:>12} {:>12} {:>12} {:>12}",
            "phase", "cycles", "instr", "ipc", "l1d", "llc", "dtlb", "branch"
        );
        for p in PHASES {
            let c = self.counters[p];
            if c.is_zero() {
                continue;
            }
            let mpki = |idx: usize| {
                c.per_kilo_instruction(idx)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|| "-".into())
            };
            let _ = writeln!(
                out,
                "  {:<12} {:>14} {:>14} {:>6} {:>12} {:>12} {:>12} {:>12}",
                p.label(),
                c.cycles(),
                c.instructions(),
                c.ipc()
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|| "-".into()),
                mpki(IDX_L1D_MISSES),
                mpki(IDX_LLC_MISSES),
                mpki(IDX_DTLB_MISSES),
                mpki(IDX_BRANCH_MISSES),
            );
        }
        out
    }
}

/// Render a run as a JSONL metrics journal (`--metrics-out`): one
/// `summary` line, one `histogram` line with full-population latency
/// quantiles, one `phase` line per phase, and one `journal` line per
/// journaled worker.
pub fn metrics_jsonl(summary: &RunSummary, r: &RunResult) -> String {
    fn num(v: f64) -> String {
        let mut s = String::new();
        write_f64(&mut s, v);
        s
    }
    fn opt(v: Option<f64>) -> String {
        v.map(num).unwrap_or_else(|| "null".into())
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"summary\",\"algorithm\":{},\"threads\":{},\
         \"total_inputs\":{},\"matches\":{},\"throughput_tpms\":{},\"elapsed_ms\":{},\
         \"cpu_utilisation\":{}}}\n",
        quote(&summary.algorithm),
        summary.threads,
        summary.total_inputs,
        summary.matches,
        num(summary.throughput_tpms),
        num(summary.elapsed_ms),
        num(summary.cpu_utilisation),
    ));
    out.push_str(&format!(
        "{{\"type\":\"histogram\",\"count\":{},\"p50_ms\":{},\"p95_ms\":{},\
         \"p99_ms\":{},\"max_ms\":{}}}\n",
        r.hist.count(),
        opt(r.hist.quantile_ms(0.50)),
        opt(r.hist.quantile_ms(0.95)),
        opt(r.hist.quantile_ms(0.99)),
        opt(r.hist.max_ms()),
    ));
    out.push_str(&format!(
        "{{\"type\":\"clock\",\"ghz\":{},\"source\":{},\"counter_source\":{}}}\n",
        num(summary.clock_ghz),
        quote(summary.clock_source),
        quote(summary.counter_source),
    ));
    for (row, phase) in summary.phase_rows().into_iter().zip(PHASES) {
        let c = summary.counters[phase];
        let mut counters = String::from("{");
        for (i, (name, v)) in COUNTER_NAMES.iter().zip(c.vals.iter()).enumerate() {
            if i > 0 {
                counters.push(',');
            }
            counters.push_str(&format!("{}:{}", quote(name), v));
        }
        counters.push('}');
        out.push_str(&format!(
            "{{\"type\":\"phase\",\"label\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\
             \"counters\":{counters}}}\n",
            quote(row.label),
            row.total_ns,
            row.min_ns,
            row.max_ns,
        ));
    }
    for (wid, j) in &r.journals {
        out.push_str(&format!(
            "{{\"type\":\"journal\",\"worker\":{},\"spans\":{},\"marks\":{},\"dropped\":{}}}\n",
            wid,
            j.span_count(),
            j.mark_count(),
            j.dropped(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iawj_core::{execute, Algorithm, RunConfig};
    use iawj_datagen::MicroSpec;
    use iawj_obs::json::Json;

    fn sample_summary() -> RunSummary {
        let ds = MicroSpec::static_counts(500, 500)
            .dupe(5)
            .seed(1)
            .generate();
        let result = execute(Algorithm::Npj, &ds, &RunConfig::with_threads(2));
        RunSummary::from_result(&result)
    }

    #[test]
    fn summary_fields_are_consistent() {
        let s = sample_summary();
        assert_eq!(s.algorithm, "NPJ");
        assert_eq!(s.total_inputs, 1000);
        assert_eq!(
            s.matches, 2500,
            "500 tuples over 100 keys x 5 dupes each side"
        );
        assert!(s.throughput_tpms > 0.0);
        let total: f64 = s.phase_fractions.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "fractions sum to 1, got {total}"
        );
        // The phase arrays agree with each other.
        let ns_total: u64 = s.phase_ns.iter().sum();
        assert!(ns_total > 0);
        assert!((s.clock_ghz - cpu_clock().ghz).abs() < 1e-9);
        assert!(["env", "measured", "assumed"].contains(&s.clock_source));
        for i in 0..6 {
            assert!((s.phase_cycles[i] - s.phase_ns[i] as f64 * s.clock_ghz).abs() < 1e-6);
            let (min, max) = s.phase_minmax_ns[i];
            assert!(min <= max);
            assert!(max <= s.phase_ns[i]);
        }
        // Exact histogram quantiles are present whenever matches exist.
        assert!(s.latency_p99_ms.is_some());
        assert!(s.latency_max_ms.unwrap() >= s.latency_p99_ms.unwrap() - 1e-9);
    }

    #[test]
    fn json_is_valid_and_complete() {
        let s = sample_summary();
        let parsed = Json::parse(&s.to_json()).expect("summary emits valid JSON");
        assert_eq!(parsed.get("algorithm").and_then(Json::as_str), Some("NPJ"));
        assert_eq!(parsed.get("matches").and_then(Json::as_u64), Some(2500));
        assert_eq!(
            parsed
                .get("phase_ns")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(6)
        );
        assert_eq!(
            parsed
                .get("phase_cycles")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(6)
        );
        assert!(parsed
            .get("latency_p99_ms")
            .and_then(Json::as_f64)
            .is_some());
        assert!(parsed.get("progress").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let ds = MicroSpec::static_counts(400, 400)
            .dupe(4)
            .seed(2)
            .generate();
        let mut cfg = RunConfig::with_threads(2).record_all();
        cfg.journal = true;
        let result = execute(Algorithm::Prj, &ds, &cfg);
        let summary = RunSummary::from_result(&result);
        let jsonl = metrics_jsonl(&summary, &result);
        let lines: Vec<&str> = jsonl.lines().collect();
        // summary + histogram + clock + 6 phases + one journal line per
        // worker.
        assert_eq!(lines.len(), 3 + 6 + 2, "{jsonl}");
        for line in &lines {
            let v = Json::parse(line).expect("every JSONL line parses");
            assert!(v.get("type").and_then(Json::as_str).is_some());
        }
        // The summary and the histogram line read one source.
        assert_eq!(summary.latency_p50_ms, result.hist.quantile_ms(0.50));
        assert_eq!(summary.latency_p95_ms, result.hist.quantile_ms(0.95));
        assert_eq!(summary.latency_p99_ms, result.hist.quantile_ms(0.99));
    }

    #[test]
    fn text_mentions_the_essentials() {
        let text = sample_summary().to_text();
        assert!(text.contains("algorithm:     NPJ"));
        assert!(text.contains("throughput:"));
        assert!(text.contains("matches:"));
        assert!(text.contains("breakdown:"));
        assert!(text.contains("build/sort"));
        assert!(text.contains("total"));
        // The cycle columns are labeled with their clock provenance.
        assert!(
            text.contains("GHz, env clock")
                || text.contains("GHz, measured clock")
                || text.contains("GHz, assumed clock"),
            "{text}"
        );
        // Without perf the counters section degrades to a note.
        assert!(
            text.contains("hw counters:   per phase") || text.contains("unavailable"),
            "{text}"
        );
    }

    #[test]
    fn json_carries_clock_and_counter_provenance() {
        let s = sample_summary();
        let parsed = Json::parse(&s.to_json()).unwrap();
        assert!(parsed.get("clock_ghz").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(parsed.get("clock_source").and_then(Json::as_str).is_some());
        let source = parsed.get("counter_source").and_then(Json::as_str).unwrap();
        assert!(source == "perf" || source == "none");
        let counters = parsed.get("phase_counters").and_then(Json::as_arr).unwrap();
        assert_eq!(counters.len(), 6);
        for c in counters {
            assert!(c.get("cycles").and_then(Json::as_u64).is_some());
            assert!(c.get("instructions").and_then(Json::as_u64).is_some());
        }
    }

    #[test]
    fn perf_run_summary_never_panics_and_labels_source() {
        // With --perf semantics (cfg.perf = true) the summary must carry
        // either real counters or an explicit "none", on every host.
        let ds = MicroSpec::static_counts(300, 300)
            .dupe(3)
            .seed(3)
            .generate();
        let cfg = RunConfig::with_threads(2).with_journal().with_perf();
        let result = execute(Algorithm::Npj, &ds, &cfg);
        let s = RunSummary::from_result(&result);
        if s.counter_source == "perf" {
            assert!(!s.counters.is_zero());
            assert!(s.counters.total().instructions() > 0);
        } else {
            assert_eq!(s.counter_source, "none");
            assert!(s.counters.is_zero());
        }
        let _ = s.to_text();
        let _ = s.to_json();
    }
}
