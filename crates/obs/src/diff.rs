//! Snapshot comparison — the engine behind `iawj bench-diff`.
//!
//! Matches runs between two [`BenchSnapshot`]s by configuration key
//! (workload, engine, threads) and
//! classifies each pair: throughput regressions past
//! [`DiffThresholds::max_tpt_drop`] and p99 latency regressions past
//! [`DiffThresholds::max_p99_rise`] fail; everything else (including
//! improvements and runs present in only one snapshot) is reported but
//! does not fail. Shared-runner noise is handled by widening the
//! thresholds, not by averaging away the signal.

use crate::snapshot::{BenchSnapshot, RunSnapshot};

/// Relative-change limits past which a diff counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiffThresholds {
    /// Maximum tolerated fractional throughput drop (`0.2` = −20 %).
    pub max_tpt_drop: f64,
    /// Maximum tolerated fractional p99-latency rise (`0.5` = +50 %).
    pub max_p99_rise: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        Self {
            max_tpt_drop: 0.20,
            max_p99_rise: 0.50,
        }
    }
}

/// Verdict for one matched run pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within thresholds (or improved).
    Ok,
    /// Throughput dropped past the threshold.
    TptRegressed,
    /// p99 latency rose past the threshold.
    P99Regressed,
    /// Both limits blown.
    BothRegressed,
    /// The baseline carries no usable throughput for this key (zero,
    /// negative, or non-finite — e.g. a placeholder row committed before
    /// the configuration first produced numbers). There is nothing to
    /// regress against, so this never fails; it reports the configuration
    /// as effectively new.
    NewConfig,
}

impl Verdict {
    /// Does this verdict fail the diff?
    pub fn failed(self) -> bool {
        !matches!(self, Verdict::Ok | Verdict::NewConfig)
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::TptRegressed => "TPT REGRESSED",
            Verdict::P99Regressed => "P99 REGRESSED",
            Verdict::BothRegressed => "TPT+P99 REGRESSED",
            Verdict::NewConfig => "new config (no baseline)",
        }
    }
}

/// One matched configuration's before/after comparison.
#[derive(Clone, Debug)]
pub struct RunDiff {
    /// The shared configuration key ([`RunSnapshot::key`]).
    pub key: String,
    /// Old throughput (tuples/stream-ms).
    pub old_tpt: f64,
    /// New throughput (tuples/stream-ms).
    pub new_tpt: f64,
    /// Fractional throughput change (`+0.1` = 10 % faster).
    pub tpt_change: f64,
    /// Old p99 latency, when both snapshots carried one.
    pub old_p99: Option<f64>,
    /// New p99 latency, when both snapshots carried one.
    pub new_p99: Option<f64>,
    /// Fractional p99 change (`+0.1` = 10 % slower tail).
    pub p99_change: Option<f64>,
    /// Classification against the thresholds.
    pub verdict: Verdict,
}

/// Full comparison of two snapshots.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Old snapshot's git SHA.
    pub old_sha: String,
    /// New snapshot's git SHA.
    pub new_sha: String,
    /// Matched configuration pairs, in the new snapshot's run order.
    pub rows: Vec<RunDiff>,
    /// Keys present only in the old snapshot (dropped configurations).
    pub only_old: Vec<String>,
    /// Keys present only in the new snapshot (new configurations).
    pub only_new: Vec<String>,
    /// Thresholds the verdicts were computed against.
    pub thresholds: DiffThresholds,
}

impl DiffReport {
    /// Did any matched pair regress past the thresholds?
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict.failed())
    }

    /// Number of regressed pairs.
    pub fn regression_count(&self) -> usize {
        self.rows.iter().filter(|r| r.verdict.failed()).count()
    }

    /// Render the human-readable regression table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench-diff: {} -> {}  (thresholds: tpt -{:.0}%, p99 +{:.0}%)\n",
            self.old_sha,
            self.new_sha,
            self.thresholds.max_tpt_drop * 100.0,
            self.thresholds.max_p99_rise * 100.0
        ));
        let key_w = self
            .rows
            .iter()
            .map(|r| r.key.len())
            .chain(std::iter::once("configuration".len()))
            .max()
            .unwrap_or(0);
        out.push_str(&format!(
            "{:<key_w$}  {:>12}  {:>12}  {:>8}  {:>8}  verdict\n",
            "configuration", "old tpt", "new tpt", "Δtpt", "Δp99"
        ));
        for r in &self.rows {
            let p99 = match r.p99_change {
                Some(c) => format!("{:+.1}%", c * 100.0),
                None => "-".into(),
            };
            out.push_str(&format!(
                "{:<key_w$}  {:>12.1}  {:>12.1}  {:>8}  {:>8}  {}\n",
                r.key,
                r.old_tpt,
                r.new_tpt,
                format!("{:+.1}%", r.tpt_change * 100.0),
                p99,
                r.verdict.label()
            ));
        }
        for k in &self.only_old {
            out.push_str(&format!("{k}: only in old snapshot (dropped)\n"));
        }
        for k in &self.only_new {
            out.push_str(&format!("{k}: only in new snapshot (added)\n"));
        }
        let n = self.regression_count();
        if n == 0 {
            out.push_str(&format!(
                "OK: {} configuration(s) within thresholds\n",
                self.rows.len()
            ));
        } else {
            out.push_str(&format!(
                "FAIL: {n} of {} configuration(s) regressed\n",
                self.rows.len()
            ));
        }
        out
    }
}

fn rel_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    (new - old) / old
}

fn classify(old: &RunSnapshot, new: &RunSnapshot, th: &DiffThresholds) -> RunDiff {
    // A baseline row without a positive finite throughput (zero, NaN, ∞)
    // has nothing to divide by: report "new config" rather than a NaN/∞
    // change or a spurious +0.0% ok.
    if !(old.throughput_tpms.is_finite() && old.throughput_tpms > 0.0) {
        return RunDiff {
            key: new.key(),
            old_tpt: old.throughput_tpms,
            new_tpt: new.throughput_tpms,
            tpt_change: 0.0,
            old_p99: old.latency_p99_ms,
            new_p99: new.latency_p99_ms,
            p99_change: None,
            verdict: Verdict::NewConfig,
        };
    }
    let tpt_change = rel_change(old.throughput_tpms, new.throughput_tpms);
    let (old_p99, new_p99, p99_change) = match (old.latency_p99_ms, new.latency_p99_ms) {
        (Some(o), Some(n)) => (Some(o), Some(n), Some(rel_change(o, n))),
        _ => (old.latency_p99_ms, new.latency_p99_ms, None),
    };
    let tpt_bad = tpt_change < -th.max_tpt_drop;
    let p99_bad = p99_change.is_some_and(|c| c > th.max_p99_rise);
    let verdict = match (tpt_bad, p99_bad) {
        (false, false) => Verdict::Ok,
        (true, false) => Verdict::TptRegressed,
        (false, true) => Verdict::P99Regressed,
        (true, true) => Verdict::BothRegressed,
    };
    RunDiff {
        key: new.key(),
        old_tpt: old.throughput_tpms,
        new_tpt: new.throughput_tpms,
        tpt_change,
        old_p99,
        new_p99,
        p99_change,
        verdict,
    }
}

/// Compare two snapshots run-by-run. Runs are matched by
/// [`RunSnapshot::key`]; unmatched runs land in `only_old` / `only_new`
/// and never fail the diff on their own.
pub fn diff(old: &BenchSnapshot, new: &BenchSnapshot, th: DiffThresholds) -> DiffReport {
    let mut rows = Vec::new();
    let mut only_new = Vec::new();
    let mut matched_old = vec![false; old.runs.len()];
    for n in &new.runs {
        let key = n.key();
        match old.runs.iter().position(|o| o.key() == key) {
            Some(i) => {
                matched_old[i] = true;
                rows.push(classify(&old.runs[i], n, &th));
            }
            None => only_new.push(key),
        }
    }
    let only_old = old
        .runs
        .iter()
        .zip(&matched_old)
        .filter(|(_, &m)| !m)
        .map(|(o, _)| o.key())
        .collect();
    DiffReport {
        old_sha: old.git_sha.clone(),
        new_sha: new.git_sha.clone(),
        rows,
        only_old,
        only_new,
        thresholds: th,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::CounterDelta;
    use crate::snapshot::{PhaseSnapshot, SCHEMA_VERSION};

    fn run(engine: &str, tpt: f64, p99: Option<f64>) -> RunSnapshot {
        RunSnapshot {
            workload: "Rovio".into(),
            engine: engine.into(),
            threads: 4,
            throughput_tpms: tpt,
            latency_p99_ms: p99,
            latency_max_ms: None,
            matches: 0,
            counter_source: "none".into(),
            phases: vec![PhaseSnapshot {
                label: "probe".into(),
                ns: 1,
                counters: CounterDelta::zero(),
            }],
            cachesim: None,
        }
    }

    fn snap(sha: &str, runs: Vec<RunSnapshot>) -> BenchSnapshot {
        BenchSnapshot {
            schema_version: SCHEMA_VERSION,
            fig: "fig7".into(),
            git_sha: sha.into(),
            created_unix_s: 0,
            scale: 0.01,
            speedup: 25.0,
            threads: 4,
            clock_ghz: 2.6,
            clock_source: "assumed".into(),
            runs,
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = snap("aaa", vec![run("NPJ", 1000.0, Some(2.0))]);
        let report = diff(&s, &s, DiffThresholds::default());
        assert!(!report.regressed());
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].verdict, Verdict::Ok);
        assert!(report.render().contains("OK: 1 configuration"));
    }

    #[test]
    fn throughput_drop_past_threshold_fails() {
        let old = snap("aaa", vec![run("NPJ", 1000.0, Some(2.0))]);
        let new = snap("bbb", vec![run("NPJ", 750.0, Some(2.0))]);
        let report = diff(&old, &new, DiffThresholds::default());
        assert!(report.regressed());
        assert_eq!(report.rows[0].verdict, Verdict::TptRegressed);
        assert!(report.render().contains("TPT REGRESSED"));
        // A 19% drop stays under the default 20% threshold.
        let mild = snap("ccc", vec![run("NPJ", 810.0, Some(2.0))]);
        assert!(!diff(&old, &mild, DiffThresholds::default()).regressed());
    }

    #[test]
    fn p99_rise_past_threshold_fails() {
        let old = snap("aaa", vec![run("NPJ", 1000.0, Some(2.0))]);
        let new = snap("bbb", vec![run("NPJ", 1000.0, Some(3.5))]);
        let report = diff(&old, &new, DiffThresholds::default());
        assert!(report.regressed());
        assert_eq!(report.rows[0].verdict, Verdict::P99Regressed);
        // Missing p99 on either side cannot fail the latency check.
        let no_p99 = snap("ccc", vec![run("NPJ", 1000.0, None)]);
        assert!(!diff(&old, &no_p99, DiffThresholds::default()).regressed());
    }

    #[test]
    fn both_regressions_compose() {
        let old = snap("aaa", vec![run("NPJ", 1000.0, Some(2.0))]);
        let new = snap("bbb", vec![run("NPJ", 100.0, Some(20.0))]);
        let report = diff(&old, &new, DiffThresholds::default());
        assert_eq!(report.rows[0].verdict, Verdict::BothRegressed);
    }

    #[test]
    fn improvements_never_fail() {
        let old = snap("aaa", vec![run("NPJ", 1000.0, Some(2.0))]);
        let new = snap("bbb", vec![run("NPJ", 5000.0, Some(0.5))]);
        assert!(!diff(&old, &new, DiffThresholds::default()).regressed());
    }

    #[test]
    fn unmatched_runs_are_reported_not_failed() {
        let old = snap(
            "aaa",
            vec![run("NPJ", 1000.0, None), run("PRJ", 900.0, None)],
        );
        let new = snap(
            "bbb",
            vec![run("NPJ", 1000.0, None), run("MWAY", 800.0, None)],
        );
        let report = diff(&old, &new, DiffThresholds::default());
        assert!(!report.regressed());
        assert_eq!(report.only_old, vec!["Rovio|PRJ|t4"]);
        assert_eq!(report.only_new, vec!["Rovio|MWAY|t4"]);
        let rendered = report.render();
        assert!(rendered.contains("only in old snapshot"));
        assert!(rendered.contains("only in new snapshot"));
    }

    #[test]
    fn zero_or_unusable_baseline_reports_new_config_not_regression() {
        for bad_tpt in [0.0f64, -1.0, f64::NAN, f64::INFINITY] {
            let old = snap("aaa", vec![run("IBWJ", bad_tpt, None)]);
            let new = snap("bbb", vec![run("IBWJ", 1234.0, Some(2.0))]);
            let report = diff(&old, &new, DiffThresholds::default());
            assert!(
                !report.regressed(),
                "baseline tpt={bad_tpt} must not fail the diff"
            );
            assert_eq!(report.rows[0].verdict, Verdict::NewConfig);
            assert!(!report.rows[0].verdict.failed());
            assert!(
                report.rows[0].tpt_change.is_finite(),
                "no NaN/∞ change for tpt={bad_tpt}"
            );
            let rendered = report.render();
            assert!(rendered.contains("new config"), "{rendered}");
            assert!(rendered.contains("OK: 1 configuration"), "{rendered}");
        }
        // A zero baseline with a *worse* new value still cannot regress:
        // there was never a number to regress from.
        let old = snap("aaa", vec![run("IBWJ", 0.0, None)]);
        let new = snap("bbb", vec![run("IBWJ", 0.0, None)]);
        assert!(!diff(&old, &new, DiffThresholds::default()).regressed());
    }

    #[test]
    fn wider_thresholds_tolerate_more() {
        let old = snap("aaa", vec![run("NPJ", 1000.0, Some(2.0))]);
        let new = snap("bbb", vec![run("NPJ", 600.0, Some(3.5))]);
        assert!(diff(&old, &new, DiffThresholds::default()).regressed());
        let wide = DiffThresholds {
            max_tpt_drop: 0.5,
            max_p99_rise: 1.0,
        };
        assert!(!diff(&old, &new, wide).regressed());
    }
}
