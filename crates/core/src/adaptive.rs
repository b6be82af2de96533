//! An adaptive IaWJ operator — the paper's first "future work" direction
//! (§7): *"developing an adaptive IaWJ algorithm that considers all the
//! factors including workload, metrics and hardware"*.
//!
//! This is the straightforward realisation the decision tree enables: sniff
//! the workload characteristics of each stream, feed them through the
//! Figure 4 tree, and dispatch to the recommended algorithm. The arrival
//! rate is read off a prefix (the part a router has seen before committing
//! to a plan); duplication and key skew are counted over the whole stream,
//! which the harness holds in memory. It is a baseline for that research
//! direction, not a contribution claim — but it already never loses badly,
//! because each leaf of the tree is the paper's measured winner for that
//! region.
//!
//! Duplication is `n / distinct keys`, counted exactly: from a 5 % prefix
//! no estimator lands within ×1.5 of it across uniform and Zipf keys (GEE
//! reads dupe 1 as 4.5, Chao1 reads dupe 2 as 0.9–1.0 — EXPERIMENTS.md,
//! *Fig. 4 inputs*), while the exact count costs 61–144 ms per 4M-tuple
//! stream.

use crate::algo::Algorithm;
use crate::config::RunConfig;
use crate::decision::{recommend, Objective, Thresholds, Workload};
use crate::output::RunResult;
use crate::runner::execute;
use iawj_common::zipf::estimate_theta;
use iawj_common::{Rate, Tuple};
use iawj_datagen::Dataset;

/// Keys seen fewer times than this sit in the Poisson noise and the
/// seen-once floor of the rank-frequency curve, where a Zipf(0.99) stream
/// at dupe 1 fits as 0.72–0.75; the keys seen at least this often fit
/// 0.97–1.01 (EXPERIMENTS.md, *Fig. 4 inputs*).
const SKEW_FIT_MIN_COUNT: u64 = 8;

/// Tuples in the `frac` prefix of an `n`-tuple stream that the rate is
/// read from: at least one, at most all.
pub fn prefix_len(n: usize, frac: f64) -> usize {
    ((n as f64 * frac).ceil() as usize).clamp(1, n.max(1))
}

/// Rate from the `frac` prefix; duplication and skew from [`key_profile`].
fn sniff_stream(tuples: &[Tuple], frac: f64) -> (Rate, f64, f64) {
    if tuples.is_empty() {
        return (Rate::Infinite, 0.0, 0.0);
    }
    let n = prefix_len(tuples.len(), frac);
    let span_ms = tuples[n - 1].ts as f64;
    let rate = if span_ms <= 0.0 {
        Rate::Infinite
    } else {
        Rate::PerMs(n as f64 / span_ms)
    };
    let (dupe, skew) = key_profile(tuples);
    (rate, dupe, skew)
}

/// `n / distinct keys` of a non-empty stream, and the Zipf exponent of its
/// key counts: 0 unless the counts are over-dispersed against uniform keys.
fn key_profile(tuples: &[Tuple]) -> (f64, f64) {
    let mut keys: Vec<u32> = tuples.iter().map(|t| t.key).collect();
    keys.sort_unstable();
    let mut counts: Vec<u64> = keys
        .chunk_by(|a, b| a == b)
        .map(|run| run.len() as u64)
        .collect();
    let dupe = tuples.len() as f64 / counts.len() as f64;
    let skew = if over_dispersed(&counts, dupe) {
        counts.retain(|&c| c >= SKEW_FIT_MIN_COUNT);
        estimate_theta(&mut counts)
    } else {
        0.0
    };
    (dupe, skew)
}

/// Do the per-key counts (mean `mean`) spread wider than uniform keys'?
/// Uniform keys give a dispersion index (variance / mean) of 0 when every
/// key repeats equally and about 1 for independent draws, with a sampling
/// spread of √(2/(k − 1)) over `k` keys; Zipf(0.99) keys read hundreds.
fn over_dispersed(counts: &[u64], mean: f64) -> bool {
    let k = counts.len() as f64;
    if k < 2.0 {
        return false;
    }
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / k;
    var / mean > 1.0 + 6.0 * (2.0 / (k - 1.0)).sqrt()
}

/// Estimate the Figure 4 inputs of both streams.
///
/// `sample_frac` is the fraction of each stream the rates are read from
/// (an adaptive router would buffer about this much before committing to
/// a plan). Duplication and skew are counted over the whole streams, and
/// the total is their true cardinality. `cores` is clamped
/// to the affinity mask ([`crate::decision::effective_cores`]): the tree's
/// `cores_large` comparison must reason about cores the process can
/// actually use, not the raw thread request.
pub fn sniff(ds: &Dataset, sample_frac: f64, cores: usize) -> Workload {
    let (rate_r, dupe_r, skew_r) = sniff_stream(&ds.r, sample_frac);
    let (rate_s, dupe_s, skew_s) = sniff_stream(&ds.s, sample_frac);
    Workload {
        rate_r,
        rate_s,
        dupe: dupe_r.max(dupe_s),
        skew_key: skew_r.max(skew_s),
        total_tuples: ds.total_inputs(),
        cores: crate::decision::effective_cores(cores),
    }
}

/// Outcome of an adaptive run: which algorithm the tree picked, plus the
/// usual run result.
pub struct AdaptiveOutcome {
    /// The workload descriptor the sniffer produced.
    pub descriptor: Workload,
    /// The chosen algorithm.
    pub chosen: Algorithm,
    /// The run result.
    pub result: RunResult,
}

/// Sniff, decide, and execute with custom thresholds.
pub fn execute_adaptive_with(
    ds: &Dataset,
    cfg: &RunConfig,
    objective: Objective,
    thresholds: &Thresholds,
    sample_frac: f64,
) -> AdaptiveOutcome {
    let descriptor = sniff(ds, sample_frac, cfg.threads);
    let chosen = recommend(&descriptor, objective, thresholds);
    let result = execute(chosen, ds, cfg);
    AdaptiveOutcome {
        descriptor,
        chosen,
        result,
    }
}

/// Sniff, decide, and execute with default thresholds and a 5% sample.
///
/// ```
/// use iawj_core::adaptive::execute_adaptive;
/// use iawj_core::decision::Objective;
/// use iawj_core::RunConfig;
/// use iawj_datagen::MicroSpec;
///
/// let ds = MicroSpec::static_counts(2000, 2000).dupe(40).generate();
/// let out = execute_adaptive(&ds, &RunConfig::with_threads(2), Objective::Throughput);
/// // Data at rest with heavy duplication lands on a lazy sort join.
/// assert!(out.chosen.is_lazy() && out.chosen.is_sort_based());
/// assert_eq!(out.result.matches, 40 * 2000);
/// ```
pub fn execute_adaptive(ds: &Dataset, cfg: &RunConfig, objective: Objective) -> AdaptiveOutcome {
    execute_adaptive_with(ds, cfg, objective, &Thresholds::default(), 0.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::match_count;
    use iawj_datagen::MicroSpec;

    #[test]
    fn sniffs_static_data_as_infinite_rate() {
        let ds = MicroSpec::static_counts(1000, 1000)
            .dupe(50)
            .seed(1)
            .generate();
        let w = sniff(&ds, 0.05, 8);
        assert_eq!(w.rate_r, Rate::Infinite);
        assert!(w.dupe > 10.0, "dupe estimate {}", w.dupe);
    }

    #[test]
    fn sniffs_streaming_rate_roughly() {
        let ds = MicroSpec::with_rates(100.0, 100.0).seed(2).generate();
        let w = sniff(&ds, 0.10, 8);
        match w.rate_r {
            Rate::PerMs(v) => assert!((50.0..200.0).contains(&v), "rate estimate {v}"),
            Rate::Infinite => panic!("streaming input sniffed as static"),
        }
    }

    #[test]
    fn adaptive_run_is_correct_and_records_choice() {
        let ds = MicroSpec::static_counts(2000, 2000)
            .dupe(40)
            .seed(3)
            .generate();
        let cfg = RunConfig::with_threads(4);
        let out = execute_adaptive(&ds, &cfg, Objective::Throughput);
        assert_eq!(out.result.matches, match_count(&ds.r, &ds.s, ds.window));
        assert_eq!(out.chosen, out.result.algorithm);
        // Static + high duplication must land on a lazy sort join.
        assert!(
            out.chosen.is_lazy() && out.chosen.is_sort_based(),
            "{}",
            out.chosen
        );
    }

    #[test]
    fn adaptive_picks_eager_for_slow_streams() {
        let ds = MicroSpec::with_rates(3.0, 3.0).seed(4).generate();
        let cfg = RunConfig::with_threads(2).speedup(500.0);
        let out = execute_adaptive(&ds, &cfg, Objective::Latency);
        assert_eq!(out.chosen, Algorithm::ShjJm);
        assert_eq!(out.result.matches, match_count(&ds.r, &ds.s, ds.window));
    }

    #[test]
    fn sniff_clamps_cores_to_affinity_mask() {
        let ds = MicroSpec::static_counts(100, 100).seed(6).generate();
        let avail = iawj_exec::affinity_core_count().max(1);
        assert_eq!(sniff(&ds, 0.05, usize::MAX).cores, avail);
        assert_eq!(sniff(&ds, 0.05, 1).cores, 1);
    }

    #[test]
    fn empty_dataset_does_not_panic() {
        let ds = MicroSpec::static_counts(1, 1).seed(5).generate();
        let cfg = RunConfig::with_threads(1);
        let out = execute_adaptive(&ds, &cfg, Objective::Throughput);
        assert!(out.result.matches <= 1);
    }
}
