//! The Figure 4 decision tree: given workload characteristics, hardware,
//! and the optimisation objective, recommend an algorithm.
//!
//! The tree (root = arrival rate):
//!
//! - **High arrival rate** → lazy.
//!   - high key duplication → sort-based: MPass with large core counts,
//!     MWay otherwise.
//!   - low key duplication → hash-based: PRJ when key skew is low *and*
//!     the join is large, NPJ otherwise.
//! - **Medium arrival rate**:
//!   - high key duplication → PMJ^JB (best on all three metrics).
//!   - low key duplication → depends on the objective: throughput → lazy
//!     (same sub-tree as the high-rate case); latency/progressiveness →
//!     SHJ^JM.
//! - **Low arrival rate** (at least one stream) → eager, with an
//!   index-aware split (the extension past Figure 4): once the resident
//!   window is large, the index engines' per-arrival maintenance is repaid
//!   by probe savings on every arrival (the IBWJ crossover), so IBWJ wins
//!   — IBWJ_PART under high key skew, where the partitioned variant's
//!   histogram rebalance keeps workers even. Below the crossover, SHJ^JM:
//!   it eagerly uses idle hardware with low overhead.
//!
//! The qualitative bands are relative to the machine; the defaults follow
//! the paper's Micro sweep (§5.4) where 1600 tuples/ms behaves "low" and
//! 25600 "high" on a 12-core Xeon.

use crate::algo::Algorithm;
use iawj_common::rate::RateBand;
use iawj_common::Rate;

/// Optimisation objective of the application (§4.1 metrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Maximise overall processing efficiency.
    Throughput,
    /// Minimise quantile processing latency.
    Latency,
    /// Deliver partial results as early as possible.
    Progressiveness,
}

/// Workload + platform description fed to the tree.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Arrival rate of R.
    pub rate_r: Rate,
    /// Arrival rate of S.
    pub rate_s: Rate,
    /// Average duplicates per key (max over the two streams).
    pub dupe: f64,
    /// Key-skew Zipf exponent.
    pub skew_key: f64,
    /// Total tuples to join across both streams.
    pub total_tuples: usize,
    /// Available cores.
    pub cores: usize,
}

/// Tunable thresholds for the qualitative bands of Figure 4.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Below this rate (tuples/ms) a stream reads "low".
    pub rate_low: f64,
    /// At/above this rate a stream reads "high".
    pub rate_high: f64,
    /// Key duplication at/above this reads "high" (Figure 11's crossover
    /// sits around 10).
    pub dupe_high: f64,
    /// Key skew at/above this reads "high" (PRJ degrades past ~1.2,
    /// Figure 13).
    pub skew_high: f64,
    /// Joins with at least this many tuples read "large" (PRJ's
    /// partitioning pays off; below it NPJ's simplicity wins).
    pub tuples_large: usize,
    /// Core counts at/above this read "large" (MPass scales better,
    /// §5.6).
    pub cores_large: usize,
    /// The index crossover: at low arrival rates, windows holding at least
    /// this many tuples favour the IBWJ family over SHJ^JM — rebuilding or
    /// re-probing unindexed state grows with window size while index
    /// maintenance stays per-arrival.
    pub index_window_tuples: usize,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            rate_low: 1600.0,
            rate_high: 25600.0,
            dupe_high: 10.0,
            skew_high: 1.2,
            tuples_large: 1 << 20,
            cores_large: 8,
            index_window_tuples: 1 << 20,
        }
    }
}

/// Walk the Figure 4 tree.
pub fn recommend(w: &Workload, objective: Objective, th: &Thresholds) -> Algorithm {
    let band_r = w.rate_r.band(th.rate_low, th.rate_high);
    let band_s = w.rate_s.band(th.rate_low, th.rate_high);

    // "We recommend SHJ^JM whenever one input stream has low arrival rate"
    // — unless the resident window is large enough that the index engines'
    // probe savings repay their maintenance (the IBWJ crossover); the
    // partitioned variant takes over under high key skew.
    if band_r == RateBand::Low || band_s == RateBand::Low {
        if w.total_tuples >= th.index_window_tuples {
            return if w.skew_key >= th.skew_high {
                Algorithm::IbwjPart
            } else {
                Algorithm::Ibwj
            };
        }
        return Algorithm::ShjJm;
    }

    let high_dupe = w.dupe >= th.dupe_high;
    let lazy_pick = || -> Algorithm {
        if high_dupe {
            // Sort-based side of the tree.
            if w.cores >= th.cores_large {
                Algorithm::MPass
            } else {
                Algorithm::MWay
            }
        } else if w.skew_key < th.skew_high && w.total_tuples >= th.tuples_large {
            Algorithm::Prj
        } else {
            Algorithm::Npj
        }
    };

    let high_rate = band_r == RateBand::High && band_s == RateBand::High;
    if high_rate {
        return lazy_pick();
    }

    // Medium arrival rate.
    if high_dupe {
        return Algorithm::PmjJb;
    }
    match objective {
        Objective::Throughput => lazy_pick(),
        Objective::Latency | Objective::Progressiveness => Algorithm::ShjJm,
    }
}

/// Convenience: recommend with default thresholds.
///
/// ```
/// use iawj_core::decision::{recommend_default, Objective, Workload};
/// use iawj_core::Algorithm;
/// use iawj_common::Rate;
///
/// // A slow sensor pair: the tree always picks the eager SHJ^JM.
/// let w = Workload {
///     rate_r: Rate::PerMs(50.0),
///     rate_s: Rate::PerMs(80.0),
///     dupe: 3.0,
///     skew_key: 0.1,
///     total_tuples: 130_000,
///     cores: 8,
/// };
/// assert_eq!(recommend_default(&w, Objective::Latency), Algorithm::ShjJm);
/// ```
pub fn recommend_default(w: &Workload, objective: Objective) -> Algorithm {
    recommend(w, objective, &Thresholds::default())
}

/// Cores this process can actually run `requested` workers on: the request
/// clamped to the affinity mask. Both [`calibrate`] and the
/// [`Workload`]-construction sites (the adaptive sniffer, `iawj
/// recommend`) route through this, so a taskset-restricted process never
/// scales its bands — or its `cores_large` comparison — by cores it
/// cannot use.
pub fn effective_cores(requested: usize) -> usize {
    requested
        .min(iawj_exec::affinity_core_count().max(1))
        .max(1)
}

/// Calibrate the rate bands to this host (the paper's "the quantitative
/// value depends on actual hardware" caveat under Figure 4): a short
/// symmetric-hash-join probe measures single-thread processing capacity,
/// and the bands scale from there. A stream is "high rate" when the
/// aggregate input approaches what the cores can absorb eagerly, "low"
/// when it is a small fraction of it — the same 16:1 spread the paper's
/// Micro sweep uses (1600 vs 25600 tuples/ms on its machine). `threads`
/// is clamped to the affinity mask ([`effective_cores`]): capacity the
/// scheduler will never grant must not inflate the bands.
pub fn calibrate(threads: usize) -> Thresholds {
    use crate::eager::BATCH;
    use iawj_common::Tuple;
    use iawj_exec::BucketTable;
    use std::time::Instant;

    const PROBE_TUPLES: usize = 200_000;
    let input: Vec<Tuple> = (0..PROBE_TUPLES as u32)
        // Decorrelate the keys from the bucket bits.
        .map(|i| Tuple::new(i.wrapping_mul(0x9E37_79B9), i))
        .collect();
    let mut r_table = BucketTable::with_capacity(PROBE_TUPLES);
    let mut s_table = BucketTable::with_capacity(PROBE_TUPLES);
    let start = Instant::now();
    let mut sink = 0u64;
    // SHJ's batch shape: R and S batches alternate; each prefetches its
    // head lines in both tables, inserts into its own, probes the other.
    for (i, batch) in input.chunks(BATCH).enumerate() {
        let (own, other) = if i % 2 == 0 {
            (&mut r_table, &s_table)
        } else {
            (&mut s_table, &r_table)
        };
        for t in batch {
            own.prefetch(t.key);
            other.prefetch(t.key);
        }
        for t in batch {
            own.insert(t.key, t.ts);
        }
        for t in batch {
            other.probe(t.key, |_| sink += 1);
        }
    }
    std::hint::black_box(sink);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let per_thread = PROBE_TUPLES as f64 / elapsed_ms.max(1e-6);
    // An eager join saturates somewhat below raw table speed (dispatch,
    // two streams); take 50% of aggregate capacity as the "high" band edge.
    let rate_high = per_thread * effective_cores(threads) as f64 * 0.5;
    Thresholds {
        rate_high,
        rate_low: rate_high / 16.0,
        ..Thresholds::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(rate: f64, dupe: f64) -> Workload {
        Workload {
            rate_r: Rate::PerMs(rate),
            rate_s: Rate::PerMs(rate),
            dupe,
            skew_key: 0.0,
            total_tuples: 10 << 20,
            cores: 8,
        }
    }

    #[test]
    fn low_rate_small_window_is_shj_jm() {
        let mut w = workload(100.0, 1000.0);
        w.total_tuples = 100_000; // below the index crossover
        for obj in [
            Objective::Throughput,
            Objective::Latency,
            Objective::Progressiveness,
        ] {
            assert_eq!(recommend_default(&w, obj), Algorithm::ShjJm);
        }
    }

    #[test]
    fn low_rate_large_window_picks_index_engines() {
        // workload() holds 10 << 20 tuples — past the crossover.
        let w = workload(100.0, 1000.0);
        for obj in [
            Objective::Throughput,
            Objective::Latency,
            Objective::Progressiveness,
        ] {
            assert_eq!(recommend_default(&w, obj), Algorithm::Ibwj, "{obj:?}");
        }
        // One low stream suffices (e.g. Stock).
        let mut w = workload(30000.0, 1.0);
        w.rate_s = Rate::PerMs(100.0);
        assert_eq!(
            recommend_default(&w, Objective::Throughput),
            Algorithm::Ibwj
        );
        // High key skew routes to the partitioned adaptive variant.
        w.skew_key = 1.4;
        assert_eq!(
            recommend_default(&w, Objective::Throughput),
            Algorithm::IbwjPart
        );
        // Raising the crossover knob restores the paper's SHJ^JM answer.
        let th = Thresholds {
            index_window_tuples: usize::MAX,
            ..Thresholds::default()
        };
        assert_eq!(recommend(&w, Objective::Throughput, &th), Algorithm::ShjJm);
    }

    #[test]
    fn effective_cores_clamps_to_affinity_mask() {
        let avail = iawj_exec::affinity_core_count().max(1);
        assert_eq!(effective_cores(usize::MAX), avail);
        assert_eq!(effective_cores(avail + 7), avail, "narrowed mask wins");
        assert_eq!(effective_cores(1), 1);
        assert_eq!(effective_cores(0), 1, "never zero");
    }

    #[test]
    fn high_rate_high_dupe_sorts() {
        let mut w = workload(30000.0, 100.0);
        assert_eq!(
            recommend_default(&w, Objective::Throughput),
            Algorithm::MPass
        );
        w.cores = 4;
        assert_eq!(
            recommend_default(&w, Objective::Throughput),
            Algorithm::MWay
        );
    }

    #[test]
    fn high_rate_low_dupe_hashes() {
        let mut w = workload(30000.0, 1.0);
        assert_eq!(recommend_default(&w, Objective::Throughput), Algorithm::Prj);
        // Small join or skewed keys favour NPJ over PRJ.
        w.total_tuples = 1000;
        assert_eq!(recommend_default(&w, Objective::Throughput), Algorithm::Npj);
        w.total_tuples = 10 << 20;
        w.skew_key = 1.6;
        assert_eq!(recommend_default(&w, Objective::Throughput), Algorithm::Npj);
    }

    #[test]
    fn medium_rate_high_dupe_is_pmj_jb() {
        let w = workload(6400.0, 100.0);
        for obj in [
            Objective::Throughput,
            Objective::Latency,
            Objective::Progressiveness,
        ] {
            assert_eq!(recommend_default(&w, obj), Algorithm::PmjJb, "{obj:?}");
        }
    }

    #[test]
    fn medium_rate_low_dupe_follows_objective() {
        let w = workload(6400.0, 1.0);
        assert_eq!(recommend_default(&w, Objective::Latency), Algorithm::ShjJm);
        assert_eq!(
            recommend_default(&w, Objective::Progressiveness),
            Algorithm::ShjJm
        );
        // Throughput objective falls back to the lazy pick.
        assert_eq!(recommend_default(&w, Objective::Throughput), Algorithm::Prj);
    }

    #[test]
    fn infinite_rate_is_high() {
        let w = Workload {
            rate_r: Rate::Infinite,
            rate_s: Rate::Infinite,
            dupe: 500.0,
            skew_key: 0.01,
            total_tuples: 1 << 21,
            cores: 8,
        };
        // DEBS-like: static, huge duplication -> MPass.
        assert_eq!(
            recommend_default(&w, Objective::Throughput),
            Algorithm::MPass
        );
    }

    #[test]
    fn calibration_produces_ordered_positive_bands() {
        let th = calibrate(4);
        assert!(th.rate_low > 0.0);
        assert!(th.rate_high > th.rate_low);
        assert!((th.rate_high / th.rate_low - 16.0).abs() < 1e-6);
        // More cores -> higher bands.
        let th8 = calibrate(8);
        assert!(th8.rate_high > th.rate_low, "8-core band must not collapse");
        // Calibrated thresholds feed straight into the tree.
        let w = workload(th.rate_high * 2.0, 1.0);
        assert!(recommend(&w, Objective::Throughput, &th).is_lazy());
        // A thread request far past the affinity mask must not inflate the
        // bands to mask-independent values: the clamped calibration stays
        // finite and ordered like any in-mask one.
        let clamped = calibrate(usize::MAX);
        assert!(clamped.rate_high.is_finite() && clamped.rate_high > 0.0);
        assert!((clamped.rate_high / clamped.rate_low - 16.0).abs() < 1e-6);
    }

    #[test]
    fn tree_is_total() {
        // Every combination of bands yields some recommendation.
        for rate in [100.0, 6400.0, 50000.0] {
            for dupe in [1.0, 100.0] {
                for skew in [0.0, 2.0] {
                    for tuples in [1000usize, 10 << 20] {
                        for cores in [2usize, 16] {
                            let w = Workload {
                                rate_r: Rate::PerMs(rate),
                                rate_s: Rate::PerMs(rate),
                                dupe,
                                skew_key: skew,
                                total_tuples: tuples,
                                cores,
                            };
                            for obj in [
                                Objective::Throughput,
                                Objective::Latency,
                                Objective::Progressiveness,
                            ] {
                                let _ = recommend_default(&w, obj);
                            }
                        }
                    }
                }
            }
        }
    }
}
