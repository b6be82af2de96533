//! The match sink: where join results go.
//!
//! Each worker thread owns one [`CountingSink`], so recording a match is
//! contention-free; the runner merges per-thread sinks afterwards. Workloads
//! like Rovio produce orders of magnitude more matches than inputs, so the
//! sink counts every match but only *records* every `sample_every`-th one —
//! enough for progressiveness curves without materialising gigabytes.
//!
//! Every match still reaches the latency histogram, but batched, as the
//! paper's harness batches its RDTSC stamps, so the common path of a push
//! is a count, a compare and a countdown (DESIGN §5.1):
//! - consecutive matches with identical `(emit_ms, max(r_ts, s_ts))` — the
//!   exact inputs of the latency — fold into one *run*, recorded with a
//!   single `record_n` when a differing match arrives or the sink is
//!   finished. Engines stamp once per probe tuple (or once per 32 clock
//!   reads) and at-rest inputs share ts 0, so runs are mostly tens to
//!   hundreds of matches long;
//! - sampling is a countdown, not a division.
//!
//! Neither changes a result: the histogram, the samples and the last
//! emission time equal what per-match accounting gives, bit for bit.

use crate::arena::ChunkedVec;
use crate::tuple::{Key, Ts};
use iawj_obs::LogHistogram;

/// One recorded join match: the result tuple of Definition 2 plus the
/// stream-time moment it was emitted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchRecord {
    /// Join key shared by both sides.
    pub key: Key,
    /// Arrival timestamp of the R-side tuple.
    pub r_ts: Ts,
    /// Arrival timestamp of the S-side tuple.
    pub s_ts: Ts,
    /// Stream time (ms, fractional) at which the match was produced.
    pub emit_ms: f64,
}

impl MatchRecord {
    /// Result-tuple timestamp per Definition 2: `max(r.ts, s.ts)`.
    #[inline]
    pub fn result_ts(&self) -> Ts {
        self.r_ts.max(self.s_ts)
    }

    /// Processing latency (§4.1): emission time minus the arrival of the
    /// later of the two inputs. Clamped at zero against clock skew.
    #[inline]
    pub fn latency_ms(&self) -> f64 {
        (self.emit_ms - self.result_ts() as f64).max(0.0)
    }
}

/// Counts all matches, records every `sample_every`-th *and always the
/// first* (so progressiveness curves start at the true first emission),
/// and feeds every match's latency into a log-bucketed histogram so
/// quantiles cover the full population, not just the sampled subset.
/// `sample_every = 1` records everything.
///
/// The histogram and the last emission time are read through
/// [`CountingSink::finish`], which flushes the pending run first.
#[derive(Debug)]
pub struct CountingSink {
    count: u64,
    sample_every: u64,
    /// Matches to go until the next sample; 1 means the next match.
    until_sample: u64,
    /// `emit_ms` bits of the pending run.
    run_emit_bits: u64,
    /// Result timestamp of the pending run.
    run_ts: Ts,
    /// Matches in the pending run, not yet in `hist`.
    run_len: u64,
    samples: ChunkedVec<MatchRecord>,
    last_emit_ms: f64,
    hist: LogHistogram,
}

/// What a finished [`CountingSink`] hands on, every run flushed.
#[derive(Debug)]
pub struct MatchTally {
    /// Total matches pushed.
    pub count: u64,
    /// Sampled matches (the first, then every `sample_every`-th), in a
    /// chunked arena so recording never reallocated mid-run.
    pub samples: ChunkedVec<MatchRecord>,
    /// Emission time of the latest match, for end-to-end throughput.
    pub last_emit_ms: f64,
    /// Exact latency distribution over *all* matches (ns resolution).
    pub hist: LogHistogram,
}

impl CountingSink {
    /// Sink sampling one in `sample_every` matches.
    pub fn new(sample_every: u64) -> Self {
        CountingSink {
            count: 0,
            sample_every: sample_every.max(1),
            until_sample: 1,
            run_emit_bits: 0,
            run_ts: 0,
            run_len: 0,
            samples: ChunkedVec::new(),
            last_emit_ms: 0.0,
            hist: LogHistogram::new(),
        }
    }

    /// Record one match emitted at stream time `emit_ms`. Sits in the
    /// innermost loop of every engine: a count, a run-key compare and a
    /// countdown.
    #[inline]
    pub fn push(&mut self, key: Key, r_ts: Ts, s_ts: Ts, emit_ms: f64) {
        self.count += 1;
        let ts = r_ts.max(s_ts);
        if emit_ms.to_bits() != self.run_emit_bits || ts != self.run_ts {
            self.start_run(emit_ms, ts);
        }
        self.run_len += 1;
        self.until_sample -= 1;
        if self.until_sample == 0 {
            self.sample(MatchRecord {
                key,
                r_ts,
                s_ts,
                emit_ms,
            });
        }
    }

    /// Total matches pushed so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The matches sampled so far. Samples are taken at push time, so
    /// this is exact at any moment.
    pub fn samples(&self) -> &ChunkedVec<MatchRecord> {
        &self.samples
    }

    /// Flush the pending run and hand on the totals.
    pub fn finish(mut self) -> MatchTally {
        self.flush_run();
        MatchTally {
            count: self.count,
            samples: self.samples,
            last_emit_ms: self.last_emit_ms,
            hist: self.hist,
        }
    }

    /// Out of line, so the common path stays small inside every engine's
    /// probe loop.
    #[inline(never)]
    fn start_run(&mut self, emit_ms: f64, ts: Ts) {
        self.flush_run();
        self.run_emit_bits = emit_ms.to_bits();
        self.run_ts = ts;
    }

    /// Record the pending run into the histogram and the last emission
    /// time. Exact: every match of a run has the same latency and `emit`.
    fn flush_run(&mut self) {
        if self.run_len == 0 {
            return;
        }
        let emit_ms = f64::from_bits(self.run_emit_bits);
        let latency = MatchRecord {
            key: 0,
            r_ts: self.run_ts,
            s_ts: self.run_ts,
            emit_ms,
        }
        .latency_ms();
        // The ms-to-ns conversion of `LogHistogram::record_ms`.
        let ns = (latency * 1e6).round() as u64;
        self.hist.record_n(ns, self.run_len);
        if emit_ms > self.last_emit_ms {
            self.last_emit_ms = emit_ms;
        }
        self.run_len = 0;
    }

    #[cold]
    fn sample(&mut self, m: MatchRecord) {
        self.samples.push(m);
        // The first match is sampled out of turn; after it the picks fall
        // on the multiples of `sample_every`.
        self.until_sample = if self.count == 1 {
            (self.sample_every - 1).max(1)
        } else {
            self.sample_every
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    /// Per-match accounting, the reference the run-folding sink must
    /// equal: every match goes straight into the histogram and is picked
    /// for sampling by a division.
    struct PerMatchSink {
        count: u64,
        sample_every: u64,
        samples: ChunkedVec<MatchRecord>,
        last_emit_ms: f64,
        hist: LogHistogram,
    }

    impl PerMatchSink {
        fn new(sample_every: u64) -> Self {
            PerMatchSink {
                count: 0,
                sample_every: sample_every.max(1),
                samples: ChunkedVec::new(),
                last_emit_ms: 0.0,
                hist: LogHistogram::new(),
            }
        }

        fn push(&mut self, key: Key, r_ts: Ts, s_ts: Ts, emit_ms: f64) {
            self.count += 1;
            let m = MatchRecord {
                key,
                r_ts,
                s_ts,
                emit_ms,
            };
            self.hist.record_ms(m.latency_ms());
            if self.count == 1 || self.count.is_multiple_of(self.sample_every) {
                self.samples.push(m);
            }
            if emit_ms > self.last_emit_ms {
                self.last_emit_ms = emit_ms;
            }
        }
    }

    /// Samples with `emit_ms` as raw bits, so `-0.0` and `0.0` differ.
    fn sample_bits(samples: &ChunkedVec<MatchRecord>) -> Vec<(Key, Ts, Ts, u64)> {
        samples
            .iter()
            .map(|m| (m.key, m.r_ts, m.s_ts, m.emit_ms.to_bits()))
            .collect()
    }

    /// Push `matches` through both sinks and assert the tallies agree.
    fn assert_matches_reference(sample_every: u64, matches: &[(Key, Ts, Ts, f64)]) {
        let mut sink = CountingSink::new(sample_every);
        let mut reference = PerMatchSink::new(sample_every);
        for &(k, r, s, e) in matches {
            sink.push(k, r, s, e);
            reference.push(k, r, s, e);
        }
        assert_eq!(sample_bits(sink.samples()), sample_bits(&reference.samples));
        let got = sink.finish();
        let ctx = format!("sample_every={sample_every} n={}", matches.len());
        assert_eq!(got.count, reference.count, "{ctx}");
        assert_eq!(
            sample_bits(&got.samples),
            sample_bits(&reference.samples),
            "{ctx}"
        );
        assert_eq!(
            got.last_emit_ms.to_bits(),
            reference.last_emit_ms.to_bits(),
            "{ctx}"
        );
        assert_eq!(got.hist, reference.hist, "{ctx}");
    }

    /// How a generated stream stamps its matches.
    #[derive(Clone, Copy, Debug)]
    enum Emit {
        /// One stamp for the whole stream (an at-rest run).
        Constant,
        /// A stamp that advances every few matches (the cached clock).
        Stepped,
        /// A fresh stamp per match, `-0.0` and `0.0` among them.
        PerMatch,
    }

    fn stream(seed: u64, emit: Emit, n: usize) -> Vec<(Key, Ts, Ts, f64)> {
        let mut rng = Rng::new(seed);
        let mut now = rng.below(1000) as f64 / 8.0;
        let mut ts_base: Ts = 0;
        (0..n)
            .map(|i| {
                let emit_ms = match emit {
                    Emit::Constant => now,
                    Emit::Stepped => {
                        if rng.below(8) == 0 {
                            now += rng.below(4) as f64 * 0.25;
                        }
                        now
                    }
                    Emit::PerMatch => match rng.below(6) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.below(1 << 20) as f64 / 1024.0,
                    },
                };
                // Timestamps hold for a few matches (a probe tuple's
                // matches share its ts), sometimes reach `Ts::MAX`, and
                // sometimes lie after the emission (latency clamps to 0).
                if i % 4 == 0 {
                    ts_base = match rng.below(10) {
                        0 => Ts::MAX,
                        1 => Ts::MAX - rng.below(3) as Ts,
                        _ => rng.below(2000) as Ts,
                    };
                }
                let other = rng.below(u64::from(ts_base) + 1) as Ts;
                let (r_ts, s_ts) = if rng.below(2) == 0 {
                    (ts_base, other)
                } else {
                    (other, ts_base)
                };
                (rng.below(16) as Key, r_ts, s_ts, emit_ms)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn run_folding_sink_equals_per_match_sink(seed in any::<u64>(), n in 0usize..3000) {
            for sample_every in [1, 2, 3, 64, 1000] {
                for emit in [Emit::Constant, Emit::Stepped, Emit::PerMatch] {
                    assert_matches_reference(sample_every, &stream(seed, emit, n));
                }
            }
        }
    }

    #[test]
    fn signed_zero_emits_and_extreme_timestamps_match_reference() {
        let matches = [
            (1, 0, 0, -0.0),
            (1, 0, 0, 0.0),
            (1, 0, 0, -0.0),
            (2, Ts::MAX, 0, 0.0),
            (2, 0, Ts::MAX, 0.0),
            (3, Ts::MAX, Ts::MAX, Ts::MAX as f64 + 0.5),
            (3, Ts::MAX, Ts::MAX, Ts::MAX as f64 + 0.5),
            (4, 7, 9, 12.25),
        ];
        for sample_every in [1, 2, 3, 64, 1000] {
            assert_matches_reference(sample_every, &matches);
            assert_matches_reference(sample_every, &matches[..1]);
        }
        // A lone `-0.0` emit never raises the last emission time.
        let mut s = CountingSink::new(1);
        s.push(1, 0, 0, -0.0);
        assert_eq!(s.finish().last_emit_ms.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn latency_uses_later_input() {
        let m = MatchRecord {
            key: 1,
            r_ts: 100,
            s_ts: 400,
            emit_ms: 450.0,
        };
        assert_eq!(m.result_ts(), 400);
        assert!((m.latency_ms() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn latency_clamped_at_zero() {
        let m = MatchRecord {
            key: 1,
            r_ts: 100,
            s_ts: 400,
            emit_ms: 399.0,
        };
        assert_eq!(m.latency_ms(), 0.0);
    }

    #[test]
    fn counting_sink_samples() {
        let mut s = CountingSink::new(10);
        for i in 0..100 {
            s.push(1, 0, 0, i as f64);
        }
        assert_eq!(s.count(), 100);
        // Matches #1 (always) plus #10, #20, ..., #100.
        assert_eq!(s.samples().len(), 11);
        assert!((s.finish().last_emit_ms - 99.0).abs() < 1e-9);
    }

    #[test]
    fn counting_sink_always_records_first_match() {
        let mut s = CountingSink::new(1000);
        s.push(7, 3, 4, 10.0);
        assert_eq!(s.samples().len(), 1);
        assert_eq!(s.samples()[0].key, 7);
        // The first match is not double-recorded when sample_every = 1.
        let mut dense = CountingSink::new(1);
        dense.push(1, 0, 0, 0.5);
        assert_eq!(dense.samples().len(), 1);
    }

    #[test]
    fn counting_sink_histogram_covers_every_match() {
        let mut s = CountingSink::new(100);
        for i in 0..250u32 {
            // emit at result_ts + i ms → latency i ms.
            s.push(1, 0, 0, i as f64);
        }
        let tally = s.finish();
        assert_eq!(tally.hist.count(), 250);
        assert_eq!(tally.hist.max_ms(), Some(249.0));
        // Quantiles come from all matches though only #1, #100, #200 were
        // sampled.
        assert_eq!(tally.samples.len(), 3);
        // The ceil(0.5 * 250)-th observation of latencies 0..249 is 124.
        let p50 = tally.hist.quantile_ms(0.5).unwrap();
        assert!((p50 - 124.0).abs() <= 124.0 / 128.0 + 0.001, "p50={p50}");
    }

    #[test]
    fn counting_sink_sample_every_one_keeps_all() {
        let mut s = CountingSink::new(1);
        for _ in 0..5 {
            s.push(1, 0, 0, 1.0);
        }
        assert_eq!(s.samples().len(), 5);
    }

    #[test]
    fn counting_sink_zero_clamped() {
        // sample_every = 0 would never fire; the constructor clamps to 1.
        let mut s = CountingSink::new(0);
        s.push(1, 0, 0, 1.0);
        assert_eq!(s.samples().len(), 1);
        s.push(1, 0, 0, 1.0);
        assert_eq!(s.samples().len(), 2);
    }

    #[test]
    fn finish_flushes_the_pending_run() {
        // One run of 5 matches never followed by a differing one: only
        // `finish` can put it into the histogram.
        let mut s = CountingSink::new(64);
        for _ in 0..5 {
            s.push(1, 2, 3, 4.0);
        }
        let tally = s.finish();
        assert_eq!(tally.hist.count(), 5);
        assert_eq!(tally.hist.max_ms(), Some(1.0));
        assert_eq!(tally.last_emit_ms, 4.0);
    }
}
