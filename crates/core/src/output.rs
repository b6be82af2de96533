//! Per-worker and per-run outputs.

use crate::algo::Algorithm;
use iawj_common::{CountingSink, MatchRecord, PhaseBreakdown, PhaseCounters};
use iawj_exec::TimerParts;
use iawj_obs::perf::CounterSource;
use iawj_obs::{chrome_trace_with_cores, LogHistogram, SpanJournal};

/// Everything one worker thread produces.
#[derive(Debug)]
pub struct WorkerOut {
    /// The worker's match sink (counts + samples + latency histogram).
    pub sink: CountingSink,
    /// Time spent per phase on this worker.
    pub breakdown: PhaseBreakdown,
    /// Hardware-counter deltas per phase (all-zero without perf access).
    pub counters: PhaseCounters,
    /// Whether this worker's counters came from real hardware counters.
    pub counter_source: CounterSource,
    /// `(stream_ms, bytes_held)` samples of this worker's state size.
    pub mem_samples: Vec<(f64, usize)>,
    /// This worker's span journal (disabled and empty unless the run
    /// config enabled journaling).
    pub journal: Option<SpanJournal>,
    /// CPU the worker was last observed on (`None` when the platform
    /// exposes no `getcpu`).
    pub core_id: Option<usize>,
}

impl WorkerOut {
    /// Fresh worker output with the given match-sampling rate.
    pub fn new(sample_every: u64) -> Self {
        WorkerOut {
            sink: CountingSink::new(sample_every),
            breakdown: PhaseBreakdown::zero(),
            counters: PhaseCounters::zero(),
            counter_source: CounterSource::Unavailable,
            mem_samples: Vec::new(),
            journal: None,
            core_id: None,
        }
    }

    /// Attach a finished timer's measurements: breakdown, per-phase
    /// counters, and the journal if it recorded anything.
    pub fn set_timing(&mut self, parts: TimerParts) {
        self.breakdown = parts.breakdown;
        self.counters = parts.counters;
        self.counter_source = parts.counter_source;
        if parts.journal.enabled() {
            self.journal = Some(parts.journal);
        }
    }
}

/// The merged result of one run — the input to every §4.1 metric.
#[derive(Debug)]
pub struct RunResult {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// Worker threads used.
    pub threads: usize,
    /// Total input tuples (|R| + |S|).
    pub total_inputs: usize,
    /// Total matches produced.
    pub matches: u64,
    /// One in `sample_every` matches, merged across workers, sorted by
    /// emission time.
    pub samples: Vec<MatchRecord>,
    /// Sampling rate the samples were taken at.
    pub sample_every: u64,
    /// Stream time of the last match.
    pub last_emit_ms: f64,
    /// Stream time when the last worker finished.
    pub elapsed_ms: f64,
    /// Phase breakdown summed over workers (total CPU-side cost).
    pub breakdown: PhaseBreakdown,
    /// Hardware-counter deltas per phase, summed over workers (all-zero
    /// when no worker had perf access).
    pub counters: PhaseCounters,
    /// `Perf` when at least one worker read real hardware counters.
    pub counter_source: CounterSource,
    /// Per-worker breakdowns (for utilisation studies).
    pub per_thread: Vec<PhaseBreakdown>,
    /// Exact latency histogram over every match, merged across workers.
    pub hist: LogHistogram,
    /// Per-worker span journals, `(worker, journal)`, present only when
    /// the run journaled.
    pub journals: Vec<(usize, SpanJournal)>,
    /// CPU each worker was last observed on, indexed by worker id (`None`
    /// entries where placement was unknown).
    pub core_ids: Vec<Option<usize>>,
    /// Memory samples merged from all workers, sorted by time. Each entry
    /// is `(stream_ms, worker, bytes)`; aggregate consumption at time t is
    /// the sum over workers of each worker's latest reading before t (see
    /// [`aggregate_mem_curve`]).
    pub mem_samples: Vec<(f64, usize, usize)>,
}

impl RunResult {
    /// Total journal marks with the given name across all workers, e.g.
    /// NPJ's `"latch:wait"` events. Zero when the run did not journal.
    pub fn count_marks(&self, name: &str) -> usize {
        self.journals.iter().map(|(_, j)| j.count_marks(name)).sum()
    }

    /// Total journal marks with the given name that fall inside a span of
    /// the given phase label, across all workers — e.g. how many
    /// `"latch:wait"` stalls landed in `"probe"` rather than
    /// `"build/sort"`. Zero when the run did not journal.
    pub fn count_marks_in(&self, name: &str, span_name: &str) -> usize {
        self.journals
            .iter()
            .map(|(_, j)| j.count_marks_in(name, span_name))
            .sum()
    }

    /// Merge per-worker outputs into a run result.
    pub fn merge(
        algorithm: Algorithm,
        total_inputs: usize,
        sample_every: u64,
        elapsed_ms: f64,
        workers: Vec<WorkerOut>,
    ) -> Self {
        let threads = workers.len();
        let mut matches = 0u64;
        let mut samples = Vec::new();
        let mut last_emit_ms = 0.0f64;
        let mut breakdown = PhaseBreakdown::zero();
        let mut counters = PhaseCounters::zero();
        let mut counter_source = CounterSource::Unavailable;
        let mut per_thread = Vec::with_capacity(threads);
        let mut mem_samples: Vec<(f64, usize, usize)> = Vec::new();
        let mut hist = LogHistogram::new();
        let mut journals = Vec::new();
        let mut core_ids = Vec::with_capacity(threads);
        for (wid, w) in workers.into_iter().enumerate() {
            core_ids.push(w.core_id);
            let tally = w.sink.finish();
            matches += tally.count;
            last_emit_ms = last_emit_ms.max(tally.last_emit_ms);
            hist.merge(&tally.hist);
            samples.extend(tally.samples);
            breakdown += w.breakdown;
            counters += w.counters;
            if w.counter_source.is_perf() {
                counter_source = CounterSource::Perf;
            }
            per_thread.push(w.breakdown);
            mem_samples.extend(w.mem_samples.iter().map(|&(t, b)| (t, wid, b)));
            if let Some(j) = w.journal {
                journals.push((wid, j));
            }
        }
        samples.sort_by(|a, b| a.emit_ms.total_cmp(&b.emit_ms));
        mem_samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        RunResult {
            algorithm,
            threads,
            total_inputs,
            matches,
            samples,
            sample_every,
            last_emit_ms,
            elapsed_ms,
            breakdown,
            counters,
            counter_source,
            per_thread,
            hist,
            journals,
            core_ids,
            mem_samples,
        }
    }

    /// Render the run's span journals as a Chrome-trace JSON document (one
    /// lane per worker, labelled with the CPU the worker was observed on
    /// when placement is known). Empty trace when the run did not journal.
    pub fn chrome_trace(&self) -> String {
        let lanes: Vec<(usize, Option<usize>, &SpanJournal)> = self
            .journals
            .iter()
            .map(|(wid, j)| (*wid, self.core_ids.get(*wid).copied().flatten(), j))
            .collect();
        chrome_trace_with_cores(&lanes)
    }

    /// Throughput in input tuples per stream millisecond — total inputs
    /// divided by the timestamp of the last match (§4.2.2). Falls back to
    /// total elapsed time when a run produced no matches.
    pub fn throughput_tpms(&self) -> f64 {
        let t = if self.last_emit_ms > 0.0 {
            self.last_emit_ms
        } else {
            self.elapsed_ms
        };
        if t <= 0.0 {
            0.0
        } else {
            self.total_inputs as f64 / t
        }
    }

    /// CPU utilisation estimate: busy (non-wait) time over `threads ×
    /// elapsed` (Table 6).
    pub fn cpu_utilisation(&self) -> f64 {
        let wall_ns = self.elapsed_ms * 1e6;
        if wall_ns <= 0.0 || self.threads == 0 {
            return 0.0;
        }
        (self.breakdown.busy_ns() as f64 / (wall_ns * self.threads as f64)).min(1.0)
    }
}

/// Collapse per-worker memory samples into a total-consumption-over-time
/// curve: at each sample time, the sum of every worker's latest reading
/// (the Figure 19b series).
pub fn aggregate_mem_curve(samples: &[(f64, usize, usize)], workers: usize) -> Vec<(f64, usize)> {
    let mut latest = vec![0usize; workers];
    let mut curve = Vec::with_capacity(samples.len());
    for &(t, w, b) in samples {
        if w < latest.len() {
            latest[w] = b;
        }
        curve.push((t, latest.iter().sum()));
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use iawj_common::Phase;

    fn worker(matches: u64, last: f64, wait_ns: u64, probe_ns: u64) -> WorkerOut {
        let mut w = WorkerOut::new(1);
        for i in 0..matches {
            w.sink.push(1, 0, 0, last * (i + 1) as f64 / matches as f64);
        }
        w.breakdown.add_ns(Phase::Wait, wait_ns);
        w.breakdown.add_ns(Phase::Probe, probe_ns);
        w
    }

    #[test]
    fn merge_accumulates() {
        let r = RunResult::merge(
            Algorithm::Npj,
            1000,
            1,
            20.0,
            vec![worker(10, 10.0, 5, 5), worker(20, 15.0, 5, 5)],
        );
        assert_eq!(r.matches, 30);
        assert_eq!(r.samples.len(), 30);
        assert!((r.last_emit_ms - 15.0).abs() < 1e-9);
        assert_eq!(r.threads, 2);
        assert_eq!(r.breakdown[Phase::Probe], 10);
        // Samples sorted by emission.
        assert!(r.samples.windows(2).all(|w| w[0].emit_ms <= w[1].emit_ms));
    }

    #[test]
    fn merge_flushes_a_run_a_worker_ended_in() {
        // Each worker's last matches share one stamp and result ts, so
        // they are still a pending run when the worker hands its sink on.
        let mut a = WorkerOut::new(64);
        a.sink.push(1, 0, 0, 1.0);
        for _ in 0..3 {
            a.sink.push(1, 2, 5, 7.5);
        }
        let mut b = WorkerOut::new(64);
        for _ in 0..4 {
            b.sink.push(2, 9, 1, 12.0);
        }
        let r = RunResult::merge(Algorithm::Npj, 100, 64, 20.0, vec![a, b]);
        assert_eq!(r.matches, 8);
        assert_eq!(r.hist.count(), 8);
        assert_eq!(r.last_emit_ms, 12.0);
        let mut expect = LogHistogram::new();
        expect.record_ms(1.0);
        expect.record_n(2_500_000, 3);
        expect.record_n(3_000_000, 4);
        assert_eq!(r.hist, expect);
        // The first match of each worker is sampled.
        assert_eq!(r.samples.len(), 2);
    }

    #[test]
    fn throughput_uses_last_match() {
        let r = RunResult::merge(Algorithm::Npj, 300, 1, 50.0, vec![worker(3, 10.0, 0, 1)]);
        assert!((r.throughput_tpms() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_falls_back_to_elapsed() {
        let r = RunResult::merge(Algorithm::Npj, 100, 1, 4.0, vec![worker(0, 0.0, 0, 1)]);
        assert!((r.throughput_tpms() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn mem_curve_aggregates_latest_per_worker() {
        let samples = vec![(1.0, 0, 100), (2.0, 1, 50), (3.0, 0, 200), (4.0, 2, 10)];
        let curve = aggregate_mem_curve(&samples, 3);
        assert_eq!(curve, vec![(1.0, 100), (2.0, 150), (3.0, 250), (4.0, 260)]);
        // Out-of-range worker ids are ignored rather than panicking.
        let curve = aggregate_mem_curve(&[(1.0, 9, 5)], 2);
        assert_eq!(curve, vec![(1.0, 0)]);
    }

    #[test]
    fn utilisation_excludes_wait() {
        // 1 worker, elapsed 1ms = 1e6 ns; busy 5e5, wait 5e5.
        let r = RunResult::merge(
            Algorithm::ShjJm,
            10,
            1,
            1.0,
            vec![worker(1, 1.0, 500_000, 500_000)],
        );
        assert!((r.cpu_utilisation() - 0.5).abs() < 0.01);
    }
}
