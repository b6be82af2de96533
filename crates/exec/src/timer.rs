//! Per-thread phase timing and hardware-counter sampling.
//!
//! The paper uses RDTSC for low-overhead timestamps (§4.2.2) and reports
//! costs in cycles at the machine's 2.6 GHz nominal clock. We use
//! `std::time::Instant` (vDSO-backed on Linux, tens of nanoseconds per call
//! — well under the paper's 5% overhead budget) and convert to cycles at a
//! calibrated clock: `IAWJ_CPU_GHZ` when set, a perf-measured frequency
//! when the cycle counter is readable, and the paper's 2.6 GHz nominal
//! otherwise — see [`cpu_clock`]. Tables label which source was used.
//!
//! When built with [`PhaseTimer::with_perf`], the timer also snapshots
//! hardware-counter deltas (cycles, instructions, cache/TLB misses, branch
//! mispredicts) at every [`PhaseTimer::switch_to`], attributing each delta
//! to the phase that just closed — the §6.2 microarchitectural breakdown,
//! measured rather than simulated.

use iawj_common::{Phase, PhaseBreakdown, PhaseCounters};
use iawj_obs::perf::{self, CounterSource, PerfSampler};
use iawj_obs::SpanJournal;
use std::sync::OnceLock;
use std::time::Instant;

/// Nominal clock of the paper's Xeon Gold 6126, the ns → cycle fallback
/// when no better source is available.
pub const NOMINAL_GHZ: f64 = 2.6;

/// Where the ns → cycles conversion frequency came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockSource {
    /// `IAWJ_CPU_GHZ` environment override.
    Env,
    /// Measured against the hardware cycle counter at startup.
    Measured,
    /// The paper's 2.6 GHz nominal (no override, no perf access).
    Assumed,
}

impl ClockSource {
    /// Short label for table headers and snapshots.
    pub fn label(self) -> &'static str {
        match self {
            ClockSource::Env => "env",
            ClockSource::Measured => "measured",
            ClockSource::Assumed => "assumed",
        }
    }
}

/// The frequency used to convert wall time to cycles, with provenance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuClock {
    /// Clock frequency in GHz.
    pub ghz: f64,
    /// Where the frequency came from.
    pub source: ClockSource,
}

impl CpuClock {
    /// Parse an `IAWJ_CPU_GHZ`-style override. Rejects non-numeric,
    /// non-finite and non-positive values.
    pub fn from_env_str(s: &str) -> Option<CpuClock> {
        let ghz: f64 = s.trim().parse().ok()?;
        if ghz.is_finite() && ghz > 0.0 {
            Some(CpuClock {
                ghz,
                source: ClockSource::Env,
            })
        } else {
            None
        }
    }

    /// Resolve the clock: env override, then perf measurement, then the
    /// nominal fallback. Called once per process via [`cpu_clock`].
    fn detect() -> CpuClock {
        if let Ok(s) = std::env::var("IAWJ_CPU_GHZ") {
            if let Some(clock) = CpuClock::from_env_str(&s) {
                return clock;
            }
        }
        if let Some(ghz) = perf::measure_ghz(10) {
            return CpuClock {
                ghz,
                source: ClockSource::Measured,
            };
        }
        CpuClock {
            ghz: NOMINAL_GHZ,
            source: ClockSource::Assumed,
        }
    }
}

/// The process-wide calibrated CPU clock (resolved once, then cached).
pub fn cpu_clock() -> CpuClock {
    static CLOCK: OnceLock<CpuClock> = OnceLock::new();
    *CLOCK.get_or_init(CpuClock::detect)
}

/// Everything a finished [`PhaseTimer`] measured for one worker.
#[derive(Debug)]
pub struct TimerParts {
    /// Wall time per phase.
    pub breakdown: PhaseBreakdown,
    /// The worker's span journal (disabled and empty unless the timer was
    /// built with one).
    pub journal: SpanJournal,
    /// Hardware-counter deltas per phase (all-zero without perf access).
    pub counters: PhaseCounters,
    /// Whether `counters` came from real hardware counters.
    pub counter_source: CounterSource,
}

/// Accumulates wall time into the six breakdown phases. One per worker
/// thread; exactly one phase is "open" at any moment.
///
/// When constructed with [`PhaseTimer::with_journal`], every closed phase
/// interval is also recorded as a span in the worker's [`SpanJournal`]
/// (and [`PhaseTimer::instant`] records point events), which is what the
/// Chrome-trace exporter visualises. [`PhaseTimer::with_perf`] adds
/// per-phase hardware counters on top. The plain [`PhaseTimer::start`]
/// constructor carries a disabled journal and no sampler, whose record
/// calls are a single branch — nothing is allocated and the hot path is
/// unchanged.
#[derive(Debug)]
pub struct PhaseTimer {
    breakdown: PhaseBreakdown,
    current: Phase,
    since: Instant,
    journal: SpanJournal,
    counters: PhaseCounters,
    sampler: Option<PerfSampler>,
}

impl PhaseTimer {
    /// Start timing in the given phase, without journaling.
    pub fn start(initial: Phase) -> Self {
        let now = Instant::now();
        Self::build(initial, SpanJournal::disabled(now), false)
    }

    /// Start timing in the given phase, recording phase spans into
    /// `journal` as they close.
    pub fn with_journal(initial: Phase, journal: SpanJournal) -> Self {
        Self::build(initial, journal, false)
    }

    /// Start timing with journaling *and* hardware-counter sampling.
    ///
    /// Must be called on the worker thread whose counters should be read:
    /// the sampler binds to the calling thread. When the kernel refuses
    /// (`perf_event_paranoid`, seccomp, non-Linux) the timer silently
    /// degrades to [`PhaseTimer::with_journal`] behaviour — counters stay
    /// zero and [`TimerParts::counter_source`] says so.
    pub fn with_perf(initial: Phase, journal: SpanJournal) -> Self {
        Self::build(initial, journal, true)
    }

    fn build(initial: Phase, journal: SpanJournal, perf: bool) -> Self {
        let sampler = if perf {
            PerfSampler::open().ok().map(|mut s| {
                s.sample(); // discard the open→now delta
                s
            })
        } else {
            None
        };
        PhaseTimer {
            breakdown: PhaseBreakdown::zero(),
            current: initial,
            since: Instant::now(),
            journal,
            counters: PhaseCounters::zero(),
            sampler,
        }
    }

    /// Close the current phase and open `next`. Switching to the phase that
    /// is already open is a cheap no-op semantically (time keeps
    /// accumulating there).
    #[inline]
    pub fn switch_to(&mut self, next: Phase) {
        if next == self.current {
            return;
        }
        self.close_current();
        self.current = next;
    }

    /// Close the open phase interval at `now`, attributing its wall time
    /// and (when sampling) its counter delta, and start a new interval.
    fn close_current(&mut self) {
        let now = Instant::now();
        self.breakdown
            .add_ns(self.current, (now - self.since).as_nanos() as u64);
        let delta = self.sampler.as_mut().map(|s| s.sample());
        if let Some(d) = delta {
            self.counters.record(self.current, d);
        }
        self.journal
            .record_span_with(self.current.label(), self.since, now, delta);
        self.since = now;
    }

    /// Record an instant event (barrier release, window flush) in the
    /// journal. No-op without a journal.
    #[inline]
    pub fn instant(&mut self, name: &'static str) {
        if self.journal.enabled() {
            self.journal.mark(name, Instant::now());
        }
    }

    /// The phase currently being timed.
    pub fn current(&self) -> Phase {
        self.current
    }

    /// Is this timer reading real hardware counters?
    pub fn sampling(&self) -> bool {
        self.sampler.is_some()
    }

    /// Close the open phase and return the final breakdown.
    pub fn finish(self) -> PhaseBreakdown {
        self.finish_parts().breakdown
    }

    /// Close the open phase and return everything measured.
    pub fn finish_parts(mut self) -> TimerParts {
        self.close_current();
        let counter_source = if self.sampler.is_some() {
            CounterSource::Perf
        } else {
            CounterSource::Unavailable
        };
        TimerParts {
            breakdown: self.breakdown,
            journal: self.journal,
            counters: self.counters,
            counter_source,
        }
    }

    /// Time `f` against a specific phase, then return to the previous phase.
    #[inline]
    pub fn in_phase<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let prev = self.current;
        self.switch_to(phase);
        let out = f();
        self.switch_to(prev);
        out
    }
}

/// Convert nanoseconds to cycles at the calibrated process clock.
#[inline]
pub fn ns_to_cycles(ns: u64) -> f64 {
    ns as f64 * cpu_clock().ghz
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn accumulates_into_phases() {
        let mut t = PhaseTimer::start(Phase::Wait);
        std::thread::sleep(Duration::from_millis(5));
        t.switch_to(Phase::Probe);
        std::thread::sleep(Duration::from_millis(5));
        let b = t.finish();
        assert!(b[Phase::Wait] >= 4_000_000, "wait={}", b[Phase::Wait]);
        assert!(b[Phase::Probe] >= 4_000_000, "probe={}", b[Phase::Probe]);
        assert_eq!(b[Phase::Merge], 0);
    }

    #[test]
    fn switch_to_same_phase_is_noop() {
        let mut t = PhaseTimer::start(Phase::BuildSort);
        t.switch_to(Phase::BuildSort);
        assert_eq!(t.current(), Phase::BuildSort);
        let b = t.finish();
        assert_eq!(b.total_ns(), b[Phase::BuildSort]);
    }

    #[test]
    fn in_phase_restores_previous() {
        let mut t = PhaseTimer::start(Phase::Other);
        let v = t.in_phase(Phase::Merge, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.current(), Phase::Other);
    }

    #[test]
    fn cycles_conversion_tracks_calibrated_clock() {
        let clock = cpu_clock();
        assert!(clock.ghz > 0.1 && clock.ghz < 10.0, "ghz={}", clock.ghz);
        assert!((ns_to_cycles(1000) - 1000.0 * clock.ghz).abs() < 1e-9);
    }

    #[test]
    fn env_clock_parsing() {
        let c = CpuClock::from_env_str("3.25").unwrap();
        assert_eq!(c.ghz, 3.25);
        assert_eq!(c.source, ClockSource::Env);
        assert_eq!(c.source.label(), "env");
        assert_eq!(CpuClock::from_env_str(" 2.0 ").map(|c| c.ghz), Some(2.0));
        assert!(CpuClock::from_env_str("fast").is_none());
        assert!(CpuClock::from_env_str("0").is_none());
        assert!(CpuClock::from_env_str("-1.5").is_none());
        assert!(CpuClock::from_env_str("inf").is_none());
        assert!(CpuClock::from_env_str("NaN").is_none());
    }

    #[test]
    fn journaled_timer_emits_one_span_per_phase_interval() {
        use iawj_obs::SpanJournal;
        let epoch = Instant::now();
        let mut t = PhaseTimer::with_journal(Phase::Wait, SpanJournal::with_capacity(epoch, 64));
        t.switch_to(Phase::BuildSort);
        t.instant("barrier:build_done");
        t.switch_to(Phase::Probe);
        let parts = t.finish_parts();
        let spans = parts.journal.spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["wait", "build/sort", "probe"]
        );
        // Spans tile the run: each begins where the previous ended.
        for w in spans.windows(2) {
            assert_eq!(w[0].end_ns, w[1].begin_ns);
        }
        assert_eq!(parts.journal.marks().len(), 1);
        assert!(parts.breakdown.total_ns() > 0);
        // No perf requested: counters stay zero and say so.
        assert!(parts.counters.is_zero());
        assert_eq!(parts.counter_source, CounterSource::Unavailable);
        assert!(spans.iter().all(|s| s.counters.is_none()));
    }

    #[test]
    fn plain_timer_journal_stays_empty() {
        let mut t = PhaseTimer::start(Phase::Wait);
        t.switch_to(Phase::Probe);
        t.instant("ignored");
        let parts = t.finish_parts();
        assert!(!parts.journal.enabled());
        assert_eq!(parts.journal.span_count(), 0);
        assert_eq!(parts.journal.mark_count(), 0);
    }

    #[test]
    fn perf_timer_degrades_gracefully_or_measures() {
        // Must never panic regardless of perf availability; with perf the
        // busy phase must show nonzero cycles and instructions.
        let epoch = Instant::now();
        let mut t = PhaseTimer::with_perf(Phase::Wait, SpanJournal::with_capacity(epoch, 64));
        let sampling = t.sampling();
        t.switch_to(Phase::Probe);
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert_ne!(acc, 1); // keep the loop alive
        let parts = t.finish_parts();
        if sampling {
            assert_eq!(parts.counter_source, CounterSource::Perf);
            let probe = parts.counters[Phase::Probe];
            assert!(probe.cycles() > 0, "cycles={}", probe.cycles());
            assert!(probe.instructions() > 0);
            // Spans carry the same attribution.
            let probe_span = parts
                .journal
                .spans()
                .into_iter()
                .find(|s| s.name == "probe")
                .unwrap();
            assert!(probe_span.counters.unwrap().instructions() > 0);
        } else {
            assert_eq!(parts.counter_source, CounterSource::Unavailable);
            assert!(parts.counters.is_zero());
        }
    }
}
