//! Run configuration: thread count, sort backend, the per-algorithm tuning
//! knobs of §5.5, and harness controls (time compression, match sampling).

use iawj_exec::{Executor, PinPolicy, SortBackend};

/// Executor knobs: how the pool's worker threads are placed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecConfig {
    /// Core-placement policy for pool workers (`none` leaves the OS
    /// scheduler in charge; `compact`/`scatter` pin via `sched_setaffinity`).
    pub pin: PinPolicy,
}

/// PRJ knobs (§5.5, Figure 18). The split of `#r` into passes is fixed by
/// [`iawj_exec::radix::pass_bits`].
#[derive(Clone, Copy, Debug)]
pub struct PrjConfig {
    /// Total radix bits `#r`; the paper sweeps 8..18 and settles on ~10.
    pub radix_bits: u32,
}

/// Largest accepted [`PrjConfig::radix_bits`]: 2^24 final partitions is
/// already far past the paper's 8–18 sweep, and the second pass's fan-out
/// (`radix_bits − 8` bits per first-pass partition) is allocated per
/// partition joined.
pub const MAX_RADIX_BITS: u32 = 24;

impl Default for PrjConfig {
    fn default() -> Self {
        PrjConfig { radix_bits: 10 }
    }
}

/// PMJ knobs (§5.5, Figure 15).
#[derive(Clone, Copy, Debug)]
pub struct PmjConfig {
    /// Sorting step size δ: the fraction of a worker's expected input
    /// accumulated before each sort+join step. The paper finds 20% optimal.
    pub delta: f64,
    /// Progressive merging: cross-join each new run pair against all
    /// earlier runs immediately instead of in one final merge phase —
    /// closer to Dittrich et al.'s original merge-on-demand, trading total
    /// cost for earlier results (ablation; see docs/algorithms.md).
    pub eager_merge: bool,
}

impl Default for PmjConfig {
    fn default() -> Self {
        PmjConfig {
            delta: 0.20,
            eager_merge: false,
        }
    }
}

/// Join-biclique knobs (§5.5, Figure 16).
#[derive(Clone, Copy, Debug)]
pub struct JbConfig {
    /// Core-group size `g`. `1` degenerates to hash partitioning; `threads`
    /// degenerates to a JM-like scheme. Must divide the thread count.
    pub group_size: usize,
}

impl Default for JbConfig {
    fn default() -> Self {
        JbConfig { group_size: 2 }
    }
}

/// Join-matrix knobs (§5.5, Figure 17).
#[derive(Clone, Copy, Debug, Default)]
pub struct JmConfig {
    /// Physically copy assigned tuples into per-worker buffers before
    /// processing ("w/ partitioning") instead of reading through the shared
    /// input arrays ("pointer passing", the paper's default).
    pub physical_partition: bool,
}

/// Index-engine knobs (the IBWJ family; see DESIGN.md).
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Partition count for `IBWJ_PART` (0 = auto: the next power of two at
    /// or above 4× the thread count, so repartitioning has slack to move
    /// hot partitions between workers).
    pub partitions: usize,
    /// How many stream-time epochs `IBWJ_PART` slices a run into; each
    /// epoch boundary is a deterministic repartition opportunity.
    pub epochs: usize,
    /// Repartition when the most-loaded worker's assigned tuple share
    /// exceeds the ideal share by this factor.
    pub repart_factor: f64,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            partitions: 0,
            epochs: 8,
            repart_factor: 1.5,
        }
    }
}

/// Complete configuration of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker threads. MWay/MPass require a power of two (§5); the runner
    /// enforces it.
    pub threads: usize,
    /// Sort backend for every sort-based algorithm (Figure 21's switch).
    pub sort: SortBackend,
    /// Stream-time speedup (1.0 = real-time replay; >1 compresses waits).
    pub speedup: f64,
    /// Record one in `sample_every` matches for latency/progressiveness.
    pub sample_every: u64,
    /// Record a memory-consumption sample roughly every this many processed
    /// tuples per worker (0 disables the gauge).
    pub mem_sample_every: usize,
    /// Record per-worker span journals (phase intervals + instant events)
    /// for trace export. Off by default: a disabled journal allocates
    /// nothing and costs one branch per phase switch.
    pub journal: bool,
    /// Ring capacity (spans and marks each) of one worker's journal.
    pub journal_capacity: usize,
    /// Sample hardware performance counters (cycles, instructions,
    /// cache/TLB misses, branch mispredicts) per phase on every worker.
    /// Degrades silently to zero counters when the kernel refuses.
    pub perf: bool,
    /// Executor knobs (core placement).
    pub exec: ExecConfig,
    /// PRJ knobs.
    pub prj: PrjConfig,
    /// PMJ knobs.
    pub pmj: PmjConfig,
    /// JB knobs.
    pub jb: JbConfig,
    /// JM knobs.
    pub jm: JmConfig,
    /// Index-engine knobs.
    pub index: IndexConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 4,
            sort: SortBackend::default(),
            speedup: 1.0,
            sample_every: 64,
            mem_sample_every: 4096,
            journal: false,
            journal_capacity: 1 << 14,
            perf: false,
            exec: ExecConfig::default(),
            prj: PrjConfig::default(),
            pmj: PmjConfig::default(),
            jb: JbConfig::default(),
            jm: JmConfig::default(),
            index: IndexConfig::default(),
        }
    }
}

impl RunConfig {
    /// Config with a given thread count, defaults elsewhere.
    pub fn with_threads(threads: usize) -> Self {
        RunConfig {
            threads,
            ..Default::default()
        }
    }

    /// Builder: set the sort backend.
    pub fn sort(mut self, sort: SortBackend) -> Self {
        self.sort = sort;
        self
    }

    /// Builder: set time compression.
    pub fn speedup(mut self, speedup: f64) -> Self {
        self.speedup = speedup;
        self
    }

    /// Builder: record every match (correctness tests).
    pub fn record_all(mut self) -> Self {
        self.sample_every = 1;
        self
    }

    /// Builder: enable per-worker span journaling.
    pub fn with_journal(mut self) -> Self {
        self.journal = true;
        self
    }

    /// Builder: enable per-phase hardware-counter sampling.
    pub fn with_perf(mut self) -> Self {
        self.perf = true;
        self
    }

    /// Builder: select the core-placement policy for pool workers.
    pub fn pin(mut self, pin: PinPolicy) -> Self {
        self.exec.pin = pin;
        self
    }

    /// Check the knobs that would otherwise fail far from their cause —
    /// a zero thread count has no workers to run, and radix bits beyond
    /// the key width allocate `2^bits` histogram slots per scatter slot
    /// (or overflow the shift outright).
    /// The runner calls this before dispatch; CLI parsing rejects the same
    /// values with a flag-level error message.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("thread count must be at least 1".into());
        }
        if !(1..=MAX_RADIX_BITS).contains(&self.prj.radix_bits) {
            return Err(format!(
                "PRJ radix bits must be in 1..={MAX_RADIX_BITS} (keys are 32-bit; \
                 the paper sweeps 8-18)"
            ));
        }
        if self.index.epochs == 0 {
            return Err("index epochs must be at least 1".into());
        }
        if !(self.index.repart_factor.is_finite() && self.index.repart_factor >= 1.0) {
            return Err("index repartition factor must be a finite value >= 1.0".into());
        }
        Ok(())
    }

    /// Build the executor this config asks for: a persistent pool sized to
    /// `threads` under the configured placement policy. Callers that
    /// run many joins (benchmarks, the streaming service) should build one
    /// executor and pass it to [`crate::execute_on`] instead of paying
    /// pool construction per run.
    pub fn make_executor(&self) -> Executor {
        Executor::new(self.exec.pin, self.threads)
    }

    /// A journal for one worker, relative to `epoch`: ring-buffered at
    /// `journal_capacity` when journaling is on, disabled (allocation-free)
    /// otherwise.
    pub fn journal_for(&self, epoch: std::time::Instant) -> iawj_obs::SpanJournal {
        if self.journal {
            iawj_obs::SpanJournal::with_capacity(epoch, self.journal_capacity)
        } else {
            iawj_obs::SpanJournal::disabled(epoch)
        }
    }

    /// A phase timer for one worker, honouring both the journal and perf
    /// knobs. Must be called on the worker thread itself: the perf
    /// sampler binds its counters to the calling thread.
    pub fn timer_for(
        &self,
        initial: iawj_common::Phase,
        epoch: std::time::Instant,
    ) -> iawj_exec::PhaseTimer {
        let journal = self.journal_for(epoch);
        if self.perf {
            iawj_exec::PhaseTimer::with_perf(initial, journal)
        } else {
            iawj_exec::PhaseTimer::with_journal(initial, journal)
        }
    }

    /// Effective JB group size: clamped to divide `threads`.
    pub fn jb_group_size(&self) -> usize {
        let g = self.jb.group_size.clamp(1, self.threads);
        // Largest divisor of `threads` not exceeding g.
        (1..=g)
            .rev()
            .find(|d| self.threads.is_multiple_of(*d))
            .unwrap_or(1)
    }

    /// Effective partition count for `IBWJ_PART`: the configured value, or
    /// auto-sized to the next power of two at or above 4× the thread count.
    pub fn index_partitions(&self) -> usize {
        if self.index.partitions > 0 {
            self.index.partitions
        } else {
            iawj_common::hash::next_pow2_at_least(self.threads * 4, 4)
        }
    }

    /// JM matrix shape `(rows, cols)` with `rows*cols = threads`, as square
    /// as possible (the Figure 2a matrix).
    pub fn jm_shape(&self) -> (usize, usize) {
        let t = self.threads;
        let mut r = (t as f64).sqrt() as usize;
        while r > 1 && !t.is_multiple_of(r) {
            r -= 1;
        }
        (r.max(1), t / r.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = RunConfig::default();
        assert_eq!(c.prj.radix_bits, 10);
        assert!((c.pmj.delta - 0.2).abs() < 1e-9);
        assert_eq!(c.speedup, 1.0);
    }

    #[test]
    fn jm_shape_is_a_factorisation() {
        for t in 1..=16 {
            let c = RunConfig::with_threads(t);
            let (r, s) = c.jm_shape();
            assert_eq!(r * s, t, "threads={t}");
        }
        assert_eq!(RunConfig::with_threads(4).jm_shape(), (2, 2));
        assert_eq!(RunConfig::with_threads(8).jm_shape(), (2, 4));
        assert_eq!(RunConfig::with_threads(6).jm_shape(), (2, 3));
        assert_eq!(RunConfig::with_threads(7).jm_shape(), (1, 7));
    }

    #[test]
    fn jb_group_size_divides_threads() {
        let mut c = RunConfig::with_threads(8);
        for g in 1..=10 {
            c.jb.group_size = g;
            let eff = c.jb_group_size();
            assert_eq!(8 % eff, 0, "g={g} eff={eff}");
            assert!(eff <= g.min(8));
        }
        c.jb.group_size = 3;
        assert_eq!(c.jb_group_size(), 2, "largest divisor of 8 that is <= 3");
        c.threads = 6;
        c.jb.group_size = 6;
        assert_eq!(c.jb_group_size(), 6);
    }

    #[test]
    fn builders_chain() {
        let c = RunConfig::with_threads(2)
            .sort(SortBackend::Scalar)
            .speedup(10.0)
            .record_all();
        assert_eq!(c.threads, 2);
        assert_eq!(c.sort, SortBackend::Scalar);
        assert_eq!(c.sample_every, 1);
        assert!((c.speedup - 10.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_zero_threads() {
        assert!(RunConfig::default().validate().is_ok());
        let zero_threads = RunConfig::with_threads(0);
        assert!(zero_threads.validate().is_err());
    }

    #[test]
    fn index_config_defaults_and_validation() {
        let c = RunConfig::with_threads(4);
        assert_eq!(c.index.partitions, 0, "auto by default");
        assert_eq!(c.index_partitions(), 16, "4 threads -> pow2(16)");
        let mut c = RunConfig::with_threads(3);
        assert_eq!(c.index_partitions(), 16, "3 threads -> pow2 >= 12");
        c.index.partitions = 7;
        assert_eq!(c.index_partitions(), 7, "explicit value wins");
        c.index.epochs = 0;
        assert!(c.validate().unwrap_err().contains("epochs"));
        c.index.epochs = 1;
        c.index.repart_factor = 0.5;
        assert!(c.validate().unwrap_err().contains("repartition"));
        c.index.repart_factor = 1.5;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_bounds_prj_radix_bits() {
        let with_bits = |radix: u32| {
            let mut c = RunConfig::default();
            c.prj.radix_bits = radix;
            c.validate()
        };
        for radix in [1, 8, 18, MAX_RADIX_BITS] {
            assert!(with_bits(radix).is_ok(), "radix_bits={radix}");
        }
        for radix in [0, MAX_RADIX_BITS + 1, 33, 40, 64] {
            let err = with_bits(radix).unwrap_err();
            assert!(err.contains("radix bits"), "radix_bits={radix}: {err}");
        }
        // The widest accepted `#r` splits into a full first pass and a
        // 16-bit refinement.
        assert_eq!(iawj_exec::radix::pass_bits(MAX_RADIX_BITS), (8, 16));
    }

    #[test]
    fn exec_defaults_to_unpinned_pool() {
        let c = RunConfig::default();
        assert_eq!(c.exec.pin, PinPolicy::None);
        assert_eq!(c.pin(PinPolicy::Compact).exec.pin, PinPolicy::Compact);
    }

    #[test]
    fn make_executor_matches_config() {
        let exec = RunConfig::with_threads(3)
            .pin(PinPolicy::Scatter)
            .make_executor();
        assert_eq!(exec.capacity(), 3);
        assert_eq!(exec.pin_policy(), PinPolicy::Scatter);
        let results = exec.run(3, |tid| tid * 10);
        assert_eq!(results, vec![0, 10, 20]);
    }

    #[test]
    fn journal_factory_respects_flag() {
        let epoch = std::time::Instant::now();
        let off = RunConfig::default();
        assert!(!off.journal_for(epoch).enabled());
        let on = RunConfig::default().with_journal();
        let j = on.journal_for(epoch);
        assert!(j.enabled());
        assert_eq!(j.epoch(), epoch);
    }

    #[test]
    fn timer_factory_respects_flags() {
        use iawj_common::Phase;
        let epoch = std::time::Instant::now();
        let plain = RunConfig::default().timer_for(Phase::Wait, epoch);
        assert!(!plain.sampling());
        let parts = plain.finish_parts();
        assert!(!parts.journal.enabled());
        // Perf on: never panics; samples only where the kernel allows.
        let perf = RunConfig::default()
            .with_journal()
            .with_perf()
            .timer_for(Phase::Wait, epoch);
        let parts = perf.finish_parts();
        assert!(parts.journal.enabled());
        assert!(parts.counter_source.is_perf() || parts.counters.is_zero());
    }
}
