//! No-Partitioning hash Join (NPJ), after Blanas et al.
//!
//! All threads cooperatively build one shared hash table over R (equisized
//! input chunks, per-bucket latches — or CAS-chained bucket heads in the
//! lock-free table mode), synchronise on a barrier, then concurrently probe
//! it with their chunks of S. The shared table is the point: no
//! partitioning cost, but bucket contention and a table that can exceed
//! the last-level cache (§5.3.2, §5.6). Contention is journaled per event:
//! `latch:wait` spin episodes in latch mode, `cas:retry` failed publishes
//! in lock-free mode.

use crate::clock::EventClock;
use crate::config::{KernelConfig, RunConfig};
use crate::lazy::{EmitClock, Scan};
use crate::output::WorkerOut;
use iawj_common::hash::bucket_of;
use iawj_common::kernel::tuple_buckets_into;
use iawj_common::{Phase, Sink, Ts, Tuple};
use iawj_exec::pool::barrier;
use iawj_exec::{ConcurrentTable, Executor, LockFreeTable, NpjTable, SharedTable};

/// Tuples per batched-pipeline block: large enough to amortise the 8-wide
/// hash kernel, small enough that the derived bucket indices stay in L1.
const PIPELINE_BLOCK: usize = 1024;

/// Walk one contiguous range as `f(bucket, tuple)` — the one place the
/// scalar-vs-batched choice is made, for build and probe alike. `--kernel
/// simd`: per block, derive every bucket index up front with the 8-wide
/// hash kernel, then walk the block issuing a bucket-head prefetch `dist`
/// tuples ahead of each access so chain heads are (likely) cache-resident
/// by the time they are touched. `scalar` keeps the per-tuple
/// hash-then-access loop.
#[inline]
fn for_each_bucket<T: ConcurrentTable>(
    table: &T,
    tuples: &[Tuple],
    kcfg: &KernelConfig,
    buckets: &mut Vec<usize>,
    mut f: impl FnMut(usize, &Tuple),
) {
    if kcfg.backend.is_simd() {
        let dist = kcfg.prefetch_dist.max(1);
        for block in tuples.chunks(PIPELINE_BLOCK) {
            tuple_buckets_into(kcfg.backend, block, table.mask(), buckets);
            for (i, t) in block.iter().enumerate() {
                if let Some(&ahead) = buckets.get(i + dist) {
                    table.prefetch_bucket(ahead);
                }
                f(buckets[i], t);
            }
        }
    } else {
        let mask = table.mask();
        for t in tuples {
            f(bucket_of(t.key, mask), t);
        }
    }
}

/// Run NPJ on an existing executor (reused across runs / window closes),
/// into the shared table [`crate::config::NpjConfig`] selects: per-bucket
/// latches (the default, matching the paper's bucket-chain table) or the
/// lock-free CAS-chained table (the latched-vs-lock-free A/B behind Fig. 8).
/// `arrive_by` is the arrival timestamp of the window's last tuple; the
/// lazy approach waits for it before starting.
pub fn run_on(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
    exec: &Executor,
) -> Vec<WorkerOut> {
    let input = (r, s, cfg, clock, arrive_by, exec);
    match cfg.npj.table {
        // Zeroed pages are a complete latched table, so its workers fault
        // their share in simply by building.
        NpjTable::Latch => run_with(&SharedTable::with_capacity(r.len()), None, input),
        // The lock-free table needs `-1` chain sentinels over its zeroed
        // pages first: each worker writes (and so places) its own share
        // instead of the coordinating thread writing all of it.
        NpjTable::LockFree => {
            let table = LockFreeTable::with_capacity_untouched(r.len());
            // SAFETY: `run_with` calls this once per tid, before any insert,
            // and barriers between the touches and the build.
            let touch = |tid: usize| unsafe { table.first_touch(tid, cfg.threads) };
            run_with(&table, Some(&touch), input)
        }
    }
}

/// [`run_on`]'s arguments, bundled so each table arm passes them on whole.
type Inputs<'a> = (
    &'a [Tuple],
    &'a [Tuple],
    &'a RunConfig,
    &'a EventClock,
    Ts,
    &'a Executor,
);

/// NPJ over any [`ConcurrentTable`]. `first_touch`, when present, is run
/// by every worker for its own tid ahead of a barrier that precedes the
/// build.
fn run_with<T: ConcurrentTable>(
    table: &T,
    first_touch: Option<&(dyn Fn(usize) + Sync)>,
    (r, s, cfg, clock, arrive_by, exec): Inputs<'_>,
) -> Vec<WorkerOut> {
    let threads = cfg.threads;
    let touch_done = barrier(threads);
    let build_done = barrier(threads);
    let build = Scan::new(&cfg.sched, r.len(), threads);
    let probe = Scan::new(&cfg.sched, s.len(), threads);
    exec.run(threads, |tid| {
        let mut out = WorkerOut::new(cfg.sample_every);
        let mut timer = cfg.timer_for(Phase::Wait, clock.epoch());
        clock.wait_until(arrive_by);

        // Per-worker scratch for the batched pipelines, reused across
        // morsel ranges so the Simd path allocates once per worker.
        let mut buckets: Vec<usize> = Vec::new();
        timer.switch_to(Phase::BuildSort);
        if let Some(touch) = first_touch {
            touch(tid);
            touch_done.wait();
            timer.instant("barrier:first_touch_done");
        }
        // Contention events accumulate in a counter and flush to the
        // journal when the phase ends (their count is exact; only their
        // timestamps cluster).
        let mut events = 0u32;
        build.run(tid, &mut timer, |range, _| {
            for_each_bucket(table, &r[range], &cfg.kernel, &mut buckets, |b, t| {
                events += table.insert_at(b, t.key, t.ts);
            });
        });
        for _ in 0..events {
            timer.instant(T::CONTENTION_MARK);
        }
        timer.switch_to(Phase::Other);
        build_done.wait();
        timer.instant("barrier:build_done");
        if tid == 0 && cfg.mem_sample_every > 0 {
            out.mem_samples.push((clock.now_ms(), table.bytes()));
        }

        timer.switch_to(Phase::Probe);
        let mut emit = EmitClock::new(clock);
        let mut events = 0u32;
        // `emit.now()` is taken per tuple, so match timestamps do not
        // depend on the kernel.
        probe.run(tid, &mut timer, |range, _| {
            for_each_bucket(table, &s[range], &cfg.kernel, &mut buckets, |b, t| {
                let now = emit.now();
                events += table.probe_at(b, t.key, |r_ts| out.sink.push(t.key, r_ts, t.ts, now));
            });
        });
        for _ in 0..events {
            timer.instant(T::CONTENTION_MARK);
        }
        out.set_timing(timer.finish_parts());
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::nested_loop_join;
    use iawj_common::{KernelBackend, Rng, Window};
    use iawj_obs::{MARK_CAS_RETRY, MARK_LATCH_WAIT};

    fn random_stream(n: usize, keys: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|i| Tuple::new(rng.next_u32() % keys, (i % 64) as u32))
            .collect()
    }

    #[test]
    fn matches_reference() {
        let r = random_stream(500, 64, 1);
        let s = random_stream(700, 64, 2);
        let cfg = RunConfig::with_threads(4).record_all();
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let mut got: Vec<_> = outs
            .iter()
            .flat_map(|w| w.sink.samples.iter().map(|m| (m.key, m.r_ts, m.s_ts)))
            .collect();
        got.sort_unstable();
        assert_eq!(got, nested_loop_join(&r, &s, Window::of_len(64)));
    }

    #[test]
    fn single_thread_works() {
        let r = random_stream(100, 8, 3);
        let s = random_stream(100, 8, 4);
        let cfg = RunConfig::with_threads(1).record_all();
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let total: u64 = outs.iter().map(|w| w.sink.count()).sum();
        assert_eq!(
            total,
            nested_loop_join(&r, &s, Window::of_len(64)).len() as u64
        );
    }

    #[test]
    fn empty_inputs_produce_nothing() {
        let cfg = RunConfig::with_threads(2).record_all();
        let clock = EventClock::ungated();
        let outs = run_on(&[], &[], &cfg, &clock, 0, &cfg.make_executor());
        assert_eq!(outs.iter().map(|w| w.sink.count()).sum::<u64>(), 0);
    }

    #[test]
    fn steal_scheduler_matches_static() {
        use iawj_exec::morsel::MARK_CLAIM;
        use iawj_exec::Scheduler;
        let r = random_stream(900, 16, 11);
        let s = random_stream(1100, 16, 12);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        let cfg = RunConfig::with_threads(4)
            .record_all()
            .scheduler(Scheduler::Steal)
            .morsel_size(64)
            .with_journal();
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let mut got: Vec<_> = outs
            .iter()
            .flat_map(|w| w.sink.samples.iter().map(|m| (m.key, m.r_ts, m.s_ts)))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expect);
        let marks = |name: &str| -> usize {
            outs.iter()
                .filter_map(|w| w.journal.as_ref())
                .map(|j| j.count_marks(name))
                .sum()
        };
        // Morsels align per deque: 4 deques of 225 (build) and 275 (probe)
        // tuples at morsel 64 yield 4*ceil(225/64) + 4*ceil(275/64) marks,
        // each claimed exactly once whether owned or stolen.
        use iawj_exec::morsel::MARK_STEAL;
        assert_eq!(marks(MARK_CLAIM) + marks(MARK_STEAL), 16 + 20);
    }

    #[test]
    fn lockfree_table_matches_reference() {
        let r = random_stream(800, 32, 21);
        let s = random_stream(900, 32, 22);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        for scheduler in [iawj_exec::Scheduler::Static, iawj_exec::Scheduler::Steal] {
            let cfg = RunConfig::with_threads(4)
                .record_all()
                .npj_table(NpjTable::LockFree)
                .scheduler(scheduler)
                .morsel_size(64);
            let clock = EventClock::ungated();
            let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
            let mut got: Vec<_> = outs
                .iter()
                .flat_map(|w| w.sink.samples.iter().map(|m| (m.key, m.r_ts, m.s_ts)))
                .collect();
            got.sort_unstable();
            assert_eq!(got, expect, "scheduler {scheduler:?}");
        }
    }

    #[test]
    fn kernel_backends_agree_bitwise() {
        use iawj_exec::Scheduler;
        let r = random_stream(900, 32, 61);
        let s = random_stream(1000, 32, 62);
        for table in [NpjTable::Latch, NpjTable::LockFree] {
            for scheduler in [Scheduler::Static, Scheduler::Steal] {
                let collect = |backend: KernelBackend| {
                    let cfg = RunConfig::with_threads(4)
                        .record_all()
                        .npj_table(table)
                        .scheduler(scheduler)
                        .morsel_size(64)
                        .kernel(backend)
                        .prefetch_dist(4);
                    let clock = EventClock::ungated();
                    let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
                    let mut got: Vec<_> = outs
                        .iter()
                        .flat_map(|w| w.sink.samples.iter().map(|m| (m.key, m.r_ts, m.s_ts)))
                        .collect();
                    got.sort_unstable();
                    got
                };
                assert_eq!(
                    collect(KernelBackend::Scalar),
                    collect(KernelBackend::Simd),
                    "table {table:?} scheduler {scheduler:?}"
                );
            }
        }
    }

    #[test]
    fn lockfree_mode_never_journals_latch_waits() {
        let r = random_stream(2000, 4, 31);
        let s = random_stream(2000, 4, 32);
        let cfg = RunConfig::with_threads(4)
            .record_all()
            .npj_table(NpjTable::LockFree)
            .with_journal();
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let count = |name: &str| -> usize {
            outs.iter()
                .filter_map(|w| w.journal.as_ref())
                .map(|j| j.count_marks(name))
                .sum()
        };
        assert_eq!(count(MARK_LATCH_WAIT), 0);
        // cas:retry is scheduling-dependent; just assert it is the only
        // contention mark this mode can emit (no panic, count readable).
        let _ = count(MARK_CAS_RETRY);
    }

    #[test]
    fn latch_mode_never_journals_cas_retries() {
        let r = random_stream(2000, 4, 41);
        let s = random_stream(2000, 4, 42);
        let cfg = RunConfig::with_threads(4).record_all().with_journal();
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let retries: usize = outs
            .iter()
            .filter_map(|w| w.journal.as_ref())
            .map(|j| j.count_marks(MARK_CAS_RETRY))
            .sum();
        assert_eq!(retries, 0);
    }

    #[test]
    fn breakdown_has_probe_time() {
        let r = random_stream(2000, 16, 5);
        let s = random_stream(2000, 16, 6);
        let cfg = RunConfig::with_threads(2);
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let total: u64 = outs.iter().map(|w| w.breakdown[Phase::Probe]).sum();
        assert!(total > 0, "probe phase must be timed");
        let merge: u64 = outs.iter().map(|w| w.breakdown[Phase::Merge]).sum();
        assert_eq!(merge, 0, "hash join has no merge phase");
    }
}
