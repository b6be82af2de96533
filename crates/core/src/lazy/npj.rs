//! No-Partitioning hash Join (NPJ), after Blanas et al.
//!
//! All threads cooperatively build one shared hash table over R (equisized
//! input chunks, per-bucket latches), synchronise on a barrier, then
//! concurrently probe it with their chunks of S. The shared table is the
//! point: no partitioning cost, but bucket contention and a table that can
//! exceed the last-level cache (§5.3.2, §5.6). Contention is journaled per
//! event as `latch:wait` spin episodes.

use crate::clock::EventClock;
use crate::config::RunConfig;
use crate::lazy::EmitClock;
use crate::output::WorkerOut;
use iawj_common::kernel::tuple_buckets_into;
use iawj_common::{KernelBackend, Phase, Ts, Tuple, DEFAULT_PREFETCH_DIST};
use iawj_exec::pool::{barrier, chunk_range};
use iawj_exec::{Executor, SharedTable};
use iawj_obs::MARK_LATCH_WAIT;

/// Tuples per batched-pipeline block: large enough to amortise the 8-wide
/// hash kernel, small enough that the derived bucket indices stay in L1.
const PIPELINE_BLOCK: usize = 1024;

/// Bucket derivation for build and probe: the 8-wide hash. With bucket-head
/// prefetch it probes 4M × 4M in 526.1 ms against 912.6 ms for per-tuple
/// hash-then-access (DESIGN.md §5).
const KERNEL: KernelBackend = KernelBackend::Simd;

/// Walk one contiguous range as `f(bucket, tuple)`, for build and probe
/// alike: per block, derive every bucket index up front with the batched
/// hash, then walk the block issuing a bucket-head prefetch
/// [`DEFAULT_PREFETCH_DIST`] tuples ahead of each access so chain heads are
/// (likely) cache-resident by the time they are touched.
#[inline]
fn for_each_bucket(
    table: &SharedTable,
    tuples: &[Tuple],
    buckets: &mut Vec<usize>,
    mut f: impl FnMut(usize, &Tuple),
) {
    for block in tuples.chunks(PIPELINE_BLOCK) {
        tuple_buckets_into(KERNEL, block, table.mask(), buckets);
        for (i, t) in block.iter().enumerate() {
            if let Some(&ahead) = buckets.get(i + DEFAULT_PREFETCH_DIST) {
                table.prefetch_bucket(ahead);
            }
            f(buckets[i], t);
        }
    }
}

/// Run NPJ on an existing executor (reused across runs / window closes).
/// The table starts life as untouched zero pages, so each worker faults
/// its share in simply by building. `arrive_by` is the arrival timestamp
/// of the window's last tuple; the lazy approach waits for it before
/// starting.
pub fn run_on(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
    exec: &Executor,
) -> Vec<WorkerOut> {
    let table = SharedTable::with_capacity(r.len());
    let threads = cfg.threads;
    let build_done = barrier(threads);
    exec.run(threads, |tid| {
        let mut out = WorkerOut::new(cfg.sample_every);
        let mut timer = cfg.timer_for(Phase::Wait, clock.epoch());
        clock.wait_until(arrive_by);

        // Per-worker scratch for the batched pipelines, reused by build
        // and probe so each worker allocates once.
        let mut buckets: Vec<usize> = Vec::new();
        timer.switch_to(Phase::BuildSort);
        // Contention events accumulate in a counter and flush to the
        // journal when the phase ends (their count is exact; only their
        // timestamps cluster).
        let mut events = 0u32;
        let build = &r[chunk_range(r.len(), threads, tid)];
        for_each_bucket(&table, build, &mut buckets, |b, t| {
            events += table.insert_at(b, t.key, t.ts);
        });
        for _ in 0..events {
            timer.instant(MARK_LATCH_WAIT);
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
        let probe = &s[chunk_range(s.len(), threads, tid)];
        for_each_bucket(&table, probe, &mut buckets, |b, t| {
            let now = emit.now();
            events += table.probe_at(b, t.key, |r_ts| out.sink.push(t.key, r_ts, t.ts, now));
        });
        for _ in 0..events {
            timer.instant(MARK_LATCH_WAIT);
        }
        out.set_timing(timer.finish_parts());
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::nested_loop_join;
    use iawj_common::{Rng, Window};

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
            .flat_map(|w| w.sink.samples().iter().map(|m| (m.key, m.r_ts, m.s_ts)))
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
