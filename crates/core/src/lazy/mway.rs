//! Multi-Way Sort-Merge Join (MWay), after Chhugani et al. / Balkesen et al.
//!
//! Each thread sorts an equisized chunk of R and of S (the AVX-sort stand-in
//! of `iawj_exec::sort`), then the sorted runs are *multi-way merged*: global
//! key-range splitters are sampled, and every thread merges its own output
//! range from all runs at once, ending with a single-pass merge join of its
//! R and S ranges.
//!
//! The merge is `iawj_exec::merge::merge_multiway` on the same two-way
//! vector kernel as MPass. With two runs per range (two threads) that is
//! one two-way merge straight into the range's output. With more, the
//! range is cut into cache-sized sub-ranges whose segments merge pairwise
//! inside L2, so each tuple is still written to memory once: that, not a
//! per-element k-way tournament, is what keeps MWay multi-way next to
//! MPass's ⌈log₂ k⌉ passes over memory.

use crate::clock::EventClock;
use crate::config::RunConfig;
use crate::lazy::{EmitClock, Slots};
use crate::output::WorkerOut;
use iawj_common::{Phase, Ts, Tuple};
use iawj_exec::merge::{choose_splitters, merge_multiway, splitter_bounds};
use iawj_exec::pool::{barrier, chunk_range};
use iawj_exec::sort::{pack_tuples, sort_packed};
use iawj_exec::Executor;

/// Mask keeping only the key half of a packed tuple: splitters are snapped
/// to key boundaries so an equal-key group never straddles two ranges.
pub(crate) const KEY_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// Snap sampled splitters to key boundaries and deduplicate.
pub(crate) fn key_aligned_splitters(raw: Vec<u64>) -> Vec<u64> {
    let mut s: Vec<u64> = raw.into_iter().map(|v| v & KEY_MASK).collect();
    s.dedup();
    s.retain(|&v| v != 0); // a zero splitter makes an empty first range
    s
}

/// The segment of `run` belonging to range `i` of `bounds`; the final range
/// extends to the run's end so no element is ever dropped.
pub(crate) fn segment<'a>(run: &'a [u64], bounds: &[(u64, u64)], i: usize) -> &'a [u64] {
    let (lo, hi) = bounds[i];
    let start = run.partition_point(|&v| v < lo);
    if i + 1 == bounds.len() {
        &run[start..]
    } else {
        let end = run.partition_point(|&v| v < hi);
        &run[start..end]
    }
}

/// Run MWay on an existing executor (reused across runs / window closes).
pub fn run_on(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
    exec: &Executor,
) -> Vec<WorkerOut> {
    sort_merge_join(r, s, cfg, clock, arrive_by, exec, |segs| {
        merge_multiway(segs, cfg.sort)
    })
}

/// The sort-merge join MWay and MPass share; they differ only in `merge`,
/// which turns one key range's segments of all sorted runs into one sorted
/// run. Every worker sorts its chunk of R and of S, lane 0 samples
/// key-aligned range splitters over all runs, then every worker merges its
/// own range's segments and merge-joins its R and S ranges.
pub(crate) fn sort_merge_join(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
    exec: &Executor,
    merge: impl Fn(&[&[u64]]) -> Vec<u64> + Sync,
) -> Vec<WorkerOut> {
    let threads = cfg.threads;
    let r_runs: Slots<Vec<u64>> = Slots::new(threads);
    let s_runs: Slots<Vec<u64>> = Slots::new(threads);
    let splitters: Slots<Vec<u64>> = Slots::new(1);
    let sorted = barrier(threads);
    let split_done = barrier(threads);

    exec.run(threads, |tid| {
        let mut out = WorkerOut::new(cfg.sample_every);
        let mut timer = cfg.timer_for(Phase::Wait, clock.epoch());
        clock.wait_until(arrive_by);

        // Sort local runs.
        timer.switch_to(Phase::BuildSort);
        let mut r_run = pack_tuples(&r[chunk_range(r.len(), threads, tid)]);
        sort_packed(&mut r_run, cfg.sort);
        r_runs.set(tid, r_run);
        let mut s_run = pack_tuples(&s[chunk_range(s.len(), threads, tid)]);
        sort_packed(&mut s_run, cfg.sort);
        s_runs.set(tid, s_run);
        timer.switch_to(Phase::Other);
        sorted.wait();
        timer.instant("barrier:runs_sorted");

        // Range splitters from a sample of all runs.
        timer.switch_to(Phase::Partition);
        if tid == 0 {
            let all: Vec<&[u64]> = (0..threads)
                .flat_map(|i| [r_runs.get(i).as_slice(), s_runs.get(i).as_slice()])
                .collect();
            splitters.set(0, key_aligned_splitters(choose_splitters(&all, threads)));
        }
        timer.switch_to(Phase::Other);
        split_done.wait();
        timer.instant("barrier:splitters_done");
        let bounds = splitter_bounds(splitters.get(0));

        if tid == 0 && cfg.mem_sample_every > 0 {
            // Sorted copies of both inputs (runs + merged output).
            out.mem_samples.push((
                clock.now_ms(),
                2 * (r.len() + s.len()) * std::mem::size_of::<u64>(),
            ));
        }

        // Merge output range `tid` from all runs; key alignment may have
        // merged it away.
        if tid < bounds.len() {
            let mut emit = EmitClock::new(clock);
            timer.switch_to(Phase::Merge);
            let r_segs: Vec<&[u64]> = (0..threads)
                .map(|i| segment(r_runs.get(i), &bounds, tid))
                .collect();
            let s_segs: Vec<&[u64]> = (0..threads)
                .map(|i| segment(s_runs.get(i), &bounds, tid))
                .collect();
            let r_sorted = merge(&r_segs);
            let s_sorted = merge(&s_segs);

            timer.switch_to(Phase::Probe);
            iawj_exec::mergejoin::merge_join(&r_sorted, &s_sorted, |k, rts, sts| {
                out.sink.push(k, rts, sts, emit.now());
            });
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
    use iawj_exec::sort::SortBackend;

    fn random_stream(n: usize, keys: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|i| Tuple::new(rng.next_u32() % keys, (i % 64) as u32))
            .collect()
    }

    fn canonical(outs: &[WorkerOut]) -> Vec<(u32, u32, u32)> {
        let mut got: Vec<_> = outs
            .iter()
            .flat_map(|w| w.sink.samples().iter().map(|m| (m.key, m.r_ts, m.s_ts)))
            .collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn matches_reference() {
        let r = random_stream(1000, 300, 1);
        let s = random_stream(1200, 300, 2);
        for threads in [1usize, 2, 3, 4, 8] {
            let cfg = RunConfig::with_threads(threads).record_all();
            let clock = EventClock::ungated();
            let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
            assert_eq!(
                canonical(&outs),
                nested_loop_join(&r, &s, Window::of_len(64)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scalar_backend_matches_too() {
        let r = random_stream(500, 64, 3);
        let s = random_stream(500, 64, 4);
        for threads in [1usize, 2, 3, 4, 8] {
            let cfg = RunConfig::with_threads(threads)
                .record_all()
                .sort(SortBackend::Scalar);
            let outs = run_on(
                &r,
                &s,
                &cfg,
                &EventClock::ungated(),
                0,
                &cfg.make_executor(),
            );
            assert_eq!(
                canonical(&outs),
                nested_loop_join(&r, &s, Window::of_len(64)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn duplicate_heavy_groups_do_not_straddle_ranges() {
        // 8 hot keys across 4 workers: splitters must snap to key bounds.
        let r = random_stream(2000, 8, 3);
        let s = random_stream(2000, 8, 4);
        let cfg = RunConfig::with_threads(4).record_all();
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(64))
        );
    }

    #[test]
    fn single_thread() {
        let r = random_stream(500, 100, 5);
        let s = random_stream(400, 100, 6);
        let cfg = RunConfig::with_threads(1).record_all();
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(64))
        );
    }

    #[test]
    fn merge_phase_is_timed() {
        let r = random_stream(4000, 4000, 7);
        let s = random_stream(4000, 4000, 8);
        let cfg = RunConfig::with_threads(2);
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let merge: u64 = outs.iter().map(|w| w.breakdown[Phase::Merge]).sum();
        let sort: u64 = outs.iter().map(|w| w.breakdown[Phase::BuildSort]).sum();
        assert!(merge > 0);
        assert!(sort > 0);
    }

    #[test]
    fn splitter_alignment_drops_zero_and_dups() {
        let s = key_aligned_splitters(vec![(1u64 << 32) | 5, (1u64 << 32) | 9, 2u64 << 32, 7]);
        assert_eq!(s, vec![1u64 << 32, 2u64 << 32]);
    }
}
