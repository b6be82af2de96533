//! Multi-Pass Sort-Merge Join (MPass), after Balkesen et al.
//!
//! Identical to MWay up to the range split: every worker sorts its chunk
//! of R and of S, then lane 0 picks key-aligned splitters over all sorted
//! runs, giving each worker one key range and that range's segment of
//! every run. The difference is the shuffle: instead of one multi-way
//! merge, each worker merges its segments by *successive two-way merging*
//! — ⌈log₂ threads⌉ passes of pairwise merges, the first reading the
//! borrowed segments, all with the bitonic merge kernel
//! (`iawj_exec::sort::merge_into`; the branching merge under the scalar
//! backend). Each worker then merge-joins its R and S ranges.

use crate::clock::EventClock;
use crate::config::RunConfig;
use crate::lazy::mway::sort_merge_join;
use crate::output::WorkerOut;
use iawj_common::{Ts, Tuple};
use iawj_exec::merge::merge_passes;
use iawj_exec::Executor;

/// Run MPass on an existing executor (reused across runs / window closes).
pub fn run_on(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
    exec: &Executor,
) -> Vec<WorkerOut> {
    sort_merge_join(r, s, cfg, clock, arrive_by, exec, |segs| {
        merge_passes(segs, cfg.sort)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::nested_loop_join;
    use iawj_common::{Phase, Rng, Window};
    use iawj_exec::sort::SortBackend;
    use std::collections::HashSet;
    use std::sync::Mutex;

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

    fn run(r: &[Tuple], s: &[Tuple], cfg: &RunConfig) -> Vec<WorkerOut> {
        run_on(r, s, cfg, &EventClock::ungated(), 0, &cfg.make_executor())
    }

    #[test]
    fn matches_reference_pow2_threads() {
        let r = random_stream(900, 200, 1);
        let s = random_stream(1100, 200, 2);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::with_threads(threads).record_all();
            assert_eq!(
                canonical(&run(&r, &s, &cfg)),
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
            assert_eq!(
                canonical(&run(&r, &s, &cfg)),
                nested_loop_join(&r, &s, Window::of_len(64)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn non_pow2_threads_still_correct() {
        // The runner enforces the paper's power-of-two rule, but the merge
        // passes themselves must not corrupt data for odd counts.
        let r = random_stream(600, 50, 5);
        let s = random_stream(600, 50, 6);
        for threads in [3usize, 5] {
            let cfg = RunConfig::with_threads(threads).record_all();
            assert_eq!(
                canonical(&run(&r, &s, &cfg)),
                nested_loop_join(&r, &s, Window::of_len(64)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn high_duplication_correct() {
        let r = random_stream(1500, 4, 7);
        let s = random_stream(1500, 4, 8);
        let cfg = RunConfig::with_threads(4).record_all();
        let total: u64 = run(&r, &s, &cfg).iter().map(|w| w.sink.count()).sum();
        assert_eq!(
            total,
            nested_loop_join(&r, &s, Window::of_len(64)).len() as u64
        );
    }

    #[test]
    fn duplicate_heavy_groups_do_not_straddle_ranges() {
        // 8 hot keys across 4 workers: splitters must snap to key bounds.
        let r = random_stream(2000, 8, 3);
        let s = random_stream(2000, 8, 4);
        let cfg = RunConfig::with_threads(4).record_all();
        assert_eq!(
            canonical(&run(&r, &s, &cfg)),
            nested_loop_join(&r, &s, Window::of_len(64))
        );
    }

    #[test]
    fn every_worker_merges() {
        // Range-split first: each worker merges its own range's segments,
        // so no lane sits out the merge phase. Merge time alone cannot show
        // it — an idle lane still books ~1 µs of Merge between its phase
        // switches — so the merges are counted per thread as well.
        let r = random_stream(4000, 4000, 9);
        let s = random_stream(4000, 4000, 10);
        let cfg = RunConfig::with_threads(2);
        let merged = Mutex::new(Vec::new());
        let outs = sort_merge_join(
            &r,
            &s,
            &cfg,
            &EventClock::ungated(),
            0,
            &cfg.make_executor(),
            |segs| {
                let run = merge_passes(segs, cfg.sort);
                let me = std::thread::current().id();
                merged.lock().unwrap().push((me, run.len()));
                run
            },
        );
        let merged = merged.into_inner().unwrap();
        let lanes: HashSet<_> = merged.iter().map(|&(t, _)| t).collect();
        assert_eq!(lanes.len(), 2, "{merged:?}");
        assert!(merged.iter().all(|&(_, n)| n > 0), "{merged:?}");
        assert_eq!(merged.iter().map(|&(_, n)| n).sum::<usize>(), 8000);
        for (tid, w) in outs.iter().enumerate() {
            assert!(w.breakdown[Phase::Merge] > 0, "worker {tid} never merged");
        }
    }
}
