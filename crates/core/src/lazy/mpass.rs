//! Multi-Pass Sort-Merge Join (MPass), after Balkesen et al.
//!
//! Identical to MWay up to the per-thread sorted runs; the difference is the
//! shuffle: instead of one multi-way merge, runs are merged by *successive
//! two-way merging* — log₂(runs) parallel passes of pairwise merges (the
//! AVX build uses bitonic merge networks; our stand-in is the branchless
//! two-way merge). The final join phase is the same range-partitioned
//! single-pass merge join.

use crate::clock::EventClock;
use crate::config::RunConfig;
use crate::lazy::mway::{key_aligned_splitters, segment, STEAL_OVERSPLIT};
use crate::lazy::{EmitClock, Scan, Slots};
use crate::output::WorkerOut;
use iawj_common::{Phase, Ts, Tuple};
use iawj_exec::merge::{
    choose_splitters, merge_two_into, merge_two_into_branchless, splitter_bounds,
};
use iawj_exec::pool::{barrier, chunk_range};
use iawj_exec::sort::{pack_tuples, sort_packed, SortBackend};
use iawj_exec::{Executor, Latch};

/// Run MPass on an existing executor (reused across runs / window closes).
pub fn run_on(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
    exec: &Executor,
) -> Vec<WorkerOut> {
    let threads = cfg.threads;
    let parts = if cfg.sched.stealing() {
        threads * STEAL_OVERSPLIT
    } else {
        threads
    };
    let ranges = Scan::items(&cfg.sched, parts, threads);
    // Mutable run storage for the merge passes: slot i holds the run that
    // started as thread i's sorted chunk and absorbs its merge partners.
    let r_store: Vec<Latch<Option<Vec<u64>>>> = (0..threads).map(|_| Latch::new(None)).collect();
    let s_store: Vec<Latch<Option<Vec<u64>>>> = (0..threads).map(|_| Latch::new(None)).collect();
    let merged: Slots<(Vec<u64>, Vec<u64>)> = Slots::new(1);
    let splitters: Slots<Vec<u64>> = Slots::new(1);
    let sorted = barrier(threads);
    let pass_done = barrier(threads);
    let publish_done = barrier(threads);
    let split_done = barrier(threads);

    exec.run(threads, |tid| {
        let mut out = WorkerOut::new(cfg.sample_every);
        let mut timer = cfg.timer_for(Phase::Wait, clock.epoch());
        clock.wait_until(arrive_by);

        // Sort local runs.
        timer.switch_to(Phase::BuildSort);
        let mut r_run = pack_tuples(&r[chunk_range(r.len(), threads, tid)]);
        sort_packed(&mut r_run, cfg.sort);
        *r_store[tid].lock() = Some(r_run);
        let mut s_run = pack_tuples(&s[chunk_range(s.len(), threads, tid)]);
        sort_packed(&mut s_run, cfg.sort);
        *s_store[tid].lock() = Some(s_run);
        timer.switch_to(Phase::Other);
        sorted.wait();
        timer.instant("barrier:runs_sorted");

        // Successive two-way merge passes. In pass of width w, run i merges
        // run i+w for every i divisible by 2w; pair p is handled by worker
        // p mod threads.
        timer.switch_to(Phase::Merge);
        let mut width = 1usize;
        while width < threads {
            let mut pair_idx = 0usize;
            let mut i = 0usize;
            while i + width < threads {
                if pair_idx % threads == tid {
                    for store in [&r_store, &s_store] {
                        let a = store[i].lock().take().expect("left run present");
                        let b = store[i + width].lock().take().expect("right run present");
                        let mut m = Vec::new();
                        match cfg.sort {
                            SortBackend::Vectorized => merge_two_into_branchless(&a, &b, &mut m),
                            SortBackend::Scalar => merge_two_into(&a, &b, &mut m),
                        }
                        *store[i].lock() = Some(m);
                    }
                }
                pair_idx += 1;
                i += 2 * width;
            }
            timer.switch_to(Phase::Other);
            pass_done.wait();
            timer.instant("merge:pass_done");
            timer.switch_to(Phase::Merge);
            width *= 2;
        }
        if tid == 0 {
            let r_all = r_store[0].lock().take().expect("merged R");
            let s_all = s_store[0].lock().take().expect("merged S");
            merged.set(0, (r_all, s_all));
        }
        timer.switch_to(Phase::Other);
        publish_done.wait();
        let (r_all, s_all) = merged.get(0);

        if tid == 0 && cfg.mem_sample_every > 0 {
            out.mem_samples.push((
                clock.now_ms(),
                2 * (r.len() + s.len()) * std::mem::size_of::<u64>(),
            ));
        }

        // Range-partitioned merge join over the globally sorted inputs.
        timer.switch_to(Phase::Partition);
        if tid == 0 {
            splitters.set(
                0,
                key_aligned_splitters(choose_splitters(
                    &[r_all.as_slice(), s_all.as_slice()],
                    parts,
                )),
            );
        }
        timer.switch_to(Phase::Other);
        split_done.wait();
        timer.instant("barrier:splitters_done");
        let bounds = splitter_bounds(splitters.get(0));
        let mut emit = EmitClock::new(clock);
        ranges.run(tid, &mut timer, |claimed, timer| {
            for i in claimed {
                if i >= bounds.len() {
                    continue; // key alignment merged this range away
                }
                timer.switch_to(Phase::Probe);
                iawj_exec::mergejoin::merge_join(
                    segment(r_all, &bounds, i),
                    segment(s_all, &bounds, i),
                    |k, rts, sts| out.sink.push(k, rts, sts, emit.now()),
                );
            }
        });
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

    fn canonical(outs: &[WorkerOut]) -> Vec<(u32, u32, u32)> {
        let mut got: Vec<_> = outs
            .iter()
            .flat_map(|w| w.sink.samples().iter().map(|m| (m.key, m.r_ts, m.s_ts)))
            .collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn matches_reference_pow2_threads() {
        let r = random_stream(900, 200, 1);
        let s = random_stream(1100, 200, 2);
        for threads in [1usize, 2, 4, 8] {
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
        let cfg = RunConfig::with_threads(4)
            .record_all()
            .sort(SortBackend::Scalar);
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(64))
        );
    }

    #[test]
    fn non_pow2_threads_still_correct() {
        // The runner enforces the paper's power-of-two rule, but the merge
        // loop itself must not corrupt data for odd counts.
        let r = random_stream(600, 50, 5);
        let s = random_stream(600, 50, 6);
        let cfg = RunConfig::with_threads(3).record_all();
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(64))
        );
    }

    #[test]
    fn steal_scheduler_matches_reference() {
        use iawj_exec::Scheduler;
        let r = random_stream(1200, 150, 9);
        let s = random_stream(1000, 150, 10);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        for threads in [1usize, 2, 4] {
            let cfg = RunConfig::with_threads(threads)
                .record_all()
                .scheduler(Scheduler::Steal);
            let clock = EventClock::ungated();
            let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
            assert_eq!(canonical(&outs), expect, "threads={threads}");
        }
    }

    #[test]
    fn high_duplication_correct() {
        let r = random_stream(1500, 4, 7);
        let s = random_stream(1500, 4, 8);
        let cfg = RunConfig::with_threads(4).record_all();
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let total: u64 = outs.iter().map(|w| w.sink.count()).sum();
        assert_eq!(
            total,
            nested_loop_join(&r, &s, Window::of_len(64)).len() as u64
        );
    }
}
