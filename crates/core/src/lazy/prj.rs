//! Parallel Radix Join (PRJ), after Kim et al. / Balkesen et al.
//!
//! Both inputs are radix-partitioned on the low `#r` key bits so each
//! R-partition fits in cache; partitions then get joined independently with
//! a cache-resident build+probe, pulled from a shared work queue. The first
//! pass is a cooperative parallel partition (per-thread histograms → prefix
//! sums → contention-free scatter) on at most
//! [`MAX_BITS_PER_PASS`](iawj_exec::radix::MAX_BITS_PER_PASS) bits; when `#r`
//! is wider, a second, thread-local refinement pass runs inside the work
//! queue, exactly like the original's two-pass scheme.

use crate::clock::EventClock;
use crate::config::RunConfig;
use crate::lazy::{claim_mark, EmitClock};
use crate::output::WorkerOut;
use iawj_common::{Phase, Ts, Tuple};
use iawj_exec::morsel::{for_each_morsel, MorselQueue};
use iawj_exec::pool::barrier;
use iawj_exec::radix::{partition_seq, pass_bits, PartitionPass, PassKnobs, SlotLayout};
use iawj_exec::{Executor, LocalTable, PhaseTimer};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run PRJ on an existing executor (reused across runs / window closes).
pub fn run_on(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
    exec: &Executor,
) -> Vec<WorkerOut> {
    let threads = cfg.threads;
    let (bits1, bits2) = pass_bits(cfg.prj.radix_bits);

    let stealing = cfg.sched.stealing();
    let knobs = PassKnobs {
        // Steal mode partitions over a fixed morsel grid instead of one
        // chunk per thread, so any worker can claim any cell.
        layout: if stealing {
            SlotLayout::Grid(cfg.sched.morsel_size)
        } else {
            SlotLayout::PerThread
        },
        // With pinned workers the partition arenas use first-touch
        // allocation: each scattering worker faults the slots it scatters
        // onto its own NUMA node.
        first_touch: exec.pinned(),
    };
    let r_pass = PartitionPass::new(r, 0, bits1, threads, knobs);
    let s_pass = PartitionPass::new(s, 0, bits1, threads, knobs);
    let hist_done = barrier(threads);
    let plan_done = barrier(threads);
    let scatter_done = barrier(threads);
    let next_partition = AtomicUsize::new(0);
    let fanout1 = 1usize << bits1;
    let join_q = MorselQueue::new(fanout1, threads, 1);

    exec.run(threads, |tid| {
        let mut out = WorkerOut::new(cfg.sample_every);
        let mut timer = cfg.timer_for(Phase::Wait, clock.epoch());
        clock.wait_until(arrive_by);

        // --- Pass 1: cooperative parallel partition of R and S ---
        timer.switch_to(Phase::Partition);
        r_pass.histogram_step(tid, claim_mark(&mut timer));
        s_pass.histogram_step(tid, claim_mark(&mut timer));
        hist_done.wait();
        timer.instant("barrier:histograms_done");
        if tid == 0 {
            r_pass.plan();
            s_pass.plan();
        }
        plan_done.wait();
        // SAFETY: `Executor::run` hands each tid to exactly one lane, and
        // the partitioned data is read only after the `scatter_done`
        // barrier below.
        unsafe {
            r_pass.scatter_step(tid, claim_mark(&mut timer));
            s_pass.scatter_step(tid, claim_mark(&mut timer));
        }
        timer.switch_to(Phase::Other);
        scatter_done.wait();
        timer.instant("barrier:scatter_done");
        // SAFETY: the barrier orders all scatter writes before these reads.
        let (r_part, s_part) = unsafe { (r_pass.data(), s_pass.data()) };
        let (r_bounds, s_bounds) = (r_pass.bounds(), s_pass.bounds());

        if tid == 0 && cfg.mem_sample_every > 0 {
            // Partitioned copies of both inputs are PRJ's footprint.
            out.mem_samples.push((
                clock.now_ms(),
                (r.len() + s.len()) * std::mem::size_of::<Tuple>(),
            ));
        }

        // --- Per-partition cache-resident joins from a shared queue ---
        let mut emit = EmitClock::new(clock);
        let do_partition =
            |p: usize, timer: &mut PhaseTimer, emit: &mut EmitClock, out: &mut WorkerOut| {
                let rp = &r_part[r_bounds[p]..r_bounds[p + 1]];
                let sp = &s_part[s_bounds[p]..s_bounds[p + 1]];
                if rp.is_empty() || sp.is_empty() {
                    return;
                }
                if bits2 > 0 {
                    // --- Pass 2: thread-local refinement ---
                    timer.switch_to(Phase::Partition);
                    let rr = partition_seq(rp, bits1, bits2);
                    let ss = partition_seq(sp, bits1, bits2);
                    for q in 0..rr.fanout() {
                        join_partition(rr.partition(q), ss.partition(q), timer, emit, out);
                    }
                } else {
                    join_partition(rp, sp, timer, emit, out);
                }
            };
        if stealing {
            // Per-worker deques of partition ids with steal-half: a worker
            // stuck on a heavy Zipf partition sheds the rest of its deque.
            for_each_morsel(&join_q, tid, |range, stolen| {
                claim_mark(&mut timer)(stolen);
                for p in range {
                    do_partition(p, &mut timer, &mut emit, &mut out);
                }
            });
        } else {
            loop {
                let p = next_partition.fetch_add(1, Ordering::Relaxed);
                if p >= fanout1 {
                    break;
                }
                do_partition(p, &mut timer, &mut emit, &mut out);
            }
        }
        out.set_timing(timer.finish_parts());
        out
    })
}

/// Cache-resident hash join of one partition pair: build a private table
/// over the R side, probe with the S side, one tuple at a time. The
/// partition is cache-resident already, so the batched hash + prefetch
/// pipeline only added work: at 4M × 4M it built in 24.6 vs 10.3 ms and
/// probed in 255.9 vs 255.2 ms (DESIGN.md §5).
fn join_partition(
    rp: &[Tuple],
    sp: &[Tuple],
    timer: &mut PhaseTimer,
    emit: &mut EmitClock<'_>,
    out: &mut WorkerOut,
) {
    if rp.is_empty() || sp.is_empty() {
        return;
    }
    timer.switch_to(Phase::BuildSort);
    let mut table = LocalTable::with_capacity(rp.len());
    for t in rp {
        table.insert(t.key, t.ts);
    }
    timer.switch_to(Phase::Probe);
    for t in sp {
        let now = emit.now();
        table.probe(t.key, |r_ts| out.sink.push(t.key, r_ts, t.ts, now));
    }
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
    fn matches_reference_single_pass() {
        let r = random_stream(800, 256, 1);
        let s = random_stream(600, 256, 2);
        let mut cfg = RunConfig::with_threads(4).record_all();
        cfg.prj.radix_bits = 6; // single pass
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(64))
        );
    }

    #[test]
    fn matches_reference_two_pass() {
        let r = random_stream(3000, 1 << 12, 3);
        let s = random_stream(3000, 1 << 12, 4);
        let mut cfg = RunConfig::with_threads(3).record_all();
        cfg.prj.radix_bits = 10; // an 8-bit pass, then a 2-bit refinement
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(64))
        );
    }

    #[test]
    fn skewed_keys_still_correct() {
        // Everything in one partition: exercises the empty-partition skips.
        let r: Vec<Tuple> = (0..200).map(|i| Tuple::new(1024, i % 64)).collect();
        let s: Vec<Tuple> = (0..100).map(|i| Tuple::new(1024, i % 64)).collect();
        let cfg = RunConfig::with_threads(4).record_all();
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let total: u64 = outs.iter().map(|w| w.sink.count()).sum();
        assert_eq!(total, 200 * 100);
    }

    /// Both pass shapes produce the identical match set under both
    /// schedulers.
    #[test]
    fn scatter_modes_agree_across_schedulers() {
        use iawj_exec::Scheduler;
        let r = random_stream(2500, 1 << 10, 31);
        let s = random_stream(2500, 1 << 10, 32);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        for sched in Scheduler::ALL {
            for bits in [6u32, 10] {
                let mut cfg = RunConfig::with_threads(4)
                    .record_all()
                    .scheduler(sched)
                    .morsel_size(128);
                cfg.prj.radix_bits = bits;
                let clock = EventClock::ungated();
                let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
                assert_eq!(canonical(&outs), expect, "scheduler={sched} bits={bits}");
            }
        }
    }

    #[test]
    fn steal_scheduler_matches_reference_both_pass_shapes() {
        use iawj_exec::Scheduler;
        let r = random_stream(2500, 1 << 10, 21);
        let s = random_stream(2500, 1 << 10, 22);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        for bits in [6, 10] {
            let mut cfg = RunConfig::with_threads(4)
                .record_all()
                .scheduler(Scheduler::Steal)
                .morsel_size(128);
            cfg.prj.radix_bits = bits;
            let clock = EventClock::ungated();
            let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
            assert_eq!(canonical(&outs), expect, "bits={bits}");
        }
    }

    #[test]
    fn steal_scheduler_journals_grid_claims() {
        use iawj_exec::morsel::{MARK_CLAIM, MARK_STEAL};
        use iawj_exec::Scheduler;
        let r = random_stream(1000, 128, 23);
        let s = random_stream(1000, 128, 24);
        let mut cfg = RunConfig::with_threads(4)
            .record_all()
            .scheduler(Scheduler::Steal)
            .morsel_size(100)
            .with_journal();
        cfg.prj.radix_bits = 6;
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let marks: usize = outs
            .iter()
            .filter_map(|w| w.journal.as_ref())
            .map(|j| j.count_marks(MARK_CLAIM) + j.count_marks(MARK_STEAL))
            .sum();
        // 10 histogram cells + 10 scatter cells per side, plus 64 join
        // partitions: every unit of claimable work shows up in the journal.
        assert_eq!(marks, 10 + 10 + 10 + 10 + 64);
    }

    /// PRJ is one parallel section: partition pass, barriers and joins all
    /// run inside a single `Executor::run` dispatch, whatever the knobs.
    #[test]
    fn whole_join_is_one_executor_dispatch() {
        use iawj_exec::Scheduler;
        let r = random_stream(3000, 1 << 10, 81);
        let s = random_stream(3000, 1 << 10, 82);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        for sched in Scheduler::ALL {
            let mut cfg = RunConfig::with_threads(4)
                .record_all()
                .scheduler(sched)
                .morsel_size(128);
            cfg.prj.radix_bits = 10;
            let exec = cfg.make_executor();
            let clock = EventClock::ungated();
            let outs = run_on(&r, &s, &cfg, &clock, 0, &exec);
            assert_eq!(canonical(&outs), expect, "scheduler={sched}");
            assert_eq!(exec.generations(), 1, "scheduler={sched}");
        }
    }

    #[test]
    fn partition_phase_is_timed() {
        let r = random_stream(5000, 512, 5);
        let s = random_stream(5000, 512, 6);
        let cfg = RunConfig::with_threads(2);
        let clock = EventClock::ungated();
        let outs = run_on(&r, &s, &cfg, &clock, 0, &cfg.make_executor());
        let part: u64 = outs.iter().map(|w| w.breakdown[Phase::Partition]).sum();
        assert!(part > 0);
    }
}
