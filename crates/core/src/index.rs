//! Engines 9+ — the index-based window join family the paper excludes.
//!
//! [`IbwjEngine`] (IBWJ) maintains an evictable hash index
//! ([`iawj_exec::WindowIndex`]) over resident window content per worker and
//! probes it per arrival, reusing the batched bucket-derivation +
//! software-prefetch probe pipeline of the lazy engines. Work is split by
//! *key ownership*: every worker observes the full streams (JM-style
//! pointer passing) and processes only the keys whose hash it owns, so of
//! any matching pair both tuples are handled by one worker, sequentially —
//! the SHJ insert-then-probe argument then gives exactly-once emission.
//!
//! [`run_part_on`] (IBWJ_PART) is the PanJoin-style partitioned adaptive
//! variant: window content is sharded into `P` partitions (each a pair of
//! sub-indexes), stream time is sliced into epochs, and partition→worker
//! ownership is recomputed between epochs from the *observed* cumulative
//! per-partition histogram — a cheap greedy LPT rebalance that fires only
//! when the heaviest worker's share exceeds the ideal share by
//! `IndexConfig::repart_factor`. The histogram and therefore every
//! assignment is a pure function of tuple timestamps, so the match set is
//! deterministic across executors and thread interleavings.
//!
//! Memory ordering: sub-indexes live in `Mutex`es and epochs are separated
//! by a [`std::sync::Barrier`], so an epoch's inserts happen-before the
//! next epoch's probes even when ownership migrates between workers; the
//! single-worker IBWJ needs no synchronisation at all because each index
//! is worker-private (see `window_index`'s module docs for the
//! single-writer/multi-reader contract the streaming service uses).

use crate::clock::EventClock;
use crate::config::RunConfig;
use crate::eager::Engine;
use crate::lazy::EmitClock;
use crate::output::WorkerOut;
use iawj_common::hash::hash_key;
use iawj_common::kernel::tuple_buckets_into;
use iawj_common::{KernelBackend, Phase, Ts, Tuple, DEFAULT_PREFETCH_DIST};
use iawj_exec::{Executor, PhaseTimer, WindowIndex};
use iawj_obs::{MARK_INDEX_INSERT, MARK_INDEX_REPART};
use std::sync::{Barrier, Mutex};

/// Ownership hash: taken from the high half of the key hash so it stays
/// independent of the bucket index (`bucket_of` masks the low bits — using
/// the same bits for both would cluster a partition's keys into every
/// P-th bucket of its sub-index).
#[inline]
fn owner_hash(key: u32) -> usize {
    (hash_key(key) >> 32) as usize
}

/// Bucket derivation for the window-index pipelines (IBWJ here, the
/// persistent index in `streaming`): the 8-wide hash. Against per-tuple
/// hashing IBWJ measured within spread at 4M × 4M — insert 218.6 vs 202.7
/// ms, probe 2164.3 vs 2123.0 ms, quartiles overlapping (DESIGN.md §5) —
/// so the batched path stays.
pub(crate) const INDEX_KERNEL: KernelBackend = KernelBackend::Simd;

/// Per-worker IBWJ state: one evictable index per side plus the batched
/// pipeline's scratch buffers.
pub struct IbwjEngine {
    r_index: WindowIndex,
    s_index: WindowIndex,
    tid: usize,
    workers: usize,
    owned: Vec<Tuple>,
    buckets: Vec<usize>,
}

impl IbwjEngine {
    /// Engine for worker `tid` of `workers`, with per-side indexes sized
    /// for this worker's expected share of the streams.
    pub fn new(expected_r: usize, expected_s: usize, tid: usize, workers: usize) -> Self {
        IbwjEngine {
            r_index: WindowIndex::with_capacity(expected_r.max(16)),
            s_index: WindowIndex::with_capacity(expected_s.max(16)),
            tid,
            workers: workers.max(1),
            owned: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// Keep only the tuples this worker owns.
    fn filter_owned(&mut self, batch: &[Tuple]) {
        self.owned.clear();
        for t in batch {
            if owner_hash(t.key) % self.workers == self.tid {
                self.owned.push(*t);
            }
        }
    }

    /// Batched insert of `self.owned` into one side's index.
    fn insert_owned(index: &mut WindowIndex, owned: &[Tuple], buckets: &mut Vec<usize>) {
        tuple_buckets_into(INDEX_KERNEL, owned, index.mask(), buckets);
        for (i, t) in owned.iter().enumerate() {
            if let Some(&ahead) = buckets.get(i + DEFAULT_PREFETCH_DIST) {
                index.prefetch_bucket(ahead);
            }
            index.insert_at(buckets[i], t.key, t.ts);
        }
    }
}

impl Engine for IbwjEngine {
    fn on_r(
        &mut self,
        batch: &[Tuple],
        timer: &mut PhaseTimer,
        emit: &mut EmitClock<'_>,
        out: &mut WorkerOut,
    ) {
        self.filter_owned(batch);
        if self.owned.is_empty() {
            return;
        }
        timer.switch_to(Phase::BuildSort);
        Self::insert_owned(&mut self.r_index, &self.owned, &mut self.buckets);
        timer.instant(MARK_INDEX_INSERT);
        timer.switch_to(Phase::Probe);
        tuple_buckets_into(
            INDEX_KERNEL,
            &self.owned,
            self.s_index.mask(),
            &mut self.buckets,
        );
        for (i, t) in self.owned.iter().enumerate() {
            if let Some(&ahead) = self.buckets.get(i + DEFAULT_PREFETCH_DIST) {
                self.s_index.prefetch_bucket(ahead);
            }
            let now = emit.now();
            self.s_index.probe_at(self.buckets[i], t.key, |s_ts| {
                out.sink.push(t.key, t.ts, s_ts, now)
            });
        }
    }

    fn on_s(
        &mut self,
        batch: &[Tuple],
        timer: &mut PhaseTimer,
        emit: &mut EmitClock<'_>,
        out: &mut WorkerOut,
    ) {
        self.filter_owned(batch);
        if self.owned.is_empty() {
            return;
        }
        timer.switch_to(Phase::BuildSort);
        Self::insert_owned(&mut self.s_index, &self.owned, &mut self.buckets);
        timer.instant(MARK_INDEX_INSERT);
        timer.switch_to(Phase::Probe);
        tuple_buckets_into(
            INDEX_KERNEL,
            &self.owned,
            self.r_index.mask(),
            &mut self.buckets,
        );
        for (i, t) in self.owned.iter().enumerate() {
            if let Some(&ahead) = self.buckets.get(i + DEFAULT_PREFETCH_DIST) {
                self.r_index.prefetch_bucket(ahead);
            }
            let now = emit.now();
            self.r_index.probe_at(self.buckets[i], t.key, |r_ts| {
                out.sink.push(t.key, r_ts, t.ts, now)
            });
        }
    }

    fn finish(&mut self, _timer: &mut PhaseTimer, _emit: &mut EmitClock<'_>, _out: &mut WorkerOut) {
        // Fully incremental: nothing is deferred.
    }

    fn state_bytes(&self) -> usize {
        self.r_index.bytes()
            + self.s_index.bytes()
            + self.owned.capacity() * std::mem::size_of::<Tuple>()
            + self.buckets.capacity() * std::mem::size_of::<usize>()
    }
}

/// One partition of the IBWJ_PART state: a pair of evictable sub-indexes.
struct PartState {
    r: WindowIndex,
    s: WindowIndex,
}

/// The per-epoch schedule of IBWJ_PART: all of it derived deterministically
/// from tuple timestamps before any worker starts.
struct EpochPlan {
    /// Newest stream-ts this epoch may contain; workers gate on it.
    wait_ts: Ts,
    /// partition → worker ownership for this epoch.
    assignment: Vec<usize>,
    /// The histogram trigger fired and ownership was recomputed.
    repart: bool,
}

#[inline]
pub(crate) fn part_of(key: u32, partitions: usize) -> usize {
    owner_hash(key) % partitions
}

#[inline]
fn epoch_of(ts: Ts, span: u64, epochs: usize) -> usize {
    ((ts as u64 * epochs as u64 / span) as usize).min(epochs - 1)
}

/// Build the deterministic epoch schedule: per-epoch per-partition
/// histograms from the full streams, then greedy LPT ownership recomputed
/// wherever the observed (cumulative, strictly-past) load of the heaviest
/// worker exceeds the ideal share by `repart_factor`.
fn build_plan(
    r: &[Tuple],
    s: &[Tuple],
    span: u64,
    epochs: usize,
    partitions: usize,
    workers: usize,
    repart_factor: f64,
) -> Vec<EpochPlan> {
    let mut counts = vec![vec![0u64; partitions]; epochs];
    for t in r.iter().chain(s.iter()) {
        counts[epoch_of(t.ts, span, epochs)][part_of(t.key, partitions)] += 1;
    }

    let mut plans: Vec<EpochPlan> = Vec::with_capacity(epochs);
    let mut cumulative = vec![0u64; partitions];
    for k in 0..epochs {
        let wait_ts = if k == epochs - 1 {
            (span - 1) as Ts
        } else {
            (((k as u64 + 1) * span).div_ceil(epochs as u64) - 1) as Ts
        };
        let (assignment, repart) = if k == 0 {
            // Nothing observed yet: round-robin.
            (
                (0..partitions).map(|p| p % workers).collect::<Vec<_>>(),
                false,
            )
        } else {
            let prev = &plans[k - 1].assignment;
            let mut load = vec![0u64; workers];
            for p in 0..partitions {
                load[prev[p]] += cumulative[p];
            }
            let total: u64 = load.iter().sum();
            let ideal = total as f64 / workers as f64;
            let max = *load.iter().max().unwrap_or(&0);
            if total > 0 && max as f64 > ideal * repart_factor {
                // Greedy LPT over the observed cumulative histogram:
                // heaviest partition first, to the least-loaded worker.
                let mut order: Vec<usize> = (0..partitions).collect();
                order.sort_by_key(|&p| (std::cmp::Reverse(cumulative[p]), p));
                let mut new_load = vec![0u64; workers];
                let mut next = prev.clone();
                for p in order {
                    let w = (0..workers).min_by_key(|&w| (new_load[w], w)).unwrap();
                    next[p] = w;
                    new_load[w] += cumulative[p];
                }
                let changed = next != *prev;
                (next, changed)
            } else {
                (prev.clone(), false)
            }
        };
        for p in 0..partitions {
            cumulative[p] += counts[k][p];
        }
        plans.push(EpochPlan {
            wait_ts,
            assignment,
            repart,
        });
    }
    plans
}

/// Join one epoch's arrivals of one partition against its sub-indexes:
/// insert the R batch then probe S with it, insert the S batch then probe
/// R with it — the SHJ order that makes each cross-epoch and intra-epoch
/// pair match exactly once.
fn join_partition(
    st: &mut PartState,
    r_batch: &[Tuple],
    s_batch: &[Tuple],
    timer: &mut PhaseTimer,
    emit: &mut EmitClock<'_>,
    out: &mut WorkerOut,
) {
    if !r_batch.is_empty() {
        timer.switch_to(Phase::BuildSort);
        for t in r_batch {
            st.r.insert(t.key, t.ts);
        }
        timer.instant(MARK_INDEX_INSERT);
        timer.switch_to(Phase::Probe);
        for t in r_batch {
            let now = emit.now();
            st.s.probe(t.key, |s_ts| out.sink.push(t.key, t.ts, s_ts, now));
        }
    }
    if !s_batch.is_empty() {
        timer.switch_to(Phase::BuildSort);
        for t in s_batch {
            st.s.insert(t.key, t.ts);
        }
        timer.instant(MARK_INDEX_INSERT);
        timer.switch_to(Phase::Probe);
        for t in s_batch {
            let now = emit.now();
            st.r.probe(t.key, |r_ts| out.sink.push(t.key, r_ts, t.ts, now));
        }
    }
}

/// Run the partitioned adaptive index engine (IBWJ_PART) over the full
/// streams. See the module docs for the epoch/barrier design and the
/// determinism and exactly-once arguments.
pub fn run_part_on(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
    exec: &Executor,
) -> Vec<WorkerOut> {
    let workers = cfg.threads;
    let partitions = cfg.index_partitions();
    let epochs = cfg.index.epochs.max(1);
    let span = arrive_by as u64 + 1;
    let plan = build_plan(
        r,
        s,
        span,
        epochs,
        partitions,
        workers,
        cfg.index.repart_factor,
    );

    let expected = (r.len() + s.len()) / partitions + 1;
    let parts: Vec<Mutex<PartState>> = (0..partitions)
        .map(|_| {
            Mutex::new(PartState {
                r: WindowIndex::with_capacity(expected),
                s: WindowIndex::with_capacity(expected),
            })
        })
        .collect();
    let barrier = Barrier::new(workers);

    exec.run(workers, |w| {
        let mut out = WorkerOut::new(cfg.sample_every);
        let mut timer = cfg.timer_for(Phase::Other, clock.epoch());
        let mut emit = EmitClock::new(clock);
        let mut owned_r: Vec<Vec<Tuple>> = vec![Vec::new(); partitions];
        let mut owned_s: Vec<Vec<Tuple>> = vec![Vec::new(); partitions];
        for (k, ep) in plan.iter().enumerate() {
            timer.switch_to(Phase::Wait);
            clock.wait_until(ep.wait_ts);
            emit.refresh();
            if w == 0 && ep.repart {
                timer.instant(MARK_INDEX_REPART);
            }
            timer.switch_to(Phase::Partition);
            for v in owned_r.iter_mut().chain(owned_s.iter_mut()) {
                v.clear();
            }
            for t in r {
                if epoch_of(t.ts, span, epochs) == k {
                    let p = part_of(t.key, partitions);
                    if ep.assignment[p] == w {
                        owned_r[p].push(*t);
                    }
                }
            }
            for t in s {
                if epoch_of(t.ts, span, epochs) == k {
                    let p = part_of(t.key, partitions);
                    if ep.assignment[p] == w {
                        owned_s[p].push(*t);
                    }
                }
            }
            let mut state_bytes = 0usize;
            for p in 0..partitions {
                if ep.assignment[p] != w {
                    continue;
                }
                if owned_r[p].is_empty() && owned_s[p].is_empty() {
                    continue;
                }
                let mut st = parts[p].lock().unwrap();
                join_partition(
                    &mut st,
                    &owned_r[p],
                    &owned_s[p],
                    &mut timer,
                    &mut emit,
                    &mut out,
                );
                state_bytes += st.r.bytes() + st.s.bytes();
            }
            if cfg.mem_sample_every > 0 {
                out.mem_samples.push((clock.now_ms(), state_bytes));
            }
            // An epoch's inserts must happen-before the next epoch's
            // probes, across any ownership migration.
            timer.switch_to(Phase::Wait);
            barrier.wait();
        }
        timer.instant("flush");
        out.set_timing(timer.finish_parts());
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::View;
    use crate::eager::drive_worker;
    use crate::reference::nested_loop_join;
    use iawj_common::{Rng, Window};

    fn random_stream(n: usize, keys: u32, max_ts: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| Tuple::new(rng.next_u32() % keys, rng.next_u32() % max_ts))
            .collect()
    }

    fn canonical(out: &WorkerOut) -> Vec<(u32, u32, u32)> {
        let mut v: Vec<_> = out
            .sink
            .samples()
            .iter()
            .map(|m| (m.key, m.r_ts, m.s_ts))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn single_worker_ibwj_matches_reference() {
        let r = random_stream(400, 32, 64, 1);
        let s = random_stream(500, 32, 64, 2);
        let clock = EventClock::ungated();
        let cfg = RunConfig::with_threads(1).record_all();
        let out = drive_worker(
            IbwjEngine::new(r.len(), s.len(), 0, 1),
            View::strided(&r, 0, 1),
            View::strided(&s, 0, 1),
            &cfg,
            &clock,
        );
        assert_eq!(
            canonical(&out),
            nested_loop_join(&r, &s, Window::of_len(64))
        );
    }

    #[test]
    fn ownership_filter_partitions_matches_without_loss() {
        // Two workers over the full streams must union to the reference,
        // with no pair seen twice.
        let r = random_stream(300, 16, 64, 3);
        let s = random_stream(300, 16, 64, 4);
        let clock = EventClock::ungated();
        let cfg = RunConfig::with_threads(2).record_all();
        let mut got = Vec::new();
        for tid in 0..2 {
            let out = drive_worker(
                IbwjEngine::new(r.len(), s.len(), tid, 2),
                View::strided(&r, 0, 1),
                View::strided(&s, 0, 1),
                &cfg,
                &clock,
            );
            got.extend(canonical(&out));
        }
        got.sort_unstable();
        assert_eq!(got, nested_loop_join(&r, &s, Window::of_len(64)));
    }

    #[test]
    fn part_plan_is_deterministic_and_repartitions_under_skew() {
        // All load on one partition: the trigger must fire by epoch 2.
        let r: Vec<Tuple> = (0..800).map(|i| Tuple::new(5, i % 64)).collect();
        let s: Vec<Tuple> = (0..800).map(|i| Tuple::new(5, i % 64)).collect();
        let plan = build_plan(&r, &s, 64, 8, 8, 4, 1.5);
        assert_eq!(plan.len(), 8);
        assert!(!plan[0].repart, "nothing observed before epoch 0");
        assert!(
            plan.iter().any(|e| e.repart),
            "a single hot partition must trip the histogram trigger"
        );
        let again = build_plan(&r, &s, 64, 8, 8, 4, 1.5);
        for (a, b) in plan.iter().zip(again.iter()) {
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.wait_ts, b.wait_ts);
        }
    }

    #[test]
    fn part_plan_keeps_balanced_assignment_stable() {
        let r = random_stream(2000, 512, 64, 9);
        let s = random_stream(2000, 512, 64, 10);
        // Uniform keys at factor 4: the trigger should never fire.
        let plan = build_plan(&r, &s, 64, 8, 16, 4, 4.0);
        assert!(plan.iter().all(|e| !e.repart));
        for e in &plan[1..] {
            assert_eq!(e.assignment, plan[0].assignment);
        }
    }

    #[test]
    fn epochs_cover_every_ts_exactly_once() {
        let span = 64u64;
        for epochs in [1usize, 3, 8] {
            for ts in 0..64u32 {
                let k = epoch_of(ts, span, epochs);
                assert!(k < epochs, "ts={ts} epochs={epochs}");
            }
            // Epoch wait gates cover their members: every ts in epoch k is
            // <= the plan's wait_ts for k.
            let plan = build_plan(&[], &[], span, epochs, 4, 2, 1.5);
            for ts in 0..64u32 {
                let k = epoch_of(ts, span, epochs);
                assert!(ts <= plan[k].wait_ts, "ts={ts} epochs={epochs} k={k}");
            }
            assert_eq!(plan[epochs - 1].wait_ts, 63);
        }
    }

    #[test]
    fn run_part_on_matches_reference_across_threads_and_skew() {
        for (seed, keys) in [(21u64, 64u32), (22, 4)] {
            let r = random_stream(600, keys, 64, seed);
            let s = random_stream(600, keys, 64, seed + 100);
            let expect = nested_loop_join(&r, &s, Window::of_len(64));
            for threads in [1usize, 3, 4] {
                let cfg = RunConfig::with_threads(threads).record_all();
                let exec = cfg.make_executor();
                let clock = EventClock::ungated();
                let outs = run_part_on(&r, &s, &cfg, &clock, 63, &exec);
                let mut got: Vec<_> = outs.iter().flat_map(canonical).collect();
                got.sort_unstable();
                assert_eq!(got, expect, "seed={seed} threads={threads}");
            }
        }
    }
}
