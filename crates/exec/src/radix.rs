//! Histogram-based radix partitioning — the substrate of the Parallel Radix
//! Join (PRJ) and of the Figure 18 `#radix-bits` sensitivity study.
//!
//! Tuples are partitioned on the binary digits of their *keys* (not a hash),
//! exactly as Kim et al.'s original PRJ does: `partition = (key >> shift) &
//! (fanout-1)`. The parallel pass follows the classic three-step shape —
//! per-slot histograms, global prefix sums, contention-free scatter into
//! disjoint output ranges — and exists exactly once, as [`PartitionPass`]:
//! PRJ drives two of them inside its own parallel section, and
//! [`partition_parallel_exec`] drives one on an [`Executor`].

use crate::executor::Executor;
use crate::pool::chunk_range;
use iawj_common::{Key, Tuple};
use std::sync::OnceLock;

/// Number of partitions produced by `bits` radix bits.
#[inline]
pub const fn fanout(bits: u32) -> usize {
    1 << bits
}

/// PRJ's widest single partitioning pass: its 2^8 output fronts, one
/// 64-byte line each (16 KiB), stay L1D-resident, so the scatter needs no
/// write-combining buffers.
pub const MAX_BITS_PER_PASS: u32 = 8;

/// PRJ's pass split of `radix_bits` total bits: `(bits1, bits2)`, a first
/// pass on the low `bits1 ≤ MAX_BITS_PER_PASS` bits and, when `#r` is
/// wider, a refinement pass on the next `bits2`. Zero bits count as one.
pub fn pass_bits(radix_bits: u32) -> (u32, u32) {
    let bits = radix_bits.max(1);
    let bits1 = bits.min(MAX_BITS_PER_PASS);
    (bits1, bits - bits1)
}

/// Partition index of a key for the given pass.
#[inline]
pub fn partition_of(key: Key, shift: u32, bits: u32) -> usize {
    ((key >> shift) as usize) & (fanout(bits) - 1)
}

/// The one derivation loop: call `f(tuple, partition)` for every tuple in
/// input order, one key at a time. An 8-wide AVX2 shift-and-mask made
/// PRJ's partition phase 1.7× slower (284.5 vs 166.8 ms at 4M × 4M,
/// DESIGN.md §5): gathering keys into a block and widening the lanes back
/// costs more than the per-tuple shift and mask it replaces.
#[inline(always)]
fn for_each_partition(tuples: &[Tuple], shift: u32, bits: u32, mut f: impl FnMut(&Tuple, usize)) {
    for t in tuples {
        f(t, partition_of(t.key, shift, bits));
    }
}

/// Per-partition counts of a tuple slice.
pub fn histogram(tuples: &[Tuple], shift: u32, bits: u32) -> Vec<u32> {
    let mut hist = vec![0u32; fanout(bits)];
    for_each_partition(tuples, shift, bits, |_, p| hist[p] += 1);
    hist
}

/// A radix-partitioned relation: `data[bounds[p]..bounds[p+1]]` is
/// partition `p`.
#[derive(Clone, Debug)]
pub struct Partitioned {
    /// Tuples grouped by partition.
    pub data: Vec<Tuple>,
    /// Partition boundaries; length `fanout + 1`, first 0, last `data.len()`.
    pub bounds: Vec<usize>,
}

impl Partitioned {
    /// Number of partitions.
    pub fn fanout(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Tuples of partition `p`.
    #[inline]
    pub fn partition(&self, p: usize) -> &[Tuple] {
        &self.data[self.bounds[p]..self.bounds[p + 1]]
    }
}

/// Sequential single-pass partitioning — the reference every parallel
/// pass is bitwise-compared against, and PRJ's thread-local second pass.
pub fn partition_seq(tuples: &[Tuple], shift: u32, bits: u32) -> Partitioned {
    let hist = histogram(tuples, shift, bits);
    let mut bounds = Vec::with_capacity(hist.len() + 1);
    let mut acc = 0usize;
    bounds.push(0);
    for &h in &hist {
        acc += h as usize;
        bounds.push(acc);
    }
    let mut cursor: Vec<usize> = bounds[..hist.len()].to_vec();
    let mut data = vec![Tuple::default(); tuples.len()];
    for_each_partition(tuples, shift, bits, |t, p| {
        data[cursor[p]] = *t;
        cursor[p] += 1;
    });
    Partitioned { data, bounds }
}

/// Sequential in-place partitioning on `bits1 + bits2` key bits in PRJ's
/// two-pass shape: a first pass on the low `bits1` bits into `scratch`, then
/// each of its partitions refined on the next `bits2` bits back into
/// `tuples`, so no pass scatters to more than `2^max(bits1, bits2)`
/// cursors. Fills `bounds`: partition `p1 · 2^bits2 + p2` holds the keys of
/// first-pass partition `p1` and second-pass partition `p2`. With
/// `bits2 == 0` this is [`partition_seq`]. `scratch` and `bounds` are the
/// caller's reusable buffers; only the histograms are allocated here.
pub fn partition_two_pass(
    tuples: &mut Vec<Tuple>,
    scratch: &mut Vec<Tuple>,
    (bits1, bits2): (u32, u32),
    bounds: &mut Vec<usize>,
) {
    bounds.clear();
    bounds.push(0);
    let mut cursor = histogram(tuples, 0, bits1);
    let mut acc = 0;
    for c in cursor.iter_mut() {
        (*c, acc) = (acc, acc + *c);
    }
    scratch.clear();
    scratch.resize(tuples.len(), Tuple::default());
    for_each_partition(tuples, 0, bits1, |t, p| {
        scratch[cursor[p] as usize] = *t;
        cursor[p] += 1;
    });
    if bits2 == 0 {
        // `cursor[p]` now ends partition `p`.
        bounds.extend(cursor.iter().map(|&c| c as usize));
        std::mem::swap(tuples, scratch);
        return;
    }
    let mut sub = vec![0u32; fanout(bits2)];
    let mut start = 0;
    for end in cursor {
        let part = &scratch[start as usize..end as usize];
        sub.fill(0);
        for_each_partition(part, bits1, bits2, |_, q| sub[q] += 1);
        let mut acc = start;
        for c in sub.iter_mut() {
            (*c, acc) = (acc, acc + *c);
            bounds.push(acc as usize);
        }
        for_each_partition(part, bits1, bits2, |t, q| {
            tuples[sub[q] as usize] = *t;
            sub[q] += 1;
        });
        start = end;
    }
}

/// A shared output buffer that scatter workers write disjoint slots of.
///
/// The buffer is plain `Vec<Tuple>` storage behind an `UnsafeCell`; the
/// radix prefix-sum construction guarantees writers never alias (each
/// `(thread, partition)` pair owns an exclusive index range), and callers
/// separate the write epoch from the read epoch with a barrier.
pub struct SharedOut {
    buf: std::cell::UnsafeCell<Vec<Tuple>>,
}

// SAFETY: all mutation goes through `write`, whose contract requires
// disjoint indices across threads; reads require the write epoch to be over.
unsafe impl Sync for SharedOut {}
unsafe impl Send for SharedOut {}

impl SharedOut {
    /// Zero-filled buffer of `len` tuples whose pages the allocating
    /// thread does **not** touch: the memory comes from `alloc_zeroed`, so
    /// the kernel maps zero pages on demand and physical placement is
    /// deferred to whichever thread writes each page first — the scatter
    /// itself, or [`SharedOut::touch`] when [`PartitionPass`] runs with
    /// `first_touch` (NUMA first-touch for pinned workers).
    pub fn new(len: usize) -> Self {
        // SAFETY: zeroed bytes are a valid `Tuple` (two plain u32s).
        let buf = unsafe { crate::hashtable::alloc_zeroed_vec(len) };
        SharedOut {
            buf: std::cell::UnsafeCell::new(buf),
        }
    }

    /// Write the default tuple over `range`, faulting those pages into
    /// the calling thread's NUMA node (first-touch). Contents are
    /// unchanged observationally — slots are zero before and after.
    ///
    /// # Safety
    /// Same contract as [`SharedOut::write`] over the whole `range`: it
    /// must be in bounds, disjoint from every other concurrent writer's
    /// range, and free of concurrent readers.
    pub unsafe fn touch(&self, range: std::ops::Range<usize>) {
        let buf = &mut *self.buf.get();
        debug_assert!(range.end <= buf.len());
        let ptr = buf.as_mut_ptr();
        for idx in range {
            // Volatile: the store must reach memory even though it writes
            // the value the slot already holds.
            std::ptr::write_volatile(ptr.add(idx), Tuple::default());
        }
    }

    /// Write one slot.
    ///
    /// # Safety
    /// No two concurrent callers may pass the same `idx`, `idx` must be in
    /// bounds, and no reader may run concurrently with writers.
    #[inline]
    pub unsafe fn write(&self, idx: usize, t: Tuple) {
        debug_assert!(idx < (*self.buf.get()).len());
        *(*self.buf.get()).as_mut_ptr().add(idx) = t;
    }

    /// View the contents.
    ///
    /// # Safety
    /// All writes must have happened-before this call (e.g. via a barrier).
    pub unsafe fn as_slice(&self) -> &[Tuple] {
        &*self.buf.get()
    }

    /// Consume into the underlying vector (single-owner, hence safe).
    pub fn into_vec(self) -> Vec<Tuple> {
        self.buf.into_inner()
    }
}

/// The scatter offsets computed from per-slot histograms: everything a
/// worker needs to place a slot's tuples without contention. Private to
/// this module so that [`PartitionPass`] alone decides which input slice
/// belongs to which slot — the histogram-matches-slice contract the
/// unchecked stores rely on.
struct ScatterPlan {
    /// Global partition boundaries (`fanout + 1` entries).
    bounds: Vec<usize>,
    /// `starts[slot * fanout + p]`: first output index of `(slot, p)`.
    starts: Vec<usize>,
    shift: u32,
    bits: u32,
}

impl ScatterPlan {
    /// Build the plan from one histogram per slot. Offsets are laid out
    /// partition-major: within partition `p`, slot 0's tuples precede slot
    /// 1's, so ascending contiguous slots preserve input order.
    fn from_histograms(hists: &[&[u32]], shift: u32, bits: u32) -> Self {
        let f = fanout(bits);
        let mut bounds = Vec::with_capacity(f + 1);
        bounds.push(0usize);
        let mut starts = vec![0usize; hists.len() * f];
        let mut acc = 0usize;
        for p in 0..f {
            for (t, hist) in hists.iter().enumerate() {
                starts[t * f + p] = acc;
                acc += hist[p] as usize;
            }
            bounds.push(acc);
        }
        ScatterPlan {
            bounds,
            starts,
            shift,
            bits,
        }
    }

    /// Total tuples the plan accounts for.
    fn total(&self) -> usize {
        *self.bounds.last().expect("bounds never empty")
    }

    /// Pre-fault `slot`'s scatter destination ranges (first-touch): writes
    /// the default tuple over exactly the ranges [`ScatterPlan::scatter`]
    /// will later fill for `slot`, so on a pinned worker those pages land
    /// on the worker's own NUMA node before the scatter runs. Contents are
    /// unchanged — the ranges are zero before and after.
    ///
    /// # Safety
    /// Same contract as [`SharedOut::write`] over the touched ranges: the
    /// caller must be the only writer of `slot`'s ranges while this runs,
    /// with no concurrent readers, and `out` must have
    /// [`ScatterPlan::total`] slots.
    unsafe fn touch(&self, slot: usize, out: &SharedOut) {
        let f = fanout(self.bits);
        let slots = self.starts.len() / f;
        debug_assert!(slot < slots);
        for p in 0..f {
            let start = self.starts[slot * f + p];
            let end = if slot + 1 < slots {
                self.starts[(slot + 1) * f + p]
            } else {
                self.bounds[p + 1]
            };
            out.touch(start..end);
        }
    }

    /// Scatter `slot`'s input slice into the shared output with direct
    /// stores (PRJ's passes are at most [`MAX_BITS_PER_PASS`] bits wide).
    ///
    /// # Safety
    /// `chunk` must be exactly the slice whose histogram was `hists[slot]`,
    /// no other thread may scatter or touch `slot` concurrently, no reader
    /// may run concurrently, and `out` must have [`ScatterPlan::total`]
    /// slots. Then `cursor[p]` walks `starts[slot*f+p] .. +hists[slot][p]`;
    /// the prefix sum makes those ranges disjoint across `(slot, p)` pairs
    /// and they tile `0..total()`, so no two writers alias.
    unsafe fn scatter(&self, chunk: &[Tuple], slot: usize, out: &SharedOut) {
        let f = fanout(self.bits);
        let mut cursor = self.starts[slot * f..(slot + 1) * f].to_vec();
        for_each_partition(chunk, self.shift, self.bits, |t, p| {
            // SAFETY: `cursor[p]` stays inside this (slot, p) range per the
            // function contract.
            unsafe { out.write(cursor[p], *t) };
            cursor[p] += 1;
        });
    }
}

/// One cooperative partitioning pass over `input`, driven by `threads`
/// workers in three steps: every worker calls
/// [`PartitionPass::histogram_step`]; after a barrier exactly one calls
/// [`PartitionPass::plan`]; after another barrier every worker calls
/// [`PartitionPass::scatter_step`]; after a third the output is readable
/// ([`PartitionPass::data`], [`PartitionPass::finish`]). The caller owns
/// the barriers, so several passes can share them (PRJ partitions R and S
/// between the same three). [`PartitionPass::run`] is the standalone driver.
///
/// Worker `tid` owns one scatter slot, its contiguous
/// [`chunk_range`] of the input. Output is bitwise-identical to
/// [`partition_seq`] whatever the worker count and `first_touch`.
pub struct PartitionPass<'a> {
    input: &'a [Tuple],
    shift: u32,
    bits: u32,
    threads: usize,
    /// Have each worker pre-fault exactly the ranges it scatters into the
    /// (untouched) output arena before scattering (NUMA first-touch; only
    /// useful when the workers are pinned). Page placement only, never an
    /// output change.
    first_touch: bool,
    /// One histogram per worker slot, published by that worker.
    hists: Vec<OnceLock<Vec<u32>>>,
    plan: OnceLock<(ScatterPlan, SharedOut)>,
}

impl<'a> PartitionPass<'a> {
    /// A pass partitioning `input` on `bits` key bits above `shift`.
    pub fn new(
        input: &'a [Tuple],
        shift: u32,
        bits: u32,
        threads: usize,
        first_touch: bool,
    ) -> Self {
        assert!(threads > 0);
        PartitionPass {
            input,
            shift,
            bits,
            threads,
            first_touch,
            hists: (0..threads).map(|_| OnceLock::new()).collect(),
            plan: OnceLock::new(),
        }
    }

    /// Worker `tid`'s slice of the input.
    fn slot(&self, tid: usize) -> &'a [Tuple] {
        &self.input[chunk_range(self.input.len(), self.threads, tid)]
    }

    /// Step 1 (every worker): count this worker's slot.
    pub fn histogram_step(&self, tid: usize) {
        let hist = histogram(self.slot(tid), self.shift, self.bits);
        assert!(
            self.hists[tid].set(hist).is_ok(),
            "slot {tid} counted twice"
        );
    }

    /// Step 2 (one worker, after every histogram step returned): prefix-sum
    /// the histograms into scatter offsets and allocate the output arena.
    pub fn plan(&self) {
        let hists: Vec<&[u32]> = self
            .hists
            .iter()
            .map(|h| {
                h.get()
                    .expect("plan before every histogram step")
                    .as_slice()
            })
            .collect();
        let plan = ScatterPlan::from_histograms(&hists, self.shift, self.bits);
        debug_assert_eq!(plan.total(), self.input.len());
        let out = SharedOut::new(self.input.len());
        assert!(self.plan.set((plan, out)).is_ok(), "pass planned twice");
    }

    fn planned(&self) -> &(ScatterPlan, SharedOut) {
        self.plan.get().expect("pass not planned yet")
    }

    /// Step 3 (every worker, after [`PartitionPass::plan`] returned):
    /// scatter this worker's slot, first-touching its ranges just before
    /// writing them when `first_touch` is on.
    ///
    /// # Safety
    /// Each `tid` in `0..threads` may run this step at most once per pass,
    /// and nothing may read the output ([`PartitionPass::data`]) until
    /// every worker's step has returned and been ordered by a barrier.
    pub unsafe fn scatter_step(&self, tid: usize) {
        let (plan, out) = self.planned();
        // SAFETY: slot `tid` belongs to this call alone — the caller runs
        // each tid once — and its slice is the one `histogram_step`
        // counted; readers wait for the caller's barrier.
        unsafe {
            if self.first_touch {
                plan.touch(tid, out);
            }
            plan.scatter(self.slot(tid), tid, out);
        }
    }

    /// Global partition boundaries (`fanout + 1` entries); available once
    /// [`PartitionPass::plan`] has returned.
    pub fn bounds(&self) -> &[usize] {
        &self.planned().0.bounds
    }

    /// The partitioned tuples, shared among the workers that produced them.
    ///
    /// # Safety
    /// Every scatter step must have happened-before this call (barrier).
    pub unsafe fn data(&self) -> &[Tuple] {
        self.planned().1.as_slice()
    }

    /// Consume a completed pass into its output.
    pub fn finish(self) -> Partitioned {
        let (plan, out) = self.plan.into_inner().expect("pass not planned yet");
        Partitioned {
            data: out.into_vec(),
            bounds: plan.bounds,
        }
    }

    /// Drive the whole pass on `exec`: the three steps as three sections
    /// (the section boundaries are the barriers).
    pub fn run(self, exec: &Executor) -> Partitioned {
        exec.run(self.threads, |tid| self.histogram_step(tid));
        self.plan();
        exec.run(self.threads, |tid| {
            // SAFETY: `Executor::run` hands each tid to exactly one lane,
            // and the output is only read after the section has joined.
            unsafe { self.scatter_step(tid) };
        });
        self.finish()
    }
}

/// Parallel single-pass partitioning on an [`Executor`]: the same
/// [`PartitionPass`] PRJ runs. When the executor pins its workers the
/// output arena is allocated untouched and each lane first-touches exactly
/// its own scatter ranges. Output is bitwise-identical to [`partition_seq`].
pub fn partition_parallel_exec(
    tuples: &[Tuple],
    shift: u32,
    bits: u32,
    threads: usize,
    exec: &Executor,
) -> Partitioned {
    // Below 1024 tuples a dispatch costs more than it buys: one inline lane.
    let lanes = if tuples.len() < 1024 { 1 } else { threads };
    PartitionPass::new(tuples, shift, bits, lanes, exec.pinned()).run(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PinPolicy;
    use iawj_common::Rng;

    fn random_tuples(n: usize, key_space: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|i| Tuple::new(rng.next_u32() % key_space, i as u32))
            .collect()
    }

    fn check_partitioned(p: &Partitioned, input: &[Tuple], shift: u32, bits: u32) {
        // Same multiset.
        let mut a: Vec<u64> = input.iter().map(|t| t.pack()).collect();
        let mut b: Vec<u64> = p.data.iter().map(|t| t.pack()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "partitioning changed the multiset");
        // Every tuple in the right partition.
        for part in 0..p.fanout() {
            for t in p.partition(part) {
                assert_eq!(partition_of(t.key, shift, bits), part);
            }
        }
        assert_eq!(*p.bounds.last().unwrap(), input.len());
    }

    #[test]
    fn sequential_partition_correct() {
        let input = random_tuples(1000, 512, 1);
        let p = partition_seq(&input, 0, 4);
        check_partitioned(&p, &input, 0, 4);
        assert_eq!(p.fanout(), 16);
        // A shifted pass uses the higher bits.
        check_partitioned(&partition_seq(&input, 4, 4), &input, 4, 4);
    }

    #[test]
    fn two_pass_partition_refines_each_first_pass_partition() {
        let input = random_tuples(3000, 1 << 12, 3);
        let (mut data, mut scratch, mut bounds) = (input.clone(), Vec::new(), Vec::new());
        partition_two_pass(&mut data, &mut scratch, (6, 3), &mut bounds);
        let p = Partitioned { data, bounds };
        assert_eq!(p.fanout(), 1 << 9);
        // Same multiset, and partition p1 · 8 + p2 holds exactly the keys
        // of first-pass partition p1 and second-pass partition p2.
        let mut a: Vec<u64> = input.iter().map(|t| t.pack()).collect();
        let mut b: Vec<u64> = p.data.iter().map(|t| t.pack()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "partitioning changed the multiset");
        for part in 0..p.fanout() {
            for t in p.partition(part) {
                assert_eq!(partition_of(t.key, 0, 6), part >> 3);
                assert_eq!(partition_of(t.key, 6, 3), part & 7);
            }
        }
        // No second pass is the single-pass partitioner; the buffers are
        // reused whatever they held.
        let (mut single, mut bounds) = (input.clone(), vec![7; 3]);
        partition_two_pass(&mut single, &mut scratch, (6, 0), &mut bounds);
        let seq = partition_seq(&input, 0, 6);
        assert_eq!((single, bounds), (seq.data, seq.bounds));
    }

    /// The knob product at one size: every worker count × first-touch
    /// setting is bitwise-identical to the sequential partitioner — bounds,
    /// data, and within-partition input order (slots are contiguous
    /// ascending slices and offsets are slot-major).
    #[test]
    fn every_knob_combination_matches_sequential() {
        let input = random_tuples(6000, 1 << 14, 2);
        let seq = partition_seq(&input, 0, 6);
        check_partitioned(&seq, &input, 0, 6);
        for threads in [1usize, 4, 7] {
            let exec = Executor::new(PinPolicy::None, threads);
            for first_touch in [false, true] {
                let got = PartitionPass::new(&input, 0, 6, threads, first_touch).run(&exec);
                assert_eq!(seq.bounds, got.bounds, "{first_touch} threads={threads}");
                assert_eq!(seq.data, got.data, "{first_touch} threads={threads}");
            }
        }
    }

    #[test]
    fn small_and_empty_inputs() {
        let exec = Executor::new(PinPolicy::None, 4);
        let p = partition_parallel_exec(&[], 0, 5, 4, &exec);
        assert_eq!(p.fanout(), 32);
        assert_eq!(p.data.len(), 0);
        assert!(p.bounds.iter().all(|&b| b == 0));
        for n in [0usize, 1, 7, 500] {
            let input = random_tuples(n, 256, 7);
            // Four slots over fewer than four tuples: some slots are empty.
            let got = PartitionPass::new(&input, 0, 5, 4, false).run(&exec);
            assert_eq!(got.data, partition_seq(&input, 0, 5).data, "n={n}");
            check_partitioned(
                &partition_parallel_exec(&input, 0, 5, 4, &exec),
                &input,
                0,
                5,
            );
        }
    }

    #[test]
    fn skewed_keys_pile_into_one_partition() {
        let input: Vec<Tuple> = (0..100).map(|i| Tuple::new(64, i)).collect();
        let p = partition_seq(&input, 0, 4);
        // key 64 -> low 4 bits are 0.
        assert_eq!(p.partition(0).len(), 100);
        for q in 1..16 {
            assert!(p.partition(q).is_empty());
        }
    }

    /// Pinning (and with it the first-touch arena) is a pure placement
    /// knob: every pin policy yields the sequential partitioner's output.
    #[test]
    fn pinned_executors_are_bitwise_identical() {
        let input = random_tuples(20_000, 1 << 14, 2);
        let threads = 4;
        let base = partition_seq(&input, 0, 6);
        for pin in [PinPolicy::None, PinPolicy::Compact, PinPolicy::Scatter] {
            let exec = Executor::new(pin, threads);
            let par = partition_parallel_exec(&input, 0, 6, threads, &exec);
            assert_eq!(base.bounds, par.bounds, "pin={pin}");
            assert_eq!(base.data, par.data, "pin={pin}");
        }
    }

    /// The lazily zeroed arena and the per-slot touch pass are
    /// observationally invisible: untouched slots are zero, touched slots
    /// stay zero, and a touched-then-scattered arena matches the
    /// sequential partitioner exactly.
    #[test]
    fn first_touch_arena_matches_eager_arena() {
        let lazy = SharedOut::new(1000);
        assert!(SharedOut::new(0).into_vec().is_empty());
        // SAFETY: no concurrent writers exist in this test.
        unsafe {
            assert!(lazy.as_slice().iter().all(|t| *t == Tuple::default()));
            lazy.touch(0..500);
        }
        assert_eq!(lazy.into_vec(), vec![Tuple::default(); 1000]);

        let input = random_tuples(4096, 1 << 10, 77);
        let exec = Executor::new(PinPolicy::None, 4);
        let got = PartitionPass::new(&input, 0, 6, 4, true).run(&exec);
        assert_eq!(got.data, partition_seq(&input, 0, 6).data);
    }

    #[test]
    fn pass_bits_caps_the_first_pass() {
        for b in 1..=MAX_BITS_PER_PASS {
            assert_eq!(pass_bits(b), (b, 0));
        }
        assert_eq!(pass_bits(10), (8, 2));
        // PRJ's widest accepted `#r` (`iawj_core::config::MAX_RADIX_BITS`).
        assert_eq!(pass_bits(24), (8, 16));
    }

    #[test]
    fn histogram_counts() {
        let input = vec![Tuple::new(0, 0), Tuple::new(1, 0), Tuple::new(17, 0)];
        let h = histogram(&input, 0, 4);
        assert_eq!(h[0], 1);
        assert_eq!(h[1], 2, "keys 1 and 17 share low nibble 1");
    }
}
