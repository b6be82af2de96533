//! The two sort backends of the study.
//!
//! The paper's sort-based algorithms use the AVX `avxsort` of Balkesen et
//! al. (bitonic sorting networks in SIMD registers) and compare against a
//! non-SIMD build (Figure 21). Raw AVX intrinsics are not portable, so the
//! substitution here is at the codegen level:
//!
//! - [`SortBackend::Vectorized`] sorts 8-element blocks with a branchless
//!   Batcher odd-even network and merges runs with a branch-free two-way
//!   merge. On an x86_64 CPU with AVX2 the network and the merge are
//!   *explicit* intrinsics: the same 19-comparator network evaluated over
//!   two 4×64-bit registers, and a streamed 16-lane bitonic merge kernel
//!   (Balkesen et al.'s `avxsort` shape), with native unsigned comparators
//!   where AVX-512VL exists. Elsewhere it keeps the portable min/max data
//!   flow that merely *invites* autovectorization.
//! - [`SortBackend::Scalar`] sorts blocks by insertion sort and merges with
//!   data-dependent branches — the shape a non-SIMD `-no-avx` build takes.
//!
//! Both sort *packed* tuples: `(key << 32) | ts` in a `u64`, so an unsigned
//! integer sort is exactly a `(key, ts)` sort (see `Tuple::pack`).

use iawj_common::{KernelBackend, Tuple};

/// Which sort implementation to use. The runtime flag mirrors the paper's
/// "with/without AVX" build switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SortBackend {
    /// Branchy insertion-sort blocks + branching merges (the no-SIMD build).
    Scalar,
    /// Branchless sorting-network blocks + branch-free merges (the SIMD
    /// stand-in). Default, as in the paper.
    #[default]
    Vectorized,
}

impl SortBackend {
    /// Short label for harness output.
    pub fn label(self) -> &'static str {
        match self {
            SortBackend::Scalar => "scalar",
            SortBackend::Vectorized => "vectorized",
        }
    }
}

/// Pack tuples for sorting.
pub fn pack_tuples(tuples: &[Tuple]) -> Vec<u64> {
    tuples.iter().map(|t| t.pack()).collect()
}

/// Unpack a sorted packed array back into tuples.
pub fn unpack_tuples(packed: &[u64]) -> Vec<Tuple> {
    packed.iter().map(|&p| Tuple::unpack(p)).collect()
}

/// Sort packed values ascending with the chosen backend — the entry point
/// of every sort-based engine (MWAY, MPASS, PMJ, hybrid). It takes the
/// register kernels wherever the CPU has them: at 4M × 4M the sort phase
/// takes 471.0 ms (MWAY) and 456.0 ms (MPASS) with native comparators,
/// 709.5 and 681.4 ms with the emulated ones and 843.4 and 917.2 ms on the
/// portable network (DESIGN.md §5).
///
/// ```
/// use iawj_exec::sort::{sort_packed, SortBackend};
///
/// let mut v = vec![5u64, 1, 4, 2, 3];
/// sort_packed(&mut v, SortBackend::Vectorized);
/// assert_eq!(v, [1, 2, 3, 4, 5]);
/// ```
pub fn sort_packed(data: &mut [u64], backend: SortBackend) {
    sort_packed_kernel(data, backend, KernelBackend::Simd);
}

/// Sort packed values ascending with the chosen backend and kernel. The
/// kernel axis only matters for [`SortBackend::Vectorized`]: `Simd` takes
/// the fastest register kernel the CPU runs — native unsigned comparators
/// on AVX-512VL, their sign-flip emulation on AVX2 — and `Scalar` (or a
/// CPU with neither, or Miri) keeps the portable branchless path. Output
/// is bitwise-identical either way — sorted `u64`s are unique.
///
/// Unoptimized builds skip the register kernels: without inlining every
/// `_mm256_*` lane op is a function call, making the network ~25x slower
/// than the scalar path and wrecking wall-clock-sensitive debug tests.
/// The kernels keep their own unit tests (0-1 principle, merge
/// differential) in every profile; release builds take the real path.
pub fn sort_packed_kernel(data: &mut [u64], backend: SortBackend, kernel: KernelBackend) {
    match backend {
        SortBackend::Scalar => bottom_up_mergesort(
            data,
            SCALAR_BLOCK,
            |d| d.chunks_mut(SCALAR_BLOCK).for_each(insertion_sort),
            merge_branching,
        ),
        SortBackend::Vectorized => {
            let k = vector_kernels(kernel);
            bottom_up_mergesort(data, 8, k.sort_blocks, k.merge);
        }
    }
}

/// Merge the sorted slices `a` and `b` into `out` with the vectorized
/// backend's merge: the streamed bitonic kernel where the CPU has one (same
/// selection as [`sort_packed_kernel`] under `Simd`), the branch-free
/// scalar merge elsewhere.
///
/// # Panics
/// If `out.len() != a.len() + b.len()`.
///
/// ```
/// let mut out = [0u64; 5];
/// iawj_exec::sort::merge_into(&[1, 4, 5], &[2, 3], &mut out);
/// assert_eq!(out, [1, 2, 3, 4, 5]);
/// ```
pub fn merge_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), a.len() + b.len(), "merge_into: output length");
    (vector_kernels(KernelBackend::Simd).merge)(a, b, out);
}

/// Convenience: sort a tuple slice by `(key, ts)` via packing.
pub fn sort_tuples(tuples: &mut [Tuple], backend: SortBackend) {
    let mut packed = pack_tuples(tuples);
    sort_packed(&mut packed, backend);
    for (t, &p) in tuples.iter_mut().zip(packed.iter()) {
        *t = Tuple::unpack(p);
    }
}

// ---------------------------------------------------------------------------
// Scalar backend
// ---------------------------------------------------------------------------

const SCALAR_BLOCK: usize = 32;

fn insertion_sort(data: &mut [u64]) {
    for i in 1..data.len() {
        let v = data[i];
        let mut j = i;
        while j > 0 && data[j - 1] > v {
            data[j] = data[j - 1];
            j -= 1;
        }
        data[j] = v;
    }
}

/// Branching two-way merge of `a` and `b` into `out` (`a.len() + b.len()`
/// long).
fn merge_branching(a: &[u64], b: &[u64], out: &mut [u64]) {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out[k] = a[i];
            i += 1;
        } else {
            out[k] = b[j];
            j += 1;
        }
        k += 1;
    }
    out[k..].copy_from_slice(if i < a.len() { &a[i..] } else { &b[j..] });
}

// ---------------------------------------------------------------------------
// Vectorized backend
// ---------------------------------------------------------------------------

/// One instance of the vectorized backend: a block sorter, which sorts
/// every 8-element chunk of its argument (the tail shorter), and a two-run
/// merge into an output of the runs' summed length.
struct Kernels {
    sort_blocks: fn(&mut [u64]),
    merge: fn(&[u64], &[u64], &mut [u64]),
}

/// The portable instance: min/max data flow that merely *invites*
/// autovectorization.
const PORTABLE: Kernels = Kernels {
    sort_blocks: sort_blocks_network,
    merge: merge_branchless,
};

/// The vectorized backend's instance for this CPU and build: the first
/// register instance the CPU runs (native comparators before the
/// emulation), else [`PORTABLE`].
fn vector_kernels(kernel: KernelBackend) -> Kernels {
    #[cfg(all(target_arch = "x86_64", not(miri), not(debug_assertions)))]
    if kernel.is_simd() {
        if let Some((_, k)) = avx::available().next() {
            return k;
        }
    }
    let _ = kernel;
    PORTABLE
}

/// Branchless compare-exchange: after the call `a <= b`.
#[inline(always)]
fn cswap(data: &mut [u64], i: usize, j: usize) {
    let (a, b) = (data[i], data[j]);
    data[i] = a.min(b);
    data[j] = a.max(b);
}

/// Batcher odd-even sorting network for 8 elements (19 comparators). Pure
/// min/max data flow: no data-dependent branches, so the compiler can map
/// it onto SIMD min/max lanes.
#[inline]
fn sort8_network(data: &mut [u64]) {
    debug_assert!(data.len() >= 8);
    cswap(data, 0, 1);
    cswap(data, 2, 3);
    cswap(data, 4, 5);
    cswap(data, 6, 7);
    cswap(data, 0, 2);
    cswap(data, 1, 3);
    cswap(data, 4, 6);
    cswap(data, 5, 7);
    cswap(data, 1, 2);
    cswap(data, 5, 6);
    cswap(data, 0, 4);
    cswap(data, 1, 5);
    cswap(data, 2, 6);
    cswap(data, 3, 7);
    cswap(data, 2, 4);
    cswap(data, 3, 5);
    cswap(data, 1, 2);
    cswap(data, 3, 4);
    cswap(data, 5, 6);
}

fn sort_blocks_network(data: &mut [u64]) {
    let mut chunks = data.chunks_exact_mut(8);
    for c in &mut chunks {
        sort8_network(c);
    }
    insertion_sort(chunks.into_remainder());
}

/// Branch-free two-way merge of `a` and `b` into `out` (`a.len() +
/// b.len()` long): selection and cursor advances are arithmetic on the
/// comparison mask, which compiles to conditional moves.
fn merge_branchless(a: &[u64], b: &[u64], out: &mut [u64]) {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let take_a = x <= y;
        out[k] = if take_a { x } else { y };
        i += take_a as usize;
        j += !take_a as usize;
        k += 1;
    }
    out[k..].copy_from_slice(if i < a.len() { &a[i..] } else { &b[j..] });
}

// ---------------------------------------------------------------------------
// Register kernels (x86_64)
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[cfg_attr(debug_assertions, allow(dead_code))]
mod avx {
    //! The register-level kernels, one source with two comparator
    //! instances. The 8-element network is the identical 19-comparator
    //! Batcher network as [`super::sort8_network`], expressed as lane
    //! permutations + min/max + blends over two 4×64-bit registers; run
    //! merging is a 16-lane bitonic merge streamed with an 8-element carry,
    //! pulling the next block from whichever run's head is smaller (the
    //! structure of Balkesen et al.'s `avxsort` / Inoue's SIMD merge).
    //!
    //! The instances differ only in the per-lane unsigned min/max
    //! ([`MinMax`]). AVX-512VL has it natively on 256-bit registers
    //! (`vpminuq` / `vpmaxuq`, 2 µops); plain AVX2 has no unsigned 64-bit
    //! compare, so [`Emulated`] flips the sign bits, compares signed and
    //! blends (~6 µops) — exact for the full `u64` range either way.
    //! Every helper is `#[inline(always)]` without target features; the
    //! `#[target_feature]` entry points at the bottom monomorphize them
    //! over one comparator, so the whole kernel compiles into one body per
    //! instance with the comparator inlined.

    use super::{insertion_sort, merge_branchless, Kernels};
    use core::arch::x86_64::*;

    /// Per-lane unsigned min/max of two 4×u64 registers.
    trait MinMax {
        /// # Safety
        /// The CPU must have the instance's features.
        unsafe fn minmax(a: __m256i, b: __m256i) -> (__m256i, __m256i);
    }

    /// AVX-512VL's native unsigned 64-bit min/max.
    struct Native;

    impl MinMax for Native {
        #[inline(always)]
        unsafe fn minmax(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
            (_mm256_min_epu64(a, b), _mm256_max_epu64(a, b))
        }
    }

    /// AVX2's sign-flip emulation: `a > b` unsigned is `a ^ MIN > b ^ MIN`
    /// signed.
    struct Emulated;

    impl MinMax for Emulated {
        #[inline(always)]
        unsafe fn minmax(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
            let sign = _mm256_set1_epi64x(i64::MIN);
            let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign), _mm256_xor_si256(b, sign));
            (_mm256_blendv_epi8(a, b, gt), _mm256_blendv_epi8(b, a, gt))
        }
    }

    /// The instances this CPU runs, fastest first, by name.
    pub(super) fn available() -> impl Iterator<Item = (&'static str, Kernels)> {
        let avx2 = is_x86_feature_detected!("avx2");
        let avx512vl = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl");
        // SAFETY (every closure below): an instance is handed out only
        // when the CPU has every feature its entry points enable.
        let native = (avx2 && avx512vl).then_some((
            "native",
            Kernels {
                sort_blocks: |d| unsafe { sort_blocks_native(d) },
                merge: |a, b, out| unsafe { merge_into_native(a, b, out) },
            },
        ));
        let emulated = avx2.then_some((
            "emulated",
            Kernels {
                sort_blocks: |d| unsafe { sort_blocks_emulated(d) },
                merge: |a, b, out| unsafe { merge_into_emulated(a, b, out) },
            },
        ));
        [native, emulated].into_iter().flatten()
    }

    /// In-register compare-exchange: permute lanes by `PERM`, min/max, then
    /// keep mins except at the `BLEND`-selected 32-bit lanes (the "upper"
    /// side of each comparator), which take the maxes.
    ///
    /// # Safety
    /// The CPU must have the features of `M`'s instance.
    #[inline(always)]
    unsafe fn cswap_perm<M: MinMax, const PERM: i32, const BLEND: i32>(v: __m256i) -> __m256i {
        let p = _mm256_permute4x64_epi64::<PERM>(v);
        let (mn, mx) = M::minmax(v, p);
        _mm256_blend_epi32::<BLEND>(mn, mx)
    }

    /// Sort 8 `u64`s held in two registers; same comparator schedule as the
    /// scalar network: (0,1)(2,3)(4,5)(6,7) / (0,2)(1,3)(4,6)(5,7) /
    /// (1,2)(5,6) / (0,4)(1,5)(2,6)(3,7) / (2,4)(3,5) / (1,2)(3,4)(5,6).
    ///
    /// # Safety
    /// The CPU must have the features of `M`'s instance.
    #[inline(always)]
    unsafe fn sort8<M: MinMax>(mut v0: __m256i, mut v1: __m256i) -> (__m256i, __m256i) {
        // (0,1)(2,3) and (4,5)(6,7): neighbour exchange within registers.
        v0 = cswap_perm::<M, 0xB1, 0xCC>(v0);
        v1 = cswap_perm::<M, 0xB1, 0xCC>(v1);
        // (0,2)(1,3) and (4,6)(5,7): distance-2 exchange.
        v0 = cswap_perm::<M, 0x4E, 0xF0>(v0);
        v1 = cswap_perm::<M, 0x4E, 0xF0>(v1);
        // (1,2) and (5,6): middle-lane exchange (lanes 0,3 self-compare).
        v0 = cswap_perm::<M, 0xD8, 0x30>(v0);
        v1 = cswap_perm::<M, 0xD8, 0x30>(v1);
        // (0,4)(1,5)(2,6)(3,7): vertical across the two registers.
        let (mn, mx) = M::minmax(v0, v1);
        v0 = mn;
        v1 = mx;
        // (2,4)(3,5): gather [x2,x3,x4,x5], exchange across its halves.
        let cross = _mm256_permute2x128_si256::<0x21>(v0, v1);
        let (mn, mx) = M::minmax(cross, _mm256_permute4x64_epi64::<0x4E>(cross));
        v0 = _mm256_permute2x128_si256::<0x20>(v0, mn);
        v1 = _mm256_permute2x128_si256::<0x31>(mx, v1);
        // (1,2) and (5,6) again, then (3,4) through the same cross gather.
        v0 = cswap_perm::<M, 0xD8, 0x30>(v0);
        v1 = cswap_perm::<M, 0xD8, 0x30>(v1);
        let cross = _mm256_permute2x128_si256::<0x21>(v0, v1);
        let cross = cswap_perm::<M, 0xD8, 0x30>(cross);
        v0 = _mm256_permute2x128_si256::<0x20>(v0, cross);
        v1 = _mm256_permute2x128_si256::<0x31>(cross, v1);
        (v0, v1)
    }

    /// Bitonic merge of one bitonic 8-sequence spread over two registers.
    ///
    /// # Safety
    /// The CPU must have the features of `M`'s instance.
    #[inline(always)]
    unsafe fn bitonic_merge8<M: MinMax>(v0: __m256i, v1: __m256i) -> (__m256i, __m256i) {
        // Distance 4: vertical; then distances 2 and 1 within registers.
        let (mn, mx) = M::minmax(v0, v1);
        let v0 = cswap_perm::<M, 0xB1, 0xCC>(cswap_perm::<M, 0x4E, 0xF0>(mn));
        let v1 = cswap_perm::<M, 0xB1, 0xCC>(cswap_perm::<M, 0x4E, 0xF0>(mx));
        (v0, v1)
    }

    /// Merge two sorted 8-runs `(a0,a1)` and `(b0,b1)` into a sorted
    /// 16-sequence `(r0,r1,r2,r3)`: reverse `b` to form a bitonic 16, one
    /// distance-8 exchange, then an 8-lane bitonic merge per half.
    ///
    /// # Safety
    /// The CPU must have the features of `M`'s instance.
    #[inline(always)]
    unsafe fn merge16<M: MinMax>(
        a0: __m256i,
        a1: __m256i,
        b0: __m256i,
        b1: __m256i,
    ) -> (__m256i, __m256i, __m256i, __m256i) {
        let rb0 = _mm256_permute4x64_epi64::<0x1B>(b1);
        let rb1 = _mm256_permute4x64_epi64::<0x1B>(b0);
        let (lo0, hi0) = M::minmax(a0, rb0);
        let (lo1, hi1) = M::minmax(a1, rb1);
        let (r0, r1) = bitonic_merge8::<M>(lo0, lo1);
        let (r2, r3) = bitonic_merge8::<M>(hi0, hi1);
        (r0, r1, r2, r3)
    }

    /// # Safety
    /// `p..p + 8` must be readable and the CPU must have AVX.
    #[inline(always)]
    unsafe fn load8(p: *const u64) -> (__m256i, __m256i) {
        (
            _mm256_loadu_si256(p as *const __m256i),
            _mm256_loadu_si256(p.add(4) as *const __m256i),
        )
    }

    /// # Safety
    /// `p..p + 8` must be writable and the CPU must have AVX.
    #[inline(always)]
    unsafe fn store8(p: *mut u64, v0: __m256i, v1: __m256i) {
        _mm256_storeu_si256(p as *mut __m256i, v0);
        _mm256_storeu_si256(p.add(4) as *mut __m256i, v1);
    }

    /// Block sorter: full 8-blocks through the register network, the short
    /// tail through insertion sort (exactly like the portable block sorter).
    ///
    /// # Safety
    /// The CPU must have the features of `M`'s instance.
    #[inline(always)]
    unsafe fn sort_blocks<M: MinMax>(data: &mut [u64]) {
        let mut chunks = data.chunks_exact_mut(8);
        for c in &mut chunks {
            let p = c.as_mut_ptr();
            // SAFETY: `c` holds exactly 8 elements.
            let (v0, v1) = load8(p);
            let (v0, v1) = sort8::<M>(v0, v1);
            store8(p, v0, v1);
        }
        insertion_sort(chunks.into_remainder());
    }

    /// Streamed merge of `a` and `b` into `out`: keep an 8-element sorted
    /// carry in registers, pull the next 8-block from whichever run's head
    /// is smaller, `merge16`, emit the low 8, keep the high 8. Runs shorter
    /// than 8 go through the scalar branchless merge; so do the tails.
    ///
    /// # Safety
    /// The CPU must have the features of `M`'s instance.
    #[inline(always)]
    unsafe fn merge_into<M: MinMax>(a: &[u64], b: &[u64], out: &mut [u64]) {
        assert_eq!(out.len(), a.len() + b.len(), "merge_into: output length");
        if a.len() < 8 || b.len() < 8 {
            merge_branchless(a, b, out);
            return;
        }
        // SAFETY (every load and store below): a load reads 8 elements at a
        // cursor at most 8 short of its run's end; a store writes 8 at `k`
        // while the carry still holds 8 unwritten elements, so
        // `k + 8 <= out.len()`.
        let (a0, a1) = load8(a.as_ptr());
        let (b0, b1) = load8(b.as_ptr());
        let (mut i, mut j) = (8usize, 8usize);
        let (r0, r1, mut c0, mut c1) = merge16::<M>(a0, a1, b0, b1);
        store8(out.as_mut_ptr(), r0, r1);
        let mut k = 8usize;
        loop {
            // Pull from the run whose next element is smaller; stop as soon
            // as the designated run cannot supply a full block.
            let pull_a = match (i < a.len(), j < b.len()) {
                (true, true) => a[i] <= b[j],
                (true, false) => true,
                (false, true) => false,
                (false, false) => break,
            };
            let (run, pos) = if pull_a { (a, &mut i) } else { (b, &mut j) };
            if *pos + 8 > run.len() {
                break;
            }
            let (n0, n1) = load8(run.as_ptr().add(*pos));
            *pos += 8;
            let (r0, r1, h0, h1) = merge16::<M>(n0, n1, c0, c1);
            store8(out.as_mut_ptr().add(k), r0, r1);
            k += 8;
            c0 = h0;
            c1 = h1;
        }
        // Drain: three-way scalar merge of the register carry and whatever
        // is left of each run.
        let mut carry = [0u64; 8];
        store8(carry.as_mut_ptr(), c0, c1);
        let mut ci = 0usize;
        while k < out.len() {
            let c_ok = ci < carry.len();
            let a_ok = i < a.len();
            let b_ok = j < b.len();
            let take_c = c_ok && (!a_ok || carry[ci] <= a[i]) && (!b_ok || carry[ci] <= b[j]);
            if take_c {
                out[k] = carry[ci];
                ci += 1;
            } else if a_ok && (!b_ok || a[i] <= b[j]) {
                out[k] = a[i];
                i += 1;
            } else {
                out[k] = b[j];
                j += 1;
            }
            k += 1;
        }
    }

    // The two instances: each entry point compiles the generic kernel for
    // its features with its comparator inlined.

    /// # Safety
    /// The CPU must have AVX2, AVX-512F and AVX-512VL.
    #[target_feature(enable = "avx2,avx512f,avx512vl")]
    unsafe fn sort_blocks_native(data: &mut [u64]) {
        sort_blocks::<Native>(data)
    }

    /// # Safety
    /// As [`sort_blocks_native`].
    #[target_feature(enable = "avx2,avx512f,avx512vl")]
    unsafe fn merge_into_native(a: &[u64], b: &[u64], out: &mut [u64]) {
        merge_into::<Native>(a, b, out)
    }

    /// # Safety
    /// The CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn sort_blocks_emulated(data: &mut [u64]) {
        sort_blocks::<Emulated>(data)
    }

    /// # Safety
    /// As [`sort_blocks_emulated`].
    #[target_feature(enable = "avx2")]
    unsafe fn merge_into_emulated(a: &[u64], b: &[u64], out: &mut [u64]) {
        merge_into::<Emulated>(a, b, out)
    }
}

// ---------------------------------------------------------------------------
// Shared bottom-up driver
// ---------------------------------------------------------------------------

/// Bottom-up mergesort: sort every `block`-sized chunk with `sort_blocks`,
/// then double run width each pass, ping-ponging between `data` and one
/// scratch buffer.
fn bottom_up_mergesort(
    data: &mut [u64],
    block: usize,
    sort_blocks: impl Fn(&mut [u64]),
    merge: impl Fn(&[u64], &[u64], &mut [u64]),
) {
    let n = data.len();
    sort_blocks(data);
    if n <= block {
        return;
    }
    let mut scratch = vec![0u64; n];
    let mut src_is_data = true;
    let mut width = block;
    while width < n {
        let (src, dst): (&[u64], &mut [u64]) = if src_is_data {
            (data, &mut scratch)
        } else {
            (&scratch, data)
        };
        for (s, d) in src.chunks(2 * width).zip(dst.chunks_mut(2 * width)) {
            let (a, b) = s.split_at(width.min(s.len()));
            merge(a, b, d);
        }
        src_is_data = !src_is_data;
        width *= 2;
    }
    if !src_is_data {
        data.copy_from_slice(&scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iawj_common::Rng;

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn sort8_network_is_a_sorting_network() {
        // 0-1 principle: a comparator network sorts all inputs iff it sorts
        // all 2^8 zero-one sequences.
        for mask in 0u32..256 {
            let mut v: Vec<u64> = (0..8).map(|b| ((mask >> b) & 1) as u64).collect();
            sort8_network(&mut v);
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "mask {mask:08b}: {v:?}");
        }
    }

    #[test]
    fn both_backends_sort_correctly() {
        for &backend in &[SortBackend::Scalar, SortBackend::Vectorized] {
            for n in [0usize, 1, 2, 7, 8, 9, 31, 32, 33, 100, 1000, 4097] {
                let mut v = random_vec(n, n as u64 + 1);
                let mut expect = v.clone();
                expect.sort_unstable();
                sort_packed(&mut v, backend);
                assert_eq!(v, expect, "backend {backend:?} n={n}");
            }
        }
    }

    #[test]
    fn kernel_backends_agree_bitwise() {
        // The portable and AVX2 paths must produce bitwise-identical
        // output; for sorted u64 slices the output is unique, so comparing
        // against `sort_unstable` covers both.
        use iawj_common::KernelBackend;
        for &backend in &[SortBackend::Scalar, SortBackend::Vectorized] {
            for n in [
                0usize, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 1000, 4097,
            ] {
                let mut expect = random_vec(n, 7 * n as u64 + 13);
                let mut scalar = expect.clone();
                let mut simd = expect.clone();
                expect.sort_unstable();
                sort_packed_kernel(&mut scalar, backend, KernelBackend::Scalar);
                sort_packed_kernel(&mut simd, backend, KernelBackend::Simd);
                assert_eq!(scalar, expect, "scalar kernel, backend {backend:?} n={n}");
                assert_eq!(simd, expect, "simd kernel, backend {backend:?} n={n}");
            }
        }
    }

    /// Zero-one inputs of `n` elements drawn from `lo < hi`, one per mask.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn zero_one(n: usize, lo: u64, hi: u64) -> impl Iterator<Item = Vec<u64>> {
        (0u32..1 << n).map(move |mask| {
            (0..n)
                .map(|b| if (mask >> b) & 1 == 1 { hi } else { lo })
                .collect()
        })
    }

    /// Value pairs for the 0-1 principle: the full range, and the sign-bit
    /// edge a signed compare would order backwards.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    const ZERO_ONE_PAIRS: [(u64, u64); 2] = [(0, u64::MAX), (i64::MAX as u64, i64::MAX as u64 + 1)];

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn register_sort8_is_a_sorting_network() {
        for (name, k) in avx::available() {
            // 0-1 principle over each instance's register-resident network.
            for (lo, hi) in ZERO_ONE_PAIRS {
                for mut v in zero_one(8, lo, hi) {
                    (k.sort_blocks)(&mut v);
                    assert!(v.windows(2).all(|w| w[0] <= w[1]), "{name}: {v:?}");
                }
            }
            let mut v = vec![
                u64::MAX,
                0,
                i64::MAX as u64,
                i64::MAX as u64 + 1,
                1,
                u64::MAX - 1,
                42,
                i64::MAX as u64,
            ];
            let mut expect = v.clone();
            expect.sort_unstable();
            (k.sort_blocks)(&mut v);
            assert_eq!(v, expect, "{name}");
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn register_merge_into_matches_branchless() {
        let mut rng = Rng::new(99);
        let mut shapes: Vec<(usize, usize)> = (0..=17)
            .flat_map(|la| (0..=17).map(move |lb| (la, lb)))
            .collect();
        shapes.extend([(200, 3), (3, 200), (64, 33), (128, 128), (1000, 999)]);
        for (name, k) in avx::available() {
            for &(la, lb) in &shapes {
                for modulus in [1000, u64::MAX] {
                    let mut a: Vec<u64> = (0..la).map(|_| rng.next_u64() % modulus).collect();
                    let mut b: Vec<u64> = (0..lb).map(|_| rng.next_u64() % modulus).collect();
                    a.sort_unstable();
                    b.sort_unstable();
                    let mut got = vec![0u64; la + lb];
                    let mut expect = vec![0u64; la + lb];
                    (k.merge)(&a, &b, &mut got);
                    merge_branchless(&a, &b, &mut expect);
                    assert_eq!(got, expect, "{name} la={la} lb={lb} mod={modulus}");
                }
            }
            // Sign-bit extremes interleaved across both runs.
            let a = [
                0,
                1,
                5,
                i64::MAX as u64,
                i64::MAX as u64 + 1,
                u64::MAX - 2,
                u64::MAX,
                u64::MAX,
            ];
            let b = [
                0,
                2,
                i64::MAX as u64 - 1,
                i64::MAX as u64,
                i64::MAX as u64 + 1,
                i64::MAX as u64 + 2,
                u64::MAX - 1,
                u64::MAX,
            ];
            let mut got = [0u64; 16];
            let mut expect: Vec<u64> = a.iter().chain(&b).copied().collect();
            expect.sort_unstable();
            (k.merge)(&a, &b, &mut got);
            assert_eq!(&got[..], &expect[..], "{name}");
        }
    }

    #[test]
    fn merge_into_merges_any_lengths() {
        for (la, lb) in [(0, 0), (0, 5), (5, 0), (7, 9), (8, 8), (200, 3), (513, 700)] {
            let a = {
                let mut v = random_vec(la, la as u64 + 3);
                v.sort_unstable();
                v
            };
            let b = {
                let mut v = random_vec(lb, lb as u64 + 4);
                v.sort_unstable();
                v
            };
            let mut got = vec![0u64; la + lb];
            merge_into(&a, &b, &mut got);
            let mut expect: Vec<u64> = a.iter().chain(&b).copied().collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "la={la} lb={lb}");
        }
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn merge_into_rejects_a_short_output() {
        merge_into(&[1, 2, 3], &[4], &mut [0u64; 3]);
    }

    #[test]
    fn sorts_already_sorted_and_reversed() {
        for &backend in &[SortBackend::Scalar, SortBackend::Vectorized] {
            let mut asc: Vec<u64> = (0..500).collect();
            sort_packed(&mut asc, backend);
            assert!(asc.windows(2).all(|w| w[0] <= w[1]));
            let mut desc: Vec<u64> = (0..500).rev().collect();
            sort_packed(&mut desc, backend);
            assert!(desc.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn handles_duplicates() {
        for &backend in &[SortBackend::Scalar, SortBackend::Vectorized] {
            let mut v = vec![5u64; 100];
            v.extend(std::iter::repeat_n(3u64, 50));
            sort_packed(&mut v, backend);
            assert_eq!(&v[..50], &[3u64; 50][..]);
            assert_eq!(&v[50..], &[5u64; 100][..]);
        }
    }

    #[test]
    fn sort_tuples_orders_by_key_then_ts() {
        let mut tuples = vec![
            Tuple::new(2, 0),
            Tuple::new(1, 7),
            Tuple::new(1, 3),
            Tuple::new(0, 9),
        ];
        sort_tuples(&mut tuples, SortBackend::Vectorized);
        assert_eq!(
            tuples,
            vec![
                Tuple::new(0, 9),
                Tuple::new(1, 3),
                Tuple::new(1, 7),
                Tuple::new(2, 0)
            ]
        );
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let tuples: Vec<Tuple> = (0..100).map(|i| Tuple::new(i * 3, i)).collect();
        assert_eq!(unpack_tuples(&pack_tuples(&tuples)), tuples);
    }

    #[test]
    fn backend_labels() {
        assert_eq!(SortBackend::Scalar.label(), "scalar");
        assert_eq!(SortBackend::Vectorized.label(), "vectorized");
        assert_eq!(SortBackend::default(), SortBackend::Vectorized);
    }
}
