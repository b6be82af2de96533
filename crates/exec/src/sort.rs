//! The two sort backends of the study.
//!
//! The paper's sort-based algorithms use the AVX `avxsort` of Balkesen et
//! al. (bitonic sorting networks in SIMD registers) and compare against a
//! non-SIMD build (Figure 21). Raw AVX intrinsics are not portable, so the
//! substitution here is at the codegen level:
//!
//! - [`SortBackend::Vectorized`] sorts small blocks with a branchless
//!   sorting network and merges runs with a branch-free two-way merge. On
//!   an x86_64 CPU with AVX-512 or AVX2 both are *explicit* intrinsics
//!   (Balkesen et al.'s `avxsort` shape): 16-element blocks sorted and
//!   merged 16 lanes at a time in 512-bit registers where the CPU has
//!   AVX-512F/VL, 8-element blocks over pairs of 256-bit registers with
//!   emulated unsigned comparators where it has only AVX2. Elsewhere it
//!   keeps the portable min/max data flow that merely *invites*
//!   autovectorization.
//! - [`SortBackend::Scalar`] sorts blocks by insertion sort and merges with
//!   data-dependent branches — the shape a non-SIMD `-no-avx` build takes.
//!
//! Both run one cache-blocked bottom-up mergesort: every
//! `CACHE_BLOCK`-element block is sorted to completion in L2 before the
//! passes over all of memory.
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
/// register kernels wherever the CPU has them: at 4M × 4M on 2 threads
/// the sort phase takes 257.2 ms (MWAY) and 286.4 ms (MPASS) with the
/// 16-lane AVX-512 kernel, 542.0 and 508.3 ms with the AVX2 one and 699.8
/// and 695.8 ms on the portable network, summed over workers (DESIGN.md
/// §5).
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
/// the fastest register kernel the CPU runs — the 16-lane AVX-512 one,
/// else the AVX2 one with emulated unsigned comparators — and `Scalar`
/// (or a CPU with neither, or Miri) keeps the portable branchless path.
/// Output is bitwise-identical either way — sorted `u64`s are unique.
///
/// Unoptimized builds skip the register kernels: without inlining every
/// `_mm512_*` / `_mm256_*` lane op is a function call, making the network ~25x slower
/// than the scalar path and wrecking wall-clock-sensitive debug tests.
/// The kernels keep their own unit tests (0-1 principle, merge
/// differential) in every profile; release builds take the real path.
pub fn sort_packed_kernel(data: &mut [u64], backend: SortBackend, kernel: KernelBackend) {
    match backend {
        SortBackend::Scalar => bottom_up_mergesort(
            data,
            SCALAR_BLOCK,
            |d| d.chunks_mut(SCALAR_BLOCK).for_each(insertion_sort),
            |src, dst, width| merge_pass(src, dst, width, merge_branching),
        ),
        SortBackend::Vectorized => {
            let k = vector_kernels(kernel);
            bottom_up_mergesort(data, k.block, k.sort_blocks, k.pass);
        }
    }
}

/// Merge the sorted slices `a` and `b` into `out` with the vectorized
/// backend's merge: where the CPU has a register kernel (same selection as
/// [`sort_packed_kernel`] under `Simd`), the streamed bitonic merge, cut at
/// the output's midpoint into two halves merged side by side; the
/// branch-free scalar merge elsewhere.
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
pub(crate) fn merge_branching(a: &[u64], b: &[u64], out: &mut [u64]) {
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
/// every `block`-element chunk of its argument (the tail shorter), a
/// two-run merge into an output of the runs' summed length, and one
/// bottom-up merge pass (see [`merge_pass`]).
struct Kernels {
    block: usize,
    sort_blocks: fn(&mut [u64]),
    merge: fn(&[u64], &[u64], &mut [u64]),
    pass: fn(&[u64], &mut [u64], usize),
}

/// The portable instance: min/max data flow that merely *invites*
/// autovectorization.
const PORTABLE: Kernels = Kernels {
    block: 8,
    sort_blocks: sort_blocks_network,
    merge: merge_branchless,
    pass: |src, dst, width| merge_pass(src, dst, width, merge_branchless),
};

/// The vectorized backend's instance for this CPU and build: the first
/// register instance the CPU runs (the wide one before the emulation),
/// else [`PORTABLE`].
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
    //! The register-level kernels: one source, two instances. Both hold
    //! eight `u64`s per [`Lanes8`] value and move sorted [`Block`]s of
    //! them; run merging is a bitonic merge streamed with a one-block
    //! carry, pulling the next block from whichever run's head is smaller
    //! (the structure of Balkesen et al.'s `avxsort` / Inoue's SIMD
    //! merge).
    //!
    //! - **Wide** (AVX-512F): one `__m512i` per eight lanes, with native
    //!   unsigned min/max. Its block is 16 elements: two registers, each
    //!   sorted by a 6-step bitonic network (one lane permute, a min and a
    //!   masked max per step), merged by [`merge16`]; runs merge through
    //!   [`merge32`] with a 16-element carry.
    //! - **Emulated** (AVX2): two `__m256i` per eight lanes. AVX2 has no
    //!   unsigned 64-bit compare, so min/max flip the sign bits, compare
    //!   signed and blend (~6 µops). Its block is 8 elements sorted by the
    //!   19-comparator Batcher network of [`super::sort8_network`]; runs
    //!   merge through [`merge16`] with an 8-element carry.
    //!
    //! A streamed merge is latency-bound: each block waits for the carry
    //! the previous one left. So a pass merges two pairs of runs at once
    //! ([`merge2`]), and a single long merge is cut at its midpoint
    //! ([`super::co_rank`]) into two halves merged the same way. Every
    //! helper is `#[inline(always)]` without target features; the
    //! `#[target_feature]` entry points at the bottom monomorphize them
    //! over one block type, so each instance compiles into one body.

    use super::{co_rank, insertion_sort, merge_branchless, Kernels};
    use core::arch::x86_64::*;

    /// Eight `u64` lanes in registers.
    ///
    /// Every method's safety contract: the CPU has the instance's
    /// features, and a pointer argument addresses 8 valid elements.
    trait Lanes8: Copy {
        unsafe fn load(p: *const u64) -> Self;
        unsafe fn store(self, p: *mut u64);
        /// Per-lane unsigned `(min, max)`.
        unsafe fn minmax(a: Self, b: Self) -> (Self, Self);
        /// Lane `i` takes lane `7 - i`.
        unsafe fn reverse(self) -> Self;
        /// Sort the eight lanes ascending.
        unsafe fn sort8(self) -> Self;
        /// Sort a bitonic eight ascending: half-cleaners at lane distances
        /// 4, 2 and 1.
        unsafe fn clean8(self) -> Self;
    }

    /// The wide instance's lanes: one AVX-512 register.
    #[derive(Clone, Copy)]
    struct Zmm(__m512i);

    impl Zmm {
        /// Compare-exchange every lane with its partner, the same lane of
        /// `partner` (a lane permutation of `self`): the lanes in `UPPER`
        /// take the max, the rest the min.
        #[inline(always)]
        unsafe fn exchange<const UPPER: u8>(self, partner: __m512i) -> Self {
            let mn = _mm512_min_epu64(self.0, partner);
            Zmm(_mm512_mask_max_epu64(mn, UPPER, self.0, partner))
        }

        /// Partner lane `i ^ 1`.
        #[inline(always)]
        unsafe fn xor1(self) -> __m512i {
            _mm512_shuffle_epi32::<0x4E>(self.0)
        }

        /// Partner lane `i ^ 2`.
        #[inline(always)]
        unsafe fn xor2(self) -> __m512i {
            _mm512_permutex_epi64::<0x4E>(self.0)
        }

        /// Partner lane `i ^ 3`.
        #[inline(always)]
        unsafe fn xor3(self) -> __m512i {
            _mm512_permutex_epi64::<0x1B>(self.0)
        }

        /// Partner lane `i ^ 4`.
        #[inline(always)]
        unsafe fn xor4(self) -> __m512i {
            _mm512_shuffle_i64x2::<0x4E>(self.0, self.0)
        }
    }

    impl Lanes8 for Zmm {
        #[inline(always)]
        unsafe fn load(p: *const u64) -> Self {
            Zmm(_mm512_loadu_si512(p as *const __m512i))
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut u64) {
            _mm512_storeu_si512(p as *mut __m512i, self.0)
        }

        #[inline(always)]
        unsafe fn minmax(a: Self, b: Self) -> (Self, Self) {
            (
                Zmm(_mm512_min_epu64(a.0, b.0)),
                Zmm(_mm512_max_epu64(a.0, b.0)),
            )
        }

        #[inline(always)]
        unsafe fn reverse(self) -> Self {
            Zmm(_mm512_permutexvar_epi64(
                _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7),
                self.0,
            ))
        }

        /// Bitonic sort with mirrored comparators, so every exchange is
        /// ascending: partners `i^1`; `i^3`, `i^1`; `i^7`, `i^2`, `i^1`.
        #[inline(always)]
        unsafe fn sort8(self) -> Self {
            let v = self.exchange::<0xAA>(self.xor1());
            let v = v.exchange::<0xCC>(v.xor3());
            let v = v.exchange::<0xAA>(v.xor1());
            let v = v.exchange::<0xF0>(v.reverse().0);
            let v = v.exchange::<0xCC>(v.xor2());
            v.exchange::<0xAA>(v.xor1())
        }

        #[inline(always)]
        unsafe fn clean8(self) -> Self {
            let v = self.exchange::<0xF0>(self.xor4());
            let v = v.exchange::<0xCC>(v.xor2());
            v.exchange::<0xAA>(v.xor1())
        }
    }

    /// The emulated instance's lanes: two AVX2 registers.
    #[derive(Clone, Copy)]
    struct Ymm2(__m256i, __m256i);

    /// AVX2's unsigned min/max of 4×u64: `a > b` unsigned is
    /// `a ^ MIN > b ^ MIN` signed.
    #[inline(always)]
    unsafe fn minmax4(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        let sign = _mm256_set1_epi64x(i64::MIN);
        let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign), _mm256_xor_si256(b, sign));
        (_mm256_blendv_epi8(a, b, gt), _mm256_blendv_epi8(b, a, gt))
    }

    /// In-register compare-exchange: permute lanes by `PERM`, min/max, then
    /// keep mins except at the `BLEND`-selected 32-bit lanes (the "upper"
    /// side of each comparator), which take the maxes.
    #[inline(always)]
    unsafe fn cswap_perm<const PERM: i32, const BLEND: i32>(v: __m256i) -> __m256i {
        let p = _mm256_permute4x64_epi64::<PERM>(v);
        let (mn, mx) = minmax4(v, p);
        _mm256_blend_epi32::<BLEND>(mn, mx)
    }

    impl Lanes8 for Ymm2 {
        #[inline(always)]
        unsafe fn load(p: *const u64) -> Self {
            Ymm2(
                _mm256_loadu_si256(p as *const __m256i),
                _mm256_loadu_si256(p.add(4) as *const __m256i),
            )
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut u64) {
            _mm256_storeu_si256(p as *mut __m256i, self.0);
            _mm256_storeu_si256(p.add(4) as *mut __m256i, self.1);
        }

        #[inline(always)]
        unsafe fn minmax(a: Self, b: Self) -> (Self, Self) {
            let (lo0, hi0) = minmax4(a.0, b.0);
            let (lo1, hi1) = minmax4(a.1, b.1);
            (Ymm2(lo0, lo1), Ymm2(hi0, hi1))
        }

        #[inline(always)]
        unsafe fn reverse(self) -> Self {
            Ymm2(
                _mm256_permute4x64_epi64::<0x1B>(self.1),
                _mm256_permute4x64_epi64::<0x1B>(self.0),
            )
        }

        /// The scalar network's comparator schedule: (0,1)(2,3)(4,5)(6,7) /
        /// (0,2)(1,3)(4,6)(5,7) / (1,2)(5,6) / (0,4)(1,5)(2,6)(3,7) /
        /// (2,4)(3,5) / (1,2)(3,4)(5,6).
        #[inline(always)]
        unsafe fn sort8(self) -> Self {
            let Ymm2(mut v0, mut v1) = self;
            // (0,1)(2,3) and (4,5)(6,7): neighbour exchange within registers.
            v0 = cswap_perm::<0xB1, 0xCC>(v0);
            v1 = cswap_perm::<0xB1, 0xCC>(v1);
            // (0,2)(1,3) and (4,6)(5,7): distance-2 exchange.
            v0 = cswap_perm::<0x4E, 0xF0>(v0);
            v1 = cswap_perm::<0x4E, 0xF0>(v1);
            // (1,2) and (5,6): middle-lane exchange (lanes 0,3 self-compare).
            v0 = cswap_perm::<0xD8, 0x30>(v0);
            v1 = cswap_perm::<0xD8, 0x30>(v1);
            // (0,4)(1,5)(2,6)(3,7): vertical across the two registers.
            (v0, v1) = minmax4(v0, v1);
            // (2,4)(3,5): gather [x2,x3,x4,x5], exchange across its halves.
            let cross = _mm256_permute2x128_si256::<0x21>(v0, v1);
            let (mn, mx) = minmax4(cross, _mm256_permute4x64_epi64::<0x4E>(cross));
            v0 = _mm256_permute2x128_si256::<0x20>(v0, mn);
            v1 = _mm256_permute2x128_si256::<0x31>(mx, v1);
            // (1,2) and (5,6) again, then (3,4) through the same cross gather.
            v0 = cswap_perm::<0xD8, 0x30>(v0);
            v1 = cswap_perm::<0xD8, 0x30>(v1);
            let cross = _mm256_permute2x128_si256::<0x21>(v0, v1);
            let cross = cswap_perm::<0xD8, 0x30>(cross);
            v0 = _mm256_permute2x128_si256::<0x20>(v0, cross);
            v1 = _mm256_permute2x128_si256::<0x31>(cross, v1);
            Ymm2(v0, v1)
        }

        #[inline(always)]
        unsafe fn clean8(self) -> Self {
            // Distance 4: vertical; then distances 2 and 1 within registers.
            let (mn, mx) = minmax4(self.0, self.1);
            Ymm2(
                cswap_perm::<0xB1, 0xCC>(cswap_perm::<0x4E, 0xF0>(mn)),
                cswap_perm::<0xB1, 0xCC>(cswap_perm::<0x4E, 0xF0>(mx)),
            )
        }
    }

    /// Merge two sorted eights into a sorted sixteen `(low, high)`:
    /// reversing `b` makes `a ++ b` bitonic, one exchange at distance 8
    /// splits it, and a half-cleaner sorts each register.
    ///
    /// # Safety
    /// The CPU must have `V`'s instance features.
    #[inline(always)]
    unsafe fn merge16<V: Lanes8>(a: V, b: V) -> (V, V) {
        let (lo, hi) = V::minmax(a, b.reverse());
        (lo.clean8(), hi.clean8())
    }

    /// Merge two sorted sixteens into a sorted thirty-two `(low, high)`:
    /// reverse `b`, exchange at distance 16, then per half one exchange at
    /// distance 8 and a half-cleaner per register.
    ///
    /// # Safety
    /// The CPU must have `V`'s instance features.
    #[inline(always)]
    unsafe fn merge32<V: Lanes8>(a: [V; 2], b: [V; 2]) -> ([V; 2], [V; 2]) {
        let (l0, h0) = V::minmax(a[0], b[1].reverse());
        let (l1, h1) = V::minmax(a[1], b[0].reverse());
        let (l0, l1) = V::minmax(l0, l1);
        let (h0, h1) = V::minmax(h0, h1);
        ([l0.clean8(), l1.clean8()], [h0.clean8(), h1.clean8()])
    }

    /// A block of [`Block::N`] elements in registers: what the block
    /// sorter sorts and what a streamed merge moves per step.
    ///
    /// Every method's safety contract: the CPU has the instance's
    /// features, and a pointer argument addresses `N` valid elements.
    trait Block: Copy {
        const N: usize;
        unsafe fn load(p: *const u64) -> Self;
        unsafe fn store(self, p: *mut u64);
        /// Sort the block's elements.
        unsafe fn sort(self) -> Self;
        /// Merge two sorted blocks into `(low, high)`.
        unsafe fn merge(a: Self, b: Self) -> (Self, Self);
    }

    /// One register set per block: 8 elements, merged by [`merge16`].
    impl<V: Lanes8> Block for [V; 1] {
        const N: usize = 8;

        #[inline(always)]
        unsafe fn load(p: *const u64) -> Self {
            [V::load(p)]
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut u64) {
            self[0].store(p)
        }

        #[inline(always)]
        unsafe fn sort(self) -> Self {
            [self[0].sort8()]
        }

        #[inline(always)]
        unsafe fn merge(a: Self, b: Self) -> (Self, Self) {
            let (lo, hi) = merge16(a[0], b[0]);
            ([lo], [hi])
        }
    }

    /// Two register sets per block: 16 elements, merged by [`merge32`].
    impl<V: Lanes8> Block for [V; 2] {
        const N: usize = 16;

        #[inline(always)]
        unsafe fn load(p: *const u64) -> Self {
            [V::load(p), V::load(p.add(8))]
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut u64) {
            self[0].store(p);
            self[1].store(p.add(8));
        }

        #[inline(always)]
        unsafe fn sort(self) -> Self {
            let (lo, hi) = merge16(self[0].sort8(), self[1].sort8());
            [lo, hi]
        }

        #[inline(always)]
        unsafe fn merge(a: Self, b: Self) -> (Self, Self) {
            merge32(a, b)
        }
    }

    /// The wide instance's block.
    type Wide = [Zmm; 2];

    /// The emulated instance's block.
    type Emulated = [Ymm2; 1];

    /// The instances this CPU runs, fastest first, by name.
    pub(super) fn available() -> impl Iterator<Item = (&'static str, Kernels)> {
        let avx2 = is_x86_feature_detected!("avx2");
        let avx512 = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl");
        // SAFETY (every closure below): an instance is handed out only
        // when the CPU has every feature its entry points enable.
        let wide = avx512.then_some((
            "wide",
            Kernels {
                block: Wide::N,
                sort_blocks: |d| unsafe { sort_blocks_wide(d) },
                merge: |a, b, out| unsafe { merge_into_wide(a, b, out) },
                pass: |src, dst, width| unsafe { merge_pass_wide(src, dst, width) },
            },
        ));
        let emulated = avx2.then_some((
            "emulated",
            Kernels {
                block: Emulated::N,
                sort_blocks: |d| unsafe { sort_blocks_emulated(d) },
                merge: |a, b, out| unsafe { merge_into_emulated(a, b, out) },
                pass: |src, dst, width| unsafe { merge_pass_emulated(src, dst, width) },
            },
        ));
        [wide, emulated].into_iter().flatten()
    }

    /// Block sorter: full blocks in registers, the short tail through
    /// insertion sort.
    ///
    /// # Safety
    /// The CPU must have `B`'s instance features.
    #[inline(always)]
    unsafe fn sort_blocks<B: Block>(data: &mut [u64]) {
        let mut chunks = data.chunks_exact_mut(B::N);
        for c in &mut chunks {
            let p = c.as_mut_ptr();
            // SAFETY: `c` holds exactly `N` elements.
            B::load(p).sort().store(p);
        }
        insertion_sort(chunks.into_remainder());
    }

    /// One streamed merge of `a` and `b` into `out`: a sorted one-block
    /// carry in registers; each step pulls the next block from the run
    /// whose head is smaller, merges it with the carry, emits the low
    /// block and keeps the high one.
    struct Stream<'a, B> {
        a: &'a [u64],
        b: &'a [u64],
        out: &'a mut [u64],
        /// Cursors into `a`, `b` and `out`.
        i: usize,
        j: usize,
        k: usize,
        carry: B,
    }

    impl<'a, B: Block> Stream<'a, B> {
        /// Start merging; runs shorter than a block are merged at once by
        /// the scalar branchless merge instead, and `None` returned.
        ///
        /// # Safety
        /// The CPU must have `B`'s instance features, and
        /// `out.len() == a.len() + b.len()`.
        #[inline(always)]
        unsafe fn start(a: &'a [u64], b: &'a [u64], out: &'a mut [u64]) -> Option<Self> {
            if a.len() < B::N || b.len() < B::N {
                merge_branchless(a, b, out);
                return None;
            }
            // SAFETY: both runs hold a block, and `out` their sum.
            let (lo, carry) = B::merge(B::load(a.as_ptr()), B::load(b.as_ptr()));
            lo.store(out.as_mut_ptr());
            Some(Stream {
                a,
                b,
                out,
                i: B::N,
                j: B::N,
                k: B::N,
                carry,
            })
        }

        /// Merge the next block. Returns false, changing nothing, once the
        /// run to pull from cannot supply a full block.
        ///
        /// # Safety
        /// As [`Stream::start`].
        #[inline(always)]
        unsafe fn step(&mut self) -> bool {
            let pull_a = match (self.i < self.a.len(), self.j < self.b.len()) {
                (true, true) => self.a[self.i] <= self.b[self.j],
                (a_left, _) => a_left,
            };
            let (run, pos) = if pull_a {
                (self.a, &mut self.i)
            } else {
                (self.b, &mut self.j)
            };
            if *pos + B::N > run.len() {
                return false;
            }
            // SAFETY: the load reads a full block of `run`; the store writes
            // one block at `k` while the carry still holds a block not yet
            // written, so `k + N <= out.len()`.
            let (lo, hi) = B::merge(B::load(run.as_ptr().add(*pos)), self.carry);
            *pos += B::N;
            lo.store(self.out.as_mut_ptr().add(self.k));
            self.k += B::N;
            self.carry = hi;
            true
        }

        /// Run to the end: step while a full block is available, then merge
        /// the carry with what is left of both runs.
        ///
        /// # Safety
        /// As [`Stream::start`].
        #[inline(always)]
        unsafe fn finish(mut self) {
            while self.step() {}
            let (a, b) = (&self.a[self.i..], &self.b[self.j..]);
            let out = &mut self.out[self.k..];
            if a.is_empty() && b.is_empty() {
                // SAFETY: exactly the carry's block is left to write.
                self.carry.store(out.as_mut_ptr());
                return;
            }
            // Drain: three-way scalar merge of the carry and both runs.
            let mut buf = [0u64; 16];
            let carry = &mut buf[..B::N];
            // SAFETY: `carry` holds exactly one block.
            self.carry.store(carry.as_mut_ptr());
            let (mut c, mut i, mut j) = (0, 0, 0);
            for slot in out {
                let c_ok = c < carry.len();
                let a_ok = i < a.len();
                let b_ok = j < b.len();
                *slot = if c_ok && (!a_ok || carry[c] <= a[i]) && (!b_ok || carry[c] <= b[j]) {
                    c += 1;
                    carry[c - 1]
                } else if a_ok && (!b_ok || a[i] <= b[j]) {
                    i += 1;
                    a[i - 1]
                } else {
                    j += 1;
                    b[j - 1]
                };
            }
        }
    }

    /// A two-run merge: `(a, b, out)` with `out.len() == a.len() + b.len()`.
    type Merge<'a> = (&'a [u64], &'a [u64], &'a mut [u64]);

    /// Two independent merges in one loop: neither stream's step depends
    /// on the other's, so the core overlaps their shuffle chains. Their
    /// carries stay in registers because both streams are locals here.
    ///
    /// # Safety
    /// The CPU must have `B`'s instance features, and each `out` must be
    /// as long as its runs together.
    #[inline(always)]
    unsafe fn merge2<B: Block>(x: Merge, y: Merge) {
        let mut s = Stream::<B>::start(x.0, x.1, x.2);
        let mut t = Stream::<B>::start(y.0, y.1, y.2);
        if let (Some(s), Some(t)) = (&mut s, &mut t) {
            // `&`, not `&&`: both streams step every round.
            while s.step() & t.step() {}
        }
        for stream in [s, t].into_iter().flatten() {
            stream.finish();
        }
    }

    /// Merge `a` and `b` into `out`: cut at the output's midpoint
    /// ([`co_rank`]) and merge both halves as two streams.
    ///
    /// # Safety
    /// The CPU must have `B`'s instance features.
    #[inline(always)]
    unsafe fn merge_into<B: Block>(a: &[u64], b: &[u64], out: &mut [u64]) {
        assert_eq!(out.len(), a.len() + b.len(), "merge_into: output length");
        let h = out.len() / 2;
        let (i, j) = co_rank(h, a, b);
        let (lo, hi) = out.split_at_mut(h);
        merge2::<B>((&a[..i], &b[..j], lo), (&a[i..], &b[j..], hi));
    }

    /// One bottom-up pass: merge every adjacent pair of `width`-long runs
    /// of `src` into the same place in `dst`, two pairs per [`merge2`]; a
    /// lone last pair goes through [`merge_into`].
    ///
    /// # Safety
    /// The CPU must have `B`'s instance features, and
    /// `dst.len() == src.len()`.
    #[inline(always)]
    unsafe fn merge_pass<B: Block>(src: &[u64], dst: &mut [u64], width: usize) {
        assert_eq!(src.len(), dst.len(), "merge_pass: output length");
        let mut pairs = src
            .chunks(2 * width)
            .zip(dst.chunks_mut(2 * width))
            .map(|(s, d)| {
                let (a, b) = s.split_at(width.min(s.len()));
                (a, b, d)
            });
        while let Some(x) = pairs.next() {
            match pairs.next() {
                Some(y) => merge2::<B>(x, y),
                None => merge_into::<B>(x.0, x.1, x.2),
            }
        }
    }

    // The two instances: each entry point compiles the generic kernel for
    // its features and block type.

    /// # Safety
    /// The CPU must have AVX-512F and AVX-512VL.
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn sort_blocks_wide(data: &mut [u64]) {
        sort_blocks::<Wide>(data)
    }

    /// # Safety
    /// As [`sort_blocks_wide`].
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn merge_into_wide(a: &[u64], b: &[u64], out: &mut [u64]) {
        merge_into::<Wide>(a, b, out)
    }

    /// # Safety
    /// As [`sort_blocks_wide`].
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn merge_pass_wide(src: &[u64], dst: &mut [u64], width: usize) {
        merge_pass::<Wide>(src, dst, width)
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

    /// # Safety
    /// As [`sort_blocks_emulated`].
    #[target_feature(enable = "avx2")]
    unsafe fn merge_pass_emulated(src: &[u64], dst: &mut [u64], width: usize) {
        merge_pass::<Emulated>(src, dst, width)
    }

    /// Each available instance's 8-lane network alone, by name, for the
    /// 0-1 test (the wide block sorter wraps it in a 16-element merge).
    #[cfg(test)]
    pub(super) fn sort8_networks() -> impl Iterator<Item = (&'static str, fn(&mut [u64; 8]))> {
        /// # Safety
        /// The CPU must have AVX-512F and AVX-512VL.
        #[target_feature(enable = "avx512f,avx512vl")]
        unsafe fn wide(v: &mut [u64; 8]) {
            Zmm::load(v.as_ptr()).sort8().store(v.as_mut_ptr())
        }
        /// # Safety
        /// The CPU must have AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn emulated(v: &mut [u64; 8]) {
            Ymm2::load(v.as_ptr()).sort8().store(v.as_mut_ptr())
        }
        // SAFETY: as in `available`, which decides what is handed out.
        available().map(|(name, _)| {
            let net: fn(&mut [u64; 8]) = if name == "wide" {
                |v| unsafe { wide(v) }
            } else {
                |v| unsafe { emulated(v) }
            };
            (name, net)
        })
    }
}

// ---------------------------------------------------------------------------
// Shared bottom-up driver
// ---------------------------------------------------------------------------

/// Elements per cache block. The sort takes each block of this many
/// elements (256 KiB) to one sorted run while it and its reused
/// block-sized scratch sit in L2, and only then merges the blocks with
/// passes over all of memory — 6 passes at 2 M elements instead of 17.
/// A/B with 2 MiB of L2 per core, two threads each sorting 2 M packed
/// tuples (median of 7, two batches): unblocked 65.5 / 69.0 ms, 16 Ki
/// 64.7 / 60.7, 32 Ki 61.5 / 58.6, 64 Ki 69.7 / 70.3, 128 Ki 64.8 / 63.9
/// (DESIGN.md §5).
const CACHE_BLOCK: usize = 1 << 15;

/// The split `(i, j)`, `i + j = h`, at which `a[..i]` and `b[..j]` hold
/// the `h` smallest elements of `a` and `b` merged (ties taken from `a`
/// first): merging each side separately and concatenating the two outputs
/// is the whole merge. A binary search over the merge path.
fn co_rank(h: usize, a: &[u64], b: &[u64]) -> (usize, usize) {
    debug_assert!(h <= a.len() + b.len());
    let (mut lo, mut hi) = (h.saturating_sub(b.len()), h.min(a.len()));
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        // `i < a.len()` and `1 <= h - i <= b.len()` inside the bounds.
        if a[i] <= b[h - i - 1] {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    (lo, h - lo)
}

/// One bottom-up pass with a slice-to-slice `merge`: every adjacent pair
/// of `width`-long runs of `src` into the same place in `dst`.
fn merge_pass(
    src: &[u64],
    dst: &mut [u64],
    width: usize,
    merge: impl Fn(&[u64], &[u64], &mut [u64]),
) {
    for (s, d) in src.chunks(2 * width).zip(dst.chunks_mut(2 * width)) {
        let (a, b) = s.split_at(width.min(s.len()));
        merge(a, b, d);
    }
}

/// Bottom-up mergesort, cache-blocked: sort every `block`-sized chunk with
/// `sort_blocks` and merge them up to [`CACHE_BLOCK`]-wide runs one cache
/// block at a time, then merge those runs. Each `pass` merges adjacent
/// pairs of runs of one width from one buffer into the other, so a merge
/// ping-pongs between `data` and one scratch buffer.
fn bottom_up_mergesort(
    data: &mut [u64],
    block: usize,
    sort_blocks: impl Fn(&mut [u64]),
    pass: impl Fn(&[u64], &mut [u64], usize),
) {
    let n = data.len();
    if n <= block {
        sort_blocks(data);
        return;
    }
    let mut scratch = vec![0u64; n];
    for chunk in data.chunks_mut(CACHE_BLOCK) {
        sort_blocks(chunk);
        merge_up(chunk, &mut scratch[..chunk.len()], block, &pass);
    }
    merge_up(data, &mut scratch, CACHE_BLOCK, &pass);
}

/// Merge the sorted `width`-long runs of `data` into one, ping-ponging
/// through `scratch` (as long as `data`); the result ends in `data`.
fn merge_up(
    data: &mut [u64],
    scratch: &mut [u64],
    mut width: usize,
    pass: impl Fn(&[u64], &mut [u64], usize),
) {
    let mut in_data = true;
    while width < data.len() {
        if in_data {
            pass(data, scratch, width);
        } else {
            pass(scratch, data, width);
        }
        in_data = !in_data;
        width *= 2;
    }
    if !in_data {
        data.copy_from_slice(scratch);
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

    /// Sign-bit extremes in every position a block boundary can cut.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn extremes(n: usize) -> Vec<u64> {
        let pool = [
            0,
            1,
            i64::MAX as u64,
            i64::MAX as u64 + 1,
            u64::MAX - 1,
            u64::MAX,
            42,
        ];
        (0..n).map(|i| pool[(i * 5 + i / 3) % pool.len()]).collect()
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn register_sort8_is_a_sorting_network() {
        // 0-1 principle over each instance's 8-lane register network: all
        // 2^8 inputs, for both value pairs.
        for (name, net) in avx::sort8_networks() {
            for (lo, hi) in ZERO_ONE_PAIRS {
                for v in zero_one(8, lo, hi) {
                    let mut v: [u64; 8] = v.try_into().unwrap();
                    net(&mut v);
                    assert!(v.windows(2).all(|w| w[0] <= w[1]), "{name}: {v:?}");
                }
            }
            let mut v: [u64; 8] = extremes(8).try_into().unwrap();
            let mut expect = v;
            expect.sort_unstable();
            net(&mut v);
            assert_eq!(v, expect, "{name}");
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn register_block_sorter_is_a_sorting_network() {
        // 0-1 principle over each instance's whole block sorter (2^16
        // inputs for the wide instance's 16-element blocks).
        for (name, k) in avx::available() {
            for (lo, hi) in ZERO_ONE_PAIRS {
                for mut v in zero_one(k.block, lo, hi) {
                    (k.sort_blocks)(&mut v);
                    assert!(v.windows(2).all(|w| w[0] <= w[1]), "{name}: {v:?}");
                }
            }
            let mut v = extremes(k.block);
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
        let mut shapes: Vec<(usize, usize)> = (0..=40)
            .flat_map(|la| (0..=40).map(move |lb| (la, lb)))
            .collect();
        shapes.extend([(200, 3), (3, 200), (64, 33), (128, 128), (1000, 999)]);
        for (name, k) in avx::available() {
            for &(la, lb) in &shapes {
                for modulus in [5, 1000, u64::MAX] {
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
            // Sign-bit extremes interleaved across two full blocks each.
            for (la, lb) in [(16, 16), (37, 21)] {
                let mut a = extremes(la);
                let mut b = extremes(lb + 3)[3..].to_vec();
                a.sort_unstable();
                b.sort_unstable();
                let mut got = vec![0u64; la + lb];
                let mut expect: Vec<u64> = a.iter().chain(&b).copied().collect();
                expect.sort_unstable();
                (k.merge)(&a, &b, &mut got);
                assert_eq!(got, expect, "{name} la={la} lb={lb}");
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn register_pass_merges_two_streams_and_a_ragged_pair() {
        // Odd and even pair counts, with the last pair full, short in `b`,
        // missing `b` entirely, or shorter than a block.
        let mut rng = Rng::new(7);
        for (name, k) in avx::available() {
            for width in [16usize, 64, 200] {
                for pairs in 1..=5 {
                    for tail in [0, 5, width + 13, width] {
                        let n = pairs * 2 * width + tail;
                        let mut src: Vec<u64> = (0..n).map(|_| rng.next_u64() % 5000).collect();
                        src.chunks_mut(width).for_each(|r| r.sort_unstable());
                        let mut got = vec![0u64; n];
                        let mut expect = vec![0u64; n];
                        (k.pass)(&src, &mut got, width);
                        merge_pass(&src, &mut expect, width, merge_branchless);
                        assert_eq!(
                            got, expect,
                            "{name} width={width} pairs={pairs} tail={tail}"
                        );
                    }
                }
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn register_sort_crosses_cache_blocks() {
        let c = CACHE_BLOCK;
        for (name, k) in avx::available() {
            for n in [c - 1, c, c + 1, 3 * c + 17] {
                for modulus in [3, u64::MAX] {
                    let mut v: Vec<u64> = random_vec(n, n as u64)
                        .iter()
                        .map(|x| x % modulus)
                        .collect();
                    let mut expect = v.clone();
                    expect.sort_unstable();
                    bottom_up_mergesort(&mut v, k.block, k.sort_blocks, k.pass);
                    assert_eq!(v, expect, "{name} n={n} mod={modulus}");
                }
            }
        }
    }

    #[test]
    fn co_rank_splits_every_merge() {
        let mut rng = Rng::new(5);
        for (la, lb) in [(0, 0), (0, 7), (7, 0), (5, 9), (40, 40), (100, 3)] {
            for modulus in [2, 50, u64::MAX] {
                let mut a: Vec<u64> = (0..la).map(|_| rng.next_u64() % modulus).collect();
                let mut b: Vec<u64> = (0..lb).map(|_| rng.next_u64() % modulus).collect();
                a.sort_unstable();
                b.sort_unstable();
                for h in 0..=la + lb {
                    let (i, j) = co_rank(h, &a, &b);
                    assert_eq!(i + j, h);
                    let low = a[..i].iter().chain(&b[..j]).max();
                    let high = a[i..].iter().chain(&b[j..]).min();
                    if let (Some(low), Some(high)) = (low, high) {
                        assert!(low <= high, "la={la} lb={lb} h={h}");
                    }
                }
            }
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
