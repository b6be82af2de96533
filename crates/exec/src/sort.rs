//! The two sort backends of the study.
//!
//! The paper's sort-based algorithms use the AVX `avxsort` of Balkesen et
//! al. (bitonic sorting networks in SIMD registers) and compare against a
//! non-SIMD build (Figure 21). Raw AVX intrinsics are not portable, so the
//! substitution here is at the codegen level:
//!
//! - [`SortBackend::Vectorized`] sorts 8-element blocks with a branchless
//!   Batcher odd-even network and merges runs with a branch-free two-way
//!   merge. On an AVX2 CPU the network and the merge are *explicit*
//!   intrinsics: the same 19-comparator network evaluated over two
//!   4×64-bit registers, and a streamed 16-lane bitonic merge kernel
//!   (Balkesen et al.'s `avxsort` shape). Elsewhere it keeps the portable
//!   min/max data flow that merely *invites* autovectorization.
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
/// of every sort-based engine (MWAY, MPASS, PMJ, hybrid). It takes the AVX2
/// network wherever the CPU has it: at 4M × 4M that sorts in 432.5 vs
/// 637.6 ms (MWAY) and 415.6 vs 605.5 ms (MPASS) against the portable
/// network (DESIGN.md §5).
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
/// the explicit AVX2 network/merge when the CPU has AVX2 (and the build is
/// not under Miri), `Scalar` keeps the portable branchless path. Output is
/// bitwise-identical either way — sorted `u64`s are unique.
///
/// Unoptimized builds skip the AVX2 route: without inlining every
/// `_mm256_*` lane op is a function call, making the network ~25x slower
/// than the scalar path and wrecking wall-clock-sensitive debug tests.
/// The AVX2 functions keep their own unit tests (0-1 principle, merge
/// differential) in every profile; release builds take the real path.
pub fn sort_packed_kernel(data: &mut [u64], backend: SortBackend, kernel: KernelBackend) {
    match backend {
        SortBackend::Scalar => sort_scalar(data),
        SortBackend::Vectorized => {
            #[cfg(all(target_arch = "x86_64", not(miri), not(debug_assertions)))]
            if kernel.is_simd() && std::arch::is_x86_feature_detected!("avx2") {
                sort_simd_avx2(data);
                return;
            }
            let _ = kernel;
            sort_vectorized(data);
        }
    }
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

/// Branching two-way merge of `src[lo..mid]` and `src[mid..hi]` into
/// `dst[lo..hi]`.
fn merge_branching(src: &[u64], dst: &mut [u64], lo: usize, mid: usize, hi: usize) {
    let (mut i, mut j, mut k) = (lo, mid, lo);
    while i < mid && j < hi {
        if src[i] <= src[j] {
            dst[k] = src[i];
            i += 1;
        } else {
            dst[k] = src[j];
            j += 1;
        }
        k += 1;
    }
    if i < mid {
        dst[k..hi].copy_from_slice(&src[i..mid]);
    } else {
        dst[k..hi].copy_from_slice(&src[j..hi]);
    }
}

fn sort_scalar(data: &mut [u64]) {
    bottom_up_mergesort(data, SCALAR_BLOCK, insertion_sort, merge_branching);
}

// ---------------------------------------------------------------------------
// Vectorized backend
// ---------------------------------------------------------------------------

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

/// Branch-free two-way merge: selection and cursor advances are arithmetic
/// on the comparison mask, which compiles to conditional moves.
fn merge_branchless(src: &[u64], dst: &mut [u64], lo: usize, mid: usize, hi: usize) {
    let (mut i, mut j, mut k) = (lo, mid, lo);
    while i < mid && j < hi {
        let a = src[i];
        let b = src[j];
        let take_a = a <= b;
        dst[k] = if take_a { a } else { b };
        i += take_a as usize;
        j += !take_a as usize;
        k += 1;
    }
    if i < mid {
        dst[k..hi].copy_from_slice(&src[i..mid]);
    } else {
        dst[k..hi].copy_from_slice(&src[j..hi]);
    }
}

fn sort_vectorized(data: &mut [u64]) {
    bottom_up_mergesort(data, 8, sort_blocks_network, merge_branchless);
}

// ---------------------------------------------------------------------------
// Explicit AVX2 path
// ---------------------------------------------------------------------------

/// The AVX2 sort: the same bottom-up driver, but 8-blocks go through the
/// register-resident sorting network and runs through the streamed bitonic
/// merge. Caller must have verified AVX2 support.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[cfg_attr(debug_assertions, allow(dead_code))]
fn sort_simd_avx2(data: &mut [u64]) {
    bottom_up_mergesort(
        data,
        8,
        // SAFETY: AVX2 presence was checked by `sort_packed_kernel`.
        |chunk| unsafe { avx2::sort_blocks(chunk) },
        |src, dst, lo, mid, hi| unsafe { avx2::merge_runs(src, dst, lo, mid, hi) },
    );
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2 {
    //! The register-level kernels. AVX2 has no unsigned 64-bit compare, so
    //! min/max flips the sign bit and uses the signed `vpcmpgtq` — exact
    //! for the full `u64` range. The 8-element network is the identical
    //! 19-comparator Batcher network as [`super::sort8_network`], expressed
    //! as lane permutations + min/max + blends over two 4×64-bit registers;
    //! run merging is a 16-lane bitonic merge streamed with an 8-element
    //! carry, pulling the next block from whichever run's head is smaller
    //! (the structure of Balkesen et al.'s `avxsort` / Inoue's SIMD merge).

    use super::{insertion_sort, merge_branchless};
    use core::arch::x86_64::*;

    /// Unsigned per-lane min/max of two 4×u64 registers.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn minmax(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        let sign = _mm256_set1_epi64x(i64::MIN);
        let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign), _mm256_xor_si256(b, sign));
        let mn = _mm256_blendv_epi8(a, b, gt);
        let mx = _mm256_blendv_epi8(b, a, gt);
        (mn, mx)
    }

    /// In-register compare-exchange: permute lanes by `PERM`, min/max, then
    /// keep mins except at the `BLEND`-selected 32-bit lanes (the "upper"
    /// side of each comparator), which take the maxes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cswap_perm<const PERM: i32, const BLEND: i32>(v: __m256i) -> __m256i {
        let p = _mm256_permute4x64_epi64::<PERM>(v);
        let (mn, mx) = minmax(v, p);
        _mm256_blend_epi32::<BLEND>(mn, mx)
    }

    /// Sort 8 `u64`s held in two registers; same comparator schedule as the
    /// scalar network: (0,1)(2,3)(4,5)(6,7) / (0,2)(1,3)(4,6)(5,7) /
    /// (1,2)(5,6) / (0,4)(1,5)(2,6)(3,7) / (2,4)(3,5) / (1,2)(3,4)(5,6).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sort8(mut v0: __m256i, mut v1: __m256i) -> (__m256i, __m256i) {
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
        let (mn, mx) = minmax(v0, v1);
        v0 = mn;
        v1 = mx;
        // (2,4)(3,5): gather [x2,x3,x4,x5], exchange across its halves.
        let cross = _mm256_permute2x128_si256::<0x21>(v0, v1);
        let (mn, mx) = minmax(cross, _mm256_permute4x64_epi64::<0x4E>(cross));
        v0 = _mm256_permute2x128_si256::<0x20>(v0, mn);
        v1 = _mm256_permute2x128_si256::<0x31>(mx, v1);
        // (1,2) and (5,6) again, then (3,4) through the same cross gather.
        v0 = cswap_perm::<0xD8, 0x30>(v0);
        v1 = cswap_perm::<0xD8, 0x30>(v1);
        let cross = _mm256_permute2x128_si256::<0x21>(v0, v1);
        let cross = cswap_perm::<0xD8, 0x30>(cross);
        v0 = _mm256_permute2x128_si256::<0x20>(v0, cross);
        v1 = _mm256_permute2x128_si256::<0x31>(cross, v1);
        (v0, v1)
    }

    /// Bitonic merge of one bitonic 8-sequence spread over two registers.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bitonic_merge8(v0: __m256i, v1: __m256i) -> (__m256i, __m256i) {
        // Distance 4: vertical; then distances 2 and 1 within registers.
        let (mn, mx) = minmax(v0, v1);
        let v0 = cswap_perm::<0xB1, 0xCC>(cswap_perm::<0x4E, 0xF0>(mn));
        let v1 = cswap_perm::<0xB1, 0xCC>(cswap_perm::<0x4E, 0xF0>(mx));
        (v0, v1)
    }

    /// Merge two sorted 8-runs `(a0,a1)` and `(b0,b1)` into a sorted
    /// 16-sequence `(r0,r1,r2,r3)`: reverse `b` to form a bitonic 16, one
    /// distance-8 exchange, then an 8-lane bitonic merge per half.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn merge16(
        a0: __m256i,
        a1: __m256i,
        b0: __m256i,
        b1: __m256i,
    ) -> (__m256i, __m256i, __m256i, __m256i) {
        let rb0 = _mm256_permute4x64_epi64::<0x1B>(b1);
        let rb1 = _mm256_permute4x64_epi64::<0x1B>(b0);
        let (lo0, hi0) = minmax(a0, rb0);
        let (lo1, hi1) = minmax(a1, rb1);
        let (r0, r1) = bitonic_merge8(lo0, lo1);
        let (r2, r3) = bitonic_merge8(hi0, hi1);
        (r0, r1, r2, r3)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load8(p: *const u64) -> (__m256i, __m256i) {
        (
            _mm256_loadu_si256(p as *const __m256i),
            _mm256_loadu_si256(p.add(4) as *const __m256i),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store8(p: *mut u64, v0: __m256i, v1: __m256i) {
        _mm256_storeu_si256(p as *mut __m256i, v0);
        _mm256_storeu_si256(p.add(4) as *mut __m256i, v1);
    }

    /// Block sorter: full 8-blocks through the register network, short tail
    /// through insertion sort (exactly like the portable block sorter).
    ///
    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sort_blocks(data: &mut [u64]) {
        let mut chunks = data.chunks_exact_mut(8);
        for c in &mut chunks {
            let p = c.as_mut_ptr();
            let (v0, v1) = sort8(_mm256_loadu_si256(p as *const __m256i), {
                _mm256_loadu_si256(p.add(4) as *const __m256i)
            });
            store8(p, v0, v1);
        }
        insertion_sort(chunks.into_remainder());
    }

    /// Streamed merge of `src[lo..mid]` and `src[mid..hi]` into
    /// `dst[lo..hi]`: keep an 8-element sorted carry in registers, pull the
    /// next 8-block from whichever run's head is smaller, `merge16`, emit
    /// the low 8, keep the high 8. Short runs and tails fall back to the
    /// scalar branchless merge.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn merge_runs(src: &[u64], dst: &mut [u64], lo: usize, mid: usize, hi: usize) {
        if mid - lo < 8 || hi - mid < 8 {
            merge_branchless(src, dst, lo, mid, hi);
            return;
        }
        let a = &src[lo..mid];
        let b = &src[mid..hi];
        let out = &mut dst[lo..hi];
        let (a0, a1) = load8(a.as_ptr());
        let (b0, b1) = load8(b.as_ptr());
        let (mut i, mut j) = (8usize, 8usize);
        let (r0, r1, mut c0, mut c1) = merge16(a0, a1, b0, b1);
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
            let (r0, r1, h0, h1) = merge16(n0, n1, c0, c1);
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
}

// ---------------------------------------------------------------------------
// Shared bottom-up driver
// ---------------------------------------------------------------------------

/// Bottom-up mergesort: sort fixed blocks with `block_sort`, then double run
/// width each pass, ping-ponging between `data` and one scratch buffer.
fn bottom_up_mergesort(
    data: &mut [u64],
    block: usize,
    block_sort: impl Fn(&mut [u64]),
    merge: impl Fn(&[u64], &mut [u64], usize, usize, usize),
) {
    let n = data.len();
    if n <= block {
        block_sort(data);
        return;
    }
    if block > 1 {
        for chunk in data.chunks_mut(block) {
            // chunks_mut gives the tail its true (shorter) length, which
            // both block sorters handle.
            block_sort(chunk);
        }
    }
    let mut scratch = vec![0u64; n];
    let mut src_is_data = true;
    let mut width = block;
    while width < n {
        {
            let (src, dst): (&[u64], &mut [u64]) = if src_is_data {
                (data, &mut scratch)
            } else {
                (&scratch, data)
            };
            let mut lo = 0;
            while lo < n {
                let mid = (lo + width).min(n);
                let hi = (lo + 2 * width).min(n);
                if mid < hi {
                    merge(src, dst, lo, mid, hi);
                } else {
                    dst[lo..hi].copy_from_slice(&src[lo..hi]);
                }
                lo = hi;
            }
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

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn avx2_sort8_is_a_sorting_network() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // 0-1 principle over the register-resident network, plus boundary
        // extremes to exercise the unsigned min/max at the sign-bit edge.
        for mask in 0u32..256 {
            let mut v: Vec<u64> = (0..8)
                .map(|b| if (mask >> b) & 1 == 1 { u64::MAX } else { 0 })
                .collect();
            unsafe { avx2::sort_blocks(&mut v) };
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "mask {mask:08b}: {v:?}");
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
        unsafe { avx2::sort_blocks(&mut v) };
        assert_eq!(v, expect);
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn avx2_merge_runs_matches_branchless() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = Rng::new(99);
        for (la, lb) in [
            (8usize, 8usize),
            (8, 9),
            (9, 8),
            (16, 16),
            (7, 100),
            (100, 7),
            (64, 33),
            (33, 64),
            (128, 128),
            (1, 1),
            (0, 16),
            (16, 0),
            (200, 3),
        ] {
            let mut a: Vec<u64> = (0..la).map(|_| rng.next_u64() % 1000).collect();
            let mut b: Vec<u64> = (0..lb).map(|_| rng.next_u64() % 1000).collect();
            a.sort_unstable();
            b.sort_unstable();
            let src: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
            let mut got = vec![0u64; la + lb];
            let mut expect = vec![0u64; la + lb];
            unsafe { avx2::merge_runs(&src, &mut got, 0, la, la + lb) };
            merge_branchless(&src, &mut expect, 0, la, la + lb);
            assert_eq!(got, expect, "la={la} lb={lb}");
        }
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
