//! Batched kernel primitives shared by the join algorithms: multi-key
//! hashing, bucket derivation over 8-key blocks, and software prefetch.
//!
//! The paper's §6.2 microarchitectural analysis attributes most hot cycles
//! to scalar hashing and pointer-chasing bucket probes; its codebase (after
//! Balkesen et al.) answers with hand-vectorized kernels and explicit
//! software prefetch. This module is our equivalent: every primitive has a
//! portable scalar path that is the *definition* of correctness, and an
//! x86_64 AVX2 path that must be bitwise-identical to it (the property
//! tests in `iawj-exec/tests/kernel_props.rs` enforce this). Each
//! data-plane layer passes the [`KernelBackend`] that won its own A/B
//! (DESIGN.md §5) as a constant; no user option selects it.
//!
//! Dispatch rules: the SIMD path is taken only when the backend says so,
//! the CPU reports AVX2 (`is_x86_feature_detected!`, cached by std), and
//! the build is not under Miri (Miri cannot execute vendor intrinsics —
//! the scalar path keeps the whole module Miri-checkable). On aarch64 the
//! *hash* path deliberately stays scalar: NEON has no 64-bit integer
//! multiply, so a vectorized fmix64 would be emulation without profit;
//! the win there is the `prfm` prefetch, which [`prefetch_read`] issues.

use crate::hash::{bucket_of, hash_key};
use crate::tuple::{Key, Tuple};

/// How many keys a batched kernel consumes per block.
pub const HASH_BLOCK: usize = 8;

/// Lookahead (in tuples) of every prefetched build/probe pipeline: far
/// enough that a DRAM load (~60-100 ns) completes before the drain reaches
/// the bucket, near enough that the line is still in L1 when it does. NPJ
/// at 4M × 4M measured 4, 8 and 16 within run-to-run spread (DESIGN.md §5),
/// so the distance stays where it was.
pub const DEFAULT_PREFETCH_DIST: usize = 8;

/// Implementation of the batched kernels, chosen per call site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable one-key-at-a-time loops; the correctness reference.
    Scalar,
    /// 8-key blocks through AVX2 where available, plus software prefetch;
    /// falls back to the scalar path on CPUs without AVX2 and under Miri.
    #[default]
    Simd,
}

impl KernelBackend {
    /// Whether this backend takes the intrinsic paths. (Whether the CPU
    /// *can* is decided per call site.)
    #[inline]
    pub fn is_simd(self) -> bool {
        matches!(self, KernelBackend::Simd)
    }
}

/// Is the AVX2 fast path actually available at runtime?
#[inline]
fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// Hash one 8-key block. Bitwise-identical to eight [`hash_key`] calls on
/// every backend; the SIMD path evaluates the same fmix64 finalizer over
/// two 4×64-bit AVX2 registers.
#[inline]
pub fn hash_batch8(backend: KernelBackend, keys: &[Key; HASH_BLOCK]) -> [u64; HASH_BLOCK] {
    let mut out = [0u64; HASH_BLOCK];
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if backend.is_simd() && avx2_available() {
        // SAFETY: AVX2 presence was just verified.
        unsafe { avx2::hash8(keys, &mut out) };
        return out;
    }
    let _ = backend;
    for (o, &k) in out.iter_mut().zip(keys.iter()) {
        *o = hash_key(k);
    }
    out
}

/// Hash an arbitrary key slice into `out` (same length), 8-key blocks with
/// a scalar tail. Bitwise-identical across backends.
pub fn hash_keys_into(backend: KernelBackend, keys: &[Key], out: &mut [u64]) {
    assert_eq!(keys.len(), out.len(), "hash_keys_into length mismatch");
    let mut chunks = keys.chunks_exact(HASH_BLOCK);
    let mut outs = out.chunks_exact_mut(HASH_BLOCK);
    for (kc, oc) in (&mut chunks).zip(&mut outs) {
        let block: &[Key; HASH_BLOCK] = kc.try_into().unwrap();
        oc.copy_from_slice(&hash_batch8(backend, block));
    }
    for (o, &k) in outs.into_remainder().iter_mut().zip(chunks.remainder()) {
        *o = hash_key(k);
    }
}

/// Derive hash-table bucket indices for a tuple slice into `out` (cleared
/// and refilled), using the batched hash. `mask` is the table's
/// power-of-two bucket mask, as in [`bucket_of`].
pub fn tuple_buckets_into(
    backend: KernelBackend,
    tuples: &[Tuple],
    mask: u64,
    out: &mut Vec<usize>,
) {
    out.clear();
    out.reserve(tuples.len());
    let mut chunks = tuples.chunks_exact(HASH_BLOCK);
    for chunk in &mut chunks {
        // Gather the strided keys into a contiguous block for the SIMD load.
        let mut keys = [0 as Key; HASH_BLOCK];
        for (k, t) in keys.iter_mut().zip(chunk.iter()) {
            *k = t.key;
        }
        let hashes = hash_batch8(backend, &keys);
        out.extend(hashes.iter().map(|&h| (h & mask) as usize));
    }
    out.extend(chunks.remainder().iter().map(|t| bucket_of(t.key, mask)));
}

/// Issue a read prefetch for the cache line holding `ptr` into L1.
///
/// Architecturally a hint: never faults, never changes program state, and
/// compiles to nothing on targets without a prefetch instruction and under
/// Miri (which cannot model it).
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: PREFETCHT0 is a hint; it cannot fault even on invalid
    // addresses and performs no observable memory access.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr as *const i8);
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    // SAFETY: PRFM PLDL1KEEP is a hint with no architectural side effects.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) ptr as usize,
            options(nostack, preserves_flags, readonly),
        );
    }
    #[cfg(any(miri, not(any(target_arch = "x86_64", target_arch = "aarch64"))))]
    {
        let _ = ptr;
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2 {
    //! The AVX2 fast paths. AVX2 has no 64-bit integer multiply, so the
    //! fmix64 constant multiplications are assembled exactly from 32-bit
    //! partial products: with `a = a_hi·2³² + a_lo` and likewise `b`,
    //! `a·b mod 2⁶⁴ = a_lo·b_lo + ((a_lo·b_hi + a_hi·b_lo) << 32)` — three
    //! `vpmuludq` and two adds per multiply, bit-exact.

    use super::{Key, HASH_BLOCK};
    use core::arch::x86_64::*;

    /// Exact 64-bit product (mod 2⁶⁴) per lane from 32-bit multiplies.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul64(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }

    /// The murmur3 fmix64 finalizer over four 64-bit lanes; mirrors
    /// `hash::hash_key` operation for operation.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fmix64x4(mut h: __m256i) -> __m256i {
        h = _mm256_xor_si256(h, _mm256_srli_epi64::<33>(h));
        h = mul64(h, _mm256_set1_epi64x(0xFF51_AFD7_ED55_8CCDu64 as i64));
        h = _mm256_xor_si256(h, _mm256_srli_epi64::<33>(h));
        h = mul64(h, _mm256_set1_epi64x(0xC4CE_B9FE_1A85_EC53u64 as i64));
        _mm256_xor_si256(h, _mm256_srli_epi64::<33>(h))
    }

    /// Hash 8 keys: two zero-extending loads, two fmix64x4 evaluations.
    #[target_feature(enable = "avx2")]
    pub unsafe fn hash8(keys: &[Key; HASH_BLOCK], out: &mut [u64; HASH_BLOCK]) {
        let lo = _mm_loadu_si128(keys.as_ptr() as *const __m128i);
        let hi = _mm_loadu_si128(keys.as_ptr().add(4) as *const __m128i);
        let h0 = fmix64x4(_mm256_cvtepu32_epi64(lo));
        let h1 = fmix64x4(_mm256_cvtepu32_epi64(hi));
        _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, h0);
        _mm256_storeu_si256(out.as_mut_ptr().add(4) as *mut __m256i, h1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Simd];

    #[test]
    fn batch_hash_matches_scalar_reference() {
        for backend in BOTH {
            let keys: [Key; HASH_BLOCK] =
                [0, 1, 2, 0xDEAD_BEEF, u32::MAX, 42, 7_777_777, 123_456_789];
            let got = hash_batch8(backend, &keys);
            for (g, &k) in got.iter().zip(keys.iter()) {
                assert_eq!(*g, hash_key(k), "backend={backend:?} key={k}");
            }
        }
    }

    #[test]
    fn slice_hash_covers_tails() {
        for backend in BOTH {
            for n in [0usize, 1, 7, 8, 9, 16, 17, 100] {
                let keys: Vec<Key> = (0..n as u32)
                    .map(|i| i.wrapping_mul(2_654_435_761))
                    .collect();
                let mut out = vec![0u64; n];
                hash_keys_into(backend, &keys, &mut out);
                for (o, &k) in out.iter().zip(keys.iter()) {
                    assert_eq!(*o, hash_key(k), "backend={backend:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn tuple_buckets_match_bucket_of() {
        let mask = 1023u64;
        for backend in BOTH {
            for n in [0usize, 1, 7, 8, 9, 4097] {
                let tuples: Vec<Tuple> = (0..n as u32)
                    .map(|i| Tuple {
                        key: i.wrapping_mul(0x9E37_79B9),
                        ts: i,
                    })
                    .collect();
                let mut out = Vec::new();
                tuple_buckets_into(backend, &tuples, mask, &mut out);
                assert_eq!(out.len(), n);
                for (b, t) in out.iter().zip(tuples.iter()) {
                    assert_eq!(*b, bucket_of(t.key, mask), "backend={backend:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn prefetch_is_a_harmless_hint() {
        // Null, dangling, unaligned: a prefetch must never fault.
        prefetch_read::<u8>(std::ptr::null());
        prefetch_read(0xDEAD_BEEFusize as *const u64);
        let v = [1u64, 2, 3];
        prefetch_read(v.as_ptr());
    }
}
