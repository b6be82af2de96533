//! A minimal test-and-test-and-set spin latch.
//!
//! The study's tables only hold their latches for a handful of
//! instructions (push a pair into a bucket chain, scan a short chain), so
//! a word-sized spin latch is the faithful model — it is what the original
//! C++ study uses for NPJ's per-bucket latches, and it keeps the workspace
//! free of external lock crates. Not a general-purpose mutex: waiters
//! spin (with backoff and `yield_now`), there is no fairness, and
//! poisoning is not tracked (a panic while holding the latch leaves it
//! locked, matching spin-lock semantics).

use std::cell::UnsafeCell;
use std::hint;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// The latch word on its own: one byte whose all-zero bit pattern is the
/// free state, so it can sit inline in a zero-initialised bucket
/// ([`crate::hashtable::SharedTable`]) as well as in front of a [`Latch`]'s
/// value. Holding it is witnessed by the [`Held`] guard.
#[derive(Debug, Default)]
#[repr(transparent)]
pub(crate) struct RawLatch(AtomicBool);

impl RawLatch {
    /// Acquire the latch and report how many spin-wait episodes it took:
    /// 0 for an uncontended acquire, otherwise one per round in which the
    /// latch was observed held (or the acquiring CAS lost a race) before
    /// this thread finally won it. The NPJ build/probe paths surface each
    /// episode as a `latch:wait` journal instant, which is what makes the
    /// §5.3.2 bucket-contention pathology directly observable in traces.
    #[inline]
    pub(crate) fn lock_waits(&self) -> (Held<'_>, u32) {
        // Fast path: uncontended acquire.
        let waits = if self
            .0
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            0
        } else {
            self.lock_contended()
        };
        (Held(self), waits)
    }

    #[cold]
    fn lock_contended(&self) -> u32 {
        let mut waits = 0u32;
        let mut spins = 0u32;
        loop {
            waits = waits.saturating_add(1);
            // Test before test-and-set: spin on a read-only load so the
            // cache line stays shared until the latch actually frees.
            while self.0.load(Ordering::Relaxed) {
                if spins < 6 {
                    for _ in 0..1 << spins {
                        hint::spin_loop();
                    }
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            if self
                .0
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return waits;
            }
        }
    }
}

/// Proof that a [`RawLatch`] is held; releases it on drop. The `Release`
/// store pairs with the next holder's `Acquire` CAS, ordering everything
/// written under the latch before everything the next holder reads.
pub(crate) struct Held<'a>(&'a RawLatch);

impl Drop for Held<'_> {
    #[inline]
    fn drop(&mut self) {
        self.0 .0.store(false, Ordering::Release);
    }
}

/// A spin latch protecting a `T`, API-compatible with the subset of
/// `Mutex` the kernels use: `new` + infallible `lock` returning a guard.
#[derive(Debug, Default)]
pub struct Latch<T> {
    raw: RawLatch,
    value: UnsafeCell<T>,
}

// SAFETY: the latch provides the required mutual exclusion; `T: Send` is
// enough because only one thread can reach the value at a time.
unsafe impl<T: Send> Send for Latch<T> {}
unsafe impl<T: Send> Sync for Latch<T> {}

impl<T> Latch<T> {
    /// A new unlocked latch holding `value`.
    pub const fn new(value: T) -> Self {
        Latch {
            raw: RawLatch(AtomicBool::new(false)),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquire the latch, spinning until it is free.
    #[inline]
    pub fn lock(&self) -> LatchGuard<'_, T> {
        self.lock_waits().0
    }

    /// Acquire the latch and report how many spin-wait episodes it took
    /// (0 when uncontended; see `RawLatch::lock_waits`).
    #[inline]
    pub fn lock_waits(&self) -> (LatchGuard<'_, T>, u32) {
        let (held, waits) = self.raw.lock_waits();
        let guard = LatchGuard {
            _held: held,
            value: &self.value,
        };
        (guard, waits)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// Consume the latch, returning the value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

/// RAII guard; releases the latch on drop.
pub struct LatchGuard<'a, T> {
    _held: Held<'a>,
    value: &'a UnsafeCell<T>,
}

impl<T> Deref for LatchGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard's existence proves the latch is held.
        unsafe { &*self.value.get() }
    }
}

impl<T> DerefMut for LatchGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard's existence proves the latch is held.
        unsafe { &mut *self.value.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_workers;

    #[test]
    fn guards_exclusive_access() {
        let latch = Latch::new(0u64);
        run_workers(8, |_| {
            for _ in 0..10_000 {
                *latch.lock() += 1;
            }
        });
        assert_eq!(*latch.lock(), 80_000);
    }

    #[test]
    fn get_mut_and_into_inner() {
        let mut latch = Latch::new(vec![1, 2]);
        latch.get_mut().push(3);
        assert_eq!(latch.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn uncontended_lock_counts_zero_waits() {
        let latch = Latch::new(0u32);
        let (guard, waits) = latch.lock_waits();
        assert_eq!(waits, 0);
        drop(guard);
        assert_eq!(latch.lock_waits().1, 0);
    }

    #[test]
    fn contended_lock_counts_at_least_one_wait() {
        let latch = Latch::new(());
        let started = AtomicBool::new(false);
        std::thread::scope(|s| {
            let guard = latch.lock();
            let waiter = s.spawn(|| {
                started.store(true, Ordering::Release);
                latch.lock_waits().1
            });
            // Hold the latch until the waiter has certainly reached its
            // acquire attempt, so it must observe the latch held.
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(guard);
            assert!(waiter.join().unwrap() >= 1);
        });
    }

    #[test]
    fn reentrant_sequences_work() {
        let latch = Latch::new(String::new());
        latch.lock().push('a');
        latch.lock().push('b');
        assert_eq!(&*latch.lock(), "ab");
    }
}
