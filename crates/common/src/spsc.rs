//! Bounded single-producer/single-consumer channel with *blocking*
//! backpressure.
//!
//! The streaming join operator ingests each side of the join through one of
//! these queues: a source thread pushes timestamp-ordered tuples, the
//! operator thread drains them. When the consumer falls behind (a window
//! close is running an engine), the queue fills and `send` blocks — that is
//! the backpressure contract: a slow operator throttles its sources instead
//! of buffering unboundedly or dropping data.
//!
//! Every blocking episode is counted in a shared atomic so the operator can
//! observe backpressure without instrumenting the producer: the receiver
//! exposes [`StreamReceiver::blocked_sends`], and the streaming layer turns
//! increments into `stream:backpressure` journal instants.
//!
//! ## The ring
//!
//! A fixed array of `cap.next_power_of_two()` slots indexed by two
//! free-running counters: `head`, the next slot to read, written only by the
//! consumer, and `tail`, the next slot to write, written only by the
//! producer. Each sits on its own 64-byte line, so the two sides never write
//! the same line. The producer counts the ring full at `tail - head == cap`,
//! so [`StreamReceiver::capacity`] is the requested bound; the rounding only
//! turns the slot index into a mask. Each half keeps its own index plus a
//! cached copy of the other side's, and reloads the shared one only when the
//! cache says full (producer) or empty (consumer). [`StreamReceiver::recv_batch`]
//! hands the consumer up to a whole batch for one `head` publication and one
//! wake check.
//!
//! A side that finds the ring full (producer) or empty (consumer, in
//! [`StreamReceiver::recv_timeout`]) spins a bounded number of rounds, then
//! parks on a condvar. The mutex and the two condvars serve parking only;
//! `send` and the receives never take the mutex on their fast path.
//!
//! ## Memory ordering
//!
//! - **Publication.** The producer writes a slot, then stores `tail`; the
//!   consumer loads `tail` before reading any slot below it. The store is
//!   Release (it is SeqCst, see below) and the load Acquire, so the slot
//!   write happens-before its read. The same pairing on `head` orders the
//!   consumer's read of a slot before the producer's reuse of it.
//! - **No lost wakeup.** A side about to park first stores its `waiting`
//!   flag and then reloads the other side's index, both SeqCst, and sleeps
//!   only if the ring is still full or empty. The other side stores its
//!   index and then loads that flag, both SeqCst. The four accesses fall in
//!   one total order, so at least one side sees the other's store: either
//!   the parker sees the new index and does not sleep, or the publisher sees
//!   the flag and wakes it. The publisher takes the mutex before notifying,
//!   and the parker holds it from setting the flag until `wait` releases it,
//!   so the notification cannot fall between the parker's check and its
//!   sleep. The disconnect flags use the same handshake.
//! - **`!Sync` halves.** Each side advances its own index with plain
//!   stores (no read-modify-write) and keeps its cache in a `Cell`; both are
//!   sound only while one thread drives each side. The `Cell`s make both
//!   halves `Send + !Sync`: a half can move to another thread but cannot be
//!   shared by reference, so the compiler enforces single-producer,
//!   single-consumer.
//!
//! ```compile_fail
//! fn shared_by_reference<T: Sync>() {}
//! shared_by_reference::<iawj_common::StreamSender<u64>>();
//! ```
//!
//! ```compile_fail
//! fn shared_by_reference<T: Sync>() {}
//! shared_by_reference::<iawj_common::StreamReceiver<u64>>();
//! ```
//!
//! Disconnect semantics mirror `std::sync::mpsc`: dropping the sender lets
//! the receiver drain what is buffered and then observe end-of-stream;
//! dropping the receiver makes further sends fail fast, returning the tuple.
//! Every item is dropped exactly once: by its receiver, by the receiver's
//! drop if still buffered then, by the caller of a failed `send`, or with
//! the ring if a send raced the receiver's drop.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The largest capacity [`stream_channel`] accepts: 2^24 items. The ring
/// preallocates its slots, so the bound caps that allocation (128 MiB of
/// 8-byte tuples) — user input such as `iawj serve --queue-cap` is checked
/// against it before a channel is built.
pub const MAX_QUEUE_CAP: usize = 1 << 24;

/// Backoff rounds spent busy-waiting (2^round `spin_loop` hints each)
/// before a blocked side starts yielding.
const SPIN_ROUNDS: u32 = 6;
/// Backoff round after which a blocked side parks instead of yielding.
const PARK_AFTER: u32 = 10;

/// Pads and aligns its content to a 64-byte cache line.
#[repr(align(64))]
struct CacheLine<T>(T);

/// Where one side sleeps when the ring stays full (producer) or empty
/// (consumer) past its spin budget.
#[derive(Default)]
struct Parker {
    /// Set by the parked side before its final check, cleared by the side
    /// that wakes it: the flag half of the SeqCst handshake.
    waiting: AtomicBool,
    cv: Condvar,
}

impl Parker {
    /// Sleep until woken, until `deadline` passes, or not at all if
    /// `ready` (which must load the other side's state with SeqCst) already
    /// holds once the flag is up. Spurious returns are allowed: callers
    /// re-check in a loop.
    fn park(&self, lock: &Mutex<()>, deadline: Option<Instant>, ready: impl Fn() -> bool) {
        // The mutex guards no data, so a poisoned guard is as good as any.
        let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.waiting.store(true, Ordering::SeqCst);
        if !ready() {
            match deadline {
                None => drop(self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner)),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if !left.is_zero() {
                        drop(self.cv.wait_timeout(guard, left));
                    }
                }
            }
        }
        self.waiting.store(false, Ordering::Relaxed);
    }

    /// Wake the other side if it is parked (or about to park). Call after
    /// a SeqCst store of the state it waits on.
    fn wake(&self, lock: &Mutex<()>) {
        if self.waiting.load(Ordering::SeqCst) && self.waiting.swap(false, Ordering::SeqCst) {
            // Taking the mutex waits out a parker between raising its flag
            // and entering `wait`.
            drop(lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_one();
        }
    }
}

/// Spin-then-yield budget a blocked side works through before parking.
#[derive(Default)]
struct Backoff(u32);

impl Backoff {
    /// Wait a little, longer on each call; `false` once the budget is
    /// spent and the caller should park instead.
    fn snooze(&mut self) -> bool {
        match self.0 {
            r @ 0..SPIN_ROUNDS => (0..1u32 << r).for_each(|_| std::hint::spin_loop()),
            SPIN_ROUNDS..PARK_AFTER => std::thread::yield_now(),
            _ => return false,
        }
        self.0 += 1;
        true
    }
}

struct Shared<T> {
    /// Next slot the consumer reads.
    head: CacheLine<AtomicUsize>,
    /// Next slot the producer writes.
    tail: CacheLine<AtomicUsize>,
    /// Slots `[head, tail)` (masked) hold initialized items.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    cap: usize,
    tx_alive: AtomicBool,
    rx_alive: AtomicBool,
    blocked_sends: AtomicU64,
    lock: Mutex<()>,
    /// The producer parks here while the ring is full.
    not_full: Parker,
    /// The consumer parks here while the ring is empty.
    not_empty: Parker,
}

// SAFETY: `Shared` moves each `T` from the producer's thread to the
// consumer's (hence `T: Send`) and never hands out `&T`, so `T: Sync` is not
// needed. Every field other than `slots` is an atomic or a std sync
// primitive. A slot is touched by one side at a time: the producer writes
// only `[tail, head + cap)`, the consumer reads only `[head, tail)`, and the
// Release/Acquire publication of `head` and `tail` orders each hand-off.
// Only one thread drives each side, because the halves are `!Sync` and
// `stream_channel` creates exactly one of each.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    fn slot(&self, idx: usize) -> *mut MaybeUninit<T> {
        self.slots[idx & self.mask].get()
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        let tail = *self.tail.0.get_mut();
        let mut i = *self.head.0.get_mut();
        while i != tail {
            // SAFETY: both halves are gone, so access is exclusive, and
            // `[head, tail)` holds the initialized items nobody received
            // (the receiver's drop publishes its final `head`).
            unsafe { (*self.slot(i)).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Producer half of a bounded SPSC channel; see the module docs.
pub struct StreamSender<T> {
    shared: Arc<Shared<T>>,
    /// This side's own index: equal to the shared `tail`.
    tail: Cell<usize>,
    /// Last `head` loaded; reloaded only when it says the ring is full.
    head_cache: Cell<usize>,
}

/// Consumer half of a bounded SPSC channel; see the module docs.
pub struct StreamReceiver<T> {
    shared: Arc<Shared<T>>,
    /// This side's own index; published to the shared `head` at the end
    /// of each receive.
    head: Cell<usize>,
    /// Last `tail` loaded; `head <= tail_cache <= tail` always holds.
    tail_cache: Cell<usize>,
}

/// Why a receive did not produce an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The queue is currently empty but the producer is still alive.
    Empty,
    /// The producer is gone and everything buffered has been drained.
    Disconnected,
}

/// Create a bounded SPSC channel holding at most `cap` items.
///
/// # Panics
///
/// If `cap` is outside `1..=`[`MAX_QUEUE_CAP`]; the ring preallocates
/// `cap.next_power_of_two()` slots.
pub fn stream_channel<T>(cap: usize) -> (StreamSender<T>, StreamReceiver<T>) {
    assert!(
        (1..=MAX_QUEUE_CAP).contains(&cap),
        "stream_channel capacity must be in 1..={MAX_QUEUE_CAP}, got {cap}"
    );
    let n_slots = cap.next_power_of_two();
    let shared = Arc::new(Shared {
        head: CacheLine(AtomicUsize::new(0)),
        tail: CacheLine(AtomicUsize::new(0)),
        slots: std::iter::repeat_with(|| UnsafeCell::new(MaybeUninit::uninit()))
            .take(n_slots)
            .collect(),
        mask: n_slots - 1,
        cap,
        tx_alive: AtomicBool::new(true),
        rx_alive: AtomicBool::new(true),
        blocked_sends: AtomicU64::new(0),
        lock: Mutex::new(()),
        not_full: Parker::default(),
        not_empty: Parker::default(),
    });
    (
        StreamSender {
            shared: Arc::clone(&shared),
            tail: Cell::new(0),
            head_cache: Cell::new(0),
        },
        StreamReceiver {
            shared,
            head: Cell::new(0),
            tail_cache: Cell::new(0),
        },
    )
}

impl<T> StreamSender<T> {
    /// Push one item, blocking while the queue is full.
    ///
    /// Returns `Ok(blocked)` where `blocked` reports whether this call had
    /// to wait for space (a backpressure episode), or `Err(item)` if the
    /// receiver is gone.
    pub fn send(&self, item: T) -> Result<bool, T> {
        let sh = &*self.shared;
        let tail = self.tail.get();
        let blocked = self.full(tail);
        if blocked {
            sh.blocked_sends.fetch_add(1, Ordering::Relaxed);
            let mut backoff = Backoff::default();
            while self.full(tail) && sh.rx_alive.load(Ordering::Acquire) {
                if !backoff.snooze() {
                    sh.not_full.park(&sh.lock, None, || {
                        !self.full(tail) || !sh.rx_alive.load(Ordering::SeqCst)
                    });
                }
            }
        }
        if !sh.rx_alive.load(Ordering::Acquire) {
            return Err(item);
        }
        // SAFETY: `tail - head < cap` (just checked against a `head` loaded
        // with Acquire), so slot `tail` lies outside `[head, tail)`: it is
        // uninitialized or was moved out by a receive that happens-before
        // that load. Only this thread writes slots (`!Sync`, one sender).
        unsafe { (*sh.slot(tail)).write(item) };
        let next = tail.wrapping_add(1);
        self.tail.set(next);
        // Release publishes the slot; SeqCst makes it the store half of the
        // wake handshake with a parking consumer.
        sh.tail.0.store(next, Ordering::SeqCst);
        sh.not_empty.wake(&sh.lock);
        Ok(blocked)
    }

    /// Whether the ring has no free slot for `tail`, reloading `head`
    /// (SeqCst, so the park check can use it) only when the cache says so.
    fn full(&self, tail: usize) -> bool {
        let cap = self.shared.cap;
        if tail.wrapping_sub(self.head_cache.get()) < cap {
            return false;
        }
        self.head_cache
            .set(self.shared.head.0.load(Ordering::SeqCst));
        tail.wrapping_sub(self.head_cache.get()) >= cap
    }
}

impl<T> Drop for StreamSender<T> {
    fn drop(&mut self) {
        let sh = &*self.shared;
        // Follows every `tail` store of this side, so a receiver that sees
        // it sees everything ever sent.
        sh.tx_alive.store(false, Ordering::SeqCst);
        sh.not_empty.wake(&sh.lock);
    }
}

impl<T> StreamReceiver<T> {
    /// Pop one item without blocking.
    pub fn try_recv(&self) -> Result<T, RecvError> {
        let mut got = None;
        self.recv_batch(1, |item| got = Some(item))?;
        Ok(got.expect("a successful recv_batch(1) yields one item"))
    }

    /// Pop up to `max` buffered items without blocking, handing each to
    /// `f` in FIFO order, and return how many were taken. One `head`
    /// publication and one producer wake check cover the whole batch.
    ///
    /// Errors exactly as [`try_recv`](Self::try_recv) when nothing is
    /// buffered; `Ok(0)` only for `max == 0`.
    pub fn recv_batch(&self, max: usize, mut f: impl FnMut(T)) -> Result<usize, RecvError> {
        let sh = &*self.shared;
        if self.ready() < max {
            self.tail_cache.set(sh.tail.0.load(Ordering::Acquire));
        }
        if self.ready() == 0 {
            if sh.tx_alive.load(Ordering::Acquire) {
                return Err(RecvError::Empty);
            }
            // The sender stored its final `tail` before clearing
            // `tx_alive`, so this reload sees everything it sent.
            self.tail_cache.set(sh.tail.0.load(Ordering::Acquire));
            if self.ready() == 0 {
                return Err(RecvError::Disconnected);
            }
        }
        let mut taken = 0;
        // `ready()` is re-read each round, so a receive made from inside
        // `f` cannot make this loop read a slot twice.
        while taken < max && self.ready() > 0 {
            let head = self.head.get();
            // SAFETY: `head < tail_cache <= tail`, a `tail` loaded with
            // Acquire, so the slot holds an initialized item the producer
            // no longer touches. `head` advances before `f` runs, so no
            // other receive (nested in `f`, or the drop after a panic in
            // `f`) reads this slot again.
            let item = unsafe { (*sh.slot(head)).assume_init_read() };
            self.head.set(head.wrapping_add(1));
            taken += 1;
            f(item);
        }
        // Release hands the slots back; SeqCst makes it the store half of
        // the wake handshake with a parking producer.
        sh.head.0.store(self.head.get(), Ordering::SeqCst);
        sh.not_full.wake(&sh.lock);
        Ok(taken)
    }

    /// Items known buffered without reloading `tail`.
    fn ready(&self) -> usize {
        self.tail_cache.get().wrapping_sub(self.head.get())
    }

    /// Pop one item, waiting up to `timeout` for the producer.
    ///
    /// The wait is against a fixed deadline, not a per-wakeup budget: each
    /// wakeup (a send that raced another drain of the buffer, or a spurious
    /// condvar wake) resumes waiting only for the *remaining* time, so the
    /// call returns within `timeout` of entry no matter how often it is
    /// woken.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        match self.try_recv() {
            Err(RecvError::Empty) => {}
            done => return done,
        }
        let sh = &*self.shared;
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::default();
        loop {
            if !backoff.snooze() {
                if Instant::now() >= deadline {
                    return self.try_recv();
                }
                sh.not_empty.park(&sh.lock, Some(deadline), || {
                    sh.tail.0.load(Ordering::SeqCst) != self.head.get()
                        || !sh.tx_alive.load(Ordering::SeqCst)
                });
            }
            match self.try_recv() {
                Err(RecvError::Empty) => {}
                done => return done,
            }
        }
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        self.shared
            .tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.get())
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The channel's capacity bound.
    pub fn capacity(&self) -> usize {
        self.shared.cap
    }

    /// Cumulative count of `send` calls that had to block for space.
    pub fn blocked_sends(&self) -> u64 {
        self.shared.blocked_sends.load(Ordering::Relaxed)
    }
}

impl<T> Drop for StreamReceiver<T> {
    fn drop(&mut self) {
        let sh = &*self.shared;
        sh.rx_alive.store(false, Ordering::SeqCst);
        // Drop what is buffered now; an item a racing send adds later is
        // dropped with the ring.
        let _ = self.recv_batch(usize::MAX, drop);
        // Publish the final `head` even when nothing was left: after a
        // panic inside `recv_batch`'s callback it runs ahead of the shared
        // one, and the ring's drop must not see those items again.
        sh.head.0.store(self.head.get(), Ordering::SeqCst);
        sh.not_full.wake(&sh.lock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn in_order_delivery_and_drain_after_sender_drop() {
        let (tx, rx) = stream_channel::<u32>(4);
        for v in 0..4 {
            tx.send(v).unwrap();
        }
        drop(tx);
        for v in 0..4 {
            assert_eq!(rx.try_recv(), Ok(v));
        }
        assert_eq!(rx.try_recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn capacity_one_round_trip_counts_backpressure() {
        let n: u64 = if cfg!(miri) { 50 } else { 1000 };
        let (tx, rx) = stream_channel::<u64>(1);
        let producer = thread::spawn(move || {
            for v in 0..n {
                tx.send(v).unwrap();
            }
        });
        // Receive nothing until a send has blocked, so the count below is
        // forced rather than left to the scheduler.
        while rx.blocked_sends() == 0 {
            thread::yield_now();
        }
        let mut got = 0u64;
        while got < n {
            match rx.try_recv() {
                Ok(v) => {
                    assert_eq!(v, got);
                    got += 1;
                }
                Err(RecvError::Empty) => thread::yield_now(),
                Err(RecvError::Disconnected) => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(got, n);
        assert!(rx.blocked_sends() >= 1);
    }

    #[test]
    fn send_fails_fast_after_receiver_drop() {
        let (tx, rx) = stream_channel::<u8>(1);
        tx.send(1).unwrap();
        drop(rx);
        assert_eq!(tx.send(2), Err(2));
    }

    /// Regression test for the timeout-restart bug: `recv_timeout` used to
    /// hand the *full* timeout back to `wait_timeout` after every wakeup,
    /// so a stream of wakeups that never leaves an item for this caller
    /// (spurious wakes, or sends raced by another drain) pushed the return
    /// arbitrarily far past the requested bound. With the deadline-based
    /// wait, ~1 s of 5 ms-spaced wakeups must not stretch an 80 ms timeout:
    /// the buggy version returns only after the wakeups stop (>1 s).
    #[test]
    #[cfg_attr(miri, ignore = "wall-clock bounds")]
    fn recv_timeout_deadline_survives_repeated_wakeups() {
        use std::sync::atomic::AtomicBool;

        let (tx, rx) = stream_channel::<u8>(2);
        // The halves are `!Sync`, so the wakeup source holds the ring
        // itself and signals the consumer's parking condvar directly.
        let shared = Arc::clone(&rx.shared);
        let done = AtomicBool::new(false);
        thread::scope(|s| {
            // Wakeup source: notifies the consumer's condvar every 5 ms
            // without ever enqueueing an item — the in-module stand-in for
            // spurious wakes, which cannot be forced portably.
            s.spawn(|| {
                for _ in 0..200 {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    shared.not_empty.cv.notify_all();
                    thread::sleep(Duration::from_millis(5));
                }
            });
            let start = Instant::now();
            let res = rx.recv_timeout(Duration::from_millis(80));
            let elapsed = start.elapsed();
            done.store(true, Ordering::Relaxed);
            assert_eq!(res, Err(RecvError::Empty));
            assert!(
                elapsed >= Duration::from_millis(75),
                "returned before the deadline: {elapsed:?}"
            );
            assert!(
                elapsed < Duration::from_millis(700),
                "wakeups must not restart the timeout: {elapsed:?}"
            );
        });
        drop(tx);
    }

    /// A slow-drip producer: items keep the receiver busy, and once the
    /// drip stops the final `recv_timeout` still spans ≈ its own timeout.
    #[test]
    #[cfg_attr(miri, ignore = "wall-clock bounds")]
    fn recv_timeout_slow_drip_total_elapsed_tracks_timeout() {
        let (tx, rx) = stream_channel::<u32>(4);
        let producer = thread::spawn(move || {
            for v in 0..3u32 {
                thread::sleep(Duration::from_millis(10));
                tx.send(v).unwrap();
            }
            // Keep tx alive past the consumer's last timed wait so the
            // final result is Empty, not Disconnected.
            thread::sleep(Duration::from_millis(300));
        });
        for v in 0..3u32 {
            assert_eq!(rx.recv_timeout(Duration::from_millis(500)), Ok(v));
        }
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(60)),
            Err(RecvError::Empty)
        );
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(55) && elapsed < Duration::from_millis(400),
            "timed-out wait should span ≈ the timeout, got {elapsed:?}"
        );
        producer.join().unwrap();
    }

    #[test]
    fn recv_timeout_sees_empty_then_item() {
        let (tx, rx) = stream_channel::<u8>(2);
        assert_eq!(
            rx.recv_timeout(Duration::from_micros(200)),
            Err(RecvError::Empty)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(50)), Ok(7));
    }
}
