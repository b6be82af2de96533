//! Property tests of the lock-free SPSC ring behind the streaming
//! operator's ingress queues: exact FIFO delivery under every capacity
//! shape (1, powers of two, and bounds that round up to one), with random
//! yields on both sides to vary the interleaving; disconnects mid-stream in
//! each direction; exactly-once drop of every item on every path out of
//! the ring; and `recv_batch` agreeing with repeated `try_recv`. Sizes
//! shrink under Miri, which walks the ring's `UnsafeCell` slots.

use iawj_common::spsc::{stream_channel, RecvError, StreamReceiver, StreamSender};
use iawj_common::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::Duration;

/// 1, a power of two, and bounds that round up to 4 and 8 slots.
const CAPS: [usize; 5] = [1, 2, 3, 7, 1024];

fn counts() -> &'static [u32] {
    if cfg!(miri) {
        &[0, 1, 40]
    } else {
        &[0, 1, 999, 200_000]
    }
}

/// Yield about once every 64 calls: enough to shake the interleaving
/// without making every hand-off a context switch.
fn maybe_yield(rng: &mut Rng) {
    if rng.below(64) == 0 {
        thread::yield_now();
    }
}

#[test]
fn halves_move_between_threads() {
    fn moves<T: Send>() {}
    moves::<StreamSender<u64>>();
    moves::<StreamReceiver<u64>>();
}

#[test]
fn fifo_is_exact_across_capacities_and_counts() {
    for &cap in &CAPS {
        for &n in counts() {
            let (tx, rx) = stream_channel::<u32>(cap);
            thread::scope(|s| {
                s.spawn(move || {
                    let mut rng = Rng::new(u64::from(n) ^ cap as u64);
                    for v in 0..n {
                        maybe_yield(&mut rng);
                        tx.send(v).unwrap();
                    }
                });
                // Rotate through all three receive paths.
                let mut rng = Rng::new(!(u64::from(n) ^ cap as u64));
                let mut next = 0u32;
                let mut push = |v: u32| {
                    assert_eq!(v, next, "cap {cap}, n {n}: out of order");
                    next += 1;
                };
                loop {
                    maybe_yield(&mut rng);
                    assert!(rx.len() <= rx.capacity(), "cap {cap}: len {}", rx.len());
                    let res = match rng.below(3) {
                        0 => rx.try_recv().map(&mut push),
                        1 => rx.recv_timeout(Duration::from_millis(1)).map(&mut push),
                        _ => rx
                            .recv_batch(1 + rng.below(64) as usize, &mut push)
                            .map(drop),
                    };
                    if res == Err(RecvError::Disconnected) {
                        break;
                    }
                }
                assert_eq!(next, n, "cap {cap}: items lost");
            });
        }
    }
}

#[test]
fn sender_drop_mid_stream_drains_then_disconnects() {
    for &cap in &CAPS {
        let sent = if cfg!(miri) { 20 } else { 5000 };
        let (tx, rx) = stream_channel::<u32>(cap);
        thread::scope(|s| {
            s.spawn(move || {
                for v in 0..sent {
                    tx.send(v).unwrap();
                }
                // `tx` drops here, with up to `cap` items still buffered.
            });
            let mut got = Vec::new();
            loop {
                match rx.recv_timeout(Duration::from_secs(10)) {
                    Ok(v) => got.push(v),
                    Err(RecvError::Disconnected) => break,
                    Err(RecvError::Empty) => panic!("cap {cap}: a live sender went silent"),
                }
            }
            assert_eq!(got, (0..sent).collect::<Vec<_>>(), "cap {cap}");
            assert_eq!(rx.try_recv(), Err(RecvError::Disconnected));
        });
    }
}

#[test]
fn receiver_drop_mid_stream_fails_sends_fast() {
    for &cap in &CAPS {
        let take = if cfg!(miri) { 10 } else { 3000 };
        let (tx, rx) = stream_channel::<u32>(cap);
        thread::scope(|s| {
            let producer = s.spawn(move || {
                // Keeps sending, blocked on a full ring most of the time,
                // until the receiver is gone; then the failed send must
                // hand its own item back, and so must every later one.
                let mut v = 0u32;
                loop {
                    match tx.send(v) {
                        Ok(_) => v += 1,
                        Err(back) => {
                            assert_eq!(back, v);
                            assert_eq!(tx.send(v + 1), Err(v + 1));
                            return v;
                        }
                    }
                }
            });
            for want in 0..take {
                assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(want));
            }
            drop(rx);
            let failed_at = producer.join().unwrap();
            assert!(failed_at >= take, "cap {cap}: {failed_at} < {take}");
        });
    }
}

/// Counts its own drops, per id.
struct Token<'a> {
    id: usize,
    drops: &'a [AtomicU32],
}

impl Drop for Token<'_> {
    fn drop(&mut self) {
        self.drops[self.id].fetch_add(1, Ordering::Relaxed);
    }
}

fn assert_each_dropped_once(drops: &[AtomicU32], what: &str) {
    for (id, d) in drops.iter().enumerate() {
        assert_eq!(d.load(Ordering::Relaxed), 1, "{what}: item {id}");
    }
}

#[test]
fn every_item_is_dropped_exactly_once() {
    const N: usize = 12;
    let drops: Vec<AtomicU32> = (0..N).map(|_| AtomicU32::new(0)).collect();
    let token = |id| Token { id, drops: &drops };
    let reset = || drops.iter().for_each(|d| d.store(0, Ordering::Relaxed));

    // Received, buffered at the receiver's drop, and returned by a failed
    // send, with either half dropped first.
    for rx_first in [true, false] {
        reset();
        let (tx, rx) = stream_channel(8);
        for id in 0..8 {
            assert!(tx.send(token(id)).is_ok());
        }
        for _ in 0..3 {
            drop(rx.try_recv().unwrap());
        }
        if rx_first {
            drop(rx);
            for id in 8..N {
                drop(tx.send(token(id)).unwrap_err());
            }
            drop(tx);
        } else {
            drop(tx);
            drop(rx);
            (8..N).for_each(|id| drop(token(id)));
        }
        assert_each_dropped_once(&drops, &format!("rx_first={rx_first}"));
    }

    // A panic inside the batch callback: the items taken before it and the
    // one it held are dropped by the unwind; the rest stay buffered and go
    // with the receiver.
    reset();
    let (tx, rx) = stream_channel(N);
    for id in 0..N {
        assert!(tx.send(token(id)).is_ok());
    }
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        rx.recv_batch(N, |t| {
            if t.id == 4 {
                panic!("callback panics mid-batch");
            }
        })
    }));
    assert!(unwound.is_err());
    assert_eq!(rx.len(), N - 5);
    drop(rx);
    drop(tx);
    assert_each_dropped_once(&drops, "panic mid-batch");
}

#[test]
fn a_send_into_a_full_ring_counts_one_backpressure_episode() {
    for &cap in &CAPS {
        let (tx, rx) = stream_channel::<usize>(cap);
        assert_eq!(rx.capacity(), cap);
        thread::scope(|s| {
            s.spawn(move || {
                for v in 0..=cap {
                    // The first `cap` fit; the next finds the ring full,
                    // because nothing is received until it has blocked.
                    assert_eq!(tx.send(v), Ok(v == cap), "cap {cap}");
                }
            });
            while rx.blocked_sends() == 0 {
                thread::yield_now();
            }
            assert_eq!(rx.len(), cap);
            let mut got = Vec::new();
            while rx.recv_batch(cap + 1, |v| got.push(v)) != Err(RecvError::Disconnected) {}
            assert_eq!(got, (0..=cap).collect::<Vec<_>>());
            assert_eq!(rx.blocked_sends(), 1, "cap {cap}");
        });
    }
}

#[test]
fn recv_batch_yields_the_same_sequence_as_repeated_try_recv() {
    let rounds = if cfg!(miri) { 30 } else { 2000 };
    for &cap in &CAPS {
        let mut rng = Rng::new(cap as u64);
        let (tx_a, rx_a) = stream_channel::<u32>(cap);
        let (tx_b, rx_b) = stream_channel::<u32>(cap);
        let mut v = 0u32;
        for _ in 0..rounds {
            // Top both rings up by the same random amount, within space.
            for _ in 0..rng.below((cap - rx_a.len()) as u64 + 1) {
                tx_a.send(v).unwrap();
                tx_b.send(v).unwrap();
                v += 1;
            }
            let max = 1 + rng.below(2 * cap as u64) as usize;
            let mut batch = Vec::new();
            let taken = rx_a.recv_batch(max, |x| batch.push(x));
            let mut single = Vec::new();
            while single.len() < max {
                match rx_b.try_recv() {
                    Ok(x) => single.push(x),
                    Err(e) => {
                        if single.is_empty() {
                            assert_eq!(taken, Err(e));
                        }
                        break;
                    }
                }
            }
            assert_eq!(batch, single, "cap {cap}, max {max}");
            if !single.is_empty() {
                assert_eq!(taken, Ok(single.len()));
            }
            assert_eq!(rx_a.len(), rx_b.len());
        }
        drop((tx_a, tx_b));
        let mut rest_a = Vec::new();
        while rx_a.recv_batch(cap, |x| rest_a.push(x)).is_ok() {}
        let rest_b: Vec<u32> = std::iter::from_fn(|| rx_b.try_recv().ok()).collect();
        assert_eq!(rest_a, rest_b);
        assert_eq!(rx_a.recv_batch(cap, drop), Err(RecvError::Disconnected));
        assert_eq!(rx_b.try_recv(), Err(RecvError::Disconnected));
    }
}
