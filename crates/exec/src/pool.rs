//! Scoped worker threads — the study's stand-in for the original pthread
//! harness. Workers are plain OS threads created per run, which keeps every
//! run independent. For a single multi-millisecond batch join the spawn
//! cost is small, but it is *not* noise once the streaming service runs an
//! engine per window close (thousands of short runs per second) — that
//! regime is what the persistent, optionally pinned
//! [`Executor`](crate::executor::Executor) pool amortizes; `run_workers`
//! remains the executor's fallback for jobs wider than its pool and the
//! reference implementation the pool is property-tested against.

use std::sync::Barrier;

/// Run `n` workers, each receiving its thread id `0..n`, and collect their
/// results in thread-id order. Worker 0 runs on the calling thread so a
/// single-threaded configuration has zero spawn overhead.
pub fn run_workers<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(n > 0, "need at least one worker");
    if n == 1 {
        return vec![f(0)];
    }
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n - 1);
        for tid in 1..n {
            let f = &f;
            handles.push(scope.spawn(move || f(tid)));
        }
        results[0] = Some(f(0));
        for (tid, h) in handles.into_iter().enumerate() {
            let t = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            results[tid + 1] = Some(t);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every worker produced a result"))
        .collect()
}

/// A barrier sized for `n` workers — the synchronisation point between
/// NPJ's build and probe phases and between merge passes.
pub fn barrier(n: usize) -> Barrier {
    Barrier::new(n)
}

/// Split `len` items into `n` nearly-equal contiguous ranges; range `i` is
/// `chunk_range(len, n, i)`. The first `len % n` chunks get one extra item,
/// so the ranges exactly tile `0..len`.
#[inline]
pub fn chunk_range(len: usize, n: usize, i: usize) -> std::ops::Range<usize> {
    debug_assert!(i < n);
    let base = len / n;
    let extra = len % n;
    let start = i * base + i.min(extra);
    let end = start + base + usize::from(i < extra);
    start..end.min(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_tid_order() {
        let out = run_workers(4, |tid| tid * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn single_worker_runs_inline() {
        let caller = std::thread::current().id();
        let out = run_workers(1, |_| std::thread::current().id());
        assert_eq!(out[0], caller);
    }

    #[test]
    fn all_workers_execute() {
        let count = AtomicUsize::new(0);
        run_workers(8, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn barrier_synchronises() {
        let b = barrier(4);
        let max_before = AtomicUsize::new(0);
        run_workers(4, |tid| {
            max_before.fetch_max(tid, Ordering::SeqCst);
            b.wait();
            // After the barrier every tid must have been recorded.
            assert_eq!(max_before.load(Ordering::SeqCst), 3);
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_workers(4, |tid| {
                if tid == 2 {
                    panic!("injected failure");
                }
                tid
            })
        });
        let err = caught.expect_err("panic must propagate, not hang");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| err.downcast_ref::<String>().map(|s| s.as_str()))
            .unwrap_or("");
        assert!(msg.contains("injected failure"), "{msg}");
    }

    #[test]
    fn chunks_tile_exactly() {
        for len in [0usize, 1, 7, 8, 9, 100] {
            for n in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut prev_end = 0;
                for i in 0..n {
                    let r = chunk_range(len, n, i);
                    assert_eq!(r.start, prev_end, "len={len} n={n} i={i}");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, len, "len={len} n={n}");
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        for i in 0..3 {
            let r = chunk_range(10, 3, i);
            assert!(r.len() == 3 || r.len() == 4);
        }
    }
}
