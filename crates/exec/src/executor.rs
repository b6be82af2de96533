//! The persistent worker-pool executor.
//!
//! [`run_workers`] spawns and joins fresh OS
//! threads per call. For one multi-millisecond batch join that cost is
//! noise, but the streaming service runs an engine *per window close* —
//! thousands of times per second at sustained rates — and then thread
//! creation, cold stacks, and arbitrary OS placement become a measurable
//! tax. [`Executor`] amortizes all three: a pool of named, optionally
//! *pinned* workers is created once (per `RunConfig` / `StreamingJoin`)
//! and reused across phases, runs, and window closes.
//!
//! Dispatch protocol: workers park on a condvar guarding a generation
//! counter. A [`Executor::run`] call type-erases the job closure, bumps
//! the generation, and wakes everyone; workers with `tid < n` run the
//! job, the caller itself runs lane 0, and a completion count signals a
//! second condvar. Results land in tid order and worker panics are
//! re-raised on the caller — byte-for-byte the `run_workers` contract
//! ([`Executor::run`] is property-tested against `run_workers`, which also
//! serves as the fallback for jobs wider than the pool).
//!
//! Placement: an optional [`PinPolicy`] maps workers onto the CPUs of the
//! affinity mask ([`Topology::plan`]) and each pool worker pins itself
//! once at startup via raw `sched_setaffinity`. Pin failures and missing
//! topology degrade to unpinned workers with a journaled
//! [`MARK_EXEC_UNPINNED`] notice — never an error. The executor also
//! tracks the CPU each lane was last observed on, which the Chrome-trace
//! export surfaces per worker.
//!
//! This pool is deliberately the seam a future sharded (shared-nothing)
//! execution layer plugs into: one executor per shard, placement per
//! NUMA node.

use crate::pool::run_workers;
use crate::topology::{current_cpu, pin_to_cpu, PinPolicy, Topology};
use iawj_obs::journal::SpanJournal;
use iawj_obs::{MARK_EXEC_DISPATCH, MARK_EXEC_PARK, MARK_EXEC_UNPINNED};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Observed-CPU sentinel: lane never seen on any CPU yet.
const CPU_UNKNOWN: usize = usize::MAX;

/// A type-erased dispatched job: the wrapper closure of the current
/// generation plus its lane count.
///
/// The raw pointer is only dereferenced by workers between the generation
/// bump that published it and the `active == 0` handshake that retires it,
/// while the caller keeps the closure alive on its stack.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    n: usize,
}

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and outlives every dereference per the generation protocol above.
unsafe impl Send for Job {}

/// Dispatch state guarded by `Inner::state`.
struct PoolState {
    /// Bumped once per dispatched generation; workers park until it moves.
    generation: u64,
    /// The current generation's job, cleared once the generation retires.
    job: Option<Job>,
    /// Pool workers still running the current generation.
    active: usize,
    /// Set once by `Drop`; workers exit on observing it.
    shutdown: bool,
}

/// State shared between the executor handle and its pool workers.
struct Inner {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a generation bump (or shutdown).
    cv_dispatch: Condvar,
    /// The dispatching caller parks here waiting for `active == 0`.
    cv_done: Condvar,
    /// Planned CPU per lane (`None` = unpinned). Lane 0 is the caller and
    /// is never pinned — the executor must not hijack its host thread's
    /// affinity (it may be a streaming operator or a user thread).
    placement: Vec<Option<usize>>,
    /// CPU each lane was last observed on ([`CPU_UNKNOWN`] = never).
    observed: Vec<AtomicUsize>,
    /// Executor-lifecycle journal: dispatch/park instants and placement
    /// degradation notices.
    journal: Mutex<SpanJournal>,
}

impl Inner {
    fn mark(&self, name: &'static str) {
        let now = Instant::now();
        if let Ok(mut j) = self.journal.lock() {
            j.mark(name, now);
        }
    }

    /// Record the CPU lane `tid` is on right now.
    fn note_observed(&self, tid: usize) {
        let Some(cpu) = current_cpu() else { return };
        if let Some(slot) = self.observed.get(tid) {
            slot.store(cpu, Ordering::Relaxed);
        }
    }
}

/// A reusable parallel-section runner: a persistent, optionally pinned
/// worker pool.
///
/// Created once per `RunConfig`/`StreamingJoin`; [`Executor::run`] has
/// exactly the `run_workers` contract (tid-ordered results, propagated
/// panics).
pub struct Executor {
    pin: PinPolicy,
    threads: usize,
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Build an executor for up to `threads` concurrent lanes: spawns
    /// `threads - 1` named (`iawj-worker-N`) parked workers and pins them
    /// per `pin`.
    ///
    /// Placement failures — empty topology, denied `sched_setaffinity` —
    /// degrade to unpinned workers with a [`MARK_EXEC_UNPINNED`] journal
    /// notice; construction itself never fails.
    pub fn new(pin: PinPolicy, threads: usize) -> Executor {
        let threads = threads.max(1);
        let mut placement = Topology::detect().plan(pin, threads);
        if let Some(first) = placement.first_mut() {
            // Lane 0 is the calling thread: never pin it.
            *first = None;
        }
        let degraded = pin != PinPolicy::None && placement.iter().all(|p| p.is_none());
        let inner = Arc::new(Inner {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            cv_dispatch: Condvar::new(),
            cv_done: Condvar::new(),
            placement,
            observed: (0..threads)
                .map(|_| AtomicUsize::new(CPU_UNKNOWN))
                .collect(),
            // Sized for a long dispatch/park history.
            journal: Mutex::new(SpanJournal::with_capacity(Instant::now(), 1024)),
        });
        if degraded {
            inner.mark(MARK_EXEC_UNPINNED);
        }
        let mut handles = Vec::new();
        for w in 1..threads {
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("iawj-worker-{w}"))
                .spawn(move || worker_loop(w, inner));
            match handle {
                Ok(h) => handles.push(h),
                // Thread spawn failed (resource exhaustion): degrade to
                // fewer pool workers; `run` falls back to scoped spawning
                // when a job needs more lanes than the pool.
                Err(_) => break,
            }
        }
        Executor {
            pin,
            threads,
            inner,
            handles,
        }
    }

    /// The placement policy this executor was built with.
    pub fn pin_policy(&self) -> PinPolicy {
        self.pin
    }

    /// The lane count the executor was sized for. Larger `run` requests
    /// still work (they fall back to per-run spawning).
    pub fn capacity(&self) -> usize {
        self.threads
    }

    /// True when at least one worker has a planned CPU — the gate for
    /// NUMA first-touch initialization in the engines (touching by chunk
    /// only helps when lanes stay where their pages were faulted in).
    pub fn pinned(&self) -> bool {
        self.inner.placement.iter().any(|p| p.is_some())
    }

    /// Number of generations dispatched through the pool so far.
    pub fn generations(&self) -> u64 {
        self.inner.state.lock().map(|s| s.generation).unwrap_or(0)
    }

    /// The CPU lane `tid` was last observed on (`None`: never observed,
    /// `getcpu` unavailable, or out of range).
    pub fn observed_core(&self, tid: usize) -> Option<usize> {
        self.inner
            .observed
            .get(tid)
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&c| c != CPU_UNKNOWN)
    }

    /// Number of retained executor-journal marks with this name
    /// (`exec:dispatch`, `exec:park`, `exec:unpinned`).
    pub fn count_marks(&self, name: &str) -> usize {
        self.inner
            .journal
            .lock()
            .map(|j| j.count_marks(name))
            .unwrap_or(0)
    }

    /// Run `f(tid)` for `tid` in `0..n` concurrently and return the
    /// results in tid order — the `run_workers` contract, including panic
    /// propagation. Lane 0 always runs on the calling thread.
    ///
    /// Dispatches onto the parked workers; `n == 1` runs inline, and
    /// `n > capacity` falls back to per-run spawning (engine jobs embed
    /// `Barrier(n)`, so all `n` lanes must truly run concurrently).
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        assert!(n > 0, "executor needs at least one lane");
        self.inner.note_observed(0);
        if n == 1 {
            return vec![f(0)];
        }
        if self.handles.len() + 1 < n {
            // A job wider than the pool.
            return run_workers(n, f);
        }
        self.dispatch(n, f)
    }

    fn dispatch<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let inner = &*self.inner;
        let results: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        {
            let f = &f;
            let results = &results;
            // Every lane runs through this wrapper: catch the panic so a
            // failing lane cannot unwind while other workers still hold
            // the type-erased closure pointer; re-raised in tid order
            // after the whole generation retires.
            let wrapper = move |tid: usize| {
                let r = catch_unwind(AssertUnwindSafe(|| f(tid)));
                if let Ok(mut slot) = results[tid].lock() {
                    *slot = Some(r);
                }
            };
            // SAFETY: only the lifetime is erased. The closure outlives
            // every dereference: workers release it by driving `active`
            // to 0, which the caller awaits below before `wrapper` drops.
            let job = Job {
                f: unsafe { erase_job(&wrapper) },
                n,
            };
            {
                let mut st = inner.state.lock().unwrap();
                debug_assert!(st.job.is_none(), "overlapping dispatch");
                st.job = Some(job);
                st.active = n - 1;
                st.generation += 1;
            }
            inner.cv_dispatch.notify_all();
            inner.mark(MARK_EXEC_DISPATCH);
            wrapper(0);
            let mut st = inner.state.lock().unwrap();
            while st.active != 0 {
                st = inner.cv_done.wait(st).unwrap();
            }
            st.job = None;
        }
        let mut first_panic = None;
        let mut out = Vec::with_capacity(n);
        for (tid, cell) in results.into_iter().enumerate() {
            match cell.into_inner().unwrap() {
                Some(Ok(v)) => out.push(v),
                Some(Err(p)) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
                None => unreachable!("executor lane {tid} retired without a result"),
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        out
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        if let Ok(mut st) = self.inner.state.lock() {
            st.shutdown = true;
        }
        self.inner.cv_dispatch.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("pin", &self.pin)
            .field("threads", &self.threads)
            .field("workers", &self.handles.len())
            .finish()
    }
}

/// Erase the lifetime of a job closure so it can sit in [`PoolState`].
///
/// # Safety
///
/// The caller must keep the closure alive, and only hand out the pointer
/// to lanes of a generation it retires (`active == 0`) before the closure
/// drops — which is exactly the [`Executor::dispatch`] protocol.
unsafe fn erase_job<'a>(
    f: &'a (dyn Fn(usize) + Sync + 'a),
) -> *const (dyn Fn(usize) + Sync + 'static) {
    // SAFETY: fat-pointer layout is lifetime-independent; validity of
    // later dereferences is the caller's contract above.
    let long: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&'a (dyn Fn(usize) + Sync + 'a), &'static (dyn Fn(usize) + Sync)>(f)
    };
    long as *const _
}

/// The parked pool worker: pin once, then loop on
/// park → observe generation bump → run lane (if `tid < n`) → report.
fn worker_loop(w: usize, inner: Arc<Inner>) {
    if let Some(cpu) = inner.placement.get(w).copied().flatten() {
        if pin_to_cpu(cpu) {
            inner.observed[w].store(cpu, Ordering::Relaxed);
        } else {
            inner.mark(MARK_EXEC_UNPINNED);
        }
    }
    let mut last_gen = 0u64;
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap();
            if !st.shutdown && st.generation == last_gen {
                // About to park. The journal has its own lock, so step
                // outside the state lock to record the instant.
                drop(st);
                inner.mark(MARK_EXEC_PARK);
                st = inner.state.lock().unwrap();
                while !st.shutdown && st.generation == last_gen {
                    st = inner.cv_dispatch.wait(st).unwrap();
                }
            }
            if st.shutdown {
                return;
            }
            last_gen = st.generation;
            st.job
        };
        // `job` can be None only if the generation already retired before
        // this (non-participating) worker woke; nothing to do then.
        let Some(job) = job else { continue };
        if w < job.n {
            inner.note_observed(w);
            // SAFETY: `w < n` means this lane is a participant of the
            // still-open generation `last_gen`: the caller blocks on
            // `active == 0` and keeps the closure alive until after this
            // lane's decrement below.
            let f = unsafe { &*job.f };
            f(w);
            let mut st = inner.state.lock().unwrap();
            st.active -= 1;
            if st.active == 0 {
                inner.cv_done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{barrier, run_workers};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_matches_run_workers_in_tid_order() {
        let exec = Executor::new(PinPolicy::None, 4);
        let pooled = exec.run(4, |tid| tid * 10);
        assert_eq!(pooled, run_workers(4, |tid| tid * 10));
        assert_eq!(pooled, vec![0, 10, 20, 30]);
        assert_eq!(exec.generations(), 1);
    }

    #[test]
    fn single_lane_runs_inline() {
        let exec = Executor::new(PinPolicy::None, 4);
        let caller = std::thread::current().id();
        let ids = exec.run(1, |_| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
        assert_eq!(exec.generations(), 0, "inline lanes skip the pool");
    }

    #[test]
    fn reuse_across_heterogeneous_lane_counts() {
        let exec = Executor::new(PinPolicy::None, 4);
        for round in 0..100usize {
            let n = 1 + round % 4;
            let got = exec.run(n, |tid| round * 10 + tid);
            let want: Vec<usize> = (0..n).map(|tid| round * 10 + tid).collect();
            assert_eq!(got, want, "round {round} with {n} lanes");
        }
    }

    #[test]
    fn barrier_job_synchronises_all_lanes() {
        let exec = Executor::new(PinPolicy::None, 4);
        let gate = barrier(4);
        let after = AtomicUsize::new(0);
        exec.run(4, |_| {
            gate.wait();
            after.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(after.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn wider_than_pool_falls_back_to_spawning() {
        let exec = Executor::new(PinPolicy::None, 2);
        // 6 lanes with a Barrier(6): only possible if all 6 truly run
        // concurrently, which the 2-lane pool cannot do by itself.
        let gate = barrier(6);
        let out = exec.run(6, |tid| {
            gate.wait();
            tid
        });
        assert_eq!(out, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let exec = Executor::new(PinPolicy::None, 4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.run(4, |tid| {
                if tid == 2 {
                    panic!("injected failure");
                }
                tid
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_else(|| {
            payload
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .unwrap()
        });
        assert!(msg.contains("injected failure"), "{msg}");
        // The pool is not poisoned: the next generation runs normally.
        assert_eq!(exec.run(4, |tid| tid), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dispatch_and_park_marks_are_journaled() {
        let exec = Executor::new(PinPolicy::None, 3);
        for _ in 0..5 {
            exec.run(3, |tid| tid);
        }
        assert_eq!(exec.count_marks(MARK_EXEC_DISPATCH), 5);
        assert!(
            exec.count_marks(MARK_EXEC_PARK) >= 2,
            "workers parked at least once"
        );
    }

    #[test]
    fn pinned_pool_still_computes_exactly() {
        // Pinning may or may not succeed on this host; either way results
        // are identical and nothing panics (degradation is journaled).
        for pin in [PinPolicy::Compact, PinPolicy::Scatter] {
            let exec = Executor::new(pin, 4);
            let cpus = exec.run(4, |tid| (tid * 3, current_cpu()));
            assert_eq!(
                cpus.iter().map(|c| c.0).collect::<Vec<_>>(),
                vec![0, 3, 6, 9]
            );
            // Every lane that ran was observed, wherever `getcpu` works.
            for (tid, &(_, cpu)) in cpus.iter().enumerate() {
                assert_eq!(
                    exec.observed_core(tid).is_some(),
                    cpu.is_some(),
                    "lane {tid}"
                );
            }
        }
    }

    #[cfg(target_os = "linux")]
    fn count_dir_entries(path: &str) -> usize {
        std::fs::read_dir(path).map(|d| d.count()).unwrap_or(0)
    }

    /// Unrelated tests in this binary run concurrently and spawn their
    /// own (short-lived) threads, so exact process-wide counts are racy.
    /// A genuine per-generation leak shows up as *thousands* of extra
    /// entries across a 10k-generation soak; this slack absorbs harness
    /// noise while keeping that signal unmistakable.
    #[cfg(target_os = "linux")]
    const LEAK_SLACK: usize = 64;

    /// The park/unpark soak: 10k generations through one pool must not
    /// leak threads or file descriptors.
    #[test]
    fn soak_10k_generations_leaks_nothing() {
        let exec = Executor::new(PinPolicy::None, 3);
        exec.run(3, |tid| tid); // warm up: workers spawned and parked
        #[cfg(target_os = "linux")]
        let (threads_before, fds_before) = (
            count_dir_entries("/proc/self/task"),
            count_dir_entries("/proc/self/fd"),
        );
        let total = AtomicUsize::new(0);
        for gen in 0..10_000usize {
            let n = 2 + gen % 2;
            let parts = exec.run(n, |tid| tid + gen);
            total.fetch_add(parts.iter().sum::<usize>(), Ordering::Relaxed);
        }
        assert_eq!(exec.generations(), 10_001);
        #[cfg(target_os = "linux")]
        {
            let threads_after = count_dir_entries("/proc/self/task");
            let fds_after = count_dir_entries("/proc/self/fd");
            assert!(
                threads_after <= threads_before + LEAK_SLACK,
                "thread leak across generations: {threads_before} -> {threads_after}"
            );
            assert!(
                fds_after <= fds_before + LEAK_SLACK,
                "fd leak across generations: {fds_before} -> {fds_after}"
            );
        }
        assert!(total.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn drop_joins_all_workers() {
        #[cfg(target_os = "linux")]
        let before = count_dir_entries("/proc/self/task");
        // 50 pools × 3 workers: if Drop failed to shut the workers down,
        // ~150 threads would accumulate — far beyond the slack.
        for round in 0..50usize {
            let exec = Executor::new(PinPolicy::None, 4);
            assert_eq!(exec.run(4, |tid| tid + round)[3], 3 + round);
        }
        #[cfg(target_os = "linux")]
        {
            let after = count_dir_entries("/proc/self/task");
            assert!(
                after <= before + LEAK_SLACK,
                "workers survived executor drop: {before} -> {after}"
            );
        }
    }

    #[test]
    fn worker_threads_are_named() {
        let exec = Executor::new(PinPolicy::None, 3);
        let names = exec.run(3, |_| std::thread::current().name().map(str::to_owned));
        // Lane 0 is the caller (test harness thread); lanes 1..n are pool
        // workers with stable names.
        assert_eq!(names[1].as_deref(), Some("iawj-worker-1"));
        assert_eq!(names[2].as_deref(), Some("iawj-worker-2"));
    }
}
