//! The lazy (relational) join algorithms (§3.1).
//!
//! All four buffer the window's full input — i.e. wait until the last tuple
//! of the window has arrived — and then run a parallel relational join over
//! the complete tuple sets.
//!
//! Shared scaffolding lives here: `Slots` for barrier-separated data
//! exchange between workers and [`EmitClock`] for cheap per-match emission
//! timestamps. Work is split statically — each worker scans or sorts its own
//! `chunk_range` of each input and MWay/MPass merge one key range per
//! worker — except PRJ's per-partition joins, which workers pull from one
//! shared counter.

pub mod mpass;
pub mod mway;
pub mod npj;
pub mod prj;

use crate::clock::EventClock;
use std::sync::OnceLock;

/// One-shot exchange slots between workers: each slot is written exactly
/// once (by one worker) and read by others strictly after a barrier.
pub(crate) struct Slots<T>(Vec<OnceLock<T>>);

impl<T> Slots<T> {
    pub(crate) fn new(n: usize) -> Self {
        Slots((0..n).map(|_| OnceLock::new()).collect())
    }

    /// Publish slot `i`. Panics if published twice — that would be an
    /// algorithm bug.
    pub(crate) fn set(&self, i: usize, value: T) {
        if self.0[i].set(value).is_err() {
            panic!("slot {i} published twice");
        }
    }

    /// Read slot `i`; must only be called after the publishing barrier.
    pub(crate) fn get(&self, i: usize) -> &T {
        self.0[i]
            .get()
            .expect("slot read before the publishing barrier")
    }

    /// Number of slots.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// Caches the stream clock and refreshes it every few reads: a per-match
/// `Instant::now()` would cost as much as the probe itself, and sub-batch
/// emission-time granularity is far below a millisecond anyway. Public
/// because custom [`crate::eager::Engine`] implementations receive one.
pub struct EmitClock<'a> {
    clock: &'a EventClock,
    cached: f64,
    countdown: u32,
}

const EMIT_REFRESH: u32 = 32;

impl<'a> EmitClock<'a> {
    /// A fresh emit clock reading `clock`.
    pub fn new(clock: &'a EventClock) -> Self {
        EmitClock {
            clock,
            cached: clock.now_ms(),
            countdown: EMIT_REFRESH,
        }
    }

    /// Current stream time, refreshed every `EMIT_REFRESH` calls.
    #[inline]
    pub fn now(&mut self) -> f64 {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = EMIT_REFRESH;
            self.cached = self.clock.now_ms();
        }
        self.cached
    }

    /// Force a refresh (phase boundaries).
    #[inline]
    pub fn refresh(&mut self) -> f64 {
        self.cached = self.clock.now_ms();
        self.countdown = EMIT_REFRESH;
        self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iawj_exec::run_workers;

    #[test]
    fn slots_cross_thread_exchange() {
        let slots = Slots::new(4);
        let bar = std::sync::Barrier::new(4);
        let sums = run_workers(4, |tid| {
            slots.set(tid, tid * 100);
            bar.wait();
            (0..slots.len()).map(|i| *slots.get(i)).sum::<usize>()
        });
        assert_eq!(sums, vec![600; 4]);
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn double_publish_panics() {
        let slots = Slots::new(1);
        slots.set(0, 1);
        slots.set(0, 2);
    }

    #[test]
    fn emit_clock_advances() {
        let clock = EventClock::ungated();
        let mut ec = EmitClock::new(&clock);
        let first = ec.now();
        std::thread::sleep(std::time::Duration::from_millis(3));
        // After enough reads the cache refreshes and time moves forward.
        let mut last = first;
        for _ in 0..100 {
            last = ec.now();
        }
        assert!(last > first);
        assert!(ec.refresh() >= last);
    }
}
