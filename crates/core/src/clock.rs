//! The event clock that makes streams "arrive".
//!
//! The paper's harness assigns every tuple an arrival timestamp and lets
//! eager threads compare it against their RDTSC-measured elapsed time
//! (§4.2.2): a tuple whose timestamp exceeds elapsed time has not arrived
//! yet. We reproduce that with a monotonic wall clock plus a configurable
//! `speedup`: stream time advances `speedup`× faster than real time, so a
//! 1000 ms window can be replayed in 100 ms of wall time without changing
//! any of the relative series shapes (all emission and arrival times are
//! measured in *stream* milliseconds). `speedup = 1.0` is real-time replay.
//!
//! The paper pays one RDTSC per arrival check; an `Instant` read costs
//! more, so the eager pull loop does not read the clock per tuple. Each
//! [`crate::distribute::View`] compares a tuple against a cached
//! monotonic horizon — the stream time it last read here — and reads
//! [`EventClock::now_ms`] again only for a tuple past it.

use iawj_common::Ts;
use std::time::{Duration, Instant};

/// Shared, read-only after construction; workers query it concurrently.
#[derive(Debug)]
pub struct EventClock {
    start: Instant,
    speedup: f64,
    gated: bool,
}

impl EventClock {
    /// Start the clock now. `gated = false` makes every tuple available
    /// immediately (data at rest) while stream time still advances for
    /// emission timestamps.
    pub fn start(speedup: f64, gated: bool) -> Self {
        assert!(speedup > 0.0, "speedup must be positive");
        EventClock {
            start: Instant::now(),
            speedup,
            gated,
        }
    }

    /// Convenience: ungated clock at 1×.
    pub fn ungated() -> Self {
        EventClock::start(1.0, false)
    }

    /// The instant the run began — the common time origin for all worker
    /// span journals, so their trace lanes line up.
    #[inline]
    pub fn epoch(&self) -> Instant {
        self.start
    }

    /// Stream milliseconds elapsed since the run began.
    #[inline]
    pub fn now_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3 * self.speedup
    }

    /// Is arrival gating active?
    pub fn gated(&self) -> bool {
        self.gated
    }

    /// Block until stream time reaches `ts`. Sleeps for the bulk of long
    /// waits and spins the final stretch, so wake-up error stays small
    /// without burning a core for the whole window (the lazy algorithms
    /// wait out the entire window length here).
    pub fn wait_until(&self, ts: Ts) {
        if !self.gated {
            return;
        }
        loop {
            let now = self.now_ms();
            let deficit_ms = ts as f64 - now;
            if deficit_ms <= 0.0 {
                return;
            }
            let real_ms = deficit_ms / self.speedup;
            if real_ms > 2.0 {
                std::thread::sleep(Duration::from_secs_f64((real_ms - 1.0) / 1e3));
            } else if real_ms > 0.05 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungated_never_waits() {
        let c = EventClock::ungated();
        assert!(!c.gated());
        c.wait_until(u32::MAX); // must return immediately
    }

    #[test]
    fn time_advances() {
        let c = EventClock::start(1.0, true);
        let a = c.now_ms();
        std::thread::sleep(Duration::from_millis(5));
        let b = c.now_ms();
        assert!(b >= a + 4.0, "a={a} b={b}");
    }

    #[test]
    fn speedup_compresses_time() {
        let c = EventClock::start(100.0, true);
        std::thread::sleep(Duration::from_millis(5));
        assert!(c.now_ms() >= 400.0, "now={}", c.now_ms());
    }

    #[test]
    fn wait_until_blocks_until_arrival() {
        let c = EventClock::start(1000.0, true); // 1000 stream ms per real ms
        let t0 = Instant::now();
        c.wait_until(5000); // = 5 real ms
        assert!(c.now_ms() >= 5000.0);
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }
}
