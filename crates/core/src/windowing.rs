//! Window assignment: running the intra-window join over a longer stream.
//!
//! The paper studies the join *within one window* and notes (§2) that the
//! IaWJ is the building block for every window type — sliding, tumbling, or
//! session. This module supplies that layer for library users: it splits a
//! pair of timestamp-ordered streams into per-window sub-inputs and runs
//! any studied algorithm over each window. Each window is joined
//! independently and completely (no incremental state is shared between
//! windows — that is the *inter*-window join problem the paper explicitly
//! scopes out).

use crate::algo::Algorithm;
use crate::config::RunConfig;
use crate::output::RunResult;
use crate::runner::execute_slices;
use iawj_common::{Ts, Tuple, Window};

/// How to carve a stream's time axis into windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowSpec {
    /// Back-to-back fixed windows of `len_ms`.
    Tumbling {
        /// Window length in ms.
        len_ms: u32,
    },
    /// Overlapping fixed windows of `len_ms`, one starting every `slide_ms`.
    Sliding {
        /// Window length in ms.
        len_ms: u32,
        /// Distance between consecutive window starts.
        slide_ms: u32,
    },
    /// Data-driven windows: a window closes after `gap_ms` of silence
    /// across *both* streams.
    Session {
        /// Minimum inactivity gap that separates two sessions.
        gap_ms: u32,
    },
}

/// The windows a spec produces over streams ending at `max_ts` (inclusive).
pub fn windows_for(spec: WindowSpec, r: &[Tuple], s: &[Tuple]) -> Vec<Window> {
    let max_ts = r
        .last()
        .map(|t| t.ts)
        .unwrap_or(0)
        .max(s.last().map(|t| t.ts).unwrap_or(0));
    match spec {
        WindowSpec::Tumbling { len_ms } => {
            assert!(len_ms > 0, "tumbling windows need a positive length");
            (0..=max_ts / len_ms)
                .map(|i| Window {
                    start: i * len_ms,
                    len_ms,
                })
                .collect()
        }
        WindowSpec::Sliding { len_ms, slide_ms } => {
            assert!(
                len_ms > 0 && slide_ms > 0,
                "sliding windows need positive length and slide"
            );
            (0..=max_ts / slide_ms)
                .map(|i| Window {
                    start: i * slide_ms,
                    len_ms,
                })
                .collect()
        }
        WindowSpec::Session { gap_ms } => {
            assert!(gap_ms > 0, "session windows need a positive gap");
            // Merge the two (sorted) timestamp sequences and split on gaps.
            let mut stamps: Vec<Ts> = Vec::with_capacity(r.len() + s.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < r.len() || j < s.len() {
                let take_r = j >= s.len() || (i < r.len() && r[i].ts <= s[j].ts);
                if take_r {
                    stamps.push(r[i].ts);
                    i += 1;
                } else {
                    stamps.push(s[j].ts);
                    j += 1;
                }
            }
            let mut out = Vec::new();
            let mut start = match stamps.first() {
                Some(&t) => t,
                None => return out,
            };
            let mut prev = start;
            for &t in &stamps[1..] {
                if t - prev >= gap_ms {
                    out.push(Window {
                        start,
                        len_ms: prev - start + 1,
                    });
                    start = t;
                }
                prev = t;
            }
            out.push(Window {
                start,
                len_ms: prev - start + 1,
            });
            out
        }
    }
}

/// The half-open index range of `tuples` falling inside `w` (streams are
/// timestamp-ordered, so a window is a contiguous slice).
fn window_slice(tuples: &[Tuple], w: Window) -> std::ops::Range<usize> {
    let start = tuples.partition_point(|t| t.ts < w.start);
    let end = tuples.partition_point(|t| t.ts < w.end());
    start..end
}

/// How many windows of a spec contain a match between tuples arriving at
/// `ts_a` and `ts_b` — the multiplicity with which overlapping (sliding)
/// windows re-report the same pair. Use it to convert per-window match
/// totals into distinct-pair counts, or to weight duplicate emissions.
///
/// For tumbling windows this is 1 when both timestamps share a window and
/// 0 otherwise; for sliding windows it is the number of window starts `k ×
/// slide` with `start ≤ min(ts)` and `max(ts) < start + len`.
///
/// ```
/// use iawj_core::windowing::{pair_multiplicity, WindowSpec};
///
/// let sliding = WindowSpec::Sliding { len_ms: 200, slide_ms: 100 };
/// // Both at t=150: windows starting at 0 and 100 contain the pair.
/// assert_eq!(pair_multiplicity(sliding, 150, 150), 2);
/// // 180 ms apart: only the window starting at 0 holds both.
/// assert_eq!(pair_multiplicity(sliding, 10, 190), 1);
/// // Further apart than the window length: never joined.
/// assert_eq!(pair_multiplicity(sliding, 0, 300), 0);
/// ```
pub fn pair_multiplicity(spec: WindowSpec, ts_a: Ts, ts_b: Ts) -> u64 {
    let lo = ts_a.min(ts_b) as u64;
    let hi = ts_a.max(ts_b) as u64;
    match spec {
        WindowSpec::Tumbling { len_ms } => {
            assert!(len_ms > 0);
            u64::from(lo / len_ms as u64 == hi / len_ms as u64)
        }
        WindowSpec::Sliding { len_ms, slide_ms } => {
            assert!(len_ms > 0 && slide_ms > 0);
            let (len, slide) = (len_ms as u64, slide_ms as u64);
            if hi - lo >= len {
                return 0;
            }
            // Starts s = k*slide with s <= lo and hi < s + len, i.e.
            // s > hi - len  =>  s >= hi.saturating_sub(len - 1).
            let min_start = hi.saturating_sub(len - 1);
            let k_max = lo / slide;
            let k_min = min_start.div_ceil(slide);
            (k_max + 1).saturating_sub(k_min)
        }
        WindowSpec::Session { gap_ms } => {
            assert!(gap_ms > 0);
            // Session windows realized from the two stamps alone: they sit
            // in one session iff they are within a gap of each other, and
            // sessions never overlap, so the multiplicity is 0 or 1. When
            // the full stream is in evidence (more stamps may bridge or
            // split sessions), use [`pair_multiplicity_in`] over
            // `windows_for`'s realized windows instead.
            u64::from(hi - lo < gap_ms as u64)
        }
    }
}

/// Data-aware multiplicity: how many of the *realized* `windows` contain
/// both timestamps. This is the form [`pair_multiplicity`] cannot compute
/// from the spec alone for session windows (their extents depend on the
/// data); the streaming operator uses it for eviction accounting, and the
/// tests use it to cross-check the closed-form spec answer:
///
/// ```
/// use iawj_core::windowing::{pair_multiplicity_in, windows_for, WindowSpec};
/// use iawj_common::Tuple;
///
/// let r = vec![Tuple::new(1, 0), Tuple::new(1, 5), Tuple::new(1, 40)];
/// let ws = windows_for(WindowSpec::Session { gap_ms: 20 }, &r, &[]);
/// assert_eq!(pair_multiplicity_in(&ws, 0, 5), 1);  // same session
/// assert_eq!(pair_multiplicity_in(&ws, 5, 40), 0); // across the gap
/// ```
pub fn pair_multiplicity_in(windows: &[Window], ts_a: Ts, ts_b: Ts) -> u64 {
    windows
        .iter()
        .filter(|w| w.contains(ts_a) && w.contains(ts_b))
        .count() as u64
}

/// One window's join outcome.
pub struct WindowedResult {
    /// The window that was joined.
    pub window: Window,
    /// The run result of the IaWJ over that window.
    pub result: RunResult,
}

/// Run `algorithm` over every window of `spec`, independently.
///
/// ```
/// use iawj_core::windowing::{execute_windowed, WindowSpec};
/// use iawj_core::{Algorithm, RunConfig};
/// use iawj_common::Tuple;
///
/// // Key 7 appears in both streams in each of two 100 ms windows.
/// let r = vec![Tuple::new(7, 10), Tuple::new(7, 110)];
/// let s = vec![Tuple::new(7, 20), Tuple::new(7, 120)];
/// let out = execute_windowed(
///     Algorithm::Npj, &r, &s,
///     WindowSpec::Tumbling { len_ms: 100 },
///     &RunConfig::with_threads(1),
/// );
/// let matches: Vec<u64> = out.iter().map(|w| w.result.matches).collect();
/// assert_eq!(matches, vec![1, 1], "one match per window, no cross-window pairs");
/// ```
///
/// Each window's tuples are joined at rest, every timestamp set to 0 (the
/// IaWJ of the paper sees one window's contents, not their arrival), at
/// full speed — the per-window join runs once the window has closed, which
/// is the natural batch deployment of an IaWJ building block. So the
/// timestamps of the result's [`iawj_common::MatchRecord`] samples are 0
/// too: a sampled pair is named by its window and key. Windows with an
/// empty side still run (and produce zero matches). Every window runs on
/// one worker pool, provisioned once.
pub fn execute_windowed(
    algorithm: Algorithm,
    r: &[Tuple],
    s: &[Tuple],
    spec: WindowSpec,
    cfg: &RunConfig,
) -> Vec<WindowedResult> {
    let exec = cfg.make_executor();
    windows_for(spec, r, s)
        .into_iter()
        .map(|w| {
            let at_rest = |t: &Tuple| Tuple::new(t.key, 0);
            let r_win: Vec<Tuple> = r[window_slice(r, w)].iter().map(at_rest).collect();
            let s_win: Vec<Tuple> = s[window_slice(s, w)].iter().map(at_rest).collect();
            WindowedResult {
                window: w,
                result: execute_slices(algorithm, &r_win, &s_win, cfg, &exec),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iawj_common::Rng;

    fn stream(n: usize, keys: u32, span_ms: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        let mut v: Vec<Tuple> = (0..n)
            .map(|_| Tuple::new(rng.next_u32() % keys, rng.below(span_ms as u64) as u32))
            .collect();
        v.sort_unstable_by_key(|t| t.ts);
        v
    }

    /// Reference: matches of one window by brute force.
    fn window_matches(r: &[Tuple], s: &[Tuple], w: Window) -> u64 {
        let mut n = 0;
        for a in r.iter().filter(|t| w.contains(t.ts)) {
            for b in s.iter().filter(|t| w.contains(t.ts)) {
                if a.key == b.key {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn tumbling_windows_tile_the_stream() {
        let r = stream(300, 16, 1000, 1);
        let s = stream(300, 16, 1000, 2);
        let ws = windows_for(WindowSpec::Tumbling { len_ms: 250 }, &r, &s);
        assert_eq!(ws.len(), 4);
        assert!(ws.windows(2).all(|p| p[0].end() == p[1].start));
        // Every tuple belongs to exactly one window.
        for t in r.iter().chain(s.iter()) {
            assert_eq!(ws.iter().filter(|w| w.contains(t.ts)).count(), 1);
        }
    }

    #[test]
    fn tumbling_join_equals_per_window_reference() {
        let r = stream(250, 8, 800, 3);
        let s = stream(250, 8, 800, 4);
        let cfg = RunConfig::with_threads(2);
        let spec = WindowSpec::Tumbling { len_ms: 200 };
        let outs = execute_windowed(Algorithm::Prj, &r, &s, spec, &cfg);
        for wr in &outs {
            assert_eq!(
                wr.result.matches,
                window_matches(&r, &s, wr.window),
                "window {:?}",
                wr.window
            );
        }
        // The tumbling total equals the sum of the per-window references.
        let total: u64 = outs.iter().map(|w| w.result.matches).sum();
        let expect: u64 = windows_for(spec, &r, &s)
            .into_iter()
            .map(|w| window_matches(&r, &s, w))
            .sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn sliding_windows_overlap() {
        let r = stream(200, 8, 500, 5);
        let s = stream(200, 8, 500, 6);
        let spec = WindowSpec::Sliding {
            len_ms: 200,
            slide_ms: 100,
        };
        let ws = windows_for(spec, &r, &s);
        // A tuple at t=150 falls into windows starting at 0 and 100.
        let covering = ws.iter().filter(|w| w.contains(150)).count();
        assert_eq!(covering, 2);
        let cfg = RunConfig::with_threads(2);
        for wr in execute_windowed(Algorithm::ShjJm, &r, &s, spec, &cfg) {
            assert_eq!(wr.result.matches, window_matches(&r, &s, wr.window));
        }
    }

    #[test]
    fn session_windows_split_on_gaps() {
        // Two bursts separated by 500 ms of silence.
        let mk = |base: u32| -> Vec<Tuple> {
            (0..50).map(|i| Tuple::new(i % 5, base + i / 5)).collect()
        };
        let mut r = mk(0);
        r.extend(mk(600));
        let mut s = mk(2);
        s.extend(mk(602));
        let ws = windows_for(WindowSpec::Session { gap_ms: 200 }, &r, &s);
        assert_eq!(ws.len(), 2, "two sessions expected: {ws:?}");
        assert!(ws[0].end() <= 600);
        assert!(ws[1].start >= 600);
        // No cross-session matches.
        let cfg = RunConfig::with_threads(2);
        let outs = execute_windowed(
            Algorithm::MPass,
            &r,
            &s,
            WindowSpec::Session { gap_ms: 200 },
            &cfg,
        );
        let total: u64 = outs.iter().map(|w| w.result.matches).sum();
        let expect: u64 = ws.iter().map(|&w| window_matches(&r, &s, w)).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn pair_multiplicity_matches_brute_force() {
        use iawj_common::Rng;
        let mut rng = Rng::new(13);
        for _ in 0..500 {
            let len = 1 + rng.below(120) as u32;
            let slide = 1 + rng.below(len as u64) as u32;
            let a = rng.below(600) as u32;
            let b = rng.below(600) as u32;
            let spec = WindowSpec::Sliding {
                len_ms: len,
                slide_ms: slide,
            };
            let brute = (0..=600u32 / slide)
                .map(|k| Window {
                    start: k * slide,
                    len_ms: len,
                })
                .filter(|w| w.contains(a) && w.contains(b))
                .count() as u64;
            assert_eq!(
                pair_multiplicity(spec, a, b),
                brute,
                "len={len} slide={slide} a={a} b={b}"
            );
        }
    }

    #[test]
    fn sliding_totals_decompose_into_distinct_times_multiplicity() {
        // Sum of per-window matches == sum over distinct pairs of their
        // multiplicity.
        let r = stream(120, 8, 400, 21);
        let s = stream(120, 8, 400, 22);
        let spec = WindowSpec::Sliding {
            len_ms: 150,
            slide_ms: 50,
        };
        let cfg = RunConfig::with_threads(2);
        let per_window: u64 = execute_windowed(Algorithm::Npj, &r, &s, spec, &cfg)
            .iter()
            .map(|w| w.result.matches)
            .sum();
        let weighted: u64 = r
            .iter()
            .flat_map(|a| s.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a.key == b.key)
            .map(|(a, b)| pair_multiplicity(spec, a.ts, b.ts))
            .sum();
        assert_eq!(per_window, weighted);
    }

    #[test]
    fn tumbling_multiplicity_is_membership() {
        let spec = WindowSpec::Tumbling { len_ms: 100 };
        assert_eq!(pair_multiplicity(spec, 10, 99), 1);
        assert_eq!(pair_multiplicity(spec, 99, 100), 0);
        assert_eq!(pair_multiplicity(spec, 250, 250), 1);
    }

    #[test]
    fn session_multiplicity_is_within_gap_membership() {
        let spec = WindowSpec::Session { gap_ms: 10 };
        assert_eq!(pair_multiplicity(spec, 0, 1), 1);
        assert_eq!(pair_multiplicity(spec, 0, 9), 1);
        assert_eq!(pair_multiplicity(spec, 0, 10), 0, "a full gap splits");
        assert_eq!(pair_multiplicity(spec, 7, 7), 1);
        // Agrees with the realized windows of the two stamps alone.
        for (a, b) in [(0u32, 1u32), (0, 9), (0, 10), (3, 30)] {
            let stamps = vec![Tuple::new(0, a), Tuple::new(0, b)];
            let ws = windows_for(spec, &stamps, &[]);
            assert_eq!(
                pair_multiplicity(spec, a, b),
                pair_multiplicity_in(&ws, a, b),
                "a={a} b={b}"
            );
        }
    }

    #[test]
    fn realized_multiplicity_agrees_with_spec_for_sliding() {
        let r = stream(120, 8, 400, 31);
        let s = stream(120, 8, 400, 32);
        let spec = WindowSpec::Sliding {
            len_ms: 150,
            slide_ms: 50,
        };
        let ws = windows_for(spec, &r, &s);
        for a in r.iter().step_by(7) {
            for b in s.iter().step_by(7) {
                assert_eq!(
                    pair_multiplicity(spec, a.ts, b.ts),
                    pair_multiplicity_in(&ws, a.ts, b.ts),
                    "a={} b={}",
                    a.ts,
                    b.ts
                );
            }
        }
    }

    #[test]
    fn empty_streams_yield_no_session_windows() {
        assert!(windows_for(WindowSpec::Session { gap_ms: 10 }, &[], &[]).is_empty());
        let ws = windows_for(WindowSpec::Tumbling { len_ms: 100 }, &[], &[]);
        assert_eq!(ws.len(), 1, "one (empty) window covering t=0");
    }
}
