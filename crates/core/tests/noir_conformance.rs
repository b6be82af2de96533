//! Conformance with an independent windowed-join implementation: the doc
//! example of noir's `KeyedWindowedStream::join` (SNIPPETS.md, snippet 2),
//! ported as data. R carries n ∈ 0..4 at timestamp n, S carries n ∈ 4..8 at
//! timestamp n − 4, both keyed by n % 2, joined over 2 ms tumbling windows.
//! noir emits exactly four pairs, `(0, (0, 4))`, `(0, (2, 6))`,
//! `(1, (1, 5))` and `(1, (3, 7))`; as `(key, r_ts, s_ts)` they are the
//! tuples below, and every engine must produce them and nothing else, in
//! the batch windowing layer and in the continuous operator alike.

use iawj_common::{Tuple, Window};
use iawj_core::streaming::{run_replay, StreamConfig};
use iawj_core::windowing::{execute_windowed, WindowSpec};
use iawj_core::{Algorithm, RunConfig};

const SPEC: WindowSpec = WindowSpec::Tumbling { len_ms: 2 };

/// noir's four pairs as `(key, r_ts, s_ts)`, sorted.
const EXPECT: [(u32, u32, u32); 4] = [(0, 0, 0), (0, 2, 2), (1, 1, 1), (1, 3, 3)];

fn engines() -> Vec<Algorithm> {
    let mut all = Algorithm::STUDIED.to_vec();
    all.push(Algorithm::Handshake);
    all.extend(Algorithm::INDEX);
    all
}

fn streams() -> (Vec<Tuple>, Vec<Tuple>) {
    let r = (0u32..4).map(|n| Tuple::new(n % 2, n)).collect();
    let s = (4u32..8).map(|n| Tuple::new(n % 2, n - 4)).collect();
    (r, s)
}

#[test]
fn every_engine_emits_exactly_noirs_four_pairs_per_window() {
    let (r, s) = streams();
    for algo in engines() {
        for threads in [1usize, 2] {
            let cfg = RunConfig::with_threads(threads).record_all();
            let out = execute_windowed(algo, &r, &s, SPEC, &cfg);
            let windows: Vec<Window> = out.iter().map(|w| w.window).collect();
            assert_eq!(
                windows,
                [0, 2].map(|start| Window { start, len_ms: 2 }),
                "{algo} t={threads}"
            );
            // `execute_windowed` re-bases every tuple's timestamp to 0, so
            // a match names its pair by window and key: each window holds
            // one tuple per key per side, at offset `key` from its start.
            let mut got: Vec<(u32, u32, u32)> = out
                .iter()
                .flat_map(|w| {
                    let start = w.window.start;
                    w.result.samples.iter().map(move |m| {
                        assert_eq!((m.r_ts, m.s_ts), (0, 0), "re-based timestamps");
                        (m.key, start + m.key, start + m.key)
                    })
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, EXPECT, "{algo} t={threads}");
            let matches: u64 = out.iter().map(|w| w.result.matches).sum();
            assert_eq!(matches, 4, "{algo} t={threads}");
        }
    }
}

#[test]
fn streaming_operator_closes_noirs_windows_with_two_pairs_each() {
    let (r, s) = streams();
    for algo in engines() {
        let cfg = StreamConfig::new(SPEC, algo).tick_every_ms(0.0);
        let report = run_replay(cfg, r.clone(), s.clone(), 4);
        let windows: Vec<(Window, u64, usize, usize)> = report
            .windows
            .iter()
            .map(|w| (w.window, w.matches, w.inputs_r, w.inputs_s))
            .collect();
        assert_eq!(
            windows,
            [0, 2].map(|start| (Window { start, len_ms: 2 }, 2, 2, 2)),
            "{algo}"
        );
        assert_eq!(report.matches, 4, "{algo}");
        assert_eq!(report.late_dropped, 0, "{algo}");
    }
}
