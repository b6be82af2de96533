//! A handshake-join-style pipelined stream join — the §6 validation
//! strawman. The paper implemented handshake join (Teubner & Müller) and
//! observed throughput orders of magnitude below all eight studied
//! algorithms, because every tuple must flow through (and be compared
//! against state in) every core.
//!
//! This implementation keeps that defining dataflow property in a
//! simplified, provably exactly-once form: both streams enter a linear
//! pipeline of cores in global arrival order; each tuple is stored at its
//! home core (round-robin) and probes every core's opposite-stream store as
//! it passes, emitting a match only against tuples with a smaller global
//! sequence number. FIFO channels preserve entry order at every core, so
//! of any matching pair the later tuple always finds the earlier one,
//! exactly once. (The original's bidirectional flow is a performance
//! refinement, not a semantic one; the per-hop messaging overhead being
//! measured here is the same.)

use crate::clock::EventClock;
use crate::config::RunConfig;
use crate::lazy::EmitClock;
use crate::output::WorkerOut;
use iawj_common::{Key, Phase, Ts, Tuple};

use std::collections::HashMap;
use std::sync::mpsc;

enum Msg {
    Tuple { t: Tuple, is_r: bool, seq: u32 },
    Done,
}

/// Run the handshake pipeline. `arrive_by` is unused (eager algorithms are
/// gated per tuple) but kept for signature parity with the lazy runners.
pub fn run(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    _arrive_by: Ts,
) -> Vec<WorkerOut> {
    let threads = cfg.threads;
    // Merge both streams into one arrival-ordered feed with global seqs.
    let mut feed: Vec<(Tuple, bool)> = Vec::with_capacity(r.len() + s.len());
    {
        let (mut i, mut j) = (0usize, 0usize);
        while i < r.len() || j < s.len() {
            let take_r = j >= s.len() || (i < r.len() && r[i].ts <= s[j].ts);
            if take_r {
                feed.push((r[i], true));
                i += 1;
            } else {
                feed.push((s[j], false));
                j += 1;
            }
        }
    }

    let mut senders = Vec::with_capacity(threads);
    let mut receivers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (tx, rx) = mpsc::sync_channel::<Msg>(1024);
        senders.push(tx);
        receivers.push(rx);
    }
    let head = senders[0].clone();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (core, rx) in receivers.into_iter().enumerate() {
            let next = senders.get(core + 1).cloned();
            handles.push(scope.spawn(move || core_loop(core, threads, rx, next, cfg, clock)));
        }
        drop(senders);

        // Feed the pipeline, gated on arrival.
        for (seq, &(t, is_r)) in feed.iter().enumerate() {
            clock.wait_until(t.ts);
            head.send(Msg::Tuple {
                t,
                is_r,
                seq: seq as u32,
            })
            .expect("pipeline alive");
        }
        head.send(Msg::Done).expect("pipeline alive");
        drop(head);

        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

type Store = HashMap<Key, Vec<(Ts, u32)>>;

fn core_loop(
    core: usize,
    threads: usize,
    rx: mpsc::Receiver<Msg>,
    next: Option<mpsc::SyncSender<Msg>>,
    cfg: &RunConfig,
    clock: &EventClock,
) -> WorkerOut {
    let mut out = WorkerOut::new(cfg.sample_every);
    let mut timer = cfg.timer_for(Phase::Wait, clock.epoch());
    let mut emit = EmitClock::new(clock);
    let mut r_store: Store = HashMap::new();
    let mut s_store: Store = HashMap::new();
    let mut stored = 0usize;
    loop {
        timer.switch_to(Phase::Wait);
        let msg = match rx.recv() {
            Ok(m) => m,
            Err(_) => break,
        };
        match msg {
            Msg::Done => {
                timer.instant("pipeline:done");
                if let Some(n) = &next {
                    let _ = n.send(Msg::Done);
                }
                break;
            }
            Msg::Tuple { t, is_r, seq } => {
                // Probe the opposite store: only strictly older tuples, so
                // each pair is emitted at exactly one core, once.
                timer.switch_to(Phase::Probe);
                let opposite = if is_r { &s_store } else { &r_store };
                if let Some(entries) = opposite.get(&t.key) {
                    let now = emit.now();
                    for &(ts, other_seq) in entries {
                        if other_seq < seq {
                            let (r_ts, s_ts) = if is_r { (t.ts, ts) } else { (ts, t.ts) };
                            out.sink.push(t.key, r_ts, s_ts, now);
                        }
                    }
                }
                // Store at the home core.
                if seq as usize % threads == core {
                    timer.switch_to(Phase::BuildSort);
                    let store = if is_r { &mut r_store } else { &mut s_store };
                    store.entry(t.key).or_default().push((t.ts, seq));
                    stored += 1;
                    if cfg.mem_sample_every > 0 && stored.is_multiple_of(cfg.mem_sample_every) {
                        let bytes = (r_store.len() + s_store.len()) * 48
                            + (stored) * std::mem::size_of::<(Ts, u32)>();
                        out.mem_samples.push((clock.now_ms(), bytes));
                    }
                }
                // Forward along the chain.
                if let Some(n) = &next {
                    timer.switch_to(Phase::Partition);
                    let _ = n.send(Msg::Tuple { t, is_r, seq });
                }
            }
        }
    }
    out.set_timing(timer.finish_parts());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::nested_loop_join;
    use iawj_common::{Rng, Window};

    fn random_stream(n: usize, keys: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|i| Tuple::new(rng.next_u32() % keys, (i % 32) as u32))
            .collect()
    }

    fn canonical(outs: &[WorkerOut]) -> Vec<(u32, u32, u32)> {
        let mut got: Vec<_> = outs
            .iter()
            .flat_map(|w| w.sink.samples().iter().map(|m| (m.key, m.r_ts, m.s_ts)))
            .collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn matches_reference() {
        let r = random_stream(200, 16, 1);
        let s = random_stream(250, 16, 2);
        let cfg = RunConfig::with_threads(4).record_all();
        let clock = EventClock::ungated();
        let outs = run(&r, &s, &cfg, &clock, 0);
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(32))
        );
    }

    #[test]
    fn single_core_pipeline() {
        let r = random_stream(100, 8, 3);
        let s = random_stream(100, 8, 4);
        let cfg = RunConfig::with_threads(1).record_all();
        let clock = EventClock::ungated();
        let outs = run(&r, &s, &cfg, &clock, 0);
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(32))
        );
    }

    #[test]
    fn steal_scheduler_flag_is_inert_but_exact() {
        // The handshake pipeline is dataflow-scheduled (tuples flow
        // core-to-core), so there is no claimable index space to steal;
        // the flag must be accepted and change nothing.
        use iawj_exec::Scheduler;
        let r = random_stream(200, 16, 1);
        let s = random_stream(250, 16, 2);
        let cfg = RunConfig::with_threads(4)
            .record_all()
            .scheduler(Scheduler::Steal);
        let clock = EventClock::ungated();
        let outs = run(&r, &s, &cfg, &clock, 0);
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(32))
        );
    }

    #[test]
    fn empty_inputs() {
        let cfg = RunConfig::with_threads(2).record_all();
        let clock = EventClock::ungated();
        let outs = run(&[], &[], &cfg, &clock, 0);
        assert_eq!(outs.iter().map(|w| w.sink.count()).sum::<u64>(), 0);
    }
}
