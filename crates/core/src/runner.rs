//! The run harness: executes any studied algorithm over a dataset under a
//! configuration and produces the merged [`RunResult`].

use crate::algo::Algorithm;
use crate::clock::EventClock;
use crate::config::RunConfig;
use crate::distribute::{jb, jm, View};
use crate::eager::pmj::PmjEngine;
use crate::eager::shj::ShjEngine;
use crate::eager::{drive_worker, handshake};
use crate::index::{self, IbwjEngine};
use crate::lazy;
use crate::output::{RunResult, WorkerOut};
use iawj_common::{Ts, Tuple};
use iawj_datagen::Dataset;
use iawj_exec::Executor;

/// Execute `algorithm` over `dataset` under `cfg`.
///
/// Arrival gating is enabled whenever the dataset is streaming (any tuple
/// with a nonzero timestamp); data-at-rest inputs (DEBS, static Micro) run
/// ungated. MWay and MPass get their thread count rounded down to a power
/// of two, the constraint §5 imposes for fair comparison.
///
/// # Panics
/// Panics when [`RunConfig::validate`] rejects the configuration.
///
/// ```
/// use iawj_core::{execute, Algorithm, RunConfig};
/// use iawj_datagen::MicroSpec;
///
/// // 1000 tuples per side, every key duplicated 10 times, data at rest.
/// let dataset = MicroSpec::static_counts(1000, 1000).dupe(10).generate();
/// let result = execute(Algorithm::Prj, &dataset, &RunConfig::with_threads(2));
/// // 100 keys x 10 R-dupes x 10 S-dupes:
/// assert_eq!(result.matches, 100 * 10 * 10);
/// assert!(result.throughput_tpms() > 0.0);
/// ```
pub fn execute(algorithm: Algorithm, dataset: &Dataset, cfg: &RunConfig) -> RunResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid RunConfig: {e}");
    }
    let mut cfg = cfg.clone();
    if algorithm.needs_pow2_threads() && !cfg.threads.is_power_of_two() {
        cfg.threads = prev_pow2(cfg.threads);
    }
    let exec = cfg.make_executor();
    execute_with(algorithm, &dataset.r, &dataset.s, &cfg, &exec)
}

/// [`execute`] on a caller-provided executor, so repeated runs (benchmark
/// sweeps, the streaming service's window closes) reuse one worker pool —
/// and one set of pinned cores — instead of provisioning threads per run.
/// The executor should have capacity for `cfg.threads` workers; runs that
/// need more fall back to spawning scoped threads for that run only.
pub fn execute_on(
    algorithm: Algorithm,
    dataset: &Dataset,
    cfg: &RunConfig,
    exec: &Executor,
) -> RunResult {
    execute_slices(algorithm, &dataset.r, &dataset.s, cfg, exec)
}

/// [`execute_on`] over borrowed, timestamp-ordered inputs: the streaming
/// operator joins pane slices it owns without assembling a [`Dataset`].
/// Inputs whose timestamps are all 0 run at rest (ungated).
pub(crate) fn execute_slices(
    algorithm: Algorithm,
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    exec: &Executor,
) -> RunResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid RunConfig: {e}");
    }
    let mut cfg = cfg.clone();
    if algorithm.needs_pow2_threads() && !cfg.threads.is_power_of_two() {
        cfg.threads = prev_pow2(cfg.threads);
    }
    execute_with(algorithm, r, s, &cfg, exec)
}

/// Shared tail of [`execute`]/[`execute_slices`]: `cfg` is validated and
/// its thread count already satisfies the algorithm's power-of-two rule.
fn execute_with(
    algorithm: Algorithm,
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    exec: &Executor,
) -> RunResult {
    // The lazy approach starts once the window's last tuple has arrived.
    let arrive_by: Ts = r
        .last()
        .map(|t| t.ts)
        .unwrap_or(0)
        .max(s.last().map(|t| t.ts).unwrap_or(0));
    // Data at rest (every stamp 0) runs ungated, as `Dataset::is_static`.
    let clock = EventClock::start(cfg.speedup, arrive_by > 0);

    let mut workers = run_algorithm(algorithm, r, s, cfg, &clock, arrive_by, exec);
    let elapsed_ms = clock.now_ms();
    for (tid, w) in workers.iter_mut().enumerate() {
        w.core_id = exec.observed_core(tid);
    }
    RunResult::merge(
        algorithm,
        r.len() + s.len(),
        cfg.sample_every,
        elapsed_ms,
        workers,
    )
}

fn prev_pow2(n: usize) -> usize {
    let mut p = 1usize;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

fn run_algorithm(
    algorithm: Algorithm,
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
    exec: &Executor,
) -> Vec<WorkerOut> {
    match algorithm {
        Algorithm::Npj => lazy::npj::run_on(r, s, cfg, clock, arrive_by, exec),
        Algorithm::Prj => lazy::prj::run_on(r, s, cfg, clock, arrive_by, exec),
        Algorithm::MWay => lazy::mway::run_on(r, s, cfg, clock, arrive_by, exec),
        Algorithm::MPass => lazy::mpass::run_on(r, s, cfg, clock, arrive_by, exec),
        // Handshake owns its pipeline topology (a ring of channel-connected
        // cores fed by the caller) and is the §6 strawman, not one of the
        // eight studied engines — it keeps per-run scoped threads.
        Algorithm::Handshake => handshake::run(r, s, cfg, clock, arrive_by),
        Algorithm::ShjJm | Algorithm::PmjJm => {
            let (rows, cols) = cfg.jm_shape();
            exec.run(cfg.threads, |w| {
                let (rv, sv) = jm::worker_views(r, s, rows, cols, w);
                // Per-worker expected load: its stripe of each stream.
                let exp_r = r.len() / rows + 1;
                let exp_s = s.len() / cols + 1;
                if algorithm == Algorithm::ShjJm {
                    drive_worker(ShjEngine::new(exp_r, exp_s), rv, sv, cfg, clock)
                } else {
                    let engine = PmjEngine::with_eager_merge(
                        exp_r.max(exp_s),
                        cfg.pmj.delta,
                        cfg.sort,
                        cfg.pmj.eager_merge,
                    );
                    drive_worker(engine, rv, sv, cfg, clock)
                }
            })
        }
        // IBWJ: every worker observes the full streams and joins only the
        // keys it owns against its private pair of window indexes.
        Algorithm::Ibwj => exec.run(cfg.threads, |w| {
            let exp_r = r.len() / cfg.threads + 1;
            let exp_s = s.len() / cfg.threads + 1;
            let engine = IbwjEngine::new(exp_r, exp_s, w, cfg.threads);
            drive_worker(
                engine,
                View::strided(r, 0, 1),
                View::strided(s, 0, 1),
                cfg,
                clock,
            )
        }),
        Algorithm::IbwjPart => index::run_part_on(r, s, cfg, clock, arrive_by, exec),
        Algorithm::ShjJb | Algorithm::PmjJb => {
            let g = cfg.jb_group_size();
            let groups = cfg.threads / g;
            exec.run(cfg.threads, |w| {
                let (rv, sv) = jb::worker_views(r, s, cfg.threads, g, w);
                // R is partitioned across the whole matrix of workers; S is
                // replicated within the group (so a worker holds 1/groups
                // of S).
                let exp_r = r.len() / cfg.threads + 1;
                let exp_s = s.len() / groups + 1;
                if algorithm == Algorithm::ShjJb {
                    drive_worker(ShjEngine::new(exp_r, exp_s), rv, sv, cfg, clock)
                } else {
                    let engine = PmjEngine::with_eager_merge(
                        exp_r.max(exp_s),
                        cfg.pmj.delta,
                        cfg.sort,
                        cfg.pmj.eager_merge,
                    );
                    drive_worker(engine, rv, sv, cfg, clock)
                }
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{match_count, nested_loop_join};
    use iawj_datagen::MicroSpec;

    fn small_static() -> Dataset {
        MicroSpec::static_counts(800, 1000)
            .dupe(4)
            .seed(11)
            .generate()
    }

    #[test]
    #[should_panic(expected = "PRJ radix bits must be in 1..=24")]
    fn oversized_radix_bits_are_rejected_before_dispatch() {
        let ds = small_static();
        let mut cfg = RunConfig::with_threads(2);
        cfg.prj.radix_bits = 33;
        let _ = execute(Algorithm::Prj, &ds, &cfg);
    }

    #[test]
    fn all_algorithms_agree_with_reference_on_static_data() {
        let ds = small_static();
        let expect = nested_loop_join(&ds.r, &ds.s, ds.window);
        for algo in Algorithm::STUDIED {
            let cfg = RunConfig::with_threads(4).record_all();
            let result = execute(algo, &ds, &cfg);
            let mut got: Vec<_> = result
                .samples
                .iter()
                .map(|m| (m.key, m.r_ts, m.s_ts))
                .collect();
            got.sort_unstable();
            assert_eq!(got, expect, "{algo} diverged from the reference");
            assert_eq!(result.matches as usize, expect.len(), "{algo} count");
        }
    }

    #[test]
    fn index_engines_agree_with_reference() {
        let ds = small_static();
        let expect = nested_loop_join(&ds.r, &ds.s, ds.window);
        for algo in Algorithm::INDEX {
            for threads in [1usize, 3, 4] {
                let cfg = RunConfig::with_threads(threads).record_all();
                let result = execute(algo, &ds, &cfg);
                let mut got: Vec<_> = result
                    .samples
                    .iter()
                    .map(|m| (m.key, m.r_ts, m.s_ts))
                    .collect();
                got.sort_unstable();
                assert_eq!(got, expect, "{algo} diverged with {threads} threads");
            }
        }
    }

    #[test]
    fn index_engines_exact_on_streaming_input() {
        let ds = MicroSpec::with_rates(30.0, 30.0).dupe(3).seed(5).generate();
        let expect = match_count(&ds.r, &ds.s, ds.window);
        for algo in Algorithm::INDEX {
            let cfg = RunConfig::with_threads(2).speedup(200.0);
            let result = execute(algo, &ds, &cfg);
            assert_eq!(result.matches, expect, "{algo}");
        }
    }

    #[test]
    fn handshake_agrees_too() {
        let ds = small_static();
        let cfg = RunConfig::with_threads(3).record_all();
        let result = execute(Algorithm::Handshake, &ds, &cfg);
        assert_eq!(result.matches, match_count(&ds.r, &ds.s, ds.window));
    }

    #[test]
    fn streaming_run_with_compression_is_exact() {
        // A 1000 ms window replayed 200x fast: gating active, results exact.
        let ds = MicroSpec::with_rates(30.0, 30.0).dupe(3).seed(5).generate();
        let expect = match_count(&ds.r, &ds.s, ds.window);
        for algo in [Algorithm::Npj, Algorithm::ShjJm, Algorithm::PmjJb] {
            let cfg = RunConfig::with_threads(2).speedup(200.0);
            let result = execute(algo, &ds, &cfg);
            assert_eq!(result.matches, expect, "{algo}");
            assert!(result.last_emit_ms > 0.0);
        }
    }

    #[test]
    fn mway_threads_rounded_to_pow2() {
        let ds = small_static();
        let cfg = RunConfig::with_threads(6).record_all();
        let result = execute(Algorithm::MWay, &ds, &cfg);
        assert_eq!(result.threads, 4);
        assert_eq!(result.matches, match_count(&ds.r, &ds.s, ds.window));
    }

    #[test]
    fn jb_group_sizes_all_exact() {
        let ds = small_static();
        let expect = match_count(&ds.r, &ds.s, ds.window);
        for g in [1usize, 2, 4] {
            let mut cfg = RunConfig::with_threads(4).record_all();
            cfg.jb.group_size = g;
            for algo in [Algorithm::ShjJb, Algorithm::PmjJb] {
                let result = execute(algo, &ds, &cfg);
                assert_eq!(result.matches, expect, "{algo} g={g}");
            }
        }
    }

    #[test]
    fn pmj_progressive_merge_ablation_is_exact() {
        let ds = small_static();
        let expect = match_count(&ds.r, &ds.s, ds.window);
        let mut cfg = RunConfig::with_threads(4).record_all();
        cfg.pmj.eager_merge = true;
        cfg.pmj.delta = 0.1;
        for algo in [Algorithm::PmjJm, Algorithm::PmjJb] {
            let result = execute(algo, &ds, &cfg);
            assert_eq!(result.matches, expect, "{algo}");
        }
    }

    #[test]
    fn physical_partitioning_does_not_change_results() {
        let ds = small_static();
        let expect = match_count(&ds.r, &ds.s, ds.window);
        let mut cfg = RunConfig::with_threads(4).record_all();
        cfg.jm.physical_partition = true;
        let result = execute(Algorithm::ShjJm, &ds, &cfg);
        assert_eq!(result.matches, expect);
    }

    #[test]
    fn one_executor_serves_many_runs_and_algorithms() {
        let ds = small_static();
        let cfg = RunConfig::with_threads(4).record_all();
        let exec = cfg.make_executor();
        let expect = match_count(&ds.r, &ds.s, ds.window);
        for _ in 0..3 {
            for algo in [
                Algorithm::Npj,
                Algorithm::Prj,
                Algorithm::MWay,
                Algorithm::ShjJm,
            ] {
                let result = execute_on(algo, &ds, &cfg, &exec);
                assert_eq!(result.matches, expect, "{algo}");
            }
        }
        assert!(
            exec.generations() > 0,
            "pool dispatch must be exercised, not the wider-than-pool fallback"
        );
    }

    #[test]
    fn run_result_carries_one_core_slot_per_worker() {
        let ds = small_static();
        let cfg = RunConfig::with_threads(2).record_all();
        let result = execute(Algorithm::Npj, &ds, &cfg);
        // One entry per worker; Some only where the platform exposes getcpu.
        assert_eq!(result.core_ids.len(), 2);
    }

    #[test]
    fn lazy_run_reports_wait_on_streaming_input() {
        use iawj_common::Phase;
        let ds = MicroSpec::with_rates(20.0, 20.0).seed(3).generate();
        let cfg = RunConfig::with_threads(2).speedup(100.0);
        let result = execute(Algorithm::Npj, &ds, &cfg);
        assert!(
            result.breakdown[Phase::Wait] > 0,
            "lazy algorithm must wait out the window"
        );
    }
}
