//! The closed-loop join workloads: one caller runs the workload's engines
//! round after round on one shared executor, through `execute_on` with the
//! default `RunConfig`.

use crate::common::{
    engine_info, engine_metrics, metric, probe_slice, quartile_detail, timed_setups, Ctx,
    EngineRun, Measured,
};
use crate::oracle;
use crate::proc::{cpu_seconds, peak_rss_mb};
use crate::stats::median;
use iawj_core::{execute_on, Algorithm, Executor, RunConfig};
use iawj_datagen::{Dataset, MicroSpec};
use std::time::Instant;

/// Timed rounds a run makes at the least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Tuples per side the layer probes get.
const PROBE_TUPLES: usize = 1 << 20;

pub struct JoinWorkload {
    pub engines: &'static [Algorithm],
    /// Arrival-gated (tuples arrive over the window in real time) rather
    /// than at rest.
    pub gated: bool,
}

pub const REST_HASH: JoinWorkload = JoinWorkload {
    engines: &[Algorithm::Npj, Algorithm::Prj],
    gated: false,
};

pub const REST_SORT: JoinWorkload = JoinWorkload {
    engines: &[Algorithm::MWay, Algorithm::MPass],
    gated: false,
};

pub const GATED_EAGER: JoinWorkload = JoinWorkload {
    engines: &[Algorithm::ShjJm, Algorithm::ShjJb, Algorithm::PmjJm],
    gated: true,
};

fn micro_spec(ctx: &Ctx, w: &JoinWorkload) -> MicroSpec {
    let spec = if w.gated {
        // 2M + 2M tuples arriving over 100 ms of real time: the paper's
        // high-rate regime, where eager engines cannot keep up and latency
        // is compute-determined.
        let rate = ctx.scaled(20_000) as f64;
        MicroSpec::with_rates(rate, rate).window_ms(100)
    } else {
        let n = ctx.scaled(4_000_000);
        MicroSpec::static_counts(n, n)
    };
    spec.dupe(4).seed(ctx.seed)
}

fn set_up(ctx: &mut Ctx, w: &JoinWorkload) -> (Dataset, RunConfig, Executor) {
    let spec = micro_spec(ctx, w);
    let cfg = ctx.run_config();
    ctx.tracer.scope("setup", |t| {
        let ds = t.scope("setup.gen", |_| spec.generate());
        let exec = t.scope("setup.executor", |_| cfg.make_executor());
        (ds, cfg, exec)
    })
}

/// One round — every engine of the workload once — appended to `by_engine`.
/// Returns how many joins disagreed with `expected`.
fn round(
    ctx: &mut Ctx,
    w: &JoinWorkload,
    (ds, cfg, exec): &(Dataset, RunConfig, Executor),
    expected: u64,
    by_engine: &mut [Vec<EngineRun>],
) -> u64 {
    let mut wrong = 0;
    let span = ctx.tracer.begin("round");
    for (&engine, runs) in w.engines.iter().zip(by_engine) {
        let join = ctx.tracer.begin(engine_info(engine).span);
        let t0 = Instant::now();
        let result = execute_on(engine, ds, cfg, exec);
        let wall_ns = t0.elapsed().as_nanos() as f64;
        ctx.tracer.end(join);
        if result.matches != expected {
            eprintln!(
                "{engine}: {} matches, the oracle expects {expected}",
                result.matches
            );
            wrong += 1;
        }
        runs.push(EngineRun::new(&result, wall_ns));
    }
    ctx.tracer.end(span);
    wrong
}

pub fn run(ctx: &mut Ctx, w: &JoinWorkload) -> Measured {
    let (inputs, setup_s) = timed_setups(|| set_up(ctx, w));

    let t0 = Instant::now();
    let mut expected = ctx
        .tracer
        .scope("oracle", |_| oracle::join_count(&inputs.0.r, &inputs.0.s));
    if ctx.corrupt_oracle {
        expected += 1;
    }
    let oracle_s = t0.elapsed().as_secs_f64();

    let n_engines = w.engines.len();
    let fresh = || -> Vec<Vec<EngineRun>> { (0..n_engines).map(|_| Vec::new()).collect() };

    let warm = ctx.tracer.begin("warmup");
    let mut wrong = round(ctx, w, &inputs, expected, &mut fresh());
    ctx.tracer.end(warm);

    let budget = ctx.loop_seconds();
    let mut by_engine = fresh();
    let mut rounds = 0;
    let measure = ctx.tracer.begin("measure");
    let (wall0, cpu0) = (Instant::now(), cpu_seconds());
    while rounds < MIN_ROUNDS || wall0.elapsed().as_secs_f64() < budget {
        wrong += round(ctx, w, &inputs, expected, &mut by_engine);
        rounds += 1;
    }
    let (loop_wall_s, loop_cpu_s) = (wall0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
    ctx.tracer.end(measure);
    let peak_rss_mb = peak_rss_mb();

    // Per round: all input tuples over all `execute_on` wall time, and the
    // §4.1 latency / progressiveness as the mean over the engines.
    let per_round = |f: &dyn Fn(&EngineRun) -> f64| -> Vec<f64> {
        (0..rounds)
            .map(|i| by_engine.iter().map(|runs| f(&runs[i])).sum::<f64>())
            .collect()
    };
    let mean_per_round = |f: &dyn Fn(&EngineRun) -> f64| -> Vec<f64> {
        per_round(f).iter().map(|v| v / n_engines as f64).collect()
    };
    let tput: Vec<f64> = per_round(&|e| e.inputs as f64)
        .iter()
        .zip(per_round(&|e| e.wall_ns))
        .map(|(inputs, wall_ns)| inputs / wall_ns * 1e3)
        .collect();
    let lat_p50 = mean_per_round(&|e| e.lat_p50_ms);
    let lat_tail = mean_per_round(&|e| e.lat_tail_ms);
    let prog_t50 = mean_per_round(&|e| e.prog_t50_ms);

    let mut detail = Vec::new();
    for (name, values, unit) in [
        ("tput_mtps", &tput, "Mtuples/s"),
        ("lat_p50_ms", &lat_p50, "ms"),
        ("lat_tail_ms", &lat_tail, "ms"),
    ] {
        detail.extend(quartile_detail(name, values, unit));
    }
    detail.push(metric("prog_t50_ms", median(&prog_t50), "ms"));
    for (&engine, runs) in w.engines.iter().zip(&by_engine) {
        // Prefixed: the traced pass also reports `core.<engine>.*` from the
        // layer probes, at probe size.
        detail.extend(
            engine_metrics(engine, runs, w.gated)
                .into_iter()
                .map(|m| metric(format!("rounds.{}", m.name), m.value, m.unit)),
        );
    }

    let (ds, ..) = &inputs;
    Measured {
        setup_s,
        peak_rss_mb,
        tput_mtps: median(&tput),
        lat_p50_ms: median(&lat_p50),
        lat_tail_ms: median(&lat_tail),
        attempted: ((rounds + 1) * n_engines) as u64,
        failed: wrong,
        oracle_s,
        loop_wall_s,
        loop_cpu_s,
        detail,
        probe_r: probe_slice(&ds.r, PROBE_TUPLES),
        probe_s: probe_slice(&ds.s, PROBE_TUPLES),
    }
}
