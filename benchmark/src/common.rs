//! What every workload shares: the run context, the metric record, and the
//! per-engine layer metrics computed from public `RunResult` fields.

use crate::stats::{median, summarize};
use crate::trace::Tracer;
use iawj_common::{Phase, PhaseBreakdown, Tuple};
use iawj_core::{metrics, Algorithm, RunConfig, RunResult};

/// Engine threads of every workload: the host this benchmark is sized for
/// has two cores.
pub const THREADS: usize = 2;

/// Times a workload's inputs are generated and its executor or operator
/// built; `setup_s` is the median.
const SETUPS: usize = 9;

/// Smoke runs shrink every input by this factor.
const SMOKE_DIVISOR: usize = 50;

/// `phase_cover` outside this range means the §5.3 phases do not add up to
/// the time the workers were given.
const COVER_RANGE: (f64, f64) = (0.85, 1.05);

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One run of one workload.
pub struct Ctx {
    pub seed: u64,
    /// Measuring time asked for on the command line.
    pub seconds: f64,
    pub smoke: bool,
    /// Test hook: shift the first expectation so the run must fail.
    pub corrupt_oracle: bool,
    pub tracer: Tracer,
}

impl Ctx {
    /// Input size after the smoke divisor.
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            (n / SMOKE_DIVISOR).max(1)
        } else {
            n
        }
    }

    /// The time the workload's own loop may measure for: all of it in an
    /// untraced run, half in a traced one (the layer probes take the rest).
    pub fn loop_seconds(&self) -> f64 {
        if self.tracer.enabled() {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    pub fn run_config(&self) -> RunConfig {
        RunConfig::with_threads(THREADS)
    }
}

/// What a workload's own loop measured.
pub struct Measured {
    pub setup_s: f64,
    /// `VmHWM` when measuring ended, before the oracle or a probe ran.
    pub peak_rss_mb: f64,
    pub tput_mtps: f64,
    pub lat_p50_ms: f64,
    pub lat_tail_ms: f64,
    /// Operations checked against the oracle (joins or windows).
    pub attempted: u64,
    /// Of those, how many differed from the oracle. Nothing that depends on
    /// the wall clock counts: a stall of the host must not fail a run.
    pub failed: u64,
    pub oracle_s: f64,
    /// Wall and CPU seconds of the measured loop.
    pub loop_wall_s: f64,
    pub loop_cpu_s: f64,
    /// Workload-specific numbers for the report.
    pub detail: Vec<Metric>,
    /// Slices of the workload's own data for the layer probes.
    pub probe_r: Vec<Tuple>,
    pub probe_s: Vec<Tuple>,
}

/// Set up `SETUPS` times, one result alive at a time so that peak RSS holds
/// one copy of the inputs; returns the last result and the median seconds.
pub fn timed_setups<T>(mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut result = None;
    for _ in 0..SETUPS {
        drop(result.take());
        let t0 = std::time::Instant::now();
        result = Some(set_up());
        seconds.push(t0.elapsed().as_secs_f64());
    }
    (result.expect("SETUPS is at least one"), median(&seconds))
}

/// Quartiles and sample count of a reported median, for the report.
pub fn quartile_detail(name: &str, values: &[f64], unit: &'static str) -> Vec<Metric> {
    let s = summarize(values);
    vec![
        metric(format!("{name}.q1"), s.q1, unit),
        metric(format!("{name}.q3"), s.q3, unit),
        metric(format!("{name}.n"), s.n as f64, "count"),
    ]
}

/// The first `max` tuples (all, when fewer) as a slice for the layer probes.
pub fn probe_slice(tuples: &[Tuple], max: usize) -> Vec<Tuple> {
    tuples[..tuples.len().min(max)].to_vec()
}

/// A benchmark engine: its name in metric names, its span name, and the
/// §5.3 phases it spends time in. The others get no metric: they are
/// structurally zero for it, or — `wait` for the eager engines — zero
/// wherever the engine is the bottleneck, which is every place it runs here.
pub struct EngineInfo {
    pub engine: Algorithm,
    pub key: &'static str,
    pub span: &'static str,
    pub phases: &'static [Phase],
}

const fn engine(
    engine: Algorithm,
    key: &'static str,
    span: &'static str,
    phases: &'static [Phase],
) -> EngineInfo {
    EngineInfo {
        engine,
        key,
        span,
        phases,
    }
}

/// The seven engines the workloads run, in the paper's order.
pub const ENGINES: [EngineInfo; 7] = {
    use Phase::*;
    [
        engine(
            Algorithm::Npj,
            "npj",
            "join.npj",
            &[BuildSort, Probe, Other],
        ),
        engine(
            Algorithm::Prj,
            "prj",
            "join.prj",
            &[Partition, BuildSort, Probe, Other],
        ),
        engine(
            Algorithm::MWay,
            "mway",
            "join.mway",
            &[BuildSort, Merge, Probe, Other],
        ),
        engine(
            Algorithm::MPass,
            "mpass",
            "join.mpass",
            &[BuildSort, Merge, Probe, Other],
        ),
        engine(
            Algorithm::ShjJm,
            "shj_jm",
            "join.shj_jm",
            &[Partition, BuildSort, Probe, Other],
        ),
        engine(
            Algorithm::ShjJb,
            "shj_jb",
            "join.shj_jb",
            &[Partition, BuildSort, Probe, Other],
        ),
        engine(
            Algorithm::PmjJm,
            "pmj_jm",
            "join.pmj_jm",
            &[Partition, BuildSort, Merge, Probe, Other],
        ),
    ]
};

pub fn engine_info(engine: Algorithm) -> &'static EngineInfo {
    ENGINES
        .iter()
        .find(|e| e.engine == engine)
        .unwrap_or_else(|| panic!("{engine} is not a benchmark engine"))
}

fn phase_key(phase: Phase) -> &'static str {
    match phase {
        Phase::Wait => "wait",
        Phase::Partition => "partition",
        Phase::BuildSort => "build_sort",
        Phase::Merge => "merge",
        Phase::Probe => "probe",
        Phase::Other => "other",
    }
}

/// One `execute_on` call as seen from outside.
pub struct EngineRun {
    pub inputs: usize,
    pub wall_ns: f64,
    pub threads: usize,
    pub breakdown: PhaseBreakdown,
    pub lat_p50_ms: f64,
    pub lat_tail_ms: f64,
    pub prog_t50_ms: f64,
}

impl EngineRun {
    pub fn new(result: &RunResult, wall_ns: f64) -> EngineRun {
        let tail_q = crate::stats::tail_percentile(result.matches) / 100.0;
        EngineRun {
            inputs: result.total_inputs,
            wall_ns,
            threads: result.threads,
            breakdown: result.breakdown,
            lat_p50_ms: metrics::latency_quantile_exact_ms(result, 0.5).unwrap_or(0.0),
            lat_tail_ms: metrics::latency_quantile_exact_ms(result, tail_q).unwrap_or(0.0),
            prog_t50_ms: metrics::time_to_fraction_ms(result, 0.5).unwrap_or(0.0),
        }
    }
}

/// `core.<engine>.*`: throughput, ns per input tuple in each phase, and
/// how much of `threads × wall` the phases account for — each a median
/// over `runs`. `with_latency` adds the §4.1 latency and progressiveness.
pub fn engine_metrics(engine: Algorithm, runs: &[EngineRun], with_latency: bool) -> Vec<Metric> {
    let info = engine_info(engine);
    let key = info.key;
    let med = |f: &dyn Fn(&EngineRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let mut out = vec![metric(
        format!("core.{key}.tput_mtps"),
        med(&|r| r.inputs as f64 / r.wall_ns * 1e3),
        "Mtuples/s",
    )];
    for &phase in info.phases {
        out.push(metric(
            format!("core.{key}.{}_ns_pt", phase_key(phase)),
            med(&|r| r.breakdown[phase] as f64 / r.inputs as f64),
            "ns/tuple",
        ));
    }
    let cover = med(&|r| r.breakdown.total_ns() as f64 / (r.threads as f64 * r.wall_ns));
    if !(COVER_RANGE.0..=COVER_RANGE.1).contains(&cover) {
        eprintln!(
            "reconciliation warning: core.{key}.phase_cover = {cover:.3}, outside [{}, {}]",
            COVER_RANGE.0, COVER_RANGE.1
        );
    }
    out.push(metric(format!("core.{key}.phase_cover"), cover, "ratio"));
    if with_latency {
        out.push(metric(
            format!("core.{key}.match_lat_p95_ms"),
            med(&|r| r.lat_tail_ms),
            "ms",
        ));
        out.push(metric(
            format!("core.{key}.prog_t50_ms"),
            med(&|r| r.prog_t50_ms),
            "ms",
        ));
    }
    out
}
