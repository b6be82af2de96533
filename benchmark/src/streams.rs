//! The streaming workloads: a `StreamingJoin` operator fed through
//! `stream_channel` by one load-generator thread that the benchmark owns.
//!
//! Each run has two phases on fresh operators. *Capacity* is a closed loop:
//! the generator sends as fast as backpressure lets it, and the phase gives
//! the sustained throughput. *Paced* is an open loop: tuples are released on
//! 1 ms ticks of a precomputed schedule that never slows when the operator
//! does, every tuple has a *due* time, and a window's latency runs from the
//! due time of the last tuple that falls in it to the `on_window` callback.

use crate::common::{
    metric, probe_slice, quartile_detail, timed_setups, Ctx, Measured, Metric, THREADS,
};
use crate::oracle;
use crate::proc::{cpu_seconds, peak_rss_mb};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use iawj_common::{stream_channel, Rate, Rng, StreamSender, Tuple};
use iawj_core::windowing::WindowSpec;
use iawj_core::{Algorithm, StreamConfig, StreamReport, StreamingJoin};
use std::time::{Duration, Instant};

/// Ingress queue capacity per side, in tuples (the `iawj serve` default).
const QUEUE_CAP: usize = 1024;

/// Join keys are uniform over this domain.
const KEY_DOMAIN: u32 = 32_768;

/// Stream time one capacity repetition replays unpaced, and how often the
/// phase is repeated on a fresh operator; `tput_mtps` is the median. One
/// repetition is too few: the queue hand-off between generator and operator
/// is bistable (both spinning on the queue's lock, or one asleep on its
/// condvar and woken tuple by tuple), a repetition mostly stays in the
/// state it started in, and the two differ by a third in throughput.
const CAPACITY_STREAM_MS: u32 = 3_000;
const SMOKE_CAPACITY_STREAM_MS: u32 = 1_000;
const CAPACITY_REPS: usize = 5;

/// Share of the measuring time the paced phase gets; the capacity
/// repetitions take about the rest at the seed commit's throughput. At the
/// declared 16 s this leaves 11.5 s paced: just over the 100 sampled
/// windows that a p90 needs.
const PACED_SHARE: f64 = 0.72;

/// The paced stream is never shorter than this, so that even the longest
/// window (1000 ms) closes by watermark at least a few times.
const MIN_PACED_MS: u32 = 1_500;

/// Windows that end within the first second of the paced phase (a quarter
/// of it when shorter) are not sampled: the operator is still warming up.
const WARMUP_MS: u32 = 1_000;

/// Paced windows whose latency exceeds this are counted in the detail line
/// (`stream.windows_over_lat_limit`). They are not failed operations: on a
/// shared host a stall of a few hundred ms is the host's, not the operator's,
/// and the latency metrics already carry it.
const LAT_LIMIT_MS: f64 = 250.0;

/// One tick in this many gets a `pump.send` span in a traced run.
const PUMP_SPAN_EVERY: usize = 64;

/// Tuples per side the layer probes get: about a window's worth. With 32 Ki
/// keys a larger slice would have the probes time little but match emission.
const PROBE_TUPLES: usize = 1 << 17;

/// Bounded disorder plus rare stragglers, for the out-of-order workload.
pub struct Disorder {
    /// Arrival is delayed by 0..=`jitter_ms` after the event time.
    jitter_ms: u32,
    /// The operator's allowed lateness; above the jitter, so that jittered
    /// tuples are never late whatever the thread interleaving.
    lateness_ms: u32,
    /// One tuple in this many is a straggler ...
    straggler_one_in: u64,
    /// ... that arrives this long after its event time, far behind the
    /// watermark, so that it is always dropped.
    straggler_delay_ms: u32,
}

pub struct StreamWorkload {
    spec: WindowSpec,
    engine: Algorithm,
    /// Tuples per ms per side, in both phases. Frozen at about a third of
    /// the capacity measured when the benchmark was defined; the README
    /// records how each rate was chosen.
    rate_per_ms: usize,
    disorder: Option<Disorder>,
}

pub const STREAM_TUMBLING: StreamWorkload = StreamWorkload {
    spec: WindowSpec::Tumbling { len_ms: 100 },
    engine: Algorithm::Npj,
    rate_per_ms: 300,
    disorder: None,
};

pub const STREAM_SLIDING_INDEX: StreamWorkload = StreamWorkload {
    spec: WindowSpec::Sliding {
        len_ms: 1000,
        slide_ms: 100,
    },
    engine: Algorithm::Ibwj,
    rate_per_ms: 150,
    disorder: None,
};

pub const STREAM_PANES_OOO: StreamWorkload = StreamWorkload {
    spec: WindowSpec::Sliding {
        len_ms: 400,
        slide_ms: 100,
    },
    engine: Algorithm::Prj,
    rate_per_ms: 300,
    disorder: Some(Disorder {
        jitter_ms: 20,
        lateness_ms: 30,
        straggler_one_in: 1000,
        straggler_delay_ms: 500,
    }),
};

impl StreamWorkload {
    fn len_slide(&self) -> (u32, u32) {
        match self.spec {
            WindowSpec::Tumbling { len_ms } => (len_ms, len_ms),
            WindowSpec::Sliding { len_ms, slide_ms } => (len_ms, slide_ms),
            WindowSpec::Session { .. } => unreachable!("no session workload"),
        }
    }

    fn config(&self, ctx: &Ctx) -> StreamConfig {
        let lateness = self.disorder.as_ref().map_or(0, |d| d.lateness_ms);
        StreamConfig::new(self.spec, self.engine)
            .run_config(ctx.run_config())
            .lateness(lateness)
    }
}

/// One side of a schedule: tuples in arrival order, and for every tick how
/// many of them are due by the end of it.
struct Side {
    tuples: Vec<Tuple>,
    due_end: Vec<u32>,
}

impl Side {
    fn due_range(&self, tick: usize) -> std::ops::Range<usize> {
        let start = if tick == 0 { 0 } else { self.due_end[tick - 1] };
        start as usize..self.due_end[tick] as usize
    }

    /// Every tuple with the tick it is due at.
    fn with_due(&self) -> impl Iterator<Item = (Tuple, u32)> + '_ {
        (0..self.due_end.len()).flat_map(move |tick| {
            self.due_range(tick)
                .map(move |i| (self.tuples[i], tick as u32))
        })
    }
}

/// The precomputed input of one phase.
struct Schedule {
    r: Side,
    s: Side,
    /// Largest arrival delay a tuple that must not be dropped can have;
    /// anything later is a straggler.
    max_jitter_ms: u32,
}

fn side(w: &StreamWorkload, rate: usize, stream_ms: u32, seed: u64) -> Side {
    let base = iawj_datagen::rate_stream(Rate::PerMs(rate as f64), stream_ms, KEY_DOMAIN, seed);
    let mut rng = Rng::new(seed ^ 0x5EED_D15C);
    let due: Vec<u32> = base
        .iter()
        .map(|t| match &w.disorder {
            None => t.ts,
            Some(d) => {
                // Stragglers stop early enough to arrive before the stream
                // ends, so the schedule is as long as the stream.
                let straggles =
                    rng.below(d.straggler_one_in) == 0 && t.ts + d.straggler_delay_ms < stream_ms;
                if straggles {
                    t.ts + d.straggler_delay_ms
                } else {
                    (t.ts + rng.below(d.jitter_ms as u64 + 1) as u32).min(stream_ms - 1)
                }
            }
        })
        .collect();
    // Counting sort by due tick; stable, so equal dues keep event order.
    let mut due_end = vec![0u32; stream_ms as usize];
    for &d in &due {
        due_end[d as usize] += 1;
    }
    let mut next = Vec::with_capacity(due_end.len());
    let mut total = 0u32;
    for n in due_end.iter_mut() {
        next.push(total);
        total += *n;
        *n = total;
    }
    let mut tuples = vec![Tuple::default(); base.len()];
    for (t, &d) in base.iter().zip(&due) {
        tuples[next[d as usize] as usize] = *t;
        next[d as usize] += 1;
    }
    Side { tuples, due_end }
}

fn schedule(w: &StreamWorkload, rate: usize, stream_ms: u32, seed: u64) -> Schedule {
    Schedule {
        r: side(w, rate, stream_ms, seed.wrapping_mul(2)),
        s: side(w, rate, stream_ms, seed.wrapping_mul(2).wrapping_add(1)),
        max_jitter_ms: w.disorder.as_ref().map_or(0, |d| d.jitter_ms),
    }
}

/// What the oracle expects of one phase.
struct Expected {
    /// Matches of every realized window, by window index.
    matches: Vec<u64>,
    late_dropped: u64,
    /// Per window, the due tick of the last tuple that falls in it.
    last_due_ms: Vec<u32>,
}

fn expect(sched: &Schedule, (len, slide): (u32, u32)) -> Expected {
    let mut late_dropped = 0;
    let mut max_ts = 0;
    let mut pane_last_due = vec![0u32; sched.r.due_end.len().div_ceil(slide as usize)];
    let mut kept = |side: &Side| -> Vec<Tuple> {
        side.with_due()
            .filter_map(|(t, due)| {
                max_ts = max_ts.max(t.ts);
                if due - t.ts > sched.max_jitter_ms {
                    late_dropped += 1;
                    return None;
                }
                let pane = &mut pane_last_due[(t.ts / slide) as usize];
                *pane = (*pane).max(due);
                Some(t)
            })
            .collect()
    };
    let (r, s) = (kept(&sched.r), kept(&sched.s));
    let matches = oracle::window_counts(&r, &s, len, slide, max_ts);
    let panes_per_window = (len / slide) as usize;
    let last_due_ms = (0..matches.len())
        .map(|k| {
            let hi = (k + panes_per_window).min(pane_last_due.len());
            pane_last_due[k..hi].iter().copied().max().unwrap_or(0)
        })
        .collect();
    Expected {
        matches,
        late_dropped,
        last_due_ms,
    }
}

/// What the load generator observed.
struct PumpStats {
    /// How late each tick's first send was, in ms (paced phase only).
    lag_ms: Vec<f64>,
    sends: u64,
    /// Sends that found the queue full and had to wait.
    blocked_sends: u64,
    first_send: Instant,
    last_send: Instant,
}

/// The load generator: one thread that releases both sides' tuples tick by
/// tick, R and S interleaved in arrival order. With `pace` set it waits
/// for each tick's wall time and never for the operator (except through a
/// full queue, which it records as lag); without, it sends back to back.
fn pump(
    sched: &Schedule,
    tx_r: StreamSender<Tuple>,
    tx_s: StreamSender<Tuple>,
    pace: Option<Instant>,
    mut tracer: Tracer,
) -> (PumpStats, Tracer) {
    let started = Instant::now();
    let mut stats = PumpStats {
        lag_ms: Vec::new(),
        sends: 0,
        blocked_sends: 0,
        first_send: started,
        last_send: started,
    };
    let mut send = |tx: &StreamSender<Tuple>, t: Tuple| {
        stats.sends += 1;
        // The operator outlives the pump, so a send only fails if the
        // operator panicked; its panic surfaces when `run` unwinds.
        if tx.send(t) == Ok(true) {
            stats.blocked_sends += 1;
        }
    };
    for tick in 0..sched.r.due_end.len() {
        let (r, s) = (sched.r.due_range(tick), sched.s.due_range(tick));
        if r.is_empty() && s.is_empty() {
            continue;
        }
        if let Some(epoch) = pace {
            let due = epoch + Duration::from_millis(tick as u64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let lag = Instant::now().saturating_duration_since(due);
            stats.lag_ms.push(lag.as_secs_f64() * 1e3);
        }
        let span = (tick % PUMP_SPAN_EVERY == 0).then(|| tracer.begin("pump.send"));
        let (r, s) = (&sched.r.tuples[r], &sched.s.tuples[s]);
        for i in 0..r.len().max(s.len()) {
            if let Some(&t) = r.get(i) {
                send(&tx_r, t);
            }
            if let Some(&t) = s.get(i) {
                send(&tx_s, t);
            }
        }
        if let Some(id) = span {
            tracer.end(id);
        }
    }
    stats.last_send = Instant::now();
    (stats, tracer)
}

/// One phase as seen from outside the operator.
struct Phase {
    report: StreamReport,
    /// Wall time of each `on_window` callback, in window order.
    closed_at: Vec<Instant>,
    pump: PumpStats,
    /// The instant tick 0 was due.
    epoch: Instant,
    returned: Instant,
    cpu_s: f64,
}

impl Phase {
    fn tuples(&self) -> f64 {
        (self.report.ingested_r + self.report.ingested_s) as f64
    }

    /// First send to `run` returning.
    fn wall_s(&self) -> f64 {
        (self.returned - self.pump.first_send).as_secs_f64()
    }

    fn tput_mtps(&self) -> f64 {
        self.tuples() / self.wall_s() / 1e6
    }

    fn close_wall_ms(&self) -> f64 {
        self.report.windows.iter().map(|w| w.join_wall_ms).sum()
    }
}

fn run_phase(
    ctx: &mut Ctx,
    w: &StreamWorkload,
    sched: &Schedule,
    paced: bool,
    span_name: &'static str,
) -> Phase {
    let (tx_r, rx_r) = stream_channel(QUEUE_CAP);
    let (tx_s, rx_s) = stream_channel(QUEUE_CAP);
    let operator = StreamingJoin::new(w.config(ctx));
    let span = ctx.tracer.begin(span_name);
    let pump_tracer = ctx.tracer.for_pump(span);
    let mut closed_at = Vec::new();
    let cpu0 = cpu_seconds();
    let epoch = Instant::now();
    let (report, returned, (pump, pump_tracer)) = std::thread::scope(|scope| {
        let pace = paced.then_some(epoch);
        let pump = scope.spawn(move || pump(sched, tx_r, tx_s, pace, pump_tracer));
        let report = operator.run(rx_r, rx_s, |_| closed_at.push(Instant::now()), |_| {});
        let returned = Instant::now();
        (
            report,
            returned,
            pump.join().expect("the pump does not panic"),
        )
    });
    let cpu_s = cpu_seconds() - cpu0;
    ctx.tracer.absorb(pump_tracer);
    for (win, &at) in report.windows.iter().zip(&closed_at) {
        let took = Duration::from_secs_f64(win.join_wall_ms / 1e3);
        ctx.tracer
            .add("close", span, at.checked_sub(took).unwrap_or(at), at);
    }
    ctx.tracer.end(span);
    Phase {
        report,
        closed_at,
        pump,
        epoch,
        returned,
        cpu_s,
    }
}

/// Check one phase against the oracle: one operation per window plus one
/// for the late-drop count. Returns `(attempted, wrong)`.
fn check(phase: &Phase, expected: &Expected, slide: u32, what: &str) -> (u64, u64) {
    let mut wrong = 0;
    let windows = &phase.report.windows;
    if windows.len() != expected.matches.len() {
        eprintln!(
            "{what}: {} windows closed, the oracle expects {}",
            windows.len(),
            expected.matches.len()
        );
        wrong += windows.len().abs_diff(expected.matches.len()) as u64;
    }
    for win in windows {
        let k = (win.window.start / slide) as usize;
        if expected.matches.get(k) != Some(&win.matches) {
            eprintln!(
                "{what}: window {k} has {} matches, the oracle expects {:?}",
                win.matches,
                expected.matches.get(k)
            );
            wrong += 1;
        }
    }
    if phase.report.late_dropped != expected.late_dropped {
        eprintln!(
            "{what}: {} late tuples dropped, the oracle expects {}",
            phase.report.late_dropped, expected.late_dropped
        );
        wrong += 1;
    }
    (expected.matches.len() as u64 + 1, wrong)
}

struct Inputs {
    capacity: Schedule,
    paced: Schedule,
}

fn set_up(ctx: &mut Ctx, w: &StreamWorkload, paced_ms: u32) -> Inputs {
    let rate = ctx.scaled(w.rate_per_ms);
    let capacity_ms = if ctx.smoke {
        SMOKE_CAPACITY_STREAM_MS
    } else {
        CAPACITY_STREAM_MS
    };
    let seed = ctx.seed;
    let cfg = w.config(ctx);
    ctx.tracer.scope("setup", |t| {
        let inputs = t.scope("setup.gen", |_| Inputs {
            capacity: schedule(w, rate, capacity_ms, seed.wrapping_mul(2)),
            paced: schedule(w, rate, paced_ms, seed.wrapping_mul(2).wrapping_add(1)),
        });
        // Each phase builds its own operator (and its worker pool) again;
        // this one is only timed.
        t.scope("setup.executor", |_| drop(StreamingJoin::new(cfg)));
        inputs
    })
}

pub fn run(ctx: &mut Ctx, w: &StreamWorkload) -> Measured {
    let (len, slide) = w.len_slide();
    let paced_ms = ((ctx.loop_seconds() * PACED_SHARE * 1e3) as u32).max(MIN_PACED_MS);
    let paced_ms = paced_ms - paced_ms % slide;

    let (inputs, setup_s) = timed_setups(|| set_up(ctx, w, paced_ms));

    let measure = ctx.tracer.begin("measure");
    let mut capacities: Vec<Phase> = (0..CAPACITY_REPS)
        .map(|_| run_phase(ctx, w, &inputs.capacity, false, "stream.capacity"))
        .collect();
    let paced = run_phase(ctx, w, &inputs.paced, true, "stream.paced");
    ctx.tracer.end(measure);
    let peak_rss_mb = peak_rss_mb();

    let t0 = Instant::now();
    let oracle_span = ctx.tracer.begin("oracle");
    let mut expect_capacity = expect(&inputs.capacity, (len, slide));
    let expect_paced = expect(&inputs.paced, (len, slide));
    if ctx.corrupt_oracle {
        expect_capacity.matches[0] += 1;
    }
    let (mut tried_c, mut wrong_c) = (0, 0);
    for capacity in &capacities {
        let (tried, wrong) = check(capacity, &expect_capacity, slide, "capacity phase");
        tried_c += tried;
        wrong_c += wrong;
    }
    let (tried_p, wrong_p) = check(&paced, &expect_paced, slide, "paced phase");
    ctx.tracer.end(oracle_span);
    let oracle_s = t0.elapsed().as_secs_f64();

    // The latency sample: paced windows closed by the watermark, after the
    // warm-up. `sys_delay` is what is left of a window's latency once its
    // close (the join) is taken out: queue wait, watermark wait and gather.
    let warmup_ms = WARMUP_MS.min(paced_ms / 4);
    let mut e2e = Vec::new();
    let mut sys_delay = Vec::new();
    let mut close = Vec::new();
    for (win, &at) in paced.report.windows.iter().zip(&paced.closed_at) {
        if win.flushed_at_end() || win.window.start + len <= warmup_ms {
            continue;
        }
        // A window the oracle does not know was already counted as wrong.
        let k = (win.window.start / slide) as usize;
        let Some(&last_due_ms) = expect_paced.last_due_ms.get(k) else {
            continue;
        };
        let due = paced.epoch + Duration::from_millis(last_due_ms as u64);
        let ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
        e2e.push(ms);
        sys_delay.push(ms - win.join_wall_ms);
        close.push(win.join_wall_ms);
    }
    assert!(
        !e2e.is_empty(),
        "no paced window closed by watermark after the warm-up"
    );
    let too_slow = e2e.iter().filter(|&&ms| ms > LAT_LIMIT_MS).count();
    let tail = tail_percentile(e2e.len() as u64);

    // The repetition with the median throughput stands for the phase.
    let loop_wall_s = capacities.iter().map(Phase::wall_s).sum::<f64>() + paced.wall_s();
    let loop_cpu_s = capacities.iter().map(|c| c.cpu_s).sum::<f64>() + paced.cpu_s;
    capacities.sort_by(|a, b| a.tput_mtps().total_cmp(&b.tput_mtps()));
    let tputs: Vec<f64> = capacities.iter().map(Phase::tput_mtps).collect();
    let capacity = &capacities[capacities.len() / 2];

    let mut detail = quartile_detail("tput_mtps", &tputs, "Mtuples/s");
    detail.extend(quartile_detail("lat_ms", &e2e, "ms"));
    detail.push(metric("lat_tail_percentile", tail, "percentile"));
    detail.push(metric(
        "stream.windows_over_lat_limit",
        too_slow as f64,
        "count",
    ));
    detail.extend(operator_detail(capacity, &paced, &close, &sys_delay));

    Measured {
        setup_s,
        peak_rss_mb,
        tput_mtps: capacity.tput_mtps(),
        lat_p50_ms: median(&e2e),
        lat_tail_ms: percentile(&e2e, tail),
        attempted: tried_c + tried_p,
        failed: wrong_c + wrong_p,
        oracle_s,
        loop_wall_s,
        loop_cpu_s,
        detail,
        probe_r: probe_slice(&inputs.paced.r.tuples, PROBE_TUPLES),
        probe_s: probe_slice(&inputs.paced.s.tuples, PROBE_TUPLES),
    }
}

/// The streaming operator seen from outside: what `StreamReport`,
/// `ClosedWindow` and the load generator expose, per phase.
fn operator_detail(
    capacity: &Phase,
    paced: &Phase,
    close: &[f64],
    sys_delay: &[f64],
) -> Vec<Metric> {
    let (cap, pac) = (&capacity.report, &paced.report);
    let cap_wall_ms = capacity.wall_s() * 1e3;
    let reused: usize = pac.windows.iter().map(|w| w.pane_pairs_reused).sum();
    let computed: usize = pac.windows.iter().map(|w| w.pane_pairs_computed).sum();
    let mut out = vec![
        metric("core.streaming.close_p50_ms", median(close), "ms"),
        metric("core.streaming.close_p90_ms", percentile(close, 90.0), "ms"),
        metric("core.streaming.sys_delay_p50_ms", median(sys_delay), "ms"),
        metric(
            "core.streaming.close_share",
            capacity.close_wall_ms() / cap_wall_ms,
            "ratio",
        ),
        metric(
            "core.streaming.ingest_ns_pt",
            (cap_wall_ms - capacity.close_wall_ms()) * 1e6 / capacity.tuples(),
            "ns/tuple",
        ),
        metric(
            "core.streaming.engine_runs_per_close",
            pac.engine_runs as f64 / pac.windows.len() as f64,
            "count",
        ),
        metric(
            "core.streaming.peak_resident_panes",
            pac.peak_resident_panes as f64,
            "count",
        ),
        metric(
            "core.streaming.peak_queue_depth",
            pac.peak_queue_depth as f64,
            "count",
        ),
        metric(
            "core.streaming.late_dropped",
            pac.late_dropped as f64,
            "count",
        ),
        metric("core.streaming.windows", pac.windows.len() as f64, "count"),
        metric(
            "core.streaming.drain_ms",
            (paced.returned - paced.pump.last_send).as_secs_f64() * 1e3,
            "ms",
        ),
        metric(
            "common.spsc.backpressure_waits",
            cap.backpressure_waits as f64,
            "count",
        ),
        metric(
            "common.spsc.paced_backpressure_waits",
            pac.backpressure_waits as f64,
            "count",
        ),
        metric(
            "common.spsc.send_blocked_share",
            capacity.pump.blocked_sends as f64 / capacity.pump.sends as f64,
            "ratio",
        ),
        metric(
            "bench.pump.lag_p90_ms",
            percentile(&paced.pump.lag_ms, 90.0),
            "ms",
        ),
        metric(
            "obs.journal.dropped",
            (cap.journal.dropped() + pac.journal.dropped()) as f64,
            "count",
        ),
        metric(
            "stream.paced_load_share",
            paced.tput_mtps() / capacity.tput_mtps(),
            "ratio",
        ),
        metric(
            "stream.paced_cpu_util",
            paced.cpu_s / (paced.wall_s() * THREADS as f64),
            "ratio",
        ),
    ];
    if reused + computed > 0 {
        out.push(metric(
            "core.streaming.pane_reuse_ratio",
            reused as f64 / (reused + computed) as f64,
            "ratio",
        ));
    }
    out
}
