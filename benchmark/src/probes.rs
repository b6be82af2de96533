//! Layer probes of the traced pass: timed calls into single layers on
//! slices (at most 2^20 tuples a side) of the workload's own data, so that
//! every layer has a number on every workload, whether or not the
//! workload's own loop crosses it. A kernel probe is the median of five
//! calls; an engine probe the median of three `execute_on` runs over the
//! slices re-based to data at rest, exactly as a window close runs them.

use crate::common::{engine_metrics, metric, Ctx, EngineRun, Metric, ENGINES, THREADS};
use crate::stats::median;
use crate::trace::Tracer;
use iawj_common::kernel::{hash_keys_into, tuple_buckets_into};
use iawj_common::{stream_channel, KernelBackend, Key, Rate, RecvError, Ts, Tuple, Window};
use iawj_core::{execute_on, Executor};
use iawj_datagen::{Dataset, MicroSpec, ReplaySource, StreamSource};
use iawj_exec::merge::{kway_merge, pairwise_merge};
use iawj_exec::mergejoin::count_matches;
use iawj_exec::radix::partition_parallel_exec;
use iawj_exec::sort::{pack_tuples, sort_packed_kernel};
use iawj_exec::{LocalTable, SharedTable, SortBackend, WindowIndex};
use std::hint::black_box;
use std::time::{Duration, Instant};

const KERNEL_REPS: usize = 5;
const ENGINE_REPS: usize = 3;

/// Round trips of an empty two-lane job the dispatch probe takes its median
/// over.
const DISPATCH_CALLS: usize = 10_000;

/// Radix bits of the partition probe: PRJ's default fan-out.
const RADIX_BITS: u32 = 10;

/// Sorted runs the merge probes merge.
const MERGE_RUNS: usize = 4;

/// Queue capacity of the channel probe, as the stream workloads use.
const QUEUE_CAP: usize = 1024;

fn time<T>(f: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

/// Median over the repetitions of `once`'s timed part, in ns per tuple.
fn kernel(
    tracer: &mut Tracer,
    span: &'static str,
    tuples: usize,
    mut once: impl FnMut() -> Duration,
) -> f64 {
    tracer.scope(span, |_| {
        let ns: Vec<f64> = (0..KERNEL_REPS)
            .map(|_| once().as_nanos() as f64 / tuples as f64)
            .collect();
        median(&ns)
    })
}

fn sorted_packed(tuples: &[Tuple]) -> Vec<u64> {
    let mut packed = pack_tuples(tuples);
    sort_packed_kernel(
        &mut packed,
        SortBackend::default(),
        KernelBackend::default(),
    );
    packed
}

/// Probe `index` with every tuple's key over the whole timestamp range,
/// bucket indices derived in batches as the streaming operator does.
fn index_probe(index: &WindowIndex, tuples: &[Tuple]) -> u64 {
    let mut matches = 0u64;
    let mut buckets = Vec::new();
    for chunk in tuples.chunks(64) {
        tuple_buckets_into(KernelBackend::default(), chunk, index.mask(), &mut buckets);
        for (t, &b) in chunk.iter().zip(&buckets) {
            index.probe_range_at(b, t.key, 0, Ts::MAX, |_| matches += 1);
        }
    }
    matches
}

/// Push `tuples` through a bounded channel from a producer thread and
/// drain them here, as the operator's ingest loop does.
fn channel_transfer(tuples: &[Tuple]) -> Duration {
    let (tx, rx) = stream_channel(QUEUE_CAP);
    std::thread::scope(|scope| {
        let t0 = Instant::now();
        scope.spawn(move || {
            for &t in tuples {
                if tx.send(t).is_err() {
                    break;
                }
            }
        });
        let mut received = 0usize;
        loop {
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(t) => {
                    black_box(t);
                    received += 1;
                }
                Err(RecvError::Empty) => {}
                Err(RecvError::Disconnected) => break,
            }
        }
        assert_eq!(received, tuples.len());
        t0.elapsed()
    })
}

/// The kernel probes: one metric per data-plane layer.
pub fn kernel_probes(ctx: &mut Ctx, r: &[Tuple], s: &[Tuple], exec: &Executor) -> Vec<Metric> {
    let tracer = &mut ctx.tracer;
    let backend = KernelBackend::default();
    let (n_r, n_s) = (r.len(), s.len());
    let mut out = Vec::new();
    let mut ns_pt = |name: &str, value: f64| out.push(metric(name, value, "ns/tuple"));

    let keys: Vec<Key> = r.iter().map(|t| t.key).collect();
    let mut hashes = vec![0u64; keys.len()];
    ns_pt(
        "common.kernel.hash_ns_pt",
        kernel(tracer, "probe.hash", n_r, || {
            time(|| hash_keys_into(backend, &keys, &mut hashes))
        }),
    );
    ns_pt(
        "exec.radix.partition_ns_pt",
        kernel(tracer, "probe.partition", n_r, || {
            time(|| partition_parallel_exec(r, 0, RADIX_BITS, THREADS, exec))
        }),
    );

    let mut table = LocalTable::with_capacity(n_r);
    ns_pt(
        "exec.hashtable.local_build_ns_pt",
        kernel(tracer, "probe.local_build", n_r, || {
            table = LocalTable::with_capacity(n_r);
            time(|| r.iter().for_each(|t| table.insert(t.key, t.ts)))
        }),
    );
    ns_pt(
        "exec.hashtable.local_probe_ns_pt",
        kernel(tracer, "probe.local_probe", n_s, || {
            time(|| {
                let mut m = 0u64;
                s.iter().for_each(|t| table.probe(t.key, |_| m += 1));
                m
            })
        }),
    );
    drop(table);
    ns_pt(
        "exec.hashtable.shared_build_ns_pt",
        kernel(tracer, "probe.shared_build", n_r, || {
            let shared = SharedTable::with_capacity(n_r);
            let per = n_r.div_ceil(THREADS);
            time(|| {
                exec.run(THREADS, |w| {
                    let lane = &r[(w * per).min(n_r)..((w + 1) * per).min(n_r)];
                    lane.iter().for_each(|t| shared.insert(t.key, t.ts));
                })
            })
        }),
    );

    let packed = pack_tuples(r);
    ns_pt(
        "exec.sort.sort_ns_pt",
        kernel(tracer, "probe.sort", n_r, || {
            let mut data = packed.clone();
            time(|| sort_packed_kernel(&mut data, SortBackend::default(), backend))
        }),
    );
    let runs: Vec<Vec<u64>> = r
        .chunks(n_r.div_ceil(MERGE_RUNS).max(1))
        .map(sorted_packed)
        .collect();
    ns_pt(
        "exec.merge.kway_ns_pt",
        kernel(tracer, "probe.kway_merge", n_r, || {
            let views: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
            time(|| kway_merge(&views))
        }),
    );
    ns_pt(
        "exec.merge.pairwise_ns_pt",
        kernel(tracer, "probe.pairwise_merge", n_r, || {
            let owned = runs.clone();
            time(|| pairwise_merge(owned))
        }),
    );
    let (sorted_r, sorted_s) = (sorted_packed(r), sorted_packed(s));
    ns_pt(
        "exec.mergejoin.join_ns_pt",
        kernel(tracer, "probe.merge_join", n_r + n_s, || {
            time(|| count_matches(&sorted_r, &sorted_s))
        }),
    );

    let mut index = WindowIndex::with_capacity(n_s);
    ns_pt(
        "exec.window_index.insert_ns_pt",
        kernel(tracer, "probe.index_insert", n_s, || {
            index = WindowIndex::with_capacity(n_s);
            time(|| s.iter().for_each(|t| index.insert(t.key, t.ts)))
        }),
    );
    ns_pt(
        "exec.window_index.probe_ns_pt",
        kernel(tracer, "probe.index_probe", n_r, || {
            time(|| index_probe(&index, r))
        }),
    );
    ns_pt(
        "exec.window_index.evict_ns_pt",
        kernel(tracer, "probe.index_evict", n_s, || {
            let mut full = WindowIndex::with_capacity(n_s);
            s.iter().for_each(|t| full.insert(t.key, t.ts));
            time(|| full.evict_before(Ts::MAX))
        }),
    );
    drop(index);

    ns_pt(
        "common.spsc.xfer_ns_pt",
        kernel(tracer, "probe.channel", n_r, || channel_transfer(r)),
    );
    ns_pt(
        "datagen.source.replay_ns_pt",
        kernel(tracer, "probe.replay", n_r, || {
            let mut source = ReplaySource::new(r.to_vec());
            time(|| {
                let mut n = 0usize;
                while let Some(t) = source.next_tuple() {
                    black_box(t);
                    n += 1;
                }
                n
            })
        }),
    );
    ns_pt(
        "datagen.micro.gen_ns_pt",
        kernel(tracer, "probe.generate", n_r + n_s, || {
            let spec = MicroSpec::static_counts(n_r, n_s).dupe(4).seed(ctx.seed);
            time(|| spec.generate())
        }),
    );

    let dispatch_us = tracer.scope("probe.dispatch", |_| {
        let us: Vec<f64> = (0..DISPATCH_CALLS)
            .map(|_| time(|| exec.run(THREADS, |_| ())).as_nanos() as f64 / 1e3)
            .collect();
        median(&us)
    });
    out.push(metric("exec.executor.dispatch_us", dispatch_us, "us"));
    out
}

/// The engine probes: `core.<engine>.*` for each of the seven engines.
pub fn engine_probes(ctx: &mut Ctx, r: &[Tuple], s: &[Tuple], exec: &Executor) -> Vec<Metric> {
    let at_rest = |tuples: &[Tuple]| tuples.iter().map(|t| Tuple::new(t.key, 0)).collect();
    let ds = Dataset {
        name: "probe".to_string(),
        r: at_rest(r),
        s: at_rest(s),
        window: Window::of_len(0),
        rate_r: Rate::Infinite,
        rate_s: Rate::Infinite,
    };
    let cfg = ctx.run_config();
    let mut out = Vec::new();
    for info in &ENGINES {
        let runs: Vec<EngineRun> = ctx.tracer.scope(info.span, |_| {
            (0..ENGINE_REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    let result = execute_on(info.engine, &ds, &cfg, exec);
                    EngineRun::new(&result, t0.elapsed().as_nanos() as f64)
                })
                .collect()
        });
        out.extend(engine_metrics(info.engine, &runs, false));
    }
    out
}
