//! Criterion microbenchmarks of the shared kernels: hash-table build and
//! probe, radix partitioning, the two sort backends, merging, and the
//! merge-join — the ablation level below the per-figure harnesses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iawj_common::{ColumnarStream, Rng, Tuple};
use iawj_exec::merge::{kway_merge, kway_merge_loser, merge_two_into, merge_two_into_branchless};
use iawj_exec::mergejoin::count_matches;
use iawj_exec::radix::{partition_parallel_exec, partition_seq, PartitionPass, PassKnobs};
use iawj_exec::sort::{pack_tuples, sort_packed, SortBackend};
use iawj_exec::{run_workers, Executor, LocalTable, PinPolicy, ScatterMode, SharedTable};
use std::hint::black_box;

const N: usize = 1 << 16;

fn tuples(n: usize, keys: u32, seed: u64) -> Vec<Tuple> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| Tuple::new(rng.next_u32() % keys, i as u32))
        .collect()
}

fn bench_hashtables(c: &mut Criterion) {
    let data = tuples(N, N as u32 / 4, 1);
    let mut g = c.benchmark_group("hashtable");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("local_build", |b| {
        b.iter(|| {
            let mut t = LocalTable::with_capacity(N);
            for tup in &data {
                t.insert(tup.key, tup.ts);
            }
            black_box(t.len())
        })
    });
    let mut table = LocalTable::with_capacity(N);
    for tup in &data {
        table.insert(tup.key, tup.ts);
    }
    g.bench_function("local_probe", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for tup in &data {
                table.probe(tup.key, |_| n += 1);
            }
            black_box(n)
        })
    });
    g.bench_function("shared_build", |b| {
        b.iter(|| {
            let t = SharedTable::with_capacity(N);
            for tup in &data {
                t.insert(tup.key, tup.ts);
            }
            black_box(t.len())
        })
    });
    g.bench_function("shared_build_contended_per_bucket", |b| {
        b.iter(|| {
            let t = SharedTable::with_capacity(N);
            run_workers(4, |tid| {
                for tup in &data[tid * N / 4..(tid + 1) * N / 4] {
                    t.insert(tup.key, tup.ts);
                }
            });
            black_box(t.len())
        })
    });
    // One NPJ table's whole life at a size past the LLC. Allocation and
    // teardown sit inside the timed closure: they are costs of every NPJ
    // run that the build-only cells above (small, and ending in a `len()`
    // walk) cannot show.
    let big = tuples(1 << 20, 1 << 18, 5);
    g.throughput(Throughput::Elements(big.len() as u64));
    g.bench_function("shared_alloc_build_probe_drop", |b| {
        b.iter(|| {
            let t = SharedTable::with_capacity(big.len());
            for tup in &big {
                t.insert(tup.key, tup.ts);
            }
            let mut n = 0u64;
            for tup in &big {
                t.probe(tup.key, |_| n += 1);
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_radix(c: &mut Criterion) {
    let data = tuples(N, u32::MAX, 2);
    let mut g = c.benchmark_group("radix_partition");
    g.throughput(Throughput::Elements(N as u64));
    for bits in [6u32, 10, 14] {
        g.bench_with_input(BenchmarkId::new("seq", bits), &bits, |b, &bits| {
            b.iter(|| black_box(partition_seq(&data, 0, bits).data.len()))
        });
    }
    let exec = Executor::new(PinPolicy::None, 4);
    g.bench_function("parallel_10bit_4t", |b| {
        b.iter(|| black_box(partition_parallel_exec(&data, 0, 10, 4, &exec).data.len()))
    });
    // SWWCB ablation: direct vs write-combined scatter at high fan-out
    // (one lane, so the scatter path is the only difference from `seq`).
    let swwc = PassKnobs {
        scatter: ScatterMode::Swwc,
        ..PassKnobs::default()
    };
    for bits in [10u32, 14] {
        g.bench_with_input(BenchmarkId::new("seq_buffered", bits), &bits, |b, &bits| {
            b.iter(|| {
                black_box(
                    PartitionPass::new(&data, 0, bits, 1, swwc)
                        .run(&exec)
                        .data
                        .len(),
                )
            })
        });
    }
    g.finish();
}

fn bench_sorts(c: &mut Criterion) {
    let data = pack_tuples(&tuples(N, u32::MAX, 3));
    let mut g = c.benchmark_group("sort");
    g.throughput(Throughput::Elements(N as u64));
    for backend in [SortBackend::Scalar, SortBackend::Vectorized] {
        g.bench_with_input(
            BenchmarkId::new("backend", backend.label()),
            &backend,
            |b, &backend| {
                b.iter_batched(
                    || data.clone(),
                    |mut v| {
                        sort_packed(&mut v, backend);
                        black_box(v.len())
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    g.bench_function("std_unstable", |b| {
        b.iter_batched(
            || data.clone(),
            |mut v| {
                v.sort_unstable();
                black_box(v.len())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_merges(c: &mut Criterion) {
    let mut a = pack_tuples(&tuples(N / 2, u32::MAX, 4));
    let mut bb = pack_tuples(&tuples(N / 2, u32::MAX, 5));
    a.sort_unstable();
    bb.sort_unstable();
    let mut g = c.benchmark_group("merge");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("two_way_branching", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            merge_two_into(&a, &bb, &mut out);
            black_box(out.len())
        })
    });
    g.bench_function("two_way_branchless", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            merge_two_into_branchless(&a, &bb, &mut out);
            black_box(out.len())
        })
    });
    let quarters: Vec<Vec<u64>> = (0..4)
        .map(|i| {
            let mut q = pack_tuples(&tuples(N / 4, u32::MAX, 10 + i));
            q.sort_unstable();
            q
        })
        .collect();
    let refs: Vec<&[u64]> = quarters.iter().map(|q| q.as_slice()).collect();
    g.bench_function("kway_4_heap", |b| {
        b.iter(|| black_box(kway_merge(&refs).len()))
    });
    g.bench_function("kway_4_loser_tree", |b| {
        b.iter(|| black_box(kway_merge_loser(&refs).len()))
    });
    g.finish();
}

fn bench_layouts(c: &mut Criterion) {
    // Key-only pass (radix histogram shape) over row vs columnar storage:
    // the columnar layout touches half the bytes.
    let rows = tuples(N * 4, u32::MAX, 8);
    let cols = ColumnarStream::from_tuples(&rows);
    let mut g = c.benchmark_group("layout_key_scan");
    g.throughput(Throughput::Elements((N * 4) as u64));
    g.bench_function("row_aos", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for t in &rows {
                acc = acc.wrapping_add((t.key & 1023) as u64);
            }
            black_box(acc)
        })
    });
    g.bench_function("columnar_soa", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &k in &cols.keys {
                acc = acc.wrapping_add((k & 1023) as u64);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_mergejoin(c: &mut Criterion) {
    let mut g = c.benchmark_group("mergejoin");
    for dupe in [1u32, 16, 64] {
        let keys = (N as u32 / dupe).max(1);
        let mut r = pack_tuples(&tuples(N, keys, 6));
        let mut s = pack_tuples(&tuples(N, keys, 7));
        r.sort_unstable();
        s.sort_unstable();
        g.throughput(Throughput::Elements(N as u64));
        g.bench_with_input(BenchmarkId::new("dupe", dupe), &dupe, |b, _| {
            b.iter(|| black_box(count_matches(&r, &s)))
        });
    }
    g.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_hashtables, bench_radix, bench_sorts, bench_merges, bench_layouts, bench_mergejoin
}
criterion_main!(kernels);
