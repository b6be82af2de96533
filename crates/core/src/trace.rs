//! Cache-simulated execution profiles — the substitute for the paper's
//! Intel PCM / perf hardware counters (Figure 8, Table 5, Figure 19a,
//! Table 6's bandwidth column).
//!
//! Real hardware counters are not portable, so this module *replays the
//! memory-access pattern* of each algorithm against the [`iawj_cachesim`]
//! hierarchy: the same data, the same data-structure layouts (bucket-chain
//! tables, radix partitions, sorted runs), the same per-worker stream
//! interleavings (obtained from the real distribution views) — with every
//! load/store mirrored into a simulated Xeon Gold 6126 cache instead of
//! executed for speed. Thread interleaving is serialised (cores are
//! simulated one at a time over a shared L3), which preserves per-core
//! locality and shared-level footprints but not cycle-level contention.
//!
//! What the paper reads off its counters is *which algorithm/phase misses
//! more, at which level, by what rough factor* — those are properties of
//! the trace and the cache geometry, which this module models exactly.
//! SHJ's interleaved insert/probe accesses are attributed to the Probe
//! phase as one unit (they are inseparable per tuple), matching how
//! Figure 8 reports probe-phase misses.

use crate::algo::Algorithm;
use crate::clock::EventClock;
use crate::config::RunConfig;
use crate::distribute::{jb, jm, Take};
use iawj_cachesim::{CoreCaches, CostModel, Counters, CycleEstimate, Hierarchy};
use iawj_common::hash::{bucket_of, next_pow2_at_least};
use iawj_common::{Phase, Tuple};
use iawj_datagen::Dataset;
use iawj_exec::pool::chunk_range;
use iawj_exec::radix::{partition_of, pass_bits};

/// Per-tuple out-of-order-engine overhead charged to eager algorithms'
/// "core bound" bucket: the frequent function calls of pulling tuples from
/// both input streams (§5.6). Lazy algorithms process dense arrays and get
/// a small fraction of it.
const EAGER_DISPATCH_CYCLES: f64 = 22.0;
const LAZY_DISPATCH_CYCLES: f64 = 2.0;
/// Extra per-tuple shuffle cost of the JB scheme's status maintenance
/// (§5.6: "the JB scheme leads to a higher Core Bound than JM").
const JB_SHUFFLE_CYCLES: f64 = 9.0;

/// The simulated profile of one run.
#[derive(Clone, Debug)]
pub struct TraceProfile {
    /// Which algorithm was profiled.
    pub algorithm: Algorithm,
    /// Counter deltas per phase, in execution order.
    pub per_phase: Vec<(Phase, Counters)>,
    /// Per-tuple core-bound dispatch overhead model, in cycles.
    pub dispatch_cycles_per_tuple: f64,
    /// Total input tuples the profile covers.
    pub tuples: usize,
}

impl TraceProfile {
    /// Summed counters over all phases.
    pub fn total(&self) -> Counters {
        self.per_phase
            .iter()
            .fold(Counters::default(), |acc, (_, c)| acc.merged(c))
    }

    /// Counters for one phase (zero if the phase never ran).
    pub fn phase(&self, phase: Phase) -> Counters {
        self.per_phase
            .iter()
            .filter(|(p, _)| *p == phase)
            .fold(Counters::default(), |acc, (_, c)| acc.merged(c))
    }

    /// Top-down-style cycle estimate (Figure 19a).
    pub fn estimate(&self, model: &CostModel) -> CycleEstimate {
        model.estimate(
            &self.total(),
            self.dispatch_cycles_per_tuple * self.tuples as f64,
        )
    }

    /// A Table 5-style row: misses per input tuple.
    pub fn per_tuple(&self) -> PerTupleCounters {
        let t = self.tuples.max(1) as f64;
        let c = self.total();
        PerTupleCounters {
            dtlb: c.dtlb_misses as f64 / t,
            l1d: c.l1d_misses as f64 / t,
            l2: c.l2_misses as f64 / t,
            l3: c.l3_misses as f64 / t,
        }
    }
}

/// Misses per input tuple (the Table 5 units).
#[derive(Clone, Copy, Debug)]
pub struct PerTupleCounters {
    /// dTLB misses / tuple.
    pub dtlb: f64,
    /// L1D misses / tuple.
    pub l1d: f64,
    /// L2 misses / tuple.
    pub l2: f64,
    /// L3 misses / tuple.
    pub l3: f64,
}

// ---------------------------------------------------------------------------
// Virtual memory layout & structure models
// ---------------------------------------------------------------------------

/// Bump allocator for non-overlapping virtual regions, page-aligned with a
/// guard page so distinct structures never share a line.
struct Layout {
    next: u64,
}

impl Layout {
    fn new() -> Self {
        Layout { next: 1 << 32 }
    }

    fn region(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        self.next += (bytes + 4095) & !4095;
        self.next += 4096; // guard page
        base
    }
}

const TUPLE_BYTES: u64 = 8;
const BUCKET_HDR_BYTES: u64 = 16;
const ENTRY_BYTES: u64 = 12;

/// Model of a bucket-chain hash table: tracks which simulated entry indices
/// live in each bucket so probes touch exactly the lines a real probe would.
struct SimTable {
    bucket_base: u64,
    entry_base: u64,
    mask: u64,
    buckets: Vec<Vec<u32>>,
    entries: u32,
}

impl SimTable {
    fn new(expected: usize, layout: &mut Layout) -> Self {
        let n = next_pow2_at_least(expected * 2, 16);
        SimTable {
            bucket_base: layout.region(n as u64 * BUCKET_HDR_BYTES),
            entry_base: layout.region((expected.max(16) as u64 + 1) * ENTRY_BYTES * 2),
            mask: n as u64 - 1,
            buckets: vec![Vec::new(); n],
            entries: 0,
        }
    }

    fn insert(&mut self, key: u32, core: &mut CoreCaches) {
        let b = bucket_of(key, self.mask);
        core.access_line(self.bucket_base + b as u64 * BUCKET_HDR_BYTES);
        let e = self.entries;
        self.entries += 1;
        core.access_range(self.entry_base + e as u64 * ENTRY_BYTES, ENTRY_BYTES);
        self.buckets[b].push(e);
    }

    fn probe(&self, key: u32, core: &mut CoreCaches) {
        let b = bucket_of(key, self.mask);
        core.access_line(self.bucket_base + b as u64 * BUCKET_HDR_BYTES);
        for &e in &self.buckets[b] {
            core.access_range(self.entry_base + e as u64 * ENTRY_BYTES, ENTRY_BYTES);
        }
    }
}

/// Model a bottom-up mergesort over `n` tuples at `base` with scratch at
/// `scratch`: one block pass plus ⌈log2(n/8)⌉ merge passes, each streaming
/// the array once in and once out.
fn sim_sort(core: &mut CoreCaches, base: u64, scratch: u64, n: usize) {
    if n == 0 {
        return;
    }
    for i in 0..n {
        core.access_range(base + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
    }
    let mut width = 8usize;
    let mut src = base;
    let mut dst = scratch;
    while width < n {
        for i in 0..n {
            core.access_range(src + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
            core.access_range(dst + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
}

/// Records the counter delta of one phase.
struct PhaseRecorder {
    acc: Vec<(Phase, Counters)>,
}

impl PhaseRecorder {
    fn new() -> Self {
        PhaseRecorder { acc: Vec::new() }
    }

    fn record<F: FnOnce(&mut Hierarchy)>(&mut self, hw: &mut Hierarchy, phase: Phase, f: F) {
        let before = hw.total();
        f(hw);
        let delta = hw.total().since(&before);
        self.acc.push((phase, delta));
    }
}

// ---------------------------------------------------------------------------
// Per-algorithm replays
// ---------------------------------------------------------------------------

/// Replay an algorithm's memory behaviour over a dataset on `cfg.threads`
/// simulated cores sharing one L3. Use a *scaled-down* dataset: the replay
/// walks every access of the dominant structures.
pub fn profile(algorithm: Algorithm, ds: &Dataset, cfg: &RunConfig) -> TraceProfile {
    profile_with(algorithm, ds, cfg, false)
}

/// [`profile`] with an optional next-line stream prefetcher on every
/// simulated core — the hardware-masking ablation (real Xeons prefetch;
/// the default simulation does not, which is part of why absolute miss
/// counts exceed the paper's).
pub fn profile_with(
    algorithm: Algorithm,
    ds: &Dataset,
    cfg: &RunConfig,
    prefetch: bool,
) -> TraceProfile {
    let threads = cfg.threads;
    let mut hw = Hierarchy::new(threads);
    if prefetch {
        for core in &mut hw.cores {
            core.enable_prefetch();
        }
    }
    let mut layout = Layout::new();
    let r_base = layout.region(ds.r.len() as u64 * TUPLE_BYTES);
    let s_base = layout.region(ds.s.len() as u64 * TUPLE_BYTES);
    let mut rec = PhaseRecorder::new();
    let tuples = ds.total_inputs();

    let dispatch = match algorithm {
        a if a.is_lazy() => LAZY_DISPATCH_CYCLES,
        Algorithm::ShjJb | Algorithm::PmjJb => EAGER_DISPATCH_CYCLES + JB_SHUFFLE_CYCLES,
        _ => EAGER_DISPATCH_CYCLES,
    };

    match algorithm {
        Algorithm::Npj => {
            let mut table = SimTable::new(ds.r.len(), &mut layout);
            rec.record(&mut hw, Phase::BuildSort, |hw| {
                for tid in 0..threads {
                    let range = chunk_range(ds.r.len(), threads, tid);
                    for (i, t) in ds.r[range.clone()].iter().enumerate() {
                        let core = &mut hw.cores[tid];
                        core.access_range(
                            r_base + (range.start + i) as u64 * TUPLE_BYTES,
                            TUPLE_BYTES,
                        );
                        table.insert(t.key, core);
                    }
                }
            });
            rec.record(&mut hw, Phase::Probe, |hw| {
                for tid in 0..threads {
                    let range = chunk_range(ds.s.len(), threads, tid);
                    for (i, t) in ds.s[range.clone()].iter().enumerate() {
                        let core = &mut hw.cores[tid];
                        core.access_range(
                            s_base + (range.start + i) as u64 * TUPLE_BYTES,
                            TUPLE_BYTES,
                        );
                        table.probe(t.key, core);
                    }
                }
            });
        }
        Algorithm::Prj => {
            let (bits, _) = pass_bits(cfg.prj.radix_bits);
            let fanout = 1usize << bits;
            let r_out =
                layout.region(ds.r.len() as u64 * TUPLE_BYTES + fanout as u64 * TUPLE_BYTES);
            let s_out =
                layout.region(ds.s.len() as u64 * TUPLE_BYTES + fanout as u64 * TUPLE_BYTES);
            rec.record(&mut hw, Phase::Partition, |hw| {
                for (input, base, out) in [(&ds.r, r_base, r_out), (&ds.s, s_base, s_out)] {
                    let mut cursors = vec![0u64; fanout];
                    let region = input.len() as u64 * TUPLE_BYTES / fanout as u64 + TUPLE_BYTES;
                    for tid in 0..threads {
                        let range = chunk_range(input.len(), threads, tid);
                        for (i, t) in input[range.clone()].iter().enumerate() {
                            let core = &mut hw.cores[tid];
                            core.access_range(
                                base + (range.start + i) as u64 * TUPLE_BYTES,
                                TUPLE_BYTES,
                            );
                            let p = partition_of(t.key, 0, bits);
                            core.access_range(out + p as u64 * region + cursors[p], TUPLE_BYTES);
                            cursors[p] += TUPLE_BYTES;
                        }
                    }
                }
            });
            // Join partitions: cache-resident build + probe per partition,
            // claimed round-robin by cores.
            let mut r_parts: Vec<Vec<Tuple>> = vec![Vec::new(); fanout];
            let mut s_parts: Vec<Vec<Tuple>> = vec![Vec::new(); fanout];
            for t in &ds.r {
                r_parts[partition_of(t.key, 0, bits)].push(*t);
            }
            for t in &ds.s {
                s_parts[partition_of(t.key, 0, bits)].push(*t);
            }
            let layout_ref = &mut layout;
            let mut tables: Vec<SimTable> = Vec::with_capacity(fanout);
            rec.record(&mut hw, Phase::BuildSort, |hw| {
                for (p, rp) in r_parts.iter().enumerate() {
                    let core = &mut hw.cores[p % threads];
                    let mut table = SimTable::new(rp.len().max(1), layout_ref);
                    for t in rp {
                        table.insert(t.key, core);
                    }
                    tables.push(table);
                }
            });
            rec.record(&mut hw, Phase::Probe, |hw| {
                for (p, sp) in s_parts.iter().enumerate() {
                    let core = &mut hw.cores[p % threads];
                    for t in sp {
                        tables[p].probe(t.key, core);
                    }
                }
            });
        }
        Algorithm::MWay | Algorithm::MPass => {
            let r_scratch = layout.region(ds.r.len() as u64 * TUPLE_BYTES);
            let s_scratch = layout.region(ds.s.len() as u64 * TUPLE_BYTES);
            rec.record(&mut hw, Phase::BuildSort, |hw| {
                for tid in 0..threads {
                    let rr = chunk_range(ds.r.len(), threads, tid);
                    sim_sort(
                        &mut hw.cores[tid],
                        r_base + rr.start as u64 * TUPLE_BYTES,
                        r_scratch + rr.start as u64 * TUPLE_BYTES,
                        rr.len(),
                    );
                    let sr = chunk_range(ds.s.len(), threads, tid);
                    sim_sort(
                        &mut hw.cores[tid],
                        s_base + sr.start as u64 * TUPLE_BYTES,
                        s_scratch + sr.start as u64 * TUPLE_BYTES,
                        sr.len(),
                    );
                }
            });
            // Merge: MWay streams all runs once (k-way); MPass repeats a
            // full pass log2(threads) times (successive two-way merging).
            let r_merged = layout.region(ds.r.len() as u64 * TUPLE_BYTES);
            let s_merged = layout.region(ds.s.len() as u64 * TUPLE_BYTES);
            let passes = if algorithm == Algorithm::MWay {
                1
            } else {
                ((threads as f64).log2().ceil() as usize).max(1)
            };
            rec.record(&mut hw, Phase::Merge, |hw| {
                for _pass in 0..passes {
                    for tid in 0..threads {
                        let core = &mut hw.cores[tid];
                        for i in chunk_range(ds.r.len(), threads, tid) {
                            core.access_range(r_base + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                            core.access_range(r_merged + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        }
                        for i in chunk_range(ds.s.len(), threads, tid) {
                            core.access_range(s_base + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                            core.access_range(s_merged + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        }
                    }
                }
            });
            // Match: sequential co-scan of the merged arrays; duplicate
            // groups re-read lines that stay cached — the sort-based
            // advantage on high-duplication inputs emerges here.
            rec.record(&mut hw, Phase::Probe, |hw| {
                for tid in 0..threads {
                    let core = &mut hw.cores[tid];
                    for i in chunk_range(ds.r.len(), threads, tid) {
                        core.access_range(r_merged + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                    }
                    for i in chunk_range(ds.s.len(), threads, tid) {
                        core.access_range(s_merged + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                    }
                }
            });
        }
        Algorithm::ShjJm
        | Algorithm::ShjJb
        | Algorithm::PmjJm
        | Algorithm::PmjJb
        | Algorithm::Ibwj
        | Algorithm::IbwjPart => {
            // The index engines are symmetric insert-then-probe like SHJ;
            // at rest they keep the whole window resident and never evict.
            profile_eager(
                algorithm,
                ds,
                cfg,
                &mut hw,
                &mut layout,
                &mut rec,
                r_base,
                s_base,
            );
        }
        Algorithm::Handshake => {
            let layout_ref = &mut layout;
            let mut stores: Vec<(SimTable, SimTable)> = (0..threads)
                .map(|_| {
                    (
                        SimTable::new(ds.r.len() / threads + 1, layout_ref),
                        SimTable::new(ds.s.len() / threads + 1, layout_ref),
                    )
                })
                .collect();
            rec.record(&mut hw, Phase::Probe, |hw| {
                for (seq, t) in ds.r.iter().chain(ds.s.iter()).enumerate() {
                    let is_r = seq < ds.r.len();
                    for (core_id, (rs, ss)) in stores.iter_mut().enumerate() {
                        let core = &mut hw.cores[core_id];
                        if is_r {
                            ss.probe(t.key, core);
                        } else {
                            rs.probe(t.key, core);
                        }
                        if seq % threads == core_id {
                            if is_r {
                                rs.insert(t.key, core);
                            } else {
                                ss.insert(t.key, core);
                            }
                        }
                    }
                }
            });
        }
    }

    TraceProfile {
        algorithm,
        per_phase: rec.acc,
        dispatch_cycles_per_tuple: dispatch,
        tuples,
    }
}

/// Eager replays: per worker, pull the tuple sequences through the *real*
/// distribution views (ungated), then mirror the SHJ/PMJ structure
/// accesses.
#[allow(clippy::too_many_arguments)]
fn profile_eager(
    algorithm: Algorithm,
    ds: &Dataset,
    cfg: &RunConfig,
    hw: &mut Hierarchy,
    layout: &mut Layout,
    rec: &mut PhaseRecorder,
    r_base: u64,
    s_base: u64,
) {
    let threads = cfg.threads;
    let clock = EventClock::ungated();
    let is_jb = matches!(algorithm, Algorithm::ShjJb | Algorithm::PmjJb);
    let is_pmj = matches!(algorithm, Algorithm::PmjJm | Algorithm::PmjJb);
    let (rows, cols) = cfg.jm_shape();
    let g = cfg.jb_group_size();

    // Dispatch phase: the views themselves model routing. JB scans every
    // class tuple (and logs dispatch status); JM touches only its stripe.
    let mut worker_seqs: Vec<(Vec<Tuple>, Vec<Tuple>)> = Vec::with_capacity(threads);
    {
        let layout_ref = &mut *layout;
        rec.record(hw, Phase::Partition, |hw| {
            for w in 0..threads {
                let (mut rv, mut sv) = if is_jb {
                    jb::worker_views(&ds.r, &ds.s, threads, g, w)
                } else {
                    jm::worker_views(&ds.r, &ds.s, rows, cols, w)
                };
                let core = &mut hw.cores[w];
                let scan_r = if is_jb {
                    ds.r.len()
                } else {
                    ds.r.len() / rows + 1
                };
                let scan_s = if is_jb {
                    ds.s.len()
                } else {
                    ds.s.len() / cols + 1
                };
                for i in 0..scan_r {
                    core.access_range(r_base + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                }
                for i in 0..scan_s {
                    core.access_range(s_base + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                }
                let mut r_seq = Vec::new();
                let mut s_seq = Vec::new();
                while !matches!(rv.take_batch(&clock, 512, &mut r_seq), Take::Exhausted) {}
                while !matches!(sv.take_batch(&clock, 512, &mut s_seq), Take::Exhausted) {}
                if is_jb {
                    let log_base = layout_ref.region(r_seq.len() as u64 * 4 + 64);
                    for i in 0..r_seq.len() {
                        core.access_range(log_base + i as u64 * 4, 4);
                    }
                }
                worker_seqs.push((r_seq, s_seq));
            }
        });
    }

    if !is_pmj {
        // SHJ: interleaved insert+probe over two per-worker tables. The
        // insert and probe of a tuple are inseparable, so the whole
        // interleaved loop is attributed to Probe (see module docs).
        let layout_ref = &mut *layout;
        let mut tables: Vec<(SimTable, SimTable)> = worker_seqs
            .iter()
            .map(|(r, s)| {
                (
                    SimTable::new(r.len().max(1), layout_ref),
                    SimTable::new(s.len().max(1), layout_ref),
                )
            })
            .collect();
        rec.record(hw, Phase::Probe, |hw| {
            for (w, (r_seq, s_seq)) in worker_seqs.iter().enumerate() {
                let core = &mut hw.cores[w];
                let (rt, st) = &mut tables[w];
                let (mut i, mut j) = (0usize, 0usize);
                while i < r_seq.len() || j < s_seq.len() {
                    let take_r =
                        j >= s_seq.len() || (i < r_seq.len() && r_seq[i].ts <= s_seq[j].ts);
                    if take_r {
                        rt.insert(r_seq[i].key, core);
                        st.probe(r_seq[i].key, core);
                        i += 1;
                    } else {
                        st.insert(s_seq[j].key, core);
                        rt.probe(s_seq[j].key, core);
                        j += 1;
                    }
                }
            }
        });
    } else {
        // PMJ: δ-sized run sorts + pair scans, then a global merge and a
        // cross scan. Pre-allocate per-worker run/merge regions.
        let regions: Vec<[u64; 4]> = worker_seqs
            .iter()
            .map(|(r, s)| {
                [
                    layout.region(r.len().max(1) as u64 * TUPLE_BYTES),
                    layout.region(s.len().max(1) as u64 * TUPLE_BYTES),
                    layout.region(r.len().max(1) as u64 * TUPLE_BYTES),
                    layout.region(s.len().max(1) as u64 * TUPLE_BYTES),
                ]
            })
            .collect();
        rec.record(hw, Phase::BuildSort, |hw| {
            for (w, (r_seq, s_seq)) in worker_seqs.iter().enumerate() {
                let core = &mut hw.cores[w];
                let expected = r_seq.len().max(s_seq.len()).max(1);
                let run = ((expected as f64 * cfg.pmj.delta).ceil() as usize).max(16);
                for (seq, base, scratch) in [
                    (r_seq, r_base, regions[w][0]),
                    (s_seq, s_base, regions[w][1]),
                ] {
                    let mut off = 0usize;
                    while off < seq.len() {
                        let n = run.min(seq.len() - off);
                        sim_sort(
                            core,
                            base + off as u64 * TUPLE_BYTES,
                            scratch + off as u64 * TUPLE_BYTES,
                            n,
                        );
                        off += n;
                    }
                }
            }
        });
        rec.record(hw, Phase::Merge, |hw| {
            for (w, (r_seq, s_seq)) in worker_seqs.iter().enumerate() {
                let core = &mut hw.cores[w];
                for (seq, runs, merged) in [
                    (r_seq, regions[w][0], regions[w][2]),
                    (s_seq, regions[w][1], regions[w][3]),
                ] {
                    for i in 0..seq.len() {
                        core.access_range(runs + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                        core.access_range(merged + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                    }
                }
            }
        });
        rec.record(hw, Phase::Probe, |hw| {
            for (w, (r_seq, s_seq)) in worker_seqs.iter().enumerate() {
                let core = &mut hw.cores[w];
                for (seq, merged) in [(r_seq, regions[w][2]), (s_seq, regions[w][3])] {
                    for i in 0..seq.len() {
                        core.access_range(merged + i as u64 * TUPLE_BYTES, TUPLE_BYTES);
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iawj_datagen::MicroSpec;

    fn tiny_ds(dupe: usize) -> Dataset {
        MicroSpec::static_counts(4000, 4000)
            .dupe(dupe)
            .seed(7)
            .generate()
    }

    fn cfg() -> RunConfig {
        RunConfig::with_threads(4)
    }

    #[test]
    fn all_algorithms_produce_profiles() {
        let ds = tiny_ds(4);
        for algo in Algorithm::STUDIED {
            let p = profile(algo, &ds, &cfg());
            let t = p.total();
            assert!(t.accesses > 0, "{algo} produced no accesses");
            assert!(!p.per_phase.is_empty());
            assert_eq!(p.tuples, 8000);
        }
        let hs = profile(Algorithm::Handshake, &ds, &cfg());
        assert!(hs.total().accesses > 0);
    }

    #[test]
    fn eager_hash_misses_exceed_lazy_sort() {
        // The §5.3.1 headline: eager hash algorithms take far more cache
        // misses than the sort-based lazy ones on duplicate-heavy inputs.
        let ds = MicroSpec::static_counts(50_000, 50_000)
            .dupe(50)
            .seed(3)
            .generate();
        let shj = profile(Algorithm::ShjJm, &ds, &cfg()).per_tuple();
        let mway = profile(Algorithm::MWay, &ds, &cfg()).per_tuple();
        assert!(
            shj.l1d > mway.l1d,
            "SHJ L1D/tuple {} must exceed MWay {}",
            shj.l1d,
            mway.l1d
        );
    }

    #[test]
    fn prj_partitions_reduce_probe_misses_vs_npj() {
        let ds = MicroSpec::static_counts(60_000, 60_000)
            .dupe(2)
            .seed(9)
            .generate();
        let npj = profile(Algorithm::Npj, &ds, &cfg());
        let prj = profile(Algorithm::Prj, &ds, &cfg());
        assert!(
            prj.phase(Phase::Probe).l2_misses < npj.phase(Phase::Probe).l2_misses,
            "PRJ probe L2 misses {} must be below NPJ {}",
            prj.phase(Phase::Probe).l2_misses,
            npj.phase(Phase::Probe).l2_misses
        );
    }

    #[test]
    fn jb_has_partition_overhead_vs_jm() {
        let ds = tiny_ds(8);
        let jm = profile(Algorithm::ShjJm, &ds, &cfg());
        let jb = profile(Algorithm::ShjJb, &ds, &cfg());
        assert!(
            jb.phase(Phase::Partition).accesses > jm.phase(Phase::Partition).accesses,
            "JB status maintenance must show up as partition accesses"
        );
        assert!(jb.dispatch_cycles_per_tuple > jm.dispatch_cycles_per_tuple);
    }

    #[test]
    fn estimates_are_positive_and_sum_to_100pct() {
        let ds = tiny_ds(4);
        let p = profile(Algorithm::PmjJb, &ds, &cfg());
        let e = p.estimate(&CostModel::default());
        let (r, c, m) = e.percentages();
        assert!((r + c + m - 100.0).abs() < 1e-6);
        assert!(c > 0.0, "eager algorithms must show core-bound share");
    }

    #[test]
    fn prefetch_reduces_sort_join_misses() {
        // MWay's sequential passes are exactly what a streamer masks.
        let ds = MicroSpec::static_counts(60_000, 60_000)
            .dupe(4)
            .seed(4)
            .generate();
        let plain = profile_with(Algorithm::MWay, &ds, &cfg(), false);
        let pf = profile_with(Algorithm::MWay, &ds, &cfg(), true);
        assert!(
            pf.total().l2_misses < plain.total().l2_misses,
            "prefetch {} !< plain {}",
            pf.total().l2_misses,
            plain.total().l2_misses
        );
    }

    #[test]
    fn per_tuple_row_is_finite() {
        let ds = tiny_ds(2);
        let row = profile(Algorithm::Npj, &ds, &cfg()).per_tuple();
        for v in [row.dtlb, row.l1d, row.l2, row.l3] {
            assert!(v.is_finite() && v >= 0.0);
        }
    }
}
