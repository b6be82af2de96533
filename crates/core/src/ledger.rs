//! The pane ledger of the streaming operator and the close strategies that
//! fill it; the rule they implement — each pane pair counted once, when
//! the later pane completes — is set out in the [`crate::streaming`] module
//! docs. PRJ's partitioned close follows PanJoin (PAPERS.md, 1811.05065):
//! a sub-window is partitioned once and joined partition by partition.

use crate::algo::Algorithm;
use crate::config::RunConfig;
use crate::index::{part_of, INDEX_KERNEL};
use crate::runner::execute_slices;
use crate::windowing::{pair_multiplicity, WindowSpec};
use iawj_common::kernel::tuple_buckets_into;
use iawj_common::{Ts, Tuple, DEFAULT_PREFETCH_DIST};
use iawj_exec::pool::barrier;
use iawj_exec::radix::{partition_two_pass, pass_bits};
use iawj_exec::{Executor, LocalTable, WindowIndex};
use iawj_obs::{SpanJournal, MARK_INDEX_REPART};
use std::collections::BTreeMap;
use std::mem::take;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

/// Which input stream a tuple came from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    R,
    S,
}

/// One pane's tuples, held at rest: every `ts` is re-based to 0 at ingest,
/// so a close hands the slices to an engine as they are.
#[derive(Default)]
pub(crate) struct Pane {
    pub(crate) r: Vec<Tuple>,
    pub(crate) s: Vec<Tuple>,
}

/// The per-pane cells of the completed resident panes. See the module docs.
pub(crate) struct PaneLedger {
    spec: WindowSpec,
    g: u64,
    /// Panes before this one are complete: no tuple can join them any
    /// more, and their cells are recorded.
    complete: u64,
    /// Per complete resident pane `p`, `cells[&p][d]` counts the matches
    /// between pane `p` and pane `p − d`, R side in either. Panes without
    /// tuples have no entry. Evicted with the panes.
    cells: BTreeMap<u64, Vec<u64>>,
}

impl PaneLedger {
    pub(crate) fn new(spec: WindowSpec, g: u64) -> PaneLedger {
        PaneLedger {
            spec,
            g,
            complete: 0,
            cells: BTreeMap::new(),
        }
    }

    /// Complete every pane before `b` at the close of the window over
    /// panes `[a, b)`; returns the first pane completing now, so panes
    /// `[first, b)` are fresh. Earlier panes not yet complete belong to no
    /// window (hopping gaps) and never complete.
    pub(crate) fn complete_through(&mut self, a: u64, b: u64) -> u64 {
        let first = self.complete.max(a);
        self.complete = self.complete.max(b);
        first
    }

    /// Record fresh pane `p`'s cells; returns their matches weighted by
    /// [`pair_multiplicity`]. No earlier window holds pane `p`, and every
    /// later one that holds both panes reads the cell, so each cell
    /// recombines with its full multiplicity. The multiplicity is constant
    /// across a pane pair (g divides len and slide), so the pair's corners
    /// stand in for every tuple pair inside; the top corner is clamped to
    /// the [`Ts`] range, which the last pane may overhang.
    pub(crate) fn record(&mut self, p: u64, cells: Vec<u64>) -> u64 {
        let g = self.g;
        let hi = clamp_ts(p * g + g - 1);
        let weighted = cells
            .iter()
            .enumerate()
            .map(|(d, &m)| m * pair_multiplicity(self.spec, clamp_ts((p - d as u64) * g), hi))
            .sum();
        self.cells.insert(p, cells);
        weighted
    }

    /// The matches of the window over panes `[a, b)`, and the cells it sums
    /// that were counted at this close (panes from `first` on) and at
    /// earlier ones.
    pub(crate) fn window(&self, a: u64, b: u64, first: u64) -> (u64, usize, usize) {
        let (mut matches, mut computed, mut reused) = (0, 0, 0);
        for (&p, cells) in self.cells.range(a..b) {
            let n = (p - a + 1) as usize;
            matches += cells[..n].iter().sum::<u64>();
            if p < first {
                reused += n;
            } else {
                computed += n;
            }
        }
        (matches, computed, reused)
    }

    /// Drop the cells of panes before `keep`, with the panes.
    pub(crate) fn evict(&mut self, keep: u64) {
        self.cells = self.cells.split_off(&keep);
    }
}

/// How a close counts the cells of its fresh panes; chosen once, at
/// operator construction.
pub(crate) enum CloseStrategy {
    /// Index engines: persistent per-side indexes, probed by fresh panes.
    Index(StreamIndex),
    /// PRJ: each pane side radix-partitioned once, when it completes.
    Partitioned(PartitionedPanes),
    /// Any other engine: one at-rest run per pane pair.
    PerPair { engine: Algorithm, run: RunConfig },
    /// No pane sharing, or session windows: one at-rest run per window,
    /// and no ledger.
    Whole,
}

impl CloseStrategy {
    pub(crate) fn new(engine: Algorithm, run: &RunConfig, share_panes: bool) -> CloseStrategy {
        if engine.is_index_based() {
            // The index path counts pane pairs whatever `share_panes` says.
            CloseStrategy::Index(StreamIndex::new(engine, run))
        } else if !share_panes {
            CloseStrategy::Whole
        } else if engine == Algorithm::Prj {
            CloseStrategy::Partitioned(PartitionedPanes::new(run))
        } else {
            CloseStrategy::PerPair {
                engine,
                run: run.clone(),
            }
        }
    }

    /// Count the cells of each `fresh` pane, complete as of this close of a
    /// window whose first pane is `a`: `p − a + 1` cells for pane `p`.
    /// Returns them with the number of joins run: engine runs per pane
    /// pair, or one per pane on the index and partitioned closes.
    pub(crate) fn count_cells(
        &mut self,
        panes: &mut BTreeMap<u64, Pane>,
        fresh: &[u64],
        (a, g): (u64, u64),
        exec: &Executor,
        journal: &mut SpanJournal,
    ) -> (Vec<(u64, Vec<u64>)>, u64) {
        if fresh.is_empty() {
            return (Vec::new(), 0);
        }
        let cells = match self {
            CloseStrategy::Index(ix) => {
                let fresh: Vec<(u64, &Pane)> = fresh.iter().map(|&p| (p, &panes[&p])).collect();
                ix.count_pairs(&fresh, a, g, exec, journal)
            }
            CloseStrategy::Partitioned(pp) => pp.count_pairs(panes, fresh, a, exec),
            CloseStrategy::PerPair { engine, run } => {
                return per_pair_cells(*engine, run, panes, fresh, a, exec)
            }
            CloseStrategy::Whole => unreachable!("the whole-window close keeps no ledger"),
        };
        // One pass per completed pane counts all its cells.
        let runs = cells.len() as u64;
        (cells, runs)
    }

    /// Drop the strategy's state of panes before `keep`; returns the index
    /// tuples evicted.
    pub(crate) fn evict(&mut self, keep: u64, g: u64, exec: &Executor) -> usize {
        match self {
            CloseStrategy::Index(ix) => ix.evict(clamp_ts(keep * g), exec),
            CloseStrategy::Partitioned(pp) => {
                pp.bounds = pp.bounds.split_off(&keep);
                0
            }
            CloseStrategy::PerPair { .. } | CloseStrategy::Whole => 0,
        }
    }
}

/// The cells of each `fresh` pane from one at-rest engine run per pane
/// pair over the borrowed panes; returns them with the runs made.
fn per_pair_cells(
    engine: Algorithm,
    run: &RunConfig,
    panes: &BTreeMap<u64, Pane>,
    fresh: &[u64],
    a: u64,
    exec: &Executor,
) -> (Vec<(u64, Vec<u64>)>, u64) {
    let mut runs = 0;
    let cells = fresh
        .iter()
        .map(|&p| {
            let mut cells = vec![0; (p - a + 1) as usize];
            let own = &panes[&p];
            for (&q, other) in panes.range(a..=p) {
                let back = (q < p).then_some((&other.r, &own.s));
                for (r, s) in [(&own.r, &other.s)].into_iter().chain(back) {
                    if !r.is_empty() && !s.is_empty() {
                        cells[(p - q) as usize] += execute_slices(engine, r, s, run, exec).matches;
                        runs += 1;
                    }
                }
            }
            (p, cells)
        })
        .collect();
    (cells, runs)
}

/// Persistent index state for the index-based engines over pane
/// geometries: resident window content is indexed once at ingest, and a
/// close probes only the panes that completed since the previous close, so
/// each pane pair is counted once. Probing is read-only (`&self` on
/// [`WindowIndex`]), so a close fans the probes out across the operator's
/// executor; the single writer (the operator thread) only mutates between
/// closes, and eviction runs one sub-index per lane.
pub(crate) struct StreamIndex {
    /// Key-partitioned `(R, S)` sub-index pairs. IBWJ keeps one partition;
    /// IBWJ_PART keeps [`RunConfig::index_partitions`] of them.
    parts: Vec<(WindowIndex, WindowIndex)>,
    /// Partition → worker probe ownership (IBWJ_PART), re-balanced by the
    /// per-close histogram trigger.
    assignment: Vec<usize>,
    threads: usize,
    repart_factor: f64,
    /// Tuples indexed since the last `index:insert` journal mark (the
    /// operator marks once per ingest poll, not per tuple).
    pub(crate) unmarked_inserts: u64,
}

/// One lane's probe at a close: `tuples`, from side `side` of the
/// `pane`-th completing pane, against the other side's sub-index of
/// partition `part`.
struct Probe<'a> {
    pane: usize,
    side: Side,
    part: usize,
    tuples: &'a [Tuple],
}

impl StreamIndex {
    fn new(engine: Algorithm, run: &RunConfig) -> StreamIndex {
        let p_n = if engine == Algorithm::IbwjPart {
            run.index_partitions()
        } else {
            1
        };
        let threads = run.threads.max(1);
        StreamIndex {
            parts: (0..p_n)
                .map(|_| {
                    (
                        WindowIndex::with_capacity(64),
                        WindowIndex::with_capacity(64),
                    )
                })
                .collect(),
            assignment: (0..p_n).map(|p| p % threads).collect(),
            threads,
            repart_factor: run.index.repart_factor,
            unmarked_inserts: 0,
        }
    }

    pub(crate) fn insert(&mut self, t: Tuple, side: Side) {
        let p = if self.parts.len() == 1 {
            0
        } else {
            part_of(t.key, self.parts.len())
        };
        match side {
            Side::R => self.parts[p].0.insert(t.key, t.ts),
            Side::S => self.parts[p].1.insert(t.key, t.ts),
        }
        self.unmarked_inserts += 1;
    }

    /// Drop all tuples with `ts < horizon` from every sub-index, one
    /// sub-index per lane on `exec`; returns the number of tuples evicted.
    fn evict(&mut self, horizon: Ts, exec: &Executor) -> usize {
        let subs: Vec<Mutex<&mut WindowIndex>> = self
            .parts
            .iter_mut()
            .flat_map(|(r, s)| [r, s])
            .map(Mutex::new)
            .collect();
        let lanes = subs.len().min(self.threads);
        exec.run(lanes, |w| {
            subs.iter()
                .skip(w)
                .step_by(lanes)
                .map(|ix| {
                    ix.lock()
                        .expect("one lane per sub-index")
                        .evict_before(horizon)
                })
                .sum::<usize>()
        })
        .into_iter()
        .sum()
    }

    /// The cells of each pane of `fresh` against the earlier panes from `a`
    /// on. Pane `p`'s R tuples probe the S index over `[a·g, (p+1)·g)` and
    /// its S tuples the R index over `[a·g, p·g)`. IBWJ splits each pane's
    /// tuples evenly over the lanes. IBWJ_PART sends each tuple to its
    /// partition's owner; the per-partition loads of the close feed the
    /// rebalance trigger first.
    fn count_pairs(
        &mut self,
        fresh: &[(u64, &Pane)],
        a: u64,
        g: u64,
        exec: &Executor,
        journal: &mut SpanJournal,
    ) -> Vec<(u64, Vec<u64>)> {
        let (p_n, w_n) = (self.parts.len(), self.threads);
        let mut grouped: Vec<(usize, Side, usize, Vec<Tuple>)> = Vec::new();
        if p_n > 1 {
            for (i, (_, pane)) in fresh.iter().enumerate() {
                for (side, tuples) in [(Side::R, &pane.r), (Side::S, &pane.s)] {
                    let mut by_part = vec![Vec::new(); p_n];
                    for t in tuples {
                        by_part[part_of(t.key, p_n)].push(*t);
                    }
                    grouped.extend(
                        by_part
                            .into_iter()
                            .enumerate()
                            .filter(|(_, v)| !v.is_empty())
                            .map(|(part, v)| (i, side, part, v)),
                    );
                }
            }
            let mut loads = vec![0usize; p_n];
            for (_, _, part, v) in &grouped {
                loads[*part] += v.len();
            }
            self.rebalance(&loads, journal);
        }
        let mut lanes: Vec<Vec<Probe>> = (0..w_n).map(|_| Vec::new()).collect();
        if p_n == 1 {
            for (i, (_, pane)) in fresh.iter().enumerate() {
                for (side, tuples) in [(Side::R, &pane.r), (Side::S, &pane.s)] {
                    let per = tuples.len().div_ceil(w_n).max(1);
                    for (w, chunk) in tuples.chunks(per).enumerate() {
                        lanes[w].push(Probe {
                            pane: i,
                            side,
                            part: 0,
                            tuples: chunk,
                        });
                    }
                }
            }
        } else {
            for (i, side, part, tuples) in &grouped {
                lanes[self.assignment[*part]].push(Probe {
                    pane: *i,
                    side: *side,
                    part: *part,
                    tuples,
                });
            }
        }
        let this = &*self;
        let per_lane = exec.run(w_n, |w| {
            let mut cells = empty_cells(fresh.iter().map(|&(p, _)| p), a);
            let mut buckets = Vec::new();
            for probe in &lanes[w] {
                let p = fresh[probe.pane].0;
                let (idx, hi) = match probe.side {
                    Side::R => (&this.parts[probe.part].1, (p + 1) * g),
                    Side::S => (&this.parts[probe.part].0, p * g),
                };
                count_into(
                    idx,
                    probe.tuples,
                    (a * g, hi),
                    p,
                    g,
                    &mut cells[probe.pane],
                    &mut buckets,
                );
            }
            cells
        });
        fresh
            .iter()
            .map(|&(p, _)| p)
            .zip(sum_lanes(per_lane))
            .collect()
    }

    /// The cheap rebalance trigger of IBWJ_PART: when the heaviest worker's
    /// share of `loads` exceeds the ideal by `repart_factor`, ownership is
    /// recomputed with greedy LPT (heaviest partition first, ties by index —
    /// deterministic).
    fn rebalance(&mut self, loads: &[usize], journal: &mut SpanJournal) {
        let (p_n, w_n) = (self.parts.len(), self.threads);
        let total: usize = loads.iter().sum();
        let mut per_worker = vec![0usize; w_n];
        for (p, &l) in loads.iter().enumerate() {
            per_worker[self.assignment[p]] += l;
        }
        let worst = per_worker.iter().copied().max().unwrap_or(0);
        if total > 0 && (worst * w_n) as f64 > total as f64 * self.repart_factor {
            let mut order: Vec<usize> = (0..p_n).collect();
            order.sort_by_key(|&p| (std::cmp::Reverse(loads[p]), p));
            let mut new_load = vec![0usize; w_n];
            let mut asg = vec![0usize; p_n];
            for p in order {
                let w = (0..w_n).min_by_key(|&w| (new_load[w], w)).unwrap();
                asg[p] = w;
                new_load[w] += loads[p];
            }
            if asg != self.assignment {
                self.assignment = asg;
                journal.mark(MARK_INDEX_REPART, Instant::now());
            }
        }
    }
}

/// Count the matches of `probe` against `idx` with ts in `[lo, hi)` into
/// `cells[p − ts/g]` — the batched bucket-derivation + software-prefetch
/// pipeline of the batch engines. The bounds stay in `u64`: at the top of
/// the [`Ts`] range `hi` overhangs it, and `ts = Ts::MAX` must still match.
fn count_into(
    idx: &WindowIndex,
    probe: &[Tuple],
    (lo, hi): (u64, u64),
    p: u64,
    g: u64,
    cells: &mut [u64],
    buckets: &mut Vec<usize>,
) {
    if lo >= hi {
        return;
    }
    for chunk in probe.chunks(64) {
        tuple_buckets_into(INDEX_KERNEL, chunk, idx.mask(), buckets);
        for (i, t) in chunk.iter().enumerate() {
            if let Some(&ahead) = buckets.get(i + DEFAULT_PREFETCH_DIST) {
                idx.prefetch_bucket(ahead);
            }
            idx.probe_at(buckets[i], t.key, |ts| {
                let ts = ts as u64;
                if ts >= lo && ts < hi {
                    cells[(p - ts / g) as usize] += 1;
                }
            });
        }
    }
}

/// Radix partitions a partitioned close claims at a time.
const PARTITION_CLAIM: usize = 16;

/// PRJ's close over the ledger. When a pane completes, each of its sides is
/// radix-partitioned once, with PRJ's own `radix_bits` and pass split, and
/// keeps that order for every later close that reads it. A close is one
/// executor dispatch: the lanes partition the fresh sides, meet at one
/// barrier, then claim ranges of partitions. For partition `x` and fresh
/// pane `p`, one table is built on `R_p[x]` and probed with `S_q[x]` for
/// `q ∈ [a, p]`, and one on `S_p[x]`, probed with `R_q[x]` for `q ∈ [a, p)`;
/// matches are counted straight into the cells, with one reused
/// [`LocalTable`] per lane and no sink. Each fresh side is partitioned by
/// one lane: the panes are small.
pub(crate) struct PartitionedPanes {
    bits1: u32,
    bits2: u32,
    threads: usize,
    /// One first-pass buffer per lane, reused across closes.
    scratch: Vec<Mutex<Vec<Tuple>>>,
    /// Radix bounds of each completed resident pane's `[R, S]` sides,
    /// `fanout + 1` each. Evicted with the panes.
    bounds: BTreeMap<u64, [Vec<usize>; 2]>,
}

/// One partitioned pane side: partition `x` is
/// `data[bounds[x]..bounds[x + 1]]`.
#[derive(Clone, Copy)]
struct PartedSide<'a> {
    data: &'a [Tuple],
    bounds: &'a [usize],
}

impl<'a> PartedSide<'a> {
    fn part(&self, x: usize) -> &'a [Tuple] {
        &self.data[self.bounds[x]..self.bounds[x + 1]]
    }
}

impl PartitionedPanes {
    fn new(run: &RunConfig) -> PartitionedPanes {
        let (bits1, bits2) = pass_bits(run.prj.radix_bits);
        let threads = run.threads.max(1);
        PartitionedPanes {
            bits1,
            bits2,
            threads,
            scratch: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
            bounds: BTreeMap::new(),
        }
    }

    fn count_pairs(
        &mut self,
        panes: &mut BTreeMap<u64, Pane>,
        fresh: &[u64],
        a: u64,
        exec: &Executor,
    ) -> Vec<(u64, Vec<u64>)> {
        let (bits1, bits2, threads) = (self.bits1, self.bits2, self.threads);
        let fanout = 1usize << (bits1 + bits2);
        let last = *fresh.last().expect("fresh panes");
        // Every buffer of the close is allocated here, on the operator
        // thread: allocating the lane scratch and the bounds on the lanes'
        // own threads raised `stream_panes_ooo`'s peak RSS by 0.4 MB.
        let longest = fresh.iter().map(|p| panes[p].r.len().max(panes[p].s.len()));
        let longest = longest.max().unwrap_or(0);
        for buffer in &mut self.scratch {
            let buffer = buffer.get_mut().expect("no lane panicked");
            buffer.reserve(longest.saturating_sub(buffer.len()));
        }
        // Fresh side `2i` is pane `fresh[i]`'s R side, `2i + 1` its S side.
        // Each leaves its pane for the close: one lane partitions it in
        // place, then every lane reads it.
        let sides: Vec<RwLock<(Vec<Tuple>, Vec<usize>)>> = fresh
            .iter()
            .flat_map(|p| {
                let pane = panes.get_mut(p).expect("fresh panes are resident");
                [take(&mut pane.r), take(&mut pane.s)]
            })
            .map(|tuples| RwLock::new((tuples, Vec::with_capacity(fanout + 1))))
            .collect();
        let partitioned = barrier(threads);
        let next = AtomicUsize::new(0);
        let (resident, bounds, scratch) = (&*panes, &self.bounds, &self.scratch);
        let per_lane = exec.run(threads, |w| {
            let mut scratch = scratch[w].lock().expect("one lane per buffer");
            for side in sides.iter().skip(w).step_by(threads) {
                let (tuples, bounds) = &mut *side.write().expect("one lane per side");
                partition_two_pass(tuples, &mut scratch, (bits1, bits2), bounds);
            }
            drop(scratch);
            partitioned.wait();
            let fresh_sides: Vec<_> = sides
                .iter()
                .map(|s| s.read().expect("partitioned"))
                .collect();
            // Panes `a..=last`, partitioned; `None` where a pane has no
            // tuples. Panes before the fresh ones completed at earlier
            // closes, so their sides are partitioned already.
            let view: Vec<Option<[PartedSide; 2]>> = (a..=last)
                .map(|q| match fresh.binary_search(&q) {
                    Ok(i) => Some([0, 1].map(|k| {
                        let (data, bounds) = &*fresh_sides[2 * i + k];
                        PartedSide { data, bounds }
                    })),
                    Err(_) => resident.get(&q).map(|pane| {
                        let [br, bs] = &bounds[&q];
                        [
                            PartedSide {
                                data: &pane.r,
                                bounds: br,
                            },
                            PartedSide {
                                data: &pane.s,
                                bounds: bs,
                            },
                        ]
                    }),
                })
                .collect();
            let side = |q: u64, k: usize| view[(q - a) as usize].map(|v| v[k]);
            let mut cells = empty_cells(fresh.iter().copied(), a);
            let mut table = LocalTable::with_capacity(0);
            loop {
                // A claim publishes nothing: the sides were published by
                // the barrier, and the cells come back through `run`.
                let lo = next.fetch_add(PARTITION_CLAIM, Ordering::Relaxed);
                if lo >= fanout {
                    break;
                }
                for x in lo..(lo + PARTITION_CLAIM).min(fanout) {
                    for (&p, cells) in fresh.iter().zip(cells.iter_mut()) {
                        let at =
                            |q: u64, k: usize| side(q, k).map(|v| ((p - q) as usize, v.part(x)));
                        let [own_r, own_s] =
                            [0, 1].map(|k| side(p, k).map_or(&[][..], |v| v.part(x)));
                        count_partition(&mut table, own_r, (a..=p).filter_map(|q| at(q, 1)), cells);
                        count_partition(&mut table, own_s, (a..p).filter_map(|q| at(q, 0)), cells);
                    }
                }
            }
            cells
        });
        // The fresh panes get their sides back, in partition order.
        for (j, side) in sides.into_iter().enumerate() {
            let (tuples, bounds) = side.into_inner().expect("no lane panicked");
            let pane = panes
                .get_mut(&fresh[j / 2])
                .expect("fresh panes are resident");
            *if j % 2 == 0 { &mut pane.r } else { &mut pane.s } = tuples;
            self.bounds.entry(fresh[j / 2]).or_default()[j % 2] = bounds;
        }
        fresh.iter().copied().zip(sum_lanes(per_lane)).collect()
    }
}

/// Build `table` on `build` and count each probe slice's matches into its
/// cell; the build is skipped when nothing probes it.
fn count_partition<'a>(
    table: &mut LocalTable,
    build: &[Tuple],
    probes: impl Iterator<Item = (usize, &'a [Tuple])>,
    cells: &mut [u64],
) {
    if build.is_empty() {
        return;
    }
    let mut built = false;
    for (d, probe) in probes {
        if probe.is_empty() {
            continue;
        }
        if !built {
            table.reset(build.len());
            build.iter().for_each(|t| table.insert(t.key, 0));
            built = true;
        }
        cells[d] += probe.iter().map(|t| table.count(t.key) as u64).sum::<u64>();
    }
}

/// Zeroed cells for each of `fresh`: `p − a + 1` for pane `p`.
fn empty_cells(fresh: impl Iterator<Item = u64>, a: u64) -> Vec<Vec<u64>> {
    fresh.map(|p| vec![0; (p - a + 1) as usize]).collect()
}

/// Sum per-lane cells, lane by lane.
fn sum_lanes(mut per_lane: Vec<Vec<Vec<u64>>>) -> Vec<Vec<u64>> {
    let mut cells = per_lane.pop().expect("at least one lane");
    for lane in per_lane {
        for (sum, part) in cells.iter_mut().zip(lane) {
            sum.iter_mut().zip(part).for_each(|(s, m)| *s += m);
        }
    }
    cells
}

/// A stream-time bound in ms as a [`Ts`], saturating at the top.
pub(crate) fn clamp_ts(ms: u64) -> Ts {
    ms.min(Ts::MAX as u64) as Ts
}
