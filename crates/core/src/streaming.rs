//! Continuous streaming join: the long-running deployment of the IaWJ.
//!
//! Every engine in this crate joins one window at rest; the paper (§2)
//! frames that as the building block any window type composes over. This
//! module supplies the composition as a service: a [`StreamingJoin`]
//! operator ingests two unbounded, timestamp-ordered streams through
//! bounded SPSC queues (blocking backpressure — a slow join throttles its
//! sources), assigns tuples to panes, closes windows as the watermark
//! advances, and runs any of the eight engines over each closed window.
//!
//! ## Watermark semantics
//!
//! The watermark is `min(max_ts_R, max_ts_S) - allowed_lateness_ms`: the
//! operator trusts each source to be in timestamp order up to a bounded
//! shuffle of `allowed_lateness_ms`. A window `[start, end)` closes once
//! the watermark reaches `end`; a tuple arriving with `ts` strictly behind
//! the watermark is *late* — counted, journaled (`stream:late`), and
//! dropped. An exhausted source's contribution to the `min` becomes +∞, so
//! when both sources end the watermark jumps to +∞ and every remaining
//! window (exactly the set [`crate::windowing::windows_for`] realizes over
//! the final streams) flushes.
//!
//! ## Pane sharing: one ledger of pane-pair cells
//!
//! Sliding windows overlap, and a naive operator re-joins every tuple
//! `len/slide` times. With pane sharing the time axis is cut into panes of
//! `g = gcd(len, slide)` ms. A window join does **not** decompose into
//! per-pane joins — matches cross pane boundaries — but it does decompose
//! into pane *pairs*, and because `g` divides both `slide` and `len`, every
//! containing window covers whole panes. Each pair is counted once, by the
//! later of its two panes, as in the IBWJ study's second-arrival rule. Pane
//! `p` is *complete* at the first close whose window ends at or after
//! `(p + 1)·g`; the watermark has then passed it, so no tuple can join it
//! any more. At that close, with `a` the window's first pane, the operator's
//! pane ledger records `p`'s cells: cell `d = p − q` holds the matches
//! between panes `p` and `q`, R side in either, for every `q ∈ [a, p]`.
//! Window `k` over panes `[a, b)` sums the cells `d ≤ p − a` of its panes;
//! no later window needs a pair reaching back before `a`. A window's
//! `pane_pairs_computed` counts the cells of panes that completed at its
//! close, and `pane_pairs_reused` those it reads from earlier closes. Each
//! cell recombines with [`pair_multiplicity`](crate::windowing::pair_multiplicity)
//! at the pane corners, constant across the pair, which gives the identity
//! the property tests pin: `Σ per-window matches = Σ cell × multiplicity`.
//! Panes hold their tuples re-based to ts 0, as an engine run over one
//! window sees them, so a close hands engines borrowed pane slices. Panes
//! and their cells are evicted as soon as the last window containing them
//! has closed.
//!
//! A close strategy, chosen at construction, counts the cells of the panes
//! that complete at a close:
//! - PRJ radix-partitions each side of a pane once, when it completes, with
//!   its own `radix_bits` and pass split, and keeps the panes in partition
//!   order. A close is one executor dispatch: the lanes partition the fresh
//!   sides, meet at one barrier, then claim ranges of partitions and count
//!   each partition's matches with every resident pane straight into the
//!   cells, one reused table per lane and no match sink.
//! - Any other at-rest engine runs once per pane pair over the borrowed
//!   panes; tumbling windows are the one-cell case, one run per close.
//! - Without pane sharing (`share_panes(false)`) the whole window runs at
//!   once, and there is no ledger.
//!
//! Session windows are data-dependent and disjoint, so there is nothing to
//! share: a session closes when the watermark passes `last_stamp + gap`
//! (no future tuple can extend it) and its tuples are joined once.
//!
//! ## Persistent index path
//!
//! When the configured engine is index-based ([`Algorithm::is_index_based`])
//! and the geometry is pane-based, the operator does not run the engine
//! over tuples at rest at all — that would rebuild the index at every
//! close, which defeats the entire point of the family. Instead it keeps a
//! *persistent* [`WindowIndex`](iawj_exec::WindowIndex) per side (sharded
//! by key partition for IBWJ_PART), inserting each tuple once at ingest
//! (`index:insert`). A completing pane `p` fills the same ledger cells:
//! its R tuples probe the S index over `[a·g, (p+1)·g)` and its S tuples
//! the R index over `[a·g, p·g)`, and each match adds to the cell
//! `p − ts/g`. So a close costs one slide of probes, not one window. The
//! probes fan out over the operator's executor — safe because probing takes
//! `&self` and the single writer only mutates between closes. Pane
//! eviction evicts the index to the same horizon (`index:evict`), one
//! sub-index per lane, and the partitioned variant re-balances its
//! partition→worker probe ownership from the partition histogram of the
//! panes each close probes (`index:repart`), mirroring the batch engine's
//! LPT plan. Session geometry falls back to the generic at-rest path.
//!
//! ## Backpressure contract
//!
//! Ingress queues are bounded; `send` blocks while full. Producers are
//! never asked to drop data — the queue counts blocking episodes and the
//! operator surfaces each observation as a `stream:backpressure` journal
//! instant plus a counter in the report and the periodic [`StreamTick`].
//! The operator drains each queue in batches
//! ([`StreamReceiver::recv_batch`]), ingesting tuple by tuple inside the
//! batch.

use crate::algo::Algorithm;
use crate::config::RunConfig;
use crate::ledger::{CloseStrategy, Pane, PaneLedger, Side};
use crate::runner::execute_slices;
use crate::windowing::WindowSpec;
use iawj_common::spsc::{stream_channel, RecvError, StreamReceiver, StreamSender};
use iawj_common::{Ts, Tuple, Window};
use iawj_datagen::StreamSource;
use iawj_exec::Executor;
use iawj_obs::{
    LogHistogram, SpanJournal, StreamTick, MARK_INDEX_EVICT, MARK_INDEX_INSERT,
    MARK_STREAM_BACKPRESSURE, MARK_STREAM_CLOSE, MARK_STREAM_INGEST, MARK_STREAM_LATE,
};
use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The end-of-stream watermark: both sources exhausted, every window may
/// close.
pub const WM_END: u64 = u64::MAX;

/// Tuples drained from one queue per poll before servicing the other side
/// and the window state.
const INGEST_BATCH: usize = 256;

/// Busy-wait hints after a poll that found no backlog (every batch short)
/// before polling again: a few µs, time for the sources to queue a few
/// dozen tuples. Without it, a `stream_tumbling` capacity run spent most of
/// its time moving batches of ~5 tuples (PR 16's A/B in CHANGES.md).
const THIN_POLL_SPINS: usize = 128;

/// Configuration of a [`StreamingJoin`] operator.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// How the time axis is carved into windows.
    pub spec: WindowSpec,
    /// The engine joining each closed window's panes (see the module docs
    /// for how each engine closes a window).
    pub engine: Algorithm,
    /// Per-engine-run configuration (threads, pinning, ...).
    pub run: RunConfig,
    /// Bounded out-of-orderness tolerated before a tuple is late.
    pub allowed_lateness_ms: u32,
    /// Share gcd-sized panes across overlapping sliding windows.
    pub share_panes: bool,
    /// Wall-clock metrics interval in ms (0 disables periodic ticks; one
    /// final tick is always emitted).
    pub tick_every_ms: f64,
}

impl StreamConfig {
    /// A config with the given window spec and engine; 0 ms lateness, pane
    /// sharing on, 2-thread engine runs, ticks once per second.
    pub fn new(spec: WindowSpec, engine: Algorithm) -> Self {
        match spec {
            WindowSpec::Tumbling { len_ms } => assert!(len_ms > 0),
            WindowSpec::Sliding { len_ms, slide_ms } => assert!(len_ms > 0 && slide_ms > 0),
            WindowSpec::Session { gap_ms } => assert!(gap_ms > 0),
        }
        StreamConfig {
            spec,
            engine,
            run: RunConfig::with_threads(2),
            allowed_lateness_ms: 0,
            share_panes: true,
            tick_every_ms: 1000.0,
        }
    }

    /// Set the allowed out-of-orderness.
    pub fn lateness(mut self, ms: u32) -> Self {
        self.allowed_lateness_ms = ms;
        self
    }

    /// Enable or disable pane sharing.
    pub fn share_panes(mut self, on: bool) -> Self {
        self.share_panes = on;
        self
    }

    /// Replace the per-engine-run configuration.
    pub fn run_config(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Set the metrics tick interval (wall ms; 0 disables).
    pub fn tick_every_ms(mut self, ms: f64) -> Self {
        self.tick_every_ms = ms;
        self
    }
}

/// One window closed by the operator, in window-start order.
#[derive(Clone, Debug)]
pub struct ClosedWindow {
    /// The closed window.
    pub window: Window,
    /// Matches found by the engine over this window.
    pub matches: u64,
    /// R-side tuples that fell in this window.
    pub inputs_r: usize,
    /// S-side tuples that fell in this window.
    pub inputs_s: usize,
    /// The watermark when the window closed ([`WM_END`] when flushed
    /// because both sources ended).
    pub watermark_ms: u64,
    /// Wall ms spent joining (engine runs + recombination) at close.
    pub join_wall_ms: f64,
    /// Pane-ledger cells this window sums that were counted at this close:
    /// the cells of the panes completing now (0 without a ledger). A cell
    /// holds the matches between two panes, R side in either.
    pub pane_pairs_computed: usize,
    /// Pane-ledger cells this window sums that were counted at an earlier
    /// close.
    pub pane_pairs_reused: usize,
}

impl ClosedWindow {
    /// Whether this window closed in the end-of-stream flush rather than
    /// by watermark advance.
    pub fn flushed_at_end(&self) -> bool {
        self.watermark_ms == WM_END
    }
}

/// Everything a finished [`StreamingJoin`] run observed.
#[derive(Debug)]
pub struct StreamReport {
    /// Every closed window, in start order.
    pub windows: Vec<ClosedWindow>,
    /// Total matches across all closed windows.
    pub matches: u64,
    /// Total matches recombined as `Σ cell × pair_multiplicity` over the
    /// pane ledger's cells (pane sharing and the persistent-index path), or
    /// summed over sessions; `None` when whole windows ran without sharing.
    pub matches_via_multiplicity: Option<u64>,
    /// Tuples ingested from the R side (late drops included).
    pub ingested_r: u64,
    /// Tuples ingested from the S side (late drops included).
    pub ingested_s: u64,
    /// Late tuples dropped.
    pub late_dropped: u64,
    /// Producer blocking episodes observed on the ingress queues.
    pub backpressure_waits: u64,
    /// Joins the closes ran: one per at-rest engine run (a pane pair, a
    /// whole window without sharing, a session), and one per completed pane
    /// where one pass counts all its cells (the persistent index, PRJ's
    /// partitioned panes).
    pub engine_runs: u64,
    /// Most panes (or pending sessions) resident at once. Pane counts are
    /// tracked per tuple; session residency needs a scan of the pending
    /// set and is sampled at metrics ticks.
    pub peak_resident_panes: usize,
    /// Deepest ingress queue observed at a poll boundary.
    pub peak_queue_depth: usize,
    /// The watermark when the run ended ([`WM_END`] on a drained stream).
    pub final_watermark_ms: u64,
    /// Stream time covered: the maximum timestamp ingested.
    pub stream_ms: u64,
    /// Wall time of the whole run.
    pub wall_ms: f64,
    /// Per-window close (join) wall-time histogram.
    pub close_hist: LogHistogram,
    /// Periodic metrics ticks (always at least the final one).
    pub ticks: Vec<StreamTick>,
    /// The operator's journal: `stream:*` instants.
    pub journal: SpanJournal,
}

impl StreamReport {
    /// Ingest throughput in tuples per stream millisecond.
    pub fn throughput_tpms(&self) -> f64 {
        if self.stream_ms == 0 {
            0.0
        } else {
            (self.ingested_r + self.ingested_s) as f64 / self.stream_ms as f64
        }
    }

    /// Sustained ingest rate in tuples per *wall* millisecond — the
    /// operator-limited rate when replay is unpaced (backpressure makes
    /// the producers run exactly as fast as the operator drains).
    pub fn wall_tpms(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            (self.ingested_r + self.ingested_s) as f64 / self.wall_ms
        }
    }

    /// Count of a named journal instant (`stream:*`).
    pub fn count_marks(&self, name: &str) -> usize {
        self.journal.count_marks(name)
    }
}

#[derive(Clone, Copy)]
enum Geo {
    /// Tumbling/sliding normalized to (len, slide) with `g = gcd`.
    Panes {
        len: u64,
        slide: u64,
        g: u64,
    },
    Session {
        gap: u64,
    },
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The long-running streaming join operator. See the module docs.
pub struct StreamingJoin {
    cfg: StreamConfig,
    geo: Geo,
    panes: BTreeMap<u64, Pane>,
    /// The cells of the completed resident panes, beside the panes.
    ledger: PaneLedger,
    /// How a close counts the cells of its fresh panes.
    close: CloseStrategy,
    next_window: u64,
    pending_r: Vec<Tuple>,
    pending_s: Vec<Tuple>,
    max_r: Option<u64>,
    max_s: Option<u64>,
    done_r: bool,
    done_s: bool,
    last_advanced_wm: Option<u64>,
    /// Session mode: the earliest watermark that could close the first
    /// pending session (`last + gap` from the last scan). Adding tuples
    /// only fills gaps — the first run's close point never moves earlier —
    /// so while the watermark is below this bound `advance` can skip the
    /// full sort-and-scan entirely. `None` forces a rescan.
    next_session_close: Option<u64>,
    windows: Vec<ClosedWindow>,
    matches: u64,
    via_mult: Option<u64>,
    ingested_r: u64,
    ingested_s: u64,
    late: u64,
    engine_runs: u64,
    peak_resident: usize,
    close_hist: LogHistogram,
    journal: SpanJournal,
    /// The worker pool every window close runs on: provisioned (and, under
    /// a pin policy, placed) once at operator construction, not per close.
    exec: Executor,
}

impl StreamingJoin {
    /// Build an operator for `cfg`.
    pub fn new(cfg: StreamConfig) -> Self {
        let geo = match cfg.spec {
            WindowSpec::Tumbling { len_ms } => Geo::Panes {
                len: len_ms as u64,
                slide: len_ms as u64,
                g: len_ms as u64,
            },
            WindowSpec::Sliding { len_ms, slide_ms } => Geo::Panes {
                len: len_ms as u64,
                slide: slide_ms as u64,
                g: gcd(len_ms as u64, slide_ms as u64),
            },
            WindowSpec::Session { gap_ms } => Geo::Session { gap: gap_ms as u64 },
        };
        let (close, g) = match geo {
            Geo::Panes { g, .. } => (CloseStrategy::new(cfg.engine, &cfg.run, cfg.share_panes), g),
            Geo::Session { .. } => (CloseStrategy::Whole, 1),
        };
        let track_mult = !matches!((geo, &close), (Geo::Panes { .. }, CloseStrategy::Whole));
        let journal = SpanJournal::with_capacity(Instant::now(), cfg.run.journal_capacity);
        let exec = cfg.run.make_executor();
        StreamingJoin {
            geo,
            panes: BTreeMap::new(),
            ledger: PaneLedger::new(cfg.spec, g),
            close,
            next_window: 0,
            pending_r: Vec::new(),
            pending_s: Vec::new(),
            max_r: None,
            max_s: None,
            done_r: false,
            done_s: false,
            last_advanced_wm: None,
            next_session_close: None,
            windows: Vec::new(),
            matches: 0,
            via_mult: if track_mult { Some(0) } else { None },
            ingested_r: 0,
            ingested_s: 0,
            late: 0,
            engine_runs: 0,
            peak_resident: 0,
            close_hist: LogHistogram::new(),
            journal,
            exec,
            cfg,
        }
    }

    /// The current watermark: `None` until both sides have reported a
    /// timestamp (an exhausted side counts as +∞), [`WM_END`] once both
    /// sources are exhausted.
    fn watermark(&self) -> Option<u64> {
        let eff = |max: Option<u64>, done: bool| {
            if done {
                Some(u64::MAX)
            } else {
                max
            }
        };
        let raw = eff(self.max_r, self.done_r)?.min(eff(self.max_s, self.done_s)?);
        Some(if raw == u64::MAX {
            WM_END
        } else {
            raw.saturating_sub(self.cfg.allowed_lateness_ms as u64)
        })
    }

    fn max_seen(&self) -> u64 {
        self.max_r.unwrap_or(0).max(self.max_s.unwrap_or(0))
    }

    fn resident(&self) -> usize {
        match self.geo {
            Geo::Panes { .. } => self.panes.len(),
            Geo::Session { gap } => session_count(&self.pending_r, &self.pending_s, gap),
        }
    }

    fn ingest(&mut self, t: Tuple, side: Side) {
        match side {
            Side::R => {
                self.ingested_r += 1;
                self.max_r = Some(self.max_r.unwrap_or(0).max(t.ts as u64));
            }
            Side::S => {
                self.ingested_s += 1;
                self.max_s = Some(self.max_s.unwrap_or(0).max(t.ts as u64));
            }
        }
        // Late iff strictly behind the watermark: every state this tuple
        // could touch (panes of closed windows, closed sessions) lies
        // entirely behind the watermark, so non-late tuples always find
        // their state still resident.
        if let Some(wm) = self.watermark() {
            if (t.ts as u64) < wm {
                self.late += 1;
                self.journal.mark(MARK_STREAM_LATE, Instant::now());
                return;
            }
        }
        match self.geo {
            Geo::Panes { g, .. } => {
                // Panes hold tuples at rest, re-based as an engine run over
                // one window sees them; no close reads a pane's stamps.
                let pane = self.panes.entry(t.ts as u64 / g).or_default();
                let at_rest = Tuple::new(t.key, 0);
                match side {
                    Side::R => pane.r.push(at_rest),
                    Side::S => pane.s.push(at_rest),
                }
                // Index engines index each tuple exactly once, here at
                // ingest — closes re-probe, they never rebuild.
                if let CloseStrategy::Index(ix) = &mut self.close {
                    ix.insert(t, side);
                }
            }
            Geo::Session { .. } => match side {
                Side::R => self.pending_r.push(t),
                Side::S => self.pending_s.push(t),
            },
        }
        // Pane count is O(1) to read; session residency needs a scan, so
        // it is sampled at metrics ticks instead of per tuple.
        if matches!(self.geo, Geo::Panes { .. }) {
            self.peak_resident = self.peak_resident.max(self.panes.len());
        }
    }

    /// Ingest up to [`INGEST_BATCH`] tuples from one side: one batched
    /// receive (one queue publication), but still one `ingest` — watermark
    /// and late test — per tuple, in arrival order.
    fn drain_side(&mut self, rx: &StreamReceiver<Tuple>, side: Side) -> usize {
        match rx.recv_batch(INGEST_BATCH, |t| self.ingest(t, side)) {
            Ok(got) => got,
            Err(RecvError::Empty) => 0,
            Err(RecvError::Disconnected) => {
                self.source_done(side);
                0
            }
        }
    }

    fn source_done(&mut self, side: Side) {
        match side {
            Side::R => self.done_r = true,
            Side::S => self.done_s = true,
        }
    }

    fn advance<FW: FnMut(&ClosedWindow)>(&mut self, on_window: &mut FW) {
        let Some(wm) = self.watermark() else { return };
        if self.last_advanced_wm == Some(wm) {
            return;
        }
        self.last_advanced_wm = Some(wm);
        match self.geo {
            Geo::Panes { len, slide, .. } => loop {
                let start = self.next_window * slide;
                let closable = if wm == WM_END {
                    // End-of-stream flush: exactly the window set
                    // `windows_for` realizes (starts up to the last ts).
                    start <= self.max_seen()
                } else {
                    wm >= start + len
                };
                if !closable {
                    break;
                }
                let k = self.next_window;
                self.next_window += 1;
                self.close_pane_window(k, wm, on_window);
            },
            Geo::Session { gap } => loop {
                if self.pending_r.is_empty() && self.pending_s.is_empty() {
                    break;
                }
                // Cheap gate: below the cached close bound nothing can
                // close, so skip the full sort-and-scan of the pending set.
                if wm != WM_END && self.next_session_close.is_some_and(|nc| wm < nc) {
                    break;
                }
                let mut stamps: Vec<u64> = self
                    .pending_r
                    .iter()
                    .chain(self.pending_s.iter())
                    .map(|t| t.ts as u64)
                    .collect();
                stamps.sort_unstable();
                let start = stamps[0];
                let mut last = start;
                for &t in &stamps[1..] {
                    if t - last >= gap {
                        break;
                    }
                    last = t;
                }
                // Close only when no future tuple can extend (or bridge)
                // this session: the watermark must clear last + gap.
                if wm != WM_END && wm < last + gap {
                    self.next_session_close = Some(last + gap);
                    break;
                }
                self.next_session_close = None;
                self.close_session(start, last, wm, on_window);
            },
        }
    }

    fn close_pane_window<FW: FnMut(&ClosedWindow)>(&mut self, k: u64, wm: u64, on_window: &mut FW) {
        let Geo::Panes { len, slide, g } = self.geo else {
            unreachable!()
        };
        let t0 = Instant::now();
        let start = k * slide;
        let (a, b) = (start / g, (start + len) / g);
        let mut inputs_r = 0;
        let mut inputs_s = 0;
        for (_, pane) in self.panes.range(a..b) {
            inputs_r += pane.r.len();
            inputs_s += pane.s.len();
        }
        let (matches, computed, reused) = match &mut self.close {
            CloseStrategy::Whole => {
                let window = self.panes.range(a..b).map(|(_, p)| p);
                let r: Vec<Tuple> = window.clone().flat_map(|p| p.r.iter().copied()).collect();
                let s: Vec<Tuple> = window.flat_map(|p| p.s.iter().copied()).collect();
                let mut matches = 0;
                if !r.is_empty() && !s.is_empty() {
                    matches =
                        execute_slices(self.cfg.engine, &r, &s, &self.cfg.run, &self.exec).matches;
                    self.engine_runs += 1;
                }
                (matches, 0, 0)
            }
            close => {
                // The watermark has passed the window's end, so panes
                // before `b` are complete: count the cells of those that
                // completed since the last close, then sum the window's.
                let first = self.ledger.complete_through(a, b);
                let fresh: Vec<u64> = self.panes.range(first..b).map(|(&p, _)| p).collect();
                let (counted, runs) = close.count_cells(
                    &mut self.panes,
                    &fresh,
                    (a, g),
                    &self.exec,
                    &mut self.journal,
                );
                self.engine_runs += runs;
                for (p, cells) in counted {
                    let weighted = self.ledger.record(p, cells);
                    if let Some(acc) = self.via_mult.as_mut() {
                        *acc += weighted;
                    }
                }
                self.ledger.window(a, b, first)
            }
        };
        // Evict panes, their cells and the index content whose last
        // containing window is this one: everything strictly before the
        // next window's start.
        let keep = ((k + 1) * slide) / g;
        self.panes = self.panes.split_off(&keep);
        self.ledger.evict(keep);
        if self.close.evict(keep, g, &self.exec) > 0 {
            self.journal.mark(MARK_INDEX_EVICT, Instant::now());
        }
        self.emit_window(
            Window {
                start: start as Ts,
                len_ms: len as Ts,
            },
            matches,
            inputs_r,
            inputs_s,
            wm,
            t0,
            computed,
            reused,
            on_window,
        );
    }

    fn close_session<FW: FnMut(&ClosedWindow)>(
        &mut self,
        start: u64,
        last: u64,
        wm: u64,
        on_window: &mut FW,
    ) {
        let t0 = Instant::now();
        let take = |v: &mut Vec<Tuple>| -> Vec<Tuple> {
            let (inside, outside) = v
                .drain(..)
                .partition(|t| (t.ts as u64) >= start && (t.ts as u64) <= last);
            *v = outside;
            inside
        };
        // The session's tuples join at rest, re-based as in a window run.
        let at_rest =
            |v: Vec<Tuple>| -> Vec<Tuple> { v.into_iter().map(|t| Tuple::new(t.key, 0)).collect() };
        let r = at_rest(take(&mut self.pending_r));
        let s = at_rest(take(&mut self.pending_s));
        let matches = if r.is_empty() || s.is_empty() {
            0
        } else {
            self.engine_runs += 1;
            execute_slices(self.cfg.engine, &r, &s, &self.cfg.run, &self.exec).matches
        };
        if let Some(acc) = self.via_mult.as_mut() {
            // Sessions are disjoint (`pair_multiplicity_in` over realized
            // session windows is 0/1), so each closed session contributes
            // its matches exactly once.
            *acc += matches;
        }
        self.emit_window(
            Window {
                start: start as Ts,
                len_ms: (last - start + 1) as Ts,
            },
            matches,
            r.len(),
            s.len(),
            wm,
            t0,
            0,
            0,
            on_window,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_window<FW: FnMut(&ClosedWindow)>(
        &mut self,
        window: Window,
        matches: u64,
        inputs_r: usize,
        inputs_s: usize,
        wm: u64,
        t0: Instant,
        computed: usize,
        reused: usize,
        on_window: &mut FW,
    ) {
        let join_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.close_hist.record_ms(join_wall_ms);
        self.journal.mark(MARK_STREAM_CLOSE, Instant::now());
        self.matches += matches;
        let closed = ClosedWindow {
            window,
            matches,
            inputs_r,
            inputs_s,
            watermark_ms: wm,
            join_wall_ms,
            pane_pairs_computed: computed,
            pane_pairs_reused: reused,
        };
        on_window(&closed);
        self.windows.push(closed);
    }

    /// Drive the operator to completion over two ingress queues, invoking
    /// `on_window` at each window close and `on_tick` at each metrics
    /// tick. Returns when both sources have disconnected and all state has
    /// flushed.
    pub fn run<FW, FT>(
        mut self,
        rx_r: StreamReceiver<Tuple>,
        rx_s: StreamReceiver<Tuple>,
        mut on_window: FW,
        mut on_tick: FT,
    ) -> StreamReport
    where
        FW: FnMut(&ClosedWindow),
        FT: FnMut(&StreamTick),
    {
        let started = Instant::now();
        let mut last_tick = started;
        let mut last_tick_ingested = 0u64;
        let mut last_bp = 0u64;
        let mut peak_queue = 0usize;
        let mut ticks: Vec<StreamTick> = Vec::new();
        loop {
            let (mut got, mut backlog) = (0, false);
            for (rx, side, done) in [(&rx_r, Side::R, self.done_r), (&rx_s, Side::S, self.done_s)] {
                if !done {
                    let n = self.drain_side(rx, side);
                    got += n;
                    backlog |= n == INGEST_BATCH;
                }
            }
            if got > 0 {
                self.journal.mark(MARK_STREAM_INGEST, Instant::now());
            }
            // One index:insert mark per poll that indexed anything (a
            // per-tuple mark would swamp the journal).
            if let CloseStrategy::Index(ix) = &mut self.close {
                if ix.unmarked_inserts > 0 {
                    ix.unmarked_inserts = 0;
                    self.journal.mark(MARK_INDEX_INSERT, Instant::now());
                }
            }
            let bp = rx_r.blocked_sends() + rx_s.blocked_sends();
            if bp > last_bp {
                self.journal.mark(MARK_STREAM_BACKPRESSURE, Instant::now());
                last_bp = bp;
            }
            self.advance(&mut on_window);
            // After the closes: the queues are deepest when a close has
            // just held up the drain.
            peak_queue = peak_queue.max(rx_r.len()).max(rx_s.len());
            let finished = self.done_r && self.done_s;
            let tick_due = self.cfg.tick_every_ms > 0.0
                && last_tick.elapsed().as_secs_f64() * 1e3 >= self.cfg.tick_every_ms;
            if tick_due || finished {
                let ingested = self.ingested_r + self.ingested_s;
                let resident = self.resident();
                self.peak_resident = self.peak_resident.max(resident);
                let tick = StreamTick {
                    wall_s: started.elapsed().as_secs_f64(),
                    watermark_ms: self.watermark().unwrap_or(0),
                    ingested,
                    ingested_delta: ingested - last_tick_ingested,
                    matches: self.matches,
                    windows_closed: self.windows.len() as u64,
                    late: self.late,
                    backpressure_waits: last_bp,
                    queue_r: rx_r.len(),
                    queue_s: rx_s.len(),
                    resident_panes: resident,
                };
                on_tick(&tick);
                ticks.push(tick);
                last_tick = Instant::now();
                last_tick_ingested = ingested;
            }
            if finished {
                break;
            }
            if got == 0 {
                // Idle: block briefly on an open side rather than spin.
                let d = Duration::from_micros(200);
                let (rx, side) = if !self.done_r {
                    (&rx_r, Side::R)
                } else {
                    (&rx_s, Side::S)
                };
                match rx.recv_timeout(d) {
                    Ok(t) => self.ingest(t, side),
                    Err(RecvError::Disconnected) => self.source_done(side),
                    Err(RecvError::Empty) => {}
                }
            } else if !backlog {
                // Every batch came back short: the operator is outrunning
                // its sources. Re-polling at once would re-read each
                // queue's `tail` line, which its producer rewrites on
                // every send, for a handful of tuples; pausing lets the
                // next poll take a real batch.
                (0..THIN_POLL_SPINS).for_each(|_| std::hint::spin_loop());
            }
        }
        StreamReport {
            matches: self.matches,
            matches_via_multiplicity: self.via_mult,
            ingested_r: self.ingested_r,
            ingested_s: self.ingested_s,
            late_dropped: self.late,
            backpressure_waits: last_bp,
            engine_runs: self.engine_runs,
            peak_resident_panes: self.peak_resident,
            peak_queue_depth: peak_queue,
            final_watermark_ms: self.watermark().unwrap_or(0),
            stream_ms: self.max_seen(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            close_hist: self.close_hist,
            ticks,
            windows: self.windows,
            journal: self.journal,
        }
    }
}

/// Pending-session count: how many realized sessions the pending tuples
/// currently span (the session-mode resident-state metric).
fn session_count(r: &[Tuple], s: &[Tuple], gap: u64) -> usize {
    let mut stamps: Vec<u64> = r.iter().chain(s.iter()).map(|t| t.ts as u64).collect();
    if stamps.is_empty() {
        return 0;
    }
    stamps.sort_unstable();
    1 + stamps.windows(2).filter(|w| w[1] - w[0] >= gap).count()
}

/// Spawn a pump thread feeding `src` into `tx` until the source ends or
/// the consumer hangs up; returns the tuple count it sent.
pub fn spawn_source<S: StreamSource + 'static>(
    mut src: S,
    tx: StreamSender<Tuple>,
) -> JoinHandle<u64> {
    std::thread::Builder::new()
        .name("iawj-source".into())
        .spawn(move || {
            let mut sent = 0;
            while let Some(t) = src.next_tuple() {
                if tx.send(t).is_err() {
                    break;
                }
                sent += 1;
            }
            sent
        })
        .expect("spawn source thread")
}

/// Run a full streaming join over two finite in-memory streams, pushed
/// through `queue_cap`-bounded ingress queues. The workhorse of the
/// differential tests.
///
/// One pusher thread feeds both queues, merging R and S by head timestamp
/// while keeping each side's own order. That bounds the inter-source skew
/// by the queue capacities: when a tuple is sent, every earlier-stamped
/// tuple of the other side has been sent and all but a queue's worth of
/// them ingested. Which tuples are late is then a function of the streams,
/// not of how the OS schedules two free-running pumps.
pub fn run_replay(
    cfg: StreamConfig,
    r: Vec<Tuple>,
    s: Vec<Tuple>,
    queue_cap: usize,
) -> StreamReport {
    let (tx_r, rx_r) = stream_channel(queue_cap);
    let (tx_s, rx_s) = stream_channel(queue_cap);
    let pusher = std::thread::Builder::new()
        .name("iawj-replay".into())
        .spawn(move || {
            let (mut i, mut j) = (0, 0);
            while i < r.len() || j < s.len() {
                let sent = if j == s.len() || (i < r.len() && r[i].ts <= s[j].ts) {
                    i += 1;
                    tx_r.send(r[i - 1])
                } else {
                    j += 1;
                    tx_s.send(s[j - 1])
                };
                if sent.is_err() {
                    break;
                }
            }
        })
        .expect("spawn replay thread");
    let report = StreamingJoin::new(cfg).run(rx_r, rx_s, |_| {}, |_| {});
    pusher.join().expect("the replay pusher does not panic");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windowing::{execute_windowed, windows_for};
    use iawj_common::Rng;
    use iawj_obs::{MARK_EXEC_DISPATCH, MARK_INDEX_REPART};
    use std::collections::BTreeSet;

    fn stream(n: usize, keys: u32, span_ms: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        let mut v: Vec<Tuple> = (0..n)
            .map(|_| Tuple::new(rng.next_u32() % keys, rng.below(span_ms as u64) as u32))
            .collect();
        v.sort_unstable_by_key(|t| t.ts);
        v
    }

    fn cfg(spec: WindowSpec) -> StreamConfig {
        StreamConfig::new(spec, Algorithm::Npj)
            .run_config(RunConfig::with_threads(1))
            .tick_every_ms(0.0)
    }

    fn batch_counts(spec: WindowSpec, r: &[Tuple], s: &[Tuple]) -> Vec<(Window, u64)> {
        execute_windowed(Algorithm::Npj, r, s, spec, &RunConfig::with_threads(1))
            .into_iter()
            .map(|w| (w.window, w.result.matches))
            .collect()
    }

    fn stream_counts(report: &StreamReport) -> Vec<(Window, u64)> {
        window_counts(&report.windows)
    }

    fn window_counts(windows: &[ClosedWindow]) -> Vec<(Window, u64)> {
        windows.iter().map(|w| (w.window, w.matches)).collect()
    }

    /// The ledger identity: the window over panes `[a, b)` sums `p − a + 1`
    /// cells of each pane `p` with tuples, counted at this close or reused.
    fn assert_ledger_identity(windows: &[ClosedWindow], r: &[Tuple], s: &[Tuple], g: u32) {
        let occupied: BTreeSet<u32> = r.iter().chain(s).map(|t| t.ts / g).collect();
        for w in windows {
            let (a, b) = (w.window.start / g, w.window.end() / g);
            let cells: usize = occupied.range(a..b).map(|&p| (p - a + 1) as usize).sum();
            assert_eq!(
                w.pane_pairs_computed + w.pane_pairs_reused,
                cells,
                "window {:?}",
                w.window
            );
        }
    }

    /// Drive `op` without threads or queues: both streams merged by
    /// timestamp, one tuple per ingest and advance, then the flush.
    fn drive(op: &mut StreamingJoin, r: &[Tuple], s: &[Tuple]) {
        let mut merged: Vec<(Tuple, Side)> = r.iter().map(|&t| (t, Side::R)).collect();
        merged.extend(s.iter().map(|&t| (t, Side::S)));
        merged.sort_by_key(|(t, _)| t.ts);
        for (t, side) in merged {
            op.ingest(t, side);
            op.advance(&mut |_| {});
        }
        op.source_done(Side::R);
        op.source_done(Side::S);
        op.advance(&mut |_| {});
    }

    #[test]
    fn tumbling_stream_equals_batch_oracle() {
        let r = stream(200, 8, 700, 1);
        let s = stream(200, 8, 700, 2);
        let spec = WindowSpec::Tumbling { len_ms: 200 };
        let report = run_replay(cfg(spec), r.clone(), s.clone(), 32);
        assert_eq!(stream_counts(&report), batch_counts(spec, &r, &s));
        assert_eq!(report.late_dropped, 0);
        assert_eq!(report.final_watermark_ms, WM_END);
        assert_eq!(report.count_marks(MARK_STREAM_CLOSE), report.windows.len());
        assert!(report.count_marks(MARK_STREAM_INGEST) >= 1);
    }

    #[test]
    fn sliding_stream_equals_batch_oracle_with_and_without_sharing() {
        let r = stream(250, 8, 800, 3);
        let s = stream(250, 8, 800, 4);
        let spec = WindowSpec::Sliding {
            len_ms: 300,
            slide_ms: 100,
        };
        let expect = batch_counts(spec, &r, &s);
        // NPJ runs once per pane pair; PRJ partitions each pane once.
        for engine in [Algorithm::Npj, Algorithm::Prj] {
            let sc = StreamConfig::new(spec, engine)
                .run_config(RunConfig::with_threads(2))
                .tick_every_ms(0.0);
            let shared = run_replay(sc.clone(), r.clone(), s.clone(), 32);
            let naive = run_replay(sc.share_panes(false), r.clone(), s.clone(), 32);
            assert_eq!(stream_counts(&shared), expect, "{engine}");
            assert_eq!(stream_counts(&naive), expect, "{engine}");
            // Pane sharing recombination: Σ per-window == Σ cells × mult.
            assert_eq!(
                shared.matches_via_multiplicity,
                Some(shared.matches),
                "{engine}"
            );
            assert_eq!(naive.matches_via_multiplicity, None, "{engine}");
            // Each cell is counted once, when its later pane completes,
            // and read again by every later window holding both panes.
            assert!(shared.windows.iter().any(|w| w.pane_pairs_reused > 0));
            assert_ledger_identity(&shared.windows, &r, &s, 100);
        }
    }

    #[test]
    fn partitioned_close_is_one_dispatch_per_close_with_fresh_panes() {
        // PRJ partitions each completing pane side once, and a close runs
        // partitioning and every cell's joins in one executor dispatch.
        let r = stream(300, 8, 900, 33);
        let s = stream(300, 8, 900, 34);
        let spec = WindowSpec::Sliding {
            len_ms: 300,
            slide_ms: 100,
        };
        let mut op = StreamingJoin::new(
            StreamConfig::new(spec, Algorithm::Prj)
                .run_config(RunConfig::with_threads(2))
                .tick_every_ms(0.0),
        );
        drive(&mut op, &r, &s);
        assert_eq!(window_counts(&op.windows), batch_counts(spec, &r, &s));
        let with_fresh = op
            .windows
            .iter()
            .filter(|w| w.pane_pairs_computed > 0)
            .count();
        assert!(with_fresh >= 7, "{with_fresh} closes completed panes");
        assert_eq!(op.exec.count_marks(MARK_EXEC_DISPATCH), with_fresh);
        assert_eq!(op.engine_runs, 9, "one join pass per pane");
        // len/slide = 3: after the first, a close by watermark completes
        // one pane, counts its 3 cells and reuses the 3 of the panes before.
        let by_watermark = op
            .windows
            .iter()
            .filter(|w| w.window.start > 0 && !w.flushed_at_end());
        for w in by_watermark {
            assert_eq!((w.pane_pairs_computed, w.pane_pairs_reused), (3, 3));
        }
        assert_ledger_identity(&op.windows, &r, &s, 100);
    }

    #[test]
    fn recombination_holds_at_the_top_of_the_timestamp_range() {
        // The last pane overhangs `Ts::MAX`: its top corner used to wrap
        // to a small stamp, so `pair_multiplicity` returned 0 for its
        // cells. Panes of 3·10^8 ms keep the window count small.
        let g = 300_000_000u32;
        let near_top = |seed: u64| -> Vec<Tuple> {
            let mut v = stream(120, 6, 3 * g, seed);
            v.iter_mut().for_each(|t| t.ts += Ts::MAX - 3 * g);
            v.push(Tuple::new(1, Ts::MAX));
            v
        };
        let (r, s) = (near_top(35), near_top(36));
        let specs = [
            WindowSpec::Tumbling { len_ms: g },
            WindowSpec::Sliding {
                len_ms: 2 * g,
                slide_ms: g,
            },
        ];
        for spec in specs {
            for engine in [Algorithm::Npj, Algorithm::Prj, Algorithm::Ibwj] {
                let sc = StreamConfig::new(spec, engine)
                    .run_config(RunConfig::with_threads(2))
                    .tick_every_ms(0.0);
                let report = run_replay(sc, r.clone(), s.clone(), 32);
                let ctx = format!("{spec:?} {engine}");
                assert_eq!(
                    report.matches_via_multiplicity,
                    Some(report.matches),
                    "{ctx}"
                );
                let windows: Vec<Window> = report.windows.iter().map(|w| w.window).collect();
                assert_eq!(windows, windows_for(spec, &r, &s), "{ctx}");
                // Brute force in u64: a window's end may overhang the range.
                for w in &report.windows {
                    let inside = |t: &&Tuple| {
                        let (ts, start) = (t.ts as u64, w.window.start as u64);
                        ts >= start && ts < start + w.window.len_ms as u64
                    };
                    let want: u64 = r
                        .iter()
                        .filter(inside)
                        .map(|a| s.iter().filter(inside).filter(|b| b.key == a.key).count() as u64)
                        .sum();
                    assert_eq!(w.matches, want, "{ctx} window {:?}", w.window);
                }
                assert!(report.windows.last().unwrap().matches > 0, "{ctx}");
            }
        }
    }

    #[test]
    fn session_stream_equals_batch_oracle() {
        // Two bursts separated by silence, like the windowing tests.
        let mk = |base: u32, seed: u64| -> Vec<Tuple> {
            let mut v = stream(60, 5, 40, seed);
            v.iter_mut().for_each(|t| t.ts += base);
            v
        };
        let mut r = mk(0, 5);
        r.extend(mk(600, 6));
        let mut s = mk(2, 7);
        s.extend(mk(602, 8));
        let spec = WindowSpec::Session { gap_ms: 200 };
        let report = run_replay(cfg(spec), r.clone(), s.clone(), 16);
        assert_eq!(stream_counts(&report), batch_counts(spec, &r, &s));
        assert_eq!(report.matches_via_multiplicity, Some(report.matches));
    }

    #[test]
    fn bounded_shuffle_within_lateness_drops_nothing() {
        let r = stream(200, 8, 600, 9);
        let s = stream(200, 8, 600, 10);
        let spec = WindowSpec::Sliding {
            len_ms: 200,
            slide_ms: 100,
        };
        let jr = iawj_datagen::jitter_arrival_order(&r, 50, 21);
        let js = iawj_datagen::jitter_arrival_order(&s, 50, 22);
        let report = run_replay(cfg(spec).lateness(50), jr, js, 32);
        assert_eq!(report.late_dropped, 0);
        assert_eq!(stream_counts(&report), batch_counts(spec, &r, &s));
    }

    #[test]
    fn tuples_behind_the_watermark_are_dropped_and_counted() {
        // In-order run with zero lateness, then inject one stale tuple. By
        // the time `run_replay` sends it, all but a queue's worth of the
        // earlier S tuples are ingested, so the watermark is past ts 0.
        let mut r = stream(100, 4, 400, 11);
        r.push(Tuple::new(1, 0)); // arrives last, 400 ms stale
        let s = stream(100, 4, 400, 12);
        let spec = WindowSpec::Tumbling { len_ms: 100 };
        let report = run_replay(cfg(spec), r, s, 16);
        assert_eq!(report.late_dropped, 1);
        assert_eq!(report.count_marks(MARK_STREAM_LATE), 1);
    }

    #[test]
    fn panes_are_evicted_after_their_last_window() {
        // Resident state is bounded by the watermark lag — inter-source
        // skew plus the panes a window covers — not by stream length.
        // `run_replay`'s single pusher bounds the skew to the queue
        // capacities, so over 200 panes of stream the operator must hold
        // only a handful at a time.
        let r = stream(4000, 8, 20_000, 13);
        let s = stream(4000, 8, 20_000, 14);
        let spec = WindowSpec::Sliding {
            len_ms: 300,
            slide_ms: 100,
        };
        let report = run_replay(cfg(spec), r, s, 8);
        assert!(
            report.peak_resident_panes <= 40,
            "resident panes grew with stream length: {} of 200",
            report.peak_resident_panes
        );
        assert_eq!(report.final_watermark_ms, WM_END);
    }

    #[test]
    fn empty_streams_flush_the_zero_window() {
        // `windows_for` realizes one empty window over empty streams for
        // tumbling/sliding and none for sessions; the flush must agree.
        let spec = WindowSpec::Tumbling { len_ms: 100 };
        let report = run_replay(cfg(spec), Vec::new(), Vec::new(), 4);
        assert_eq!(stream_counts(&report), batch_counts(spec, &[], &[]));
        let sess = run_replay(
            cfg(WindowSpec::Session { gap_ms: 50 }),
            Vec::new(),
            Vec::new(),
            4,
        );
        assert!(sess.windows.is_empty());
        assert!(windows_for(WindowSpec::Session { gap_ms: 50 }, &[], &[]).is_empty());
    }

    #[test]
    fn lateness_larger_than_first_timestamps_drops_nothing() {
        // Regression: the watermark is `max_ts - allowed_lateness_ms`
        // computed with saturating_sub. An allowed lateness larger than
        // the earliest timestamps must clamp the watermark to 0 — a
        // wrapping subtraction would put it near u64::MAX and mark every
        // early tuple late.
        let r = stream(100, 6, 300, 19);
        let s = stream(100, 6, 300, 20);
        let spec = WindowSpec::Tumbling { len_ms: 100 };
        let report = run_replay(cfg(spec).lateness(10_000), r.clone(), s.clone(), 16);
        assert_eq!(report.late_dropped, 0);
        assert_eq!(report.count_marks(MARK_STREAM_LATE), 0);
        assert_eq!(stream_counts(&report), batch_counts(spec, &r, &s));
    }

    #[test]
    fn index_engines_maintain_state_across_closes() {
        // The persistent-index path must reproduce the batch oracle over
        // overlapping sliding windows while indexing each tuple once at
        // ingest, probing each pane once when it completes, and evicting
        // with the panes.
        let spec = WindowSpec::Sliding {
            len_ms: 300,
            slide_ms: 100,
        };
        let r = stream(300, 8, 900, 23);
        let s = stream(300, 8, 900, 24);
        let expect = batch_counts(spec, &r, &s);
        let mut panes: Vec<u32> = r.iter().chain(&s).map(|t| t.ts / 100).collect();
        panes.sort_unstable();
        panes.dedup();
        for engine in [Algorithm::Ibwj, Algorithm::IbwjPart] {
            let sc = StreamConfig::new(spec, engine)
                .run_config(RunConfig::with_threads(2))
                .tick_every_ms(0.0);
            let report = run_replay(sc, r.clone(), s.clone(), 32);
            assert_eq!(stream_counts(&report), expect, "{engine}");
            assert!(report.count_marks(MARK_INDEX_INSERT) >= 1, "{engine}");
            assert!(report.count_marks(MARK_INDEX_EVICT) >= 1, "{engine}");
            // Pane-pair recombination: Σ per-window == Σ cells × mult.
            assert_eq!(
                report.matches_via_multiplicity,
                Some(report.matches),
                "{engine}"
            );
            // One probe round per non-empty pane. A window of three panes
            // reads six cells; after the first, a close by watermark counts
            // the three of its newest pane and reuses the rest.
            assert_eq!(report.engine_runs, panes.len() as u64, "{engine}");
            let by_watermark = report
                .windows
                .iter()
                .filter(|w| w.window.start > 0 && !w.flushed_at_end());
            for w in by_watermark {
                assert_eq!(w.pane_pairs_computed + w.pane_pairs_reused, 6, "{engine}");
                assert_eq!(w.pane_pairs_computed, 3, "{engine}");
            }
        }
    }

    #[test]
    fn index_engines_tolerate_bounded_out_of_order_arrival() {
        let r = stream(200, 8, 600, 25);
        let s = stream(200, 8, 600, 26);
        let spec = WindowSpec::Sliding {
            len_ms: 200,
            slide_ms: 100,
        };
        let jr = iawj_datagen::jitter_arrival_order(&r, 50, 31);
        let js = iawj_datagen::jitter_arrival_order(&s, 50, 32);
        for engine in [Algorithm::Ibwj, Algorithm::IbwjPart] {
            let sc = StreamConfig::new(spec, engine)
                .run_config(RunConfig::with_threads(2))
                .tick_every_ms(0.0)
                .lateness(50);
            let report = run_replay(sc, jr.clone(), js.clone(), 32);
            assert_eq!(report.late_dropped, 0, "{engine}");
            assert_eq!(
                stream_counts(&report),
                batch_counts(spec, &r, &s),
                "{engine}"
            );
        }
    }

    #[test]
    fn partitioned_index_rebalances_under_skew() {
        // 90% of the probe side on one key concentrates one sub-index
        // partition; the histogram trigger must fire and re-balance
        // partition ownership without changing the match set.
        let mut rng = Rng::new(27);
        let mut r: Vec<Tuple> = (0..400)
            .map(|i| {
                let key = if i % 10 == 0 { rng.next_u32() % 64 } else { 7 };
                Tuple::new(key, rng.below(600) as u32)
            })
            .collect();
        r.sort_unstable_by_key(|t| t.ts);
        let s = stream(400, 64, 600, 28);
        let spec = WindowSpec::Tumbling { len_ms: 200 };
        let sc = StreamConfig::new(spec, Algorithm::IbwjPart)
            .run_config(RunConfig::with_threads(2))
            .tick_every_ms(0.0);
        let report = run_replay(sc, r.clone(), s.clone(), 32);
        assert_eq!(stream_counts(&report), batch_counts(spec, &r, &s));
        assert!(
            report.count_marks(MARK_INDEX_REPART) >= 1,
            "skewed probe load never triggered a repartition"
        );
    }

    #[test]
    fn final_tick_is_always_emitted() {
        let r = stream(50, 4, 200, 15);
        let s = stream(50, 4, 200, 16);
        let report = run_replay(
            cfg(WindowSpec::Tumbling { len_ms: 100 }).tick_every_ms(1000.0),
            r,
            s,
            16,
        );
        assert!(!report.ticks.is_empty());
        let last = report.ticks.last().unwrap();
        assert_eq!(last.watermark_ms, WM_END);
        assert_eq!(last.ingested, report.ingested_r + report.ingested_s);
    }
}
