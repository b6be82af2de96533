//! The evictable window index behind the IBWJ engine family.
//!
//! A hash index over `(key, ts)` tuples that — unlike the append-only
//! tables of [`crate::hashtable`] — supports removing tuples as they leave
//! the window ([`WindowIndex::evict_before`]). It stores them on the same
//! 64-byte lines as [`crate::BucketTable`]: a fill count, an overflow link
//! and 7 tuples inline, so a probe of a short chain touches one cache line
//! and a batched pipeline can prefetch it. Eviction packs each chain's
//! surviving tuples into its first lines and puts the emptied overflow
//! lines on a free list of lines, which later inserts reuse, so the
//! footprint tracks the *peak resident* window content rather than the
//! whole stream's history: the property that makes an index-based engine
//! viable on an unbounded stream.
//!
//! The batched probe pipeline of PR 8 is supported through the same
//! `mask` / `prefetch_bucket` / `insert_at` / `probe_at` surface as the
//! other tables, so engines derive bucket indices 8 keys at a time with
//! [`iawj_common::kernel::tuple_buckets_into`] and software-prefetch head
//! lines ahead of the walk.
//!
//! ## Concurrency contract
//!
//! The index itself is single-writer: all mutation (`insert`,
//! `evict_before`) happens on one thread at a time. Concurrent *probing*
//! is safe by construction — `&WindowIndex` has no interior mutability, so
//! any number of workers may probe shared references in parallel, and the
//! executor's dispatch/join edges (or a barrier) provide the
//! happens-before ordering between a maintenance phase and the probe
//! phase that follows it. This is the same build-then-probe argument NPJ
//! relies on, applied to an index that lives across many probe phases.
//! Sharded multi-writer use wraps shards in a `Mutex` (see the IBWJ_PART
//! engine), keeping this type free of unsafe code.

use crate::hashtable::{Line, SLOTS};
use iawj_common::hash::{bucket_of, next_pow2_at_least};
use iawj_common::{prefetch_read, Key, Ts, Tuple};

/// An evictable single-writer, multi-reader hash index over window
/// content. See the module docs for the concurrency contract.
///
/// Lines are named by id as in [`crate::BucketTable`]: `0..heads` are the
/// heads a key hashes to, and overflow line `heads + i` is `overflow[i]`.
/// The insert rule is `BucketTable`'s: head, then first overflow line, else
/// a fresh line linked in between.
#[derive(Debug)]
pub struct WindowIndex {
    mask: u64,
    heads: Vec<Line>,
    overflow: Vec<Line>,
    /// First line of the free list threaded through `next`; 0 when empty
    /// (id 0 is a head, never freed).
    free: u32,
    /// Tuples currently resident.
    live: usize,
}

impl WindowIndex {
    /// Index sized for roughly `expected` resident tuples: one head line
    /// per 7, rounded up to a power of two.
    pub fn with_capacity(expected: usize) -> Self {
        let heads = next_pow2_at_least(expected / SLOTS, 1);
        WindowIndex {
            mask: heads as u64 - 1,
            heads: vec![Line::EMPTY; heads],
            overflow: Vec::new(),
            free: 0,
            live: 0,
        }
    }

    /// Number of resident (non-evicted) tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no tuples are resident.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Approximate heap footprint: every head and overflow line allocated
    /// so far, free-listed ones included, 64 bytes each.
    pub fn bytes(&self) -> usize {
        (self.heads.len() + self.overflow.len()) * std::mem::size_of::<Line>()
    }

    /// The power-of-two bucket mask, for batched bucket derivation
    /// (`iawj_common::kernel::tuple_buckets_into`).
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Hint-prefetch the head line of bucket `b` ahead of an
    /// [`WindowIndex::insert_at`]/[`WindowIndex::probe_at`] at distance.
    #[inline]
    pub fn prefetch_bucket(&self, b: usize) {
        if let Some(h) = self.heads.get(b) {
            prefetch_read(h);
        }
    }

    /// Insert a tuple, doubling the head lines once there are 7 resident
    /// tuples per head (amortized O(1); chains stay short no matter how
    /// far the resident set outgrows the initial capacity hint). Only
    /// this self-bucketing path rehashes — [`WindowIndex::insert_at`]
    /// trusts the caller's bucket indices, so batched pipelines derive
    /// them against a [`WindowIndex::mask`] that is stable for the whole
    /// batch.
    #[inline]
    pub fn insert(&mut self, key: Key, ts: Ts) {
        if self.live >= SLOTS * self.heads.len() {
            self.grow();
        }
        self.insert_at(bucket_of(key, self.mask), key, ts);
    }

    /// Rehash every resident tuple into twice the head lines. The old
    /// overflow lines, free-listed ones included, are dropped with the old
    /// layout.
    fn grow(&mut self) {
        let heads = self.heads.len() * 2;
        let old = std::mem::replace(self, WindowIndex::with_capacity(heads * SLOTS));
        for b in 0..old.heads.len() {
            old.scan(b, |t| {
                self.insert_at(bucket_of(t.key, self.mask), t.key, t.ts)
            });
        }
    }

    /// [`WindowIndex::insert`] with the bucket index already derived
    /// (batched pipelines).
    #[inline]
    pub fn insert_at(&mut self, b: usize, key: Key, ts: Ts) {
        let mut dest = b;
        if self.heads[b].count as usize == SLOTS {
            let first = self.heads[b].next;
            dest = first as usize;
            if first == 0 || self.line(dest).count as usize == SLOTS {
                dest = self.fresh(first);
                self.heads[b].next = dest as u32;
            }
        }
        let line = self.line_mut(dest);
        line.slots[line.count as usize] = Tuple::new(key, ts);
        line.count += 1;
        self.live += 1;
    }

    /// Visit the timestamp of every resident tuple with `key`.
    #[inline]
    pub fn probe(&self, key: Key, f: impl FnMut(Ts)) {
        self.probe_at(bucket_of(key, self.mask), key, f);
    }

    /// [`WindowIndex::probe`] with the bucket index already derived
    /// (batched pipelines).
    #[inline]
    pub fn probe_at(&self, b: usize, key: Key, mut f: impl FnMut(Ts)) {
        self.scan(b, |t| {
            if t.key == key {
                f(t.ts);
            }
        });
    }

    /// Visit the timestamp of every resident tuple with `key` whose ts
    /// lies in `[lo, hi)` — the range filter of a windowed probe against
    /// an index that also holds content beyond the probed window.
    #[inline]
    pub fn probe_range_at(&self, b: usize, key: Key, lo: Ts, hi: Ts, mut f: impl FnMut(Ts)) {
        self.probe_at(b, key, |ts| {
            if ts >= lo && ts < hi {
                f(ts);
            }
        });
    }

    /// Drop every tuple with `ts < horizon`: each chain's survivors are
    /// packed into its first lines, and the overflow lines this empties go
    /// on the free list. Returns how many tuples were evicted. O(resident +
    /// buckets); meant to run at window-close cadence, not per tuple.
    pub fn evict_before(&mut self, horizon: Ts) -> usize {
        let before = self.live;
        for b in 0..self.heads.len() {
            self.compact(b, horizon);
        }
        before - self.live
    }

    /// Count resident tuples with `key` (tests and diagnostics).
    pub fn count(&self, key: Key) -> usize {
        let mut n = 0;
        self.probe(key, |_| n += 1);
        n
    }

    /// Lines in bucket `b`'s chain, head included (tests and diagnostics).
    /// Right after [`WindowIndex::evict_before`] a chain of `n` tuples
    /// holds exactly `max(1, ceil(n / 7))`.
    pub fn chain_lines(&self, b: usize) -> usize {
        let mut lines = 1;
        let mut id = self.heads[b].next;
        while id != 0 {
            lines += 1;
            id = self.line(id as usize).next;
        }
        lines
    }

    /// Call `f` with every tuple of chain `b`.
    #[inline]
    fn scan(&self, b: usize, mut f: impl FnMut(&Tuple)) {
        let mut line = &self.heads[b];
        loop {
            // Start on the next line's miss before working through this one.
            let following = (line.next != 0).then(|| self.line(line.next as usize));
            if let Some(next) = following {
                prefetch_read(next);
            }
            line.slots[..line.count as usize].iter().for_each(&mut f);
            let Some(next) = following else { return };
            line = next;
        }
    }

    /// Pack chain `b`'s tuples with `ts >= horizon` into its first lines,
    /// full but for the last, and free the lines behind them. The write
    /// cursor never passes the read cursor, so packing works in place.
    fn compact(&mut self, b: usize, horizon: Ts) {
        let (mut write, mut filled) = (b, 0);
        let mut read = b;
        loop {
            // A copy: the write cursor may be on this very line.
            let line = *self.line(read);
            for &t in &line.slots[..line.count as usize] {
                if t.ts < horizon {
                    self.live -= 1;
                    continue;
                }
                if filled == SLOTS {
                    let full = self.line_mut(write);
                    full.count = SLOTS as u32;
                    (write, filled) = (full.next as usize, 0);
                }
                self.line_mut(write).slots[filled] = t;
                filled += 1;
            }
            if line.next == 0 {
                break;
            }
            read = line.next as usize;
        }
        let last = self.line_mut(write);
        last.count = filled as u32;
        let mut spare = std::mem::take(&mut last.next);
        while spare != 0 {
            let free = self.free;
            let line = self.line_mut(spare as usize);
            let next = std::mem::replace(&mut line.next, free);
            self.free = spare;
            spare = next;
        }
    }

    /// An empty overflow line linked to `next`, off the free list if it
    /// has one; returns its id.
    fn fresh(&mut self, next: u32) -> usize {
        let id = if self.free != 0 {
            let id = self.free as usize;
            self.free = self.line(id).next;
            id
        } else {
            let id = self.heads.len() + self.overflow.len();
            assert!(u32::try_from(id).is_ok(), "line ids exceed u32 chain links");
            self.overflow.push(Line::EMPTY);
            id
        };
        *self.line_mut(id) = Line {
            next,
            ..Line::EMPTY
        };
        id
    }

    #[inline]
    fn line(&self, id: usize) -> &Line {
        match id.checked_sub(self.heads.len()) {
            None => &self.heads[id],
            Some(i) => &self.overflow[i],
        }
    }

    #[inline]
    fn line_mut(&mut self, id: usize) -> &mut Line {
        match id.checked_sub(self.heads.len()) {
            None => &mut self.heads[id],
            Some(i) => &mut self.overflow[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_probe_roundtrip() {
        let mut ix = WindowIndex::with_capacity(8);
        for i in 0..100u32 {
            ix.insert(i % 10, i);
        }
        assert_eq!(ix.len(), 100);
        assert_eq!(ix.count(3), 10);
        let mut got = Vec::new();
        ix.probe(7, |ts| got.push(ts));
        got.sort_unstable();
        assert_eq!(got, vec![7, 17, 27, 37, 47, 57, 67, 77, 87, 97]);
    }

    #[test]
    fn eviction_packs_chains_and_reuses_lines() {
        // One key, so one chain: 100 tuples fill 15 lines.
        let mut ix = WindowIndex::with_capacity(8);
        for i in 0..100u32 {
            ix.insert(3, i);
        }
        let b = bucket_of(3, ix.mask());
        assert_eq!(ix.chain_lines(b), 15);
        let footprint = ix.bytes();
        assert_eq!(ix.evict_before(50), 50);
        assert_eq!(ix.len(), 50);
        assert_eq!(ix.count(3), 50, "ts 0..50 evicted");
        assert_eq!(ix.chain_lines(b), 8, "50 survivors packed into 8 lines");
        // Freed lines are recycled: the 7 fresh lines 49 more tuples take
        // come off the free list, so the footprint must not grow.
        for i in 100..149u32 {
            ix.insert(3, i);
        }
        assert_eq!(ix.bytes(), footprint, "the free list reuses lines");
        assert_eq!(ix.len(), 99);
        // Evicting everything empties the index but keeps it usable.
        assert_eq!(ix.evict_before(1000), 99);
        assert!(ix.is_empty());
        assert_eq!(ix.chain_lines(b), 1);
        ix.insert(1, 1);
        assert_eq!(ix.count(1), 1);
    }

    #[test]
    fn evict_below_everything_is_a_noop() {
        let mut ix = WindowIndex::with_capacity(4);
        ix.insert(1, 10);
        ix.insert(2, 20);
        assert_eq!(ix.evict_before(0), 0);
        assert_eq!(ix.evict_before(10), 0, "horizon is exclusive");
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn range_probe_filters_both_ends() {
        let mut ix = WindowIndex::with_capacity(8);
        for ts in [5u32, 10, 15, 20, 25] {
            ix.insert(9, ts);
        }
        let b = bucket_of(9, ix.mask());
        let mut got = Vec::new();
        ix.probe_range_at(b, 9, 10, 25, |ts| got.push(ts));
        got.sort_unstable();
        assert_eq!(got, vec![10, 15, 20], "lo inclusive, hi exclusive");
    }

    #[test]
    fn batched_surface_agrees_with_scalar() {
        use iawj_common::kernel::tuple_buckets_into;
        use iawj_common::KernelBackend;
        let tuples: Vec<Tuple> = (0..300).map(|i| Tuple::new(i * 7 % 31, i)).collect();
        let mut scalar = WindowIndex::with_capacity(tuples.len());
        let mut batched = WindowIndex::with_capacity(tuples.len());
        for t in &tuples {
            scalar.insert(t.key, t.ts);
        }
        let mut buckets = Vec::new();
        tuple_buckets_into(KernelBackend::Scalar, &tuples, batched.mask(), &mut buckets);
        for (i, t) in tuples.iter().enumerate() {
            if let Some(&ahead) = buckets.get(i + 4) {
                batched.prefetch_bucket(ahead);
            }
            batched.insert_at(buckets[i], t.key, t.ts);
        }
        for key in 0..31 {
            assert_eq!(scalar.count(key), batched.count(key), "key {key}");
        }
    }

    #[test]
    fn growth_keeps_chains_short_and_content_exact() {
        // Outgrow a tiny capacity hint 1000x: the head lines must keep
        // pace (at most 7 tuples per head) and every tuple must stay
        // probeable.
        let mut ix = WindowIndex::with_capacity(8);
        for i in 0..16_000u32 {
            ix.insert(i % 40, i);
        }
        assert_eq!(ix.len(), 16_000);
        let heads = ix.mask() as usize + 1;
        assert!(heads * SLOTS >= 16_000, "heads did not grow: {heads}");
        for key in 0..40 {
            assert_eq!(ix.count(key), 400, "key {key}");
        }
        // Growth must not disturb eviction or line reuse.
        assert_eq!(ix.evict_before(8_000), 8_000);
        let footprint = ix.bytes();
        for i in 16_000..20_000u32 {
            ix.insert(i % 40, i);
        }
        assert_eq!(ix.bytes(), footprint, "the free list reuses lines");
        assert_eq!(ix.len(), 12_000);
    }

    #[test]
    fn interleaved_evict_insert_stays_exact() {
        // Differential check against a naive Vec model under a random
        // insert/evict schedule.
        let mut ix = WindowIndex::with_capacity(4);
        let mut model: Vec<(Key, Ts)> = Vec::new();
        let mut state = 0x2545F491u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ts = 0u32;
        for _ in 0..2000 {
            if rng() % 4 == 0 && ts > 20 {
                let horizon = ts - 20;
                let expect = model.iter().filter(|(_, t)| *t < horizon).count();
                assert_eq!(ix.evict_before(horizon), expect);
                model.retain(|(_, t)| *t >= horizon);
            } else {
                let key = (rng() % 13) as Key;
                ix.insert(key, ts);
                model.push((key, ts));
                ts += (rng() % 3) as u32;
            }
        }
        assert_eq!(ix.len(), model.len());
        for key in 0..13 {
            let expect = model.iter().filter(|(k, _)| *k == key).count();
            assert_eq!(ix.count(key), expect, "key {key}");
        }
    }
}
