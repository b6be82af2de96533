//! The evictable window index behind the IBWJ engine family.
//!
//! A bucket-chain hash index over `(key, ts)` entries that — unlike
//! [`crate::LocalTable`], whose arena is append-only — supports removing
//! entries as they leave the window ([`WindowIndex::evict_before`]).
//! Evicted slots go on a free list and are reused by later inserts, so the
//! arena's footprint tracks the *peak resident* window content rather than
//! the whole stream's history: the property that makes an index-based
//! engine viable on an unbounded stream.
//!
//! The batched probe pipeline of PR 8 is supported through the same
//! `mask` / `prefetch_bucket` / `insert_at` / `probe_at` surface as the
//! other tables, so engines derive bucket indices 8 keys at a time with
//! [`iawj_common::kernel::tuple_buckets_into`] and software-prefetch chain
//! heads ahead of the walk.
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

use iawj_common::hash::{bucket_of, next_pow2_at_least};
use iawj_common::{prefetch_read, Key, Ts};

/// Chain terminator / free-list terminator.
const NIL: i32 = -1;

#[derive(Clone, Copy, Debug)]
struct Entry {
    key: Key,
    ts: Ts,
    next: i32,
}

/// An evictable single-writer, multi-reader hash index over window
/// content. See the module docs for the concurrency contract.
#[derive(Debug)]
pub struct WindowIndex {
    mask: u64,
    heads: Vec<i32>,
    entries: Vec<Entry>,
    /// Head of the free list threaded through `entries[..].next`.
    free: i32,
    /// Entries currently linked into a bucket chain.
    live: usize,
}

impl WindowIndex {
    /// Index sized for roughly `expected` resident entries (2× buckets,
    /// minimum 16).
    pub fn with_capacity(expected: usize) -> Self {
        let buckets = next_pow2_at_least(expected * 2, 16);
        WindowIndex {
            mask: buckets as u64 - 1,
            heads: vec![NIL; buckets],
            entries: Vec::with_capacity(expected),
            free: NIL,
            live: 0,
        }
    }

    /// Number of resident (non-evicted) entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.heads.capacity() * std::mem::size_of::<i32>()
            + self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    /// The power-of-two bucket mask, for batched bucket derivation
    /// (`iawj_common::kernel::tuple_buckets_into`).
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Hint-prefetch the chain head of bucket `b` ahead of an
    /// [`WindowIndex::insert_at`]/[`WindowIndex::probe_at`] at distance.
    #[inline]
    pub fn prefetch_bucket(&self, b: usize) {
        if let Some(h) = self.heads.get(b) {
            prefetch_read(h);
        }
    }

    /// Insert an entry, doubling the bucket array whenever the load
    /// factor reaches 1 (amortized O(1); chains stay short no matter how
    /// far the resident set outgrows the initial capacity hint). Only
    /// this self-bucketing path rehashes — [`WindowIndex::insert_at`]
    /// trusts the caller's bucket indices, so batched pipelines derive
    /// them against a [`WindowIndex::mask`] that is stable for the whole
    /// batch.
    #[inline]
    pub fn insert(&mut self, key: Key, ts: Ts) {
        if self.live >= self.heads.len() {
            self.grow();
        }
        self.insert_at(bucket_of(key, self.mask), key, ts);
    }

    /// Double the bucket array and relink every resident entry.
    /// O(resident + buckets); free-listed slots are unreachable from any
    /// head, so exactly the live entries move.
    fn grow(&mut self) {
        let buckets = self.heads.len() * 2;
        let mask = buckets as u64 - 1;
        let mut heads = vec![NIL; buckets];
        for b in 0..self.heads.len() {
            let mut cur = self.heads[b];
            while cur != NIL {
                let next = self.entries[cur as usize].next;
                let nb = bucket_of(self.entries[cur as usize].key, mask);
                self.entries[cur as usize].next = heads[nb];
                heads[nb] = cur;
                cur = next;
            }
        }
        self.heads = heads;
        self.mask = mask;
    }

    /// [`WindowIndex::insert`] with the bucket index already derived
    /// (batched pipelines).
    #[inline]
    pub fn insert_at(&mut self, b: usize, key: Key, ts: Ts) {
        let slot = if self.free != NIL {
            let slot = self.free as usize;
            self.free = self.entries[slot].next;
            slot
        } else {
            self.entries.push(Entry {
                key: 0,
                ts: 0,
                next: NIL,
            });
            self.entries.len() - 1
        };
        self.entries[slot] = Entry {
            key,
            ts,
            next: self.heads[b],
        };
        self.heads[b] = slot as i32;
        self.live += 1;
    }

    /// Visit the timestamp of every resident entry with `key`.
    #[inline]
    pub fn probe(&self, key: Key, f: impl FnMut(Ts)) {
        self.probe_at(bucket_of(key, self.mask), key, f);
    }

    /// [`WindowIndex::probe`] with the bucket index already derived
    /// (batched pipelines).
    #[inline]
    pub fn probe_at(&self, b: usize, key: Key, mut f: impl FnMut(Ts)) {
        let mut cur = self.heads[b];
        while cur != NIL {
            let e = &self.entries[cur as usize];
            if e.key == key {
                f(e.ts);
            }
            cur = e.next;
        }
    }

    /// Visit the timestamp of every resident entry with `key` whose ts
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

    /// Unlink every entry with `ts < horizon` and recycle its slot.
    /// Returns how many entries were evicted. O(resident + buckets); meant
    /// to run at window-close cadence, not per tuple.
    pub fn evict_before(&mut self, horizon: Ts) -> usize {
        let mut evicted = 0usize;
        for b in 0..self.heads.len() {
            let mut cur = self.heads[b];
            let mut prev = NIL;
            while cur != NIL {
                let next = self.entries[cur as usize].next;
                if self.entries[cur as usize].ts < horizon {
                    if prev == NIL {
                        self.heads[b] = next;
                    } else {
                        self.entries[prev as usize].next = next;
                    }
                    self.entries[cur as usize].next = self.free;
                    self.free = cur;
                    evicted += 1;
                } else {
                    prev = cur;
                }
                cur = next;
            }
        }
        self.live -= evicted;
        evicted
    }

    /// Count resident entries with `key` (tests and diagnostics).
    pub fn count(&self, key: Key) -> usize {
        let mut n = 0;
        self.probe(key, |_| n += 1);
        n
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
    fn eviction_unlinks_and_reuses_slots() {
        let mut ix = WindowIndex::with_capacity(8);
        for i in 0..100u32 {
            ix.insert(i % 10, i);
        }
        let arena_before = ix.entries.len();
        assert_eq!(ix.evict_before(50), 50);
        assert_eq!(ix.len(), 50);
        assert_eq!(ix.count(3), 5, "ts 3,13,23,33,43 evicted");
        // Freed slots are recycled: the arena must not grow.
        for i in 100..150u32 {
            ix.insert(i % 10, i);
        }
        assert_eq!(ix.entries.len(), arena_before, "free list reuses slots");
        assert_eq!(ix.len(), 100);
        // Evicting everything empties the index but keeps it usable.
        assert_eq!(ix.evict_before(1000), 100);
        assert!(ix.is_empty());
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
        use iawj_common::{KernelBackend, Tuple};
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
        // Outgrow a tiny capacity hint 1000x: the bucket array must keep
        // pace (load factor <= 1) and every entry must stay probeable.
        let mut ix = WindowIndex::with_capacity(8);
        for i in 0..16_000u32 {
            ix.insert(i % 40, i);
        }
        assert_eq!(ix.len(), 16_000);
        assert!(
            ix.heads.len() >= 16_000,
            "bucket array did not grow: {} buckets",
            ix.heads.len()
        );
        for key in 0..40 {
            assert_eq!(ix.count(key), 400, "key {key}");
        }
        // Growth must not disturb eviction or slot reuse.
        assert_eq!(ix.evict_before(8_000), 8_000);
        let arena = ix.entries.len();
        for i in 16_000..20_000u32 {
            ix.insert(i % 40, i);
        }
        assert_eq!(ix.entries.len(), arena, "free list reuses slots");
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
