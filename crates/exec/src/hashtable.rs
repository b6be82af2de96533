//! The hash tables of the study.
//!
//! - [`SharedTable`] — NPJ's single shared table: one zeroed arena of
//!   cache-line buckets with latch, count and tuples inline. All threads
//!   insert during the build phase under per-bucket latches; the
//!   concurrent-visit contention on hot buckets is exactly the NPJ
//!   pathology §5.3.2 measures.
//! - [`LocalTable`] — the bucket-chain table of PRJ's per-partition joins.
//!   Single-owner, latch-free, with chained entries in one contiguous arena
//!   so growth never invalidates earlier entries.
//! - [`BucketTable`] — SHJ's two per-thread tables: `SharedTable`'s line
//!   layout without the latch, owned by one worker that builds while it
//!   probes, so a probe of a short chain is one cache line the caller can
//!   prefetch ahead.
//!
//! All derive bucket indices from the shared [`iawj_common::hash_key`]
//! so hash quality never differs across algorithms.

use crate::latch::RawLatch;
use crate::topology::advise_huge_pages;
use iawj_common::hash::{bucket_of, next_pow2_at_least};
use iawj_common::{prefetch_read, Key, Ts, Tuple};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A thread-local chained hash table over `(key, ts)` entries.
///
/// `heads[bucket]` points into `entries`; each entry links to the previous
/// head, so a bucket is a LIFO chain. `-1` terminates a chain.
#[derive(Debug)]
pub struct LocalTable {
    mask: u64,
    heads: Vec<i32>,
    entries: Vec<Entry>,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    key: Key,
    ts: Ts,
    next: i32,
}

impl LocalTable {
    /// Table sized for roughly `expected` entries (2× buckets, min 16).
    pub fn with_capacity(expected: usize) -> Self {
        let buckets = next_pow2_at_least(expected * 2, 16);
        LocalTable {
            mask: buckets as u64 - 1,
            heads: vec![-1; buckets],
            entries: Vec::with_capacity(expected),
        }
    }

    /// Empty the table and size it for roughly `expected` entries, keeping
    /// its allocations: one worker reuses one table across many small
    /// builds.
    pub fn reset(&mut self, expected: usize) {
        let buckets = next_pow2_at_least(expected * 2, 16);
        self.mask = buckets as u64 - 1;
        self.heads.clear();
        self.heads.resize(buckets, -1);
        self.entries.clear();
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate heap footprint in bytes (for the Figure 19b memory gauge).
    pub fn bytes(&self) -> usize {
        self.heads.capacity() * std::mem::size_of::<i32>()
            + self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    /// Insert an entry.
    #[inline]
    pub fn insert(&mut self, key: Key, ts: Ts) {
        let b = bucket_of(key, self.mask);
        let idx = self.entries.len() as i32;
        self.entries.push(Entry {
            key,
            ts,
            next: self.heads[b],
        });
        self.heads[b] = idx;
    }

    /// Call `f(ts)` for every stored entry with this key.
    #[inline]
    pub fn probe(&self, key: Key, mut f: impl FnMut(Ts)) {
        let mut cur = self.heads[bucket_of(key, self.mask)];
        while cur >= 0 {
            let e = &self.entries[cur as usize];
            if e.key == key {
                f(e.ts);
            }
            cur = e.next;
        }
    }

    /// Number of matches for a key (tests, sizing).
    pub fn count(&self, key: Key) -> usize {
        let mut n = 0;
        self.probe(key, |_| n += 1);
        n
    }
}

/// Tuple slots per [`Bucket`] and [`Line`]: what fits a 64-byte line beside
/// the header.
pub(crate) const SLOTS: usize = 7;

/// Expected tuples per head bucket, before the count rounds up to 2^n.
const TUPLES_PER_HEAD: usize = 4;

/// Overflow lines per [`BucketTable`] chunk: 64 KiB, below glibc's initial
/// 128 KiB mmap threshold, so a chunk reuses heap memory an earlier run
/// freed instead of faulting in fresh pages.
const CHUNK_LINES: usize = 1024;
const CHUNK_SHIFT: u32 = CHUNK_LINES.trailing_zeros();

/// One cache line of a [`BucketTable`] or a
/// [`WindowIndex`](crate::WindowIndex): fill count, overflow link and the
/// tuples themselves.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(64))]
pub(crate) struct Line {
    pub(crate) count: u32,
    /// Id of the next line of the chain; 0 ends it (id 0 is a head).
    pub(crate) next: u32,
    pub(crate) slots: [Tuple; SLOTS],
}

const _: () = assert!(std::mem::size_of::<Line>() == 64);

impl Line {
    pub(crate) const EMPTY: Line = Line {
        count: 0,
        next: 0,
        slots: [Tuple::new(0, 0); SLOTS],
    };
}

/// SHJ's single-owner hash table: [`SharedTable`]'s cache-line buckets
/// without latch or `unsafe`. Lines are named by id: `0..heads` are the
/// heads a key hashes to, held in one allocation of exactly that size, and
/// ids from `heads` up are overflow lines, appended in 64 KiB chunks so
/// growth past `expected` never moves a line. (Chunking the heads too
/// measured a higher peak RSS on the eager benchmark; DESIGN §2.) The
/// insert rule is `SharedTable`'s: head, then first overflow line, else a
/// fresh line linked in between, so every line further down a chain is full.
pub struct BucketTable {
    mask: u64,
    heads: Vec<Line>,
    /// Overflow line `heads + i` is `chunks[i >> 10][i & 1023]`; every chunk
    /// but the last holds exactly [`CHUNK_LINES`] lines.
    chunks: Vec<Vec<Line>>,
    overflow: usize,
    len: usize,
}

impl BucketTable {
    /// Table sized for roughly `expected` entries.
    pub fn with_capacity(expected: usize) -> Self {
        let heads = next_pow2_at_least(expected / TUPLES_PER_HEAD, 1);
        BucketTable {
            mask: heads as u64 - 1,
            heads: vec![Line::EMPTY; heads],
            chunks: Vec::new(),
            overflow: 0,
            len: 0,
        }
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint: head plus overflow lines, 64 bytes each.
    pub fn bytes(&self) -> usize {
        (self.heads.len() + self.overflow) * std::mem::size_of::<Line>()
    }

    /// Hint-prefetch the head line `key` hashes to, so that a later
    /// [`Self::insert`] or [`Self::probe`] of it finds the line in cache.
    #[inline]
    pub fn prefetch(&self, key: Key) {
        prefetch_read(&self.heads[bucket_of(key, self.mask)]);
    }

    /// Insert an entry.
    #[inline]
    pub fn insert(&mut self, key: Key, ts: Ts) {
        let head = bucket_of(key, self.mask);
        let mut dest = head;
        if self.heads[head].count as usize == SLOTS {
            let first = self.heads[head].next;
            dest = first as usize;
            if first == 0 || self.line(dest).count as usize == SLOTS {
                dest = self.append(Line {
                    next: first,
                    ..Line::EMPTY
                });
                self.heads[head].next = dest as u32;
            }
        }
        let line = self.line_mut(dest);
        line.slots[line.count as usize] = Tuple::new(key, ts);
        line.count += 1;
        self.len += 1;
    }

    /// Call `f(ts)` for every stored entry with this key.
    #[inline]
    pub fn probe(&self, key: Key, mut f: impl FnMut(Ts)) {
        let mut line = &self.heads[bucket_of(key, self.mask)];
        loop {
            // Start on the next line's miss before working through this one.
            let following = (line.next != 0).then(|| self.line(line.next as usize));
            if let Some(next) = following {
                prefetch_read(next);
            }
            for t in &line.slots[..line.count as usize] {
                if t.key == key {
                    f(t.ts);
                }
            }
            let Some(next) = following else { return };
            line = next;
        }
    }

    #[inline]
    fn line(&self, id: usize) -> &Line {
        match id.checked_sub(self.heads.len()) {
            None => &self.heads[id],
            Some(i) => &self.chunks[i >> CHUNK_SHIFT][i & (CHUNK_LINES - 1)],
        }
    }

    #[inline]
    fn line_mut(&mut self, id: usize) -> &mut Line {
        match id.checked_sub(self.heads.len()) {
            None => &mut self.heads[id],
            Some(i) => &mut self.chunks[i >> CHUNK_SHIFT][i & (CHUNK_LINES - 1)],
        }
    }

    /// Append an overflow line and return its id.
    fn append(&mut self, line: Line) -> usize {
        let id = self.heads.len() + self.overflow;
        assert!(u32::try_from(id).is_ok(), "line ids exceed u32 chain links");
        if self.overflow.is_multiple_of(CHUNK_LINES) {
            self.chunks.push(Vec::with_capacity(CHUNK_LINES));
        }
        self.chunks
            .last_mut()
            .expect("a chunk was pushed")
            .push(line);
        self.overflow += 1;
        id
    }
}

/// One cache line of NPJ's shared table, after the bucket of Balkesen et
/// al.'s no-partitioning join: latch, fill count, overflow link and the
/// tuples themselves, so an access to a short chain touches one line.
/// All-zero bytes are a valid bucket — latch free, no tuples, no overflow —
/// which is what lets the table start life as untouched zero pages.
#[repr(C)]
struct Bucket {
    /// Guards the whole chain; used on head buckets only.
    latch: RawLatch,
    /// Filled prefix of `slots`.
    count: UnsafeCell<u8>,
    /// Id of the next bucket of the chain; 0 ends it (id 0 is a head).
    next: UnsafeCell<u32>,
    slots: UnsafeCell<[Tuple; SLOTS]>,
}

const BUCKET_BYTES: usize = std::mem::size_of::<Bucket>();
const _: () = assert!(BUCKET_BYTES == 64 && SLOTS <= u8::MAX as usize);

/// A run of zeroed, line-aligned buckets that costs nothing until touched.
struct Arena {
    /// Owns the memory `base` points into; never accessed again.
    _words: Vec<u64>,
    base: *const Bucket,
    len: usize,
}

impl Arena {
    /// std's System allocator serves `alloc_zeroed` above 16-byte alignment
    /// as `malloc` + `memset`, which faults every page in on the caller; an
    /// 8-aligned request stays a `calloc` (fresh zero pages, mapped on
    /// first touch), so ask for one line more and align by hand.
    ///
    /// Random head accesses over an arena of tens of MiB miss the TLB on
    /// nearly every access at 4 KiB pages, so the still-untouched arena
    /// asks for huge pages; arenas under 4 MiB keep base pages.
    fn zeroed(len: usize) -> Arena {
        const WORDS: usize = BUCKET_BYTES / std::mem::size_of::<u64>();
        // SAFETY: zero is a valid `u64`.
        let mut words = unsafe { alloc_zeroed_vec::<u64>((len + 1) * WORDS) };
        advise_huge_pages(words.as_ptr().cast(), std::mem::size_of_val(&words[..]));
        let start = words.as_mut_ptr();
        let pad = start.align_offset(BUCKET_BYTES);
        assert!(pad < WORDS, "cannot line-align the bucket arena");
        // SAFETY: `pad` is below the one spare line allocated, so `len`
        // whole buckets fit behind `base`.
        let base = unsafe { start.add(pad) }.cast::<Bucket>();
        Arena {
            _words: words,
            base,
            len,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> &Bucket {
        assert!(i < self.len, "bucket {i} outside an arena of {}", self.len);
        // SAFETY: in bounds per the assert, line-aligned, and zeroed bytes
        // (or whatever latch holders wrote since) are a valid `Bucket`.
        unsafe { &*self.base.add(i) }
    }
}

/// NPJ's shared table: one flat arena of cache-line buckets. Build-phase
/// inserts take the head bucket's latch; probe-phase reads also take it
/// (briefly), which models the access-conflict behaviour of a latched
/// shared table faithfully.
///
/// Buckets are named by id: `0..heads` are the heads a key hashes to, ids
/// from `heads` up are overflow buckets claimed by one `fetch_add`. Ids
/// below `2·heads` share one allocation — enough for any `expected` inserts
/// — which `with_capacity` leaves untouched: each line is faulted in by the
/// worker that first writes it. A table filled past its promise grows
/// segments, the `k`-th (`k ≥ 1`) holding ids `heads·2^k..heads·2^(k+1)`.
pub struct SharedTable {
    mask: u64,
    arena: Arena,
    grown: [OnceLock<Arena>; 32],
    /// The next unclaimed bucket id: heads plus overflow handed out so far.
    claimed: AtomicUsize,
}

// SAFETY: a chain's `count`/`next`/`slots` cells are only accessed while
// holding its head bucket's latch, whose Acquire/Release pair orders one
// holder's writes before the next holder's reads; an overflow bucket is
// reachable from exactly one chain (its id was claimed by one `fetch_add`
// under that chain's latch). `Arena`s are plain owned memory, `grown` is
// `OnceLock`-published, `claimed` is atomic and `mask` is immutable.
unsafe impl Sync for SharedTable {}
unsafe impl Send for SharedTable {}

impl SharedTable {
    /// Table sized for roughly `expected` entries across all threads.
    pub fn with_capacity(expected: usize) -> Self {
        let heads = next_pow2_at_least(expected / TUPLES_PER_HEAD, 1);
        SharedTable {
            mask: heads as u64 - 1,
            arena: Arena::zeroed(2 * heads),
            grown: std::array::from_fn(|_| OnceLock::new()),
            claimed: AtomicUsize::new(heads),
        }
    }

    /// Insert from any thread.
    #[inline]
    pub fn insert(&self, key: Key, ts: Ts) {
        self.insert_at(bucket_of(key, self.mask), key, ts);
    }

    /// Call `f(ts)` for every stored entry with this key.
    #[inline]
    pub fn probe(&self, key: Key, f: impl FnMut(Ts)) {
        self.probe_at(bucket_of(key, self.mask), key, f);
    }

    /// Total entries. Walks and latches every chain — diagnostics and tests
    /// only, never timed code (that is what the O(1) `bytes()` is for).
    pub fn len(&self) -> usize {
        let mut n = 0;
        for b in 0..self.heads() {
            self.scan_chain(b, |tuples| n += tuples.len());
        }
        n
    }

    /// True when the table holds no entries (same cost as [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The power-of-two bucket mask, for batched bucket derivation
    /// (`iawj_common::kernel::tuple_buckets_into`).
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Hint-prefetch head bucket `b` — latch, count and inline tuples at
    /// once (out-of-range is a no-op).
    #[inline]
    pub fn prefetch_bucket(&self, b: usize) {
        if b < self.heads() {
            prefetch_read(self.arena.get(b));
        }
    }

    /// Insert into bucket `b`, which must equal `bucket_of(key, mask())`;
    /// returns the latch spin-wait episodes the insert cost (0 off the
    /// slow path, so the count is always on).
    ///
    /// As in the paper's code, an insert looks at the head and the first
    /// overflow bucket only: when both are full a fresh bucket is linked in
    /// *between* them, so every bucket further down a chain is full.
    #[inline]
    pub fn insert_at(&self, b: usize, key: Key, ts: Ts) -> u32 {
        debug_assert_eq!(b, bucket_of(key, self.mask));
        let head = self.head(b);
        let (_held, waits) = head.latch.lock_waits();
        // SAFETY: the chain's latch is held until `_held` drops, so this
        // thread has exclusive access to every cell of the chain.
        unsafe {
            let mut dest = head;
            if usize::from(*head.count.get()) == SLOTS {
                let first = *head.next.get();
                let spare = (first != 0)
                    .then(|| self.bucket(first as usize))
                    .filter(|over| usize::from(*over.count.get()) < SLOTS);
                dest = spare.unwrap_or_else(|| {
                    // Relaxed: the claim only hands out exclusive ids; the
                    // fresh (zeroed) bucket is published by this link.
                    let id = self.claimed.fetch_add(1, Ordering::Relaxed);
                    let link = u32::try_from(id).expect("bucket ids exceed u32 chain links");
                    let fresh = self.bucket(id);
                    *fresh.next.get() = first;
                    *head.next.get() = link;
                    fresh
                });
            }
            let (count, slots) = (&mut *dest.count.get(), &mut *dest.slots.get());
            slots[usize::from(*count)] = Tuple::new(key, ts);
            *count += 1;
        }
        waits
    }

    /// Call `f(ts)` for every entry of bucket `b` (same contract as
    /// [`Self::insert_at`]) with this key; returns the latch spin-wait
    /// episodes the probe cost.
    #[inline]
    pub fn probe_at(&self, b: usize, key: Key, mut f: impl FnMut(Ts)) -> u32 {
        debug_assert_eq!(b, bucket_of(key, self.mask));
        self.scan_chain(b, |tuples| {
            for t in tuples {
                if t.key == key {
                    f(t.ts);
                }
            }
        })
    }

    /// Approximate heap footprint: head plus claimed overflow buckets, one
    /// line each, read off the id cursor — no latch, no walk, so a mid-run
    /// sample costs the run nothing.
    pub fn bytes(&self) -> usize {
        self.claimed.load(Ordering::Relaxed) * BUCKET_BYTES
    }

    #[inline]
    fn heads(&self) -> usize {
        self.mask as usize + 1
    }

    /// Head bucket `b`. Masked rather than trusted: latching an overflow
    /// bucket as if it were a head would race with its real chain.
    #[inline]
    fn head(&self, b: usize) -> &Bucket {
        self.arena.get(b & self.mask as usize)
    }

    /// The bucket with this id, which must be a head or already claimed.
    /// The first claim in a grown segment allocates it.
    #[inline]
    fn bucket(&self, id: usize) -> &Bucket {
        if id < self.arena.len {
            return self.arena.get(id);
        }
        let k = (id / self.heads()).ilog2() as usize;
        let segment = self.grown[k].get_or_init(|| Arena::zeroed(self.heads() << k));
        segment.get(id - (self.heads() << k))
    }

    /// Latch chain `b` and call `f` with the filled slots of each of its
    /// buckets; returns the spin-wait episodes the latch cost.
    #[inline]
    fn scan_chain(&self, b: usize, mut f: impl FnMut(&[Tuple])) -> u32 {
        let mut bucket = self.head(b);
        let (_held, waits) = bucket.latch.lock_waits();
        loop {
            // SAFETY: the chain's latch is held, so no one writes these
            // cells; `count <= SLOTS` is maintained by `insert_at`.
            let (tuples, next) = unsafe {
                let slots: &[Tuple; SLOTS] = &*bucket.slots.get();
                let count = usize::from(*bucket.count.get());
                (&slots[..count], *bucket.next.get())
            };
            // Start on the next line's miss before `f` works through this
            // bucket: a long chain is a pointer chase otherwise.
            let following = (next != 0).then(|| self.bucket(next as usize));
            if let Some(line) = following {
                prefetch_read(line);
            }
            f(tuples);
            let Some(line) = following else { return waits };
            bucket = line;
        }
    }
}

/// Allocate a `Vec<T>` of `len` zeroed elements without the constructing
/// thread touching the pages: `alloc_zeroed` hands back lazily-mapped
/// zero pages, so physical placement is deferred to the first writer
/// (NUMA first-touch).
///
/// # Safety
/// The all-zero bit pattern must be a valid `T` (here: `Tuple` and `u64`
/// — plain integers throughout).
pub(crate) unsafe fn alloc_zeroed_vec<T>(len: usize) -> Vec<T> {
    if len == 0 {
        return Vec::new();
    }
    let layout = std::alloc::Layout::array::<T>(len).expect("arena layout overflow");
    // SAFETY: layout is non-zero-sized; zeroed bytes are a valid `T` per
    // the contract above; the Vec takes ownership with the exact layout it
    // will free with.
    unsafe {
        let ptr = std::alloc::alloc_zeroed(layout) as *mut T;
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Vec::from_raw_parts(ptr, len, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_workers;

    #[test]
    fn local_insert_probe() {
        let mut t = LocalTable::with_capacity(8);
        t.insert(1, 100);
        t.insert(1, 200);
        t.insert(2, 300);
        let mut seen = Vec::new();
        t.probe(1, |ts| seen.push(ts));
        seen.sort_unstable();
        assert_eq!(seen, vec![100, 200]);
        assert_eq!(t.count(2), 1);
        assert_eq!(t.count(99), 0);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn local_handles_many_duplicates() {
        let mut t = LocalTable::with_capacity(4);
        for i in 0..1000 {
            t.insert(7, i);
        }
        assert_eq!(t.count(7), 1000);
    }

    #[test]
    fn local_grows_past_expected() {
        let mut t = LocalTable::with_capacity(2);
        for k in 0..100u32 {
            t.insert(k, k);
        }
        for k in 0..100u32 {
            assert_eq!(t.count(k), 1, "key {k}");
        }
    }

    #[test]
    fn local_reset_forgets_entries_and_resizes() {
        let mut t = LocalTable::with_capacity(4);
        for k in 0..100u32 {
            t.insert(k, k);
        }
        t.reset(300);
        assert!(t.is_empty());
        assert_eq!(t.count(7), 0, "no entry survives a reset");
        assert_eq!(t.heads.len(), 1024, "heads re-sized for 300 entries");
        t.insert(7, 1);
        t.reset(3);
        assert_eq!(t.heads.len(), 16);
        t.insert(7, 2);
        assert_eq!(t.count(7), 1);
    }

    #[test]
    fn local_bytes_nonzero() {
        let t = LocalTable::with_capacity(100);
        assert!(t.bytes() > 0);
    }

    #[test]
    fn bucket_one_key_is_one_tight_chain_across_chunks() {
        let mut t = BucketTable::with_capacity(8000);
        for ts in 0..8000 {
            t.insert(9, ts);
        }
        let mut seen = Vec::new();
        t.probe(9, |ts| seen.push(ts));
        seen.sort_unstable();
        assert_eq!(seen, (0..8000).collect::<Vec<Ts>>());
        assert_eq!(t.len(), 8000);
        // 1142 overflow lines behind 2048 heads, every one full but the one
        // linked in last: a whole chunk and the start of a second.
        let overflow = (8000 - SLOTS).div_ceil(SLOTS);
        assert_eq!((overflow, t.chunks.len()), (1142, 2));
        assert_eq!(t.bytes(), (2048 + overflow) * 64);
    }

    #[test]
    fn shared_concurrent_build_then_probe() {
        let table = SharedTable::with_capacity(4096);
        run_workers(4, |tid| {
            for i in 0..1000u32 {
                table.insert(i % 256, tid as u32 * 10_000 + i);
            }
        });
        assert_eq!(table.len(), 4000);
        // Every key 0..256 was inserted ceil/floor(4000/256) times per the
        // modulo pattern: keys < 232 get 16, rest 15... actually each thread
        // inserts key k exactly |{i<1000 : i%256==k}| times.
        let expect = |k: u32| -> usize {
            let per_thread = (0..1000u32).filter(|i| i % 256 == k).count();
            per_thread * 4
        };
        for k in [0u32, 100, 255] {
            let mut n = 0;
            table.probe(k, |_| n += 1);
            assert_eq!(n, expect(k), "key {k}");
        }
    }

    #[test]
    fn shared_probe_missing_key() {
        let table = SharedTable::with_capacity(16);
        table.insert(1, 1);
        let mut n = 0;
        table.probe(2, |_| n += 1);
        assert_eq!(n, 0);
        assert!(!table.is_empty());
    }

    #[test]
    fn shared_contended_single_bucket() {
        // All threads hammer the same key: the per-bucket latch must
        // serialise correctly and lose no inserts.
        let table = SharedTable::with_capacity(1024);
        run_workers(8, |_| {
            for i in 0..500 {
                table.insert(42, i);
            }
        });
        let mut n = 0;
        table.probe(42, |_| n += 1);
        assert_eq!(n, 4000);
    }

    #[test]
    fn shared_one_key_4000_times_is_one_tight_chain() {
        let table = SharedTable::with_capacity(4000);
        for ts in 0..4000 {
            table.insert(9, ts);
        }
        let mut seen = Vec::new();
        table.probe(9, |ts| seen.push(ts));
        seen.sort_unstable();
        assert_eq!(seen, (0..4000).collect::<Vec<Ts>>());
        assert_eq!(table.len(), 4000);
        // An insert only ever looks at the head and the first overflow
        // bucket, yet every bucket behind those two is full: the chain is as
        // short as 4000 tuples allow.
        let overflow = (4000 - SLOTS).div_ceil(SLOTS);
        assert_eq!(table.bytes(), (table.heads() + overflow) * BUCKET_BYTES);
    }

    #[test]
    fn shared_grows_past_expected() {
        // 4x the promised inserts, from racing workers: chains run off the
        // first allocation's overflow buckets into a grown segment.
        let table = SharedTable::with_capacity(1000);
        run_workers(4, |tid| {
            for k in 0..1000u32 {
                table.insert(tid as u32 * 1000 + k, k);
            }
        });
        assert!(table.grown[1].get().is_some(), "no segment was grown");
        assert_eq!(table.len(), 4000);
        for k in 0..4000u32 {
            let mut seen = Vec::new();
            table.probe(k, |ts| seen.push(ts));
            assert_eq!(seen, [k % 1000], "key {k}");
        }
    }

    /// A 32 MiB arena asks for huge pages: the mapping that holds a head
    /// bucket carries the `hg` (MADV_HUGEPAGE) flag in `/proc/self/smaps`.
    /// Skipped where the kernel refuses the advice.
    #[test]
    #[cfg(target_os = "linux")]
    #[cfg_attr(miri, ignore = "no madvise under Miri")]
    fn large_shared_arena_is_advised_huge_pages() {
        use crate::topology::HUGE_PAGE;
        let probe = vec![0u8; 3 * HUGE_PAGE];
        if advise_huge_pages(probe.as_ptr(), probe.len()) == 0 {
            eprintln!("skipped: the kernel refuses MADV_HUGEPAGE");
            return;
        }
        let table = SharedTable::with_capacity(1 << 20);
        assert_eq!(table.arena.len * BUCKET_BYTES, 32 << 20);
        // A head in the middle: the arena's unaligned ends stay unadvised.
        let addr = table.arena.get(table.heads() / 2) as *const Bucket as usize;
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps is readable");
        // A mapping is a header line `lo-hi perms ...` followed by its
        // fields, `VmFlags:` among them.
        let mut holds = false;
        let mut flags = None;
        for line in smaps.lines() {
            let header = line
                .split_whitespace()
                .next()
                .and_then(|r| r.split_once('-'));
            if let Some((Ok(lo), Ok(hi))) = header
                .map(|(lo, hi)| (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16)))
            {
                holds = (lo..hi).contains(&addr);
            } else if let Some(f) = line.strip_prefix("VmFlags:").filter(|_| holds) {
                flags = Some(f);
            }
        }
        let flags = flags.expect("a mapping holds the head bucket");
        assert!(
            flags.split_whitespace().any(|f| f == "hg"),
            "VmFlags without hg: {flags}"
        );
    }

    #[test]
    fn shared_bytes_is_monotone_and_takes_no_latch() {
        let table = SharedTable::with_capacity(16);
        let empty = table.bytes();
        assert_eq!(empty, table.heads() * BUCKET_BYTES);
        let mut last = empty;
        for i in 0..1000 {
            table.insert(i, i);
            assert!(table.bytes() >= last, "bytes() shrank at insert {i}");
            last = table.bytes();
        }
        assert!(last > empty);
        // With every latch held, a `bytes()` that took one would never
        // return.
        let held: Vec<_> = (0..table.heads())
            .map(|b| table.head(b).latch.lock_waits())
            .collect();
        assert_eq!(table.bytes(), last);
        drop(held);
    }

    #[test]
    fn shared_single_thread_counts_zero_waits() {
        let table = SharedTable::with_capacity(64);
        for i in 0..100 {
            assert_eq!(table.insert_at(bucket_of(i % 8, table.mask()), i % 8, i), 0);
        }
        assert_eq!(table.probe_at(bucket_of(3, table.mask()), 3, |_| {}), 0);
    }

    /// The always-on counting surface under a scripted interleaving: while
    /// one thread holds a bucket's latch, a second thread's `insert_at` on
    /// that bucket must report at least one wait. Channels order "latch
    /// held" before "insert begins"; the holder then keeps the latch well
    /// past the two instructions between the inserter's announcement and
    /// its first acquire attempt (an inserter that finds the latch free
    /// legitimately reports 0, so the hold has to outlast that window).
    #[test]
    fn insert_into_a_held_bucket_counts_the_wait() {
        use std::sync::mpsc::channel;
        let table = SharedTable::with_capacity(64);
        let b = bucket_of(5, table.mask());
        let (held_tx, held_rx) = channel();
        let (entering_tx, entering_rx) = channel();
        let table = &table;
        let waits = std::thread::scope(|scope| {
            let inserter = scope.spawn(move || {
                held_rx.recv().expect("holder signals");
                entering_tx.send(()).expect("holder listens");
                table.insert_at(b, 5, 1)
            });
            let (guard, _) = table.head(b).latch.lock_waits();
            held_tx.send(()).expect("inserter listens");
            entering_rx.recv().expect("inserter signals");
            std::thread::sleep(std::time::Duration::from_millis(100));
            drop(guard);
            inserter.join().expect("inserter finished")
        });
        assert!(waits >= 1, "contended insert reported {waits} waits");
        assert_eq!(
            table.len(),
            1,
            "the insert still lands once the latch frees"
        );
    }

    #[test]
    fn precomputed_bucket_apis_match_plain_paths() {
        // The `_at` surface fed `bucket_of(key, mask)` (with a prefetch
        // ahead, as NPJ's pipeline issues them) must behave exactly like
        // the key-only path and like a single-owner table.
        let keys: Vec<Key> = (0..500u32).map(|i| i % 97).collect();
        let mut local = LocalTable::with_capacity(keys.len());
        let shared = SharedTable::with_capacity(keys.len());
        for (i, &k) in keys.iter().enumerate() {
            local.insert(k, i as Ts);
            let b = bucket_of(k, shared.mask());
            shared.prefetch_bucket(b);
            assert_eq!(shared.insert_at(b, k, i as Ts), 0);
        }
        for k in 0..97u32 {
            let mut expect = Vec::new();
            local.probe(k, |ts| expect.push(ts));
            let mut s1 = Vec::new();
            shared.probe(k, |ts| s1.push(ts));
            let mut s2 = Vec::new();
            shared.probe_at(bucket_of(k, shared.mask()), k, |ts| s2.push(ts));
            expect.sort_unstable();
            s1.sort_unstable();
            s2.sort_unstable();
            assert_eq!(s1, expect, "key {k}");
            assert_eq!(s2, expect, "key {k}");
        }
        // Out-of-range prefetches are harmless no-ops.
        shared.prefetch_bucket(usize::MAX);
    }
}
