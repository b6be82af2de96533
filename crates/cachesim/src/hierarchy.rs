//! The three-level hierarchy plus dTLB, with per-core private levels and a
//! shared L3, matching the single-socket configuration of Table 4.

use crate::cache::{CacheConfig, CacheLevel};
use std::cell::RefCell;
use std::rc::Rc;

/// Miss counters accumulated over a tracing interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total data accesses (each cache-line touch counts once).
    pub accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 misses (memory accesses).
    pub l3_misses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
    /// Explicit software prefetches issued (`prefetcht0`-style hints).
    /// Not counted in `accesses` or any miss column: a prefetch stages
    /// lines without generating demand traffic, and this column keeps the
    /// scalar-vs-simd per-phase counters comparable.
    pub prefetches: u64,
}

impl Counters {
    /// Element-wise difference, for phase-delimited accounting.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            accesses: self.accesses - earlier.accesses,
            l1d_misses: self.l1d_misses - earlier.l1d_misses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            l3_misses: self.l3_misses - earlier.l3_misses,
            dtlb_misses: self.dtlb_misses - earlier.dtlb_misses,
            prefetches: self.prefetches - earlier.prefetches,
        }
    }

    /// Element-wise sum, for aggregating cores.
    pub fn merged(&self, other: &Counters) -> Counters {
        Counters {
            accesses: self.accesses + other.accesses,
            l1d_misses: self.l1d_misses + other.l1d_misses,
            l2_misses: self.l2_misses + other.l2_misses,
            l3_misses: self.l3_misses + other.l3_misses,
            dtlb_misses: self.dtlb_misses + other.dtlb_misses,
            prefetches: self.prefetches + other.prefetches,
        }
    }

    /// Bytes fetched from DRAM (L3 misses × line size) — the quantity the
    /// Table 6 memory-bandwidth estimate is built on.
    pub fn dram_bytes(&self, line_bytes: u64) -> u64 {
        self.l3_misses * line_bytes
    }
}

/// The shared last-level cache, reference-counted so several `CoreCaches`
/// can point at the same L3 (traced cores run one at a time, so a `RefCell`
/// suffices; the tracing harness is single-threaded by design).
pub type SharedL3 = Rc<RefCell<CacheLevel>>;

/// Make a fresh shared L3 with the default (Gold 6126) geometry.
pub fn shared_l3_default() -> SharedL3 {
    Rc::new(RefCell::new(CacheLevel::new(CacheConfig::l3_gold6126())))
}

/// Private L1D + L2 + dTLB of one simulated core, backed by a shared L3.
#[derive(Clone)]
pub struct CoreCaches {
    l1d: CacheLevel,
    l2: CacheLevel,
    dtlb: CacheLevel,
    l3: SharedL3,
    counters: Counters,
    /// Next-line prefetching into L2 on L1 misses (off by default: the
    /// study's qualitative results are prefetch-independent, but the
    /// ablation quantifies how much a streaming prefetcher would mask).
    prefetch_next_line: bool,
    last_miss_line: u64,
}

impl CoreCaches {
    /// A core with the default Gold 6126 geometry on the given shared L3.
    pub fn new(l3: SharedL3) -> Self {
        CoreCaches {
            l1d: CacheLevel::new(CacheConfig::l1d_gold6126()),
            l2: CacheLevel::new(CacheConfig::l2_gold6126()),
            dtlb: CacheLevel::new(CacheConfig::dtlb()),
            l3,
            counters: Counters::default(),
            prefetch_next_line: false,
            last_miss_line: u64::MAX,
        }
    }

    /// A core with custom private geometries (tests, sensitivity studies).
    pub fn with_configs(
        l1d: CacheConfig,
        l2: CacheConfig,
        dtlb: CacheConfig,
        l3: SharedL3,
    ) -> Self {
        CoreCaches {
            l1d: CacheLevel::new(l1d),
            l2: CacheLevel::new(l2),
            dtlb: CacheLevel::new(dtlb),
            l3,
            counters: Counters::default(),
            prefetch_next_line: false,
            last_miss_line: u64::MAX,
        }
    }

    /// Enable the next-line stream prefetcher: when two consecutive lines
    /// miss L1 in sequence, the following line is pulled into L2 (and L3)
    /// ahead of use, as Intel's streamer does for ascending accesses.
    pub fn enable_prefetch(&mut self) {
        self.prefetch_next_line = true;
    }

    /// Touch one cache line containing `addr`. Walks L1 → L2 → L3 on misses
    /// and consults the dTLB for the page.
    #[inline]
    pub fn access_line(&mut self, addr: u64) {
        self.counters.accesses += 1;
        if !self.dtlb.access(addr) {
            self.counters.dtlb_misses += 1;
        }
        if self.l1d.access(addr) {
            return;
        }
        self.counters.l1d_misses += 1;
        let line = addr >> 6;
        if self.prefetch_next_line {
            if line == self.last_miss_line.wrapping_add(1) {
                // Ascending miss stream detected: stage the next line into
                // L2/L3 without counting it as a demand access.
                let next = (line + 1) << 6;
                self.l2.access(next);
                self.l3.borrow_mut().access(next);
            }
            self.last_miss_line = line;
        }
        if self.l2.access(addr) {
            return;
        }
        self.counters.l2_misses += 1;
        if !self.l3.borrow_mut().access(addr) {
            self.counters.l3_misses += 1;
        }
    }

    /// Touch a byte range, line by line.
    #[inline]
    pub fn access_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let line = 64u64;
        let first = addr & !(line - 1);
        let last = (addr + len - 1) & !(line - 1);
        let mut a = first;
        loop {
            self.access_line(a);
            if a == last {
                break;
            }
            a += line;
        }
    }

    /// Explicit software prefetch of the line containing `addr`, as
    /// `prefetcht0` behaves: the page is translated through the dTLB and
    /// the line is staged into L1/L2/L3, but nothing is recorded as a
    /// demand access or demand miss — a prefetch hides latency, it does
    /// not add it. Only the `prefetches` column moves.
    #[inline]
    pub fn prefetch_line(&mut self, addr: u64) {
        self.counters.prefetches += 1;
        self.dtlb.access(addr);
        if self.l1d.access(addr) {
            return;
        }
        if self.l2.access(addr) {
            return;
        }
        self.l3.borrow_mut().access(addr);
    }

    /// Counter snapshot.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Zero this core's counters (contents stay warm).
    pub fn reset_counters(&mut self) {
        self.counters = Counters::default();
    }
}

/// Convenience wrapper: one traced "machine" — N cores over one L3.
pub struct Hierarchy {
    /// The cores; index = simulated thread id.
    pub cores: Vec<CoreCaches>,
    l3: SharedL3,
}

impl Hierarchy {
    /// A machine with `n_cores` default cores sharing a default L3.
    pub fn new(n_cores: usize) -> Self {
        let l3 = shared_l3_default();
        let cores = (0..n_cores).map(|_| CoreCaches::new(l3.clone())).collect();
        Hierarchy { cores, l3 }
    }

    /// Total counters across all cores.
    pub fn total(&self) -> Counters {
        self.cores
            .iter()
            .fold(Counters::default(), |acc, c| acc.merged(&c.counters()))
    }

    /// L3 miss count (shared level, counted once).
    pub fn l3_misses(&self) -> u64 {
        self.l3.borrow().misses()
    }

    /// Zero all counters.
    pub fn reset_counters(&mut self) {
        for c in &mut self.cores {
            c.reset_counters();
        }
        self.l3.borrow_mut().reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_mostly_hits_after_first_touch() {
        let mut h = Hierarchy::new(1);
        let core = &mut h.cores[0];
        // Scan 4 KiB byte-by-byte: 64 line touches of 64 accesses each.
        for b in 0..4096u64 {
            core.access_range(b, 1);
        }
        let c = core.counters();
        assert_eq!(c.accesses, 4096);
        assert_eq!(c.l1d_misses, 64, "one cold miss per line");
    }

    #[test]
    fn l2_absorbs_l1_overflow() {
        let mut h = Hierarchy::new(1);
        let core = &mut h.cores[0];
        // Working set of 256 KiB: fits L2 (1 MiB) but not L1 (32 KiB).
        let lines: Vec<u64> = (0..4096u64).map(|i| i * 64).collect();
        for &l in &lines {
            core.access_line(l);
        }
        core.reset_counters();
        for &l in &lines {
            core.access_line(l);
        }
        let c = core.counters();
        assert_eq!(c.accesses, 4096);
        assert_eq!(c.l1d_misses, 4096, "L1 too small: every access misses L1");
        assert_eq!(c.l2_misses, 0, "L2 holds the whole set");
    }

    #[test]
    fn shared_l3_sees_both_cores() {
        let mut h = Hierarchy::new(2);
        // Core 0 loads a line into the shared L3...
        h.cores[0].access_line(0x10000);
        // ...then core 1 misses privately but hits in L3.
        h.cores[1].access_line(0x10000);
        let c1 = h.cores[1].counters();
        assert_eq!(c1.l1d_misses, 1);
        assert_eq!(c1.l2_misses, 1);
        assert_eq!(c1.l3_misses, 0, "line was resident in the shared L3");
    }

    #[test]
    fn prefetcher_masks_sequential_l2_misses() {
        // A long ascending scan over an L2-busting working set: without
        // prefetch every line misses L2 on first touch; with it, the
        // streamer stages lines ahead so demand L2 misses collapse.
        let n_lines = 1u64 << 16; // 4 MiB
        let mut plain = Hierarchy::new(1);
        for i in 0..n_lines {
            plain.cores[0].access_line(i * 64);
        }
        let mut pf = Hierarchy::new(1);
        pf.cores[0].enable_prefetch();
        for i in 0..n_lines {
            pf.cores[0].access_line(i * 64);
        }
        let plain_l2 = plain.total().l2_misses;
        let pf_l2 = pf.total().l2_misses;
        assert!(
            pf_l2 * 2 < plain_l2,
            "prefetch should mask most sequential L2 misses: {pf_l2} vs {plain_l2}"
        );
        // Random access sees no benefit (and no harm to correctness).
        let mut rng = 0x12345u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % (1 << 26)
        };
        let mut pf_rand = Hierarchy::new(1);
        pf_rand.cores[0].enable_prefetch();
        for _ in 0..10_000 {
            pf_rand.cores[0].access_line(next());
        }
        let c = pf_rand.total();
        assert_eq!(c.accesses, 10_000);
    }

    #[test]
    fn counters_delta_and_merge() {
        let a = Counters {
            accesses: 10,
            l1d_misses: 5,
            l2_misses: 3,
            l3_misses: 1,
            dtlb_misses: 2,
            prefetches: 4,
        };
        let b = Counters {
            accesses: 4,
            l1d_misses: 2,
            l2_misses: 1,
            l3_misses: 0,
            dtlb_misses: 1,
            prefetches: 1,
        };
        let d = a.since(&b);
        assert_eq!(d.accesses, 6);
        assert_eq!(d.l1d_misses, 3);
        assert_eq!(d.prefetches, 3);
        let m = a.merged(&b);
        assert_eq!(m.accesses, 14);
        assert_eq!(m.prefetches, 5);
        assert_eq!(m.dram_bytes(64), 64);
    }

    #[test]
    fn prefetch_stages_lines_without_demand_misses() {
        let mut h = Hierarchy::new(1);
        let core = &mut h.cores[0];
        // Prefetch 64 cold lines, then demand-load them: the loads should
        // all hit L1 while the prefetches themselves count no misses.
        for i in 0..64u64 {
            core.prefetch_line(i * 64);
        }
        let c = core.counters();
        assert_eq!(c.prefetches, 64);
        assert_eq!(c.accesses, 0, "prefetches are not demand accesses");
        assert_eq!(c.l1d_misses, 0, "prefetches count no demand misses");
        assert_eq!(c.dtlb_misses, 0);
        for i in 0..64u64 {
            core.access_line(i * 64);
        }
        let c = core.counters();
        assert_eq!(c.accesses, 64);
        assert_eq!(c.l1d_misses, 0, "prefetched lines are L1-resident");
    }

    #[test]
    fn range_access_spans_lines() {
        let mut h = Hierarchy::new(1);
        let core = &mut h.cores[0];
        // 8 bytes straddling a line boundary touches two lines.
        core.access_range(60, 8);
        assert_eq!(core.counters().accesses, 2);
        core.access_range(0, 0);
        assert_eq!(core.counters().accesses, 2, "zero-length touch is free");
    }

    #[test]
    fn random_over_l3_misses_to_dram() {
        let mut h = Hierarchy::new(1);
        let core = &mut h.cores[0];
        // 64 MiB working set, strided to defeat every level.
        let n = 1 << 20;
        for i in 0..n {
            core.access_line((i * 64) % (64 << 20));
        }
        core.reset_counters();
        let l3_before = h.l3_misses();
        for i in 0..n {
            h.cores[0].access_line((i * 64) % (64 << 20));
        }
        let c = h.cores[0].counters();
        assert!(c.l3_misses > n / 2, "expected DRAM traffic, got {c:?}");
        assert!(h.l3_misses() > l3_before);
    }
}
