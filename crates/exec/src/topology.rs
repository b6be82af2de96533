//! CPU topology discovery and worker placement.
//!
//! The paper's multicore focus (CPU mapping §5.2, scalability Figs. 13/19)
//! is ultimately about where threads and memory land. This module answers
//! both questions without adding a dependency:
//!
//! - **Which CPUs may we use?** [`affinity_mask`] reads the calling
//!   thread's `sched_getaffinity` mask through a raw syscall (the same
//!   inline-assembly pattern as `iawj_obs::perf`), so cgroup cpusets and
//!   `taskset` restrictions are respected — unlike a bare
//!   `available_parallelism`, which on some kernels reports the machine,
//!   not the allowance.
//! - **How are they arranged?** [`Topology::detect`] folds in
//!   `/sys/devices/system/cpu` (SMT siblings, physical core ids) and
//!   `/sys/devices/system/node` (NUMA node per CPU), restricted to the
//!   affinity mask.
//! - **Where should worker `i` go?** [`Topology::plan`] turns a
//!   [`PinPolicy`] into a per-worker CPU assignment; [`pin_to_cpu`]
//!   applies one via raw `sched_setaffinity`.
//! - **Which page size backs a large table?** `advise_huge_pages` asks
//!   the kernel, through a raw `madvise`, for transparent huge pages on
//!   the 2 MiB-aligned interior of an untouched allocation, so that
//!   random accesses over tens of MiB stay within TLB reach.
//!
//! Design constraint, inherited from the perf module: **never panic,
//! never fail a run**. Topology is a host property (masked cpusets,
//! denied syscalls, missing sysfs, non-Linux targets); every function
//! here degrades — empty topology, `false` from a pin, `None` from a
//! query — and the executor journals the degradation instead of dying.

use std::path::Path;

/// Maximum CPUs representable in a [`CpuSet`] (16 × 64 bits).
pub const MAX_CPUS: usize = 1024;

/// A fixed-size CPU bitmask, layout-compatible with the kernel's
/// `cpu_set_t` for the first [`MAX_CPUS`] CPUs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuSet {
    bits: [u64; MAX_CPUS / 64],
}

impl CpuSet {
    /// The empty set.
    pub const fn empty() -> CpuSet {
        CpuSet {
            bits: [0; MAX_CPUS / 64],
        }
    }

    /// Is `cpu` in the set? CPUs ≥ [`MAX_CPUS`] are reported absent.
    pub fn contains(&self, cpu: usize) -> bool {
        cpu < MAX_CPUS && self.bits[cpu / 64] & (1 << (cpu % 64)) != 0
    }

    /// Add `cpu` to the set; CPUs ≥ [`MAX_CPUS`] are ignored.
    pub fn set(&mut self, cpu: usize) {
        if cpu < MAX_CPUS {
            self.bits[cpu / 64] |= 1 << (cpu % 64);
        }
    }

    /// Number of CPUs in the set.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// CPUs in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..MAX_CPUS).filter(move |&c| self.contains(c))
    }

    /// Lowest CPU in the set, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }
}

// ---------------------------------------------------------------------------
// Raw syscalls (sched_getaffinity / sched_setaffinity / getcpu / madvise)
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const MADVISE: i64 = 28;
    pub const SCHED_SETAFFINITY: i64 = 203;
    pub const SCHED_GETAFFINITY: i64 = 204;
    pub const GETCPU: i64 = 309;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const MADVISE: i64 = 233;
    pub const SCHED_SETAFFINITY: i64 = 122;
    pub const SCHED_GETAFFINITY: i64 = 123;
    pub const GETCPU: i64 = 168;
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod nr {
    pub const MADVISE: i64 = 0;
    pub const SCHED_SETAFFINITY: i64 = 0;
    pub const SCHED_GETAFFINITY: i64 = 0;
    pub const GETCPU: i64 = 0;
}

/// Three-argument syscall shim. Returns the raw kernel result (negative
/// errno on failure).
///
/// # Safety
///
/// Pointer-typed arguments must point to memory valid for the kernel's
/// documented access pattern for the given syscall number.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
unsafe fn syscall3(num: i64, a1: i64, a2: i64, a3: i64) -> i64 {
    let ret: i64;
    // SAFETY: caller upholds the pointer contract; rcx/r11 are declared
    // clobbered per the x86_64 syscall ABI.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") num => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64", not(miri)))]
unsafe fn syscall3(num: i64, a1: i64, a2: i64, a3: i64) -> i64 {
    let ret: i64;
    // SAFETY: caller upholds the pointer contract; aarch64 passes the
    // number in x8, args in x0..x2.
    unsafe {
        std::arch::asm!(
            "svc 0",
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x8") num,
            options(nostack),
        );
    }
    ret
}

// Miri cannot execute inline assembly, so under it — as on unsupported
// targets — the shim reports ENOSYS and every caller degrades (no mask,
// no pinning, no getcpu, no huge-page advice), exercising exactly the
// graceful-fallback path.
#[cfg(any(
    miri,
    not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
))]
unsafe fn syscall3(_num: i64, _a1: i64, _a2: i64, _a3: i64) -> i64 {
    -38 // -ENOSYS
}

/// The calling thread's affinity mask via raw `sched_getaffinity`.
/// `None` when the syscall is unavailable or fails — callers degrade to
/// [`std::thread::available_parallelism`].
pub fn affinity_mask() -> Option<CpuSet> {
    let mut set = CpuSet::empty();
    let bytes = std::mem::size_of_val(&set.bits) as i64;
    // SAFETY: the kernel writes at most `bytes` into `set.bits`, which is
    // live and exactly that large; pid 0 targets the calling thread.
    let ret = unsafe {
        syscall3(
            nr::SCHED_GETAFFINITY,
            0,
            bytes,
            set.bits.as_mut_ptr() as i64,
        )
    };
    // Raw sched_getaffinity returns the size of the kernel cpumask copied
    // out (positive) on success, unlike the glibc wrapper's 0.
    (ret > 0).then_some(set)
}

/// How many CPUs this thread is *allowed* to run on: the cardinality of
/// the `sched_getaffinity` mask (cgroup/`taskset`-correct), falling back
/// to `available_parallelism` where the syscall is unavailable. Never
/// less than 1.
pub fn affinity_core_count() -> usize {
    affinity_mask()
        .map(|m| m.count())
        .filter(|&n| n > 0)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

/// Pin the calling thread to a single CPU via raw `sched_setaffinity`.
/// Returns `false` — never panics — when the syscall is unavailable,
/// denied (seccomp), or the CPU is outside the allowed mask.
pub fn pin_to_cpu(cpu: usize) -> bool {
    if cpu >= MAX_CPUS {
        return false;
    }
    let mut set = CpuSet::empty();
    set.set(cpu);
    set_affinity(&set)
}

/// Set the calling thread's affinity to `mask` (used by [`pin_to_cpu`]
/// and by tests to restore the original mask). Returns success.
pub fn set_affinity(mask: &CpuSet) -> bool {
    let bytes = std::mem::size_of_val(&mask.bits) as i64;
    // SAFETY: the kernel reads `bytes` from `mask.bits`, live for the call.
    let ret = unsafe { syscall3(nr::SCHED_SETAFFINITY, 0, bytes, mask.bits.as_ptr() as i64) };
    ret == 0
}

/// The CPU the calling thread is running on right now (raw `getcpu`),
/// `None` where unavailable.
pub fn current_cpu() -> Option<usize> {
    let mut cpu: u32 = 0;
    // SAFETY: the kernel writes one u32 through the first pointer; the
    // node and cache pointers are null (documented as optional).
    let ret = unsafe { syscall3(nr::GETCPU, &mut cpu as *mut u32 as i64, 0, 0) };
    (ret == 0).then_some(cpu as usize)
}

/// Bytes in one transparent huge page (a PMD mapping over 4 KiB base pages
/// on x86_64 and aarch64).
pub(crate) const HUGE_PAGE: usize = 2 << 20;

/// `MADV_HUGEPAGE` from `<asm-generic/mman-common.h>`.
const MADV_HUGEPAGE: i64 = 14;

/// The whole huge pages inside `[addr, addr + len)`, as an address range,
/// or `None` when the range is shorter than two huge pages (4 MiB) — too
/// small for the TLB to notice — or its end overflows the address space.
/// From 4 MiB on the interior holds at least one whole huge page.
pub(crate) fn huge_page_interior(addr: usize, len: usize) -> Option<std::ops::Range<usize>> {
    if len < 2 * HUGE_PAGE {
        return None;
    }
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (start < end).then_some(start..end)
}

/// Ask for transparent huge pages on the [`huge_page_interior`] of the `len`
/// bytes at `ptr`, which should not be touched yet: pages faulted in
/// afterwards come as 2 MiB pages where the kernel has them free. Returns
/// the bytes advised — 0 when the range is too small, or when the kernel
/// refuses (`EINVAL` without THP support, `ENOSYS` under Miri and off
/// Linux x86_64/aarch64). Advice never changes contents, so a refusal
/// only leaves the range on base pages.
pub(crate) fn advise_huge_pages(ptr: *const u8, len: usize) -> usize {
    let Some(interior) = huge_page_interior(ptr as usize, len) else {
        return 0;
    };
    let bytes = interior.end - interior.start;
    // SAFETY: `madvise` reads no user memory; the range lies inside the
    // caller's allocation, and MADV_HUGEPAGE changes only how its future
    // page faults are served, never what the memory holds.
    let ret = unsafe {
        syscall3(
            nr::MADVISE,
            interior.start as i64,
            bytes as i64,
            MADV_HUGEPAGE,
        )
    };
    if ret == 0 {
        bytes
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Placement policy and topology
// ---------------------------------------------------------------------------

/// Where the executor places its workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PinPolicy {
    /// No pinning: the OS scheduler places workers freely (the seed
    /// behaviour, and the fallback wherever pinning is unavailable).
    #[default]
    None,
    /// Pack workers onto the fewest NUMA nodes: fill every hardware
    /// context of one node (physical cores with their SMT siblings
    /// adjacent) before spilling to the next. Maximizes cache/memory
    /// locality for small thread counts.
    Compact,
    /// Round-robin workers across NUMA nodes, physical cores before SMT
    /// siblings within each node. Maximizes aggregate memory bandwidth.
    Scatter,
}

impl PinPolicy {
    /// All policies, for sweeps.
    pub const ALL: [PinPolicy; 3] = [PinPolicy::None, PinPolicy::Compact, PinPolicy::Scatter];
}

impl std::str::FromStr for PinPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Ok(PinPolicy::None),
            "compact" => Ok(PinPolicy::Compact),
            "scatter" => Ok(PinPolicy::Scatter),
            other => Err(format!("unknown pin policy '{other}'")),
        }
    }
}

impl std::fmt::Display for PinPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PinPolicy::None => "none",
            PinPolicy::Compact => "compact",
            PinPolicy::Scatter => "scatter",
        })
    }
}

/// One allowed CPU and its position in the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreInfo {
    /// Logical CPU number (the `sched_setaffinity` target).
    pub cpu: usize,
    /// NUMA node this CPU belongs to (0 when unknown).
    pub node: usize,
    /// Physical core id within the package (the CPU's own number when
    /// sysfs is unavailable).
    pub core_id: usize,
    /// Rank among this physical core's SMT siblings: 0 for the first
    /// hardware thread, 1 for its hyperthread twin, and so on.
    pub smt_rank: usize,
}

/// The CPUs this process may use, annotated with SMT and NUMA structure.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// One entry per allowed CPU, ascending by CPU number.
    pub cores: Vec<CoreInfo>,
}

impl Topology {
    /// Discover the topology of the CPUs in the calling thread's affinity
    /// mask. Degrades, never panics: without the affinity syscall the
    /// topology is empty (and every placement plan is unpinned); without
    /// sysfs each CPU gets defaults (node 0, `core_id = cpu`,
    /// `smt_rank = 0`), which still yields a usable compact order.
    pub fn detect() -> Topology {
        match affinity_mask() {
            Some(mask) => Topology::from_sysfs(Path::new("/sys/devices/system"), &mask),
            None => Topology::default(),
        }
    }

    /// Build a topology for `mask` from a sysfs-shaped directory tree
    /// (`{root}/cpu/cpu{N}/topology/*`, `{root}/node/node{N}/cpulist`).
    /// Split out from [`Topology::detect`] so tests can point it at a
    /// synthetic tree.
    pub fn from_sysfs(root: &Path, mask: &CpuSet) -> Topology {
        // NUMA node per CPU: scan node*/cpulist once.
        let mut node_of = std::collections::HashMap::new();
        if let Ok(entries) = std::fs::read_dir(root.join("node")) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let Some(num) = name
                    .strip_prefix("node")
                    .and_then(|s| s.parse::<usize>().ok())
                else {
                    continue;
                };
                if let Ok(list) = std::fs::read_to_string(entry.path().join("cpulist")) {
                    for cpu in parse_cpulist(&list) {
                        node_of.insert(cpu, num);
                    }
                }
            }
        }
        let mut cores = Vec::with_capacity(mask.count());
        for cpu in mask.iter() {
            let topo = root.join(format!("cpu/cpu{cpu}/topology"));
            let core_id = std::fs::read_to_string(topo.join("core_id"))
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .unwrap_or(cpu);
            let smt_rank = std::fs::read_to_string(topo.join("thread_siblings_list"))
                .ok()
                .map(|s| {
                    let mut siblings = parse_cpulist(&s);
                    siblings.sort_unstable();
                    siblings.iter().position(|&c| c == cpu).unwrap_or(0)
                })
                .unwrap_or(0);
            cores.push(CoreInfo {
                cpu,
                node: node_of.get(&cpu).copied().unwrap_or(0),
                core_id,
                smt_rank,
            });
        }
        Topology { cores }
    }

    /// Number of distinct NUMA nodes among the allowed CPUs.
    pub fn nodes(&self) -> usize {
        let mut nodes: Vec<usize> = self.cores.iter().map(|c| c.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Plan CPU assignments for `n` workers under `policy`.
    ///
    /// Returns one entry per worker tid: `Some(cpu)` to pin there, `None`
    /// to leave the worker unpinned. [`PinPolicy::None`] — or an empty
    /// topology — yields all-`None`; with fewer CPUs than workers the
    /// assignment wraps around, oversubscribing in plan order.
    pub fn plan(&self, policy: PinPolicy, n: usize) -> Vec<Option<usize>> {
        if policy == PinPolicy::None || self.cores.is_empty() {
            return vec![None; n];
        }
        let order: Vec<usize> = match policy {
            PinPolicy::None => unreachable!(),
            PinPolicy::Compact => {
                // Fill one node completely (SMT siblings adjacent to
                // their physical core) before moving to the next.
                let mut cores = self.cores.clone();
                cores.sort_by_key(|c| (c.node, c.core_id, c.smt_rank, c.cpu));
                cores.iter().map(|c| c.cpu).collect()
            }
            PinPolicy::Scatter => {
                // Round-robin across nodes; within a node, physical cores
                // before SMT siblings.
                let mut by_node: Vec<(usize, Vec<CoreInfo>)> = Vec::new();
                let mut cores = self.cores.clone();
                cores.sort_by_key(|c| (c.smt_rank, c.core_id, c.cpu));
                for c in cores {
                    match by_node.iter_mut().find(|(n, _)| *n == c.node) {
                        Some((_, v)) => v.push(c),
                        None => by_node.push((c.node, vec![c])),
                    }
                }
                by_node.sort_by_key(|(n, _)| *n);
                let mut out = Vec::with_capacity(self.cores.len());
                let mut rank = 0;
                while out.len() < self.cores.len() {
                    for (_, v) in &by_node {
                        if let Some(c) = v.get(rank) {
                            out.push(c.cpu);
                        }
                    }
                    rank += 1;
                }
                out
            }
        };
        (0..n).map(|i| Some(order[i % order.len()])).collect()
    }
}

/// Parse a sysfs CPU list (`"0-3,8,10-11"`) into CPU numbers. Malformed
/// tokens are skipped rather than failing the whole list.
pub fn parse_cpulist(s: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for tok in s.trim().split(',') {
        let tok = tok.trim();
        if tok.is_empty() {
            continue;
        }
        if let Some((lo, hi)) = tok.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
                if lo <= hi && hi - lo < MAX_CPUS {
                    out.extend(lo..=hi);
                }
            }
        } else if let Ok(cpu) = tok.parse::<usize>() {
            out.push(cpu);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpuset_set_contains_count() {
        let mut s = CpuSet::empty();
        assert_eq!(s.count(), 0);
        assert!(!s.contains(0));
        s.set(0);
        s.set(63);
        s.set(64);
        s.set(MAX_CPUS - 1);
        s.set(MAX_CPUS + 5); // ignored, not a panic
        assert!(s.contains(0) && s.contains(63) && s.contains(64));
        assert!(s.contains(MAX_CPUS - 1));
        assert!(!s.contains(MAX_CPUS + 5));
        assert_eq!(s.count(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, MAX_CPUS - 1]);
        assert_eq!(s.first(), Some(0));
        assert_eq!(CpuSet::empty().first(), None);
    }

    #[test]
    fn cpulist_parses_ranges_and_skips_junk() {
        assert_eq!(parse_cpulist("0-3,8,10-11\n"), vec![0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpulist("5"), vec![5]);
        assert_eq!(parse_cpulist(""), Vec::<usize>::new());
        assert_eq!(parse_cpulist("2-1"), Vec::<usize>::new()); // inverted
        assert_eq!(parse_cpulist("x,3,y-2,4-4"), vec![3, 4]);
        assert_eq!(parse_cpulist(" 1 - 2 , 7 "), vec![1, 2, 7]);
    }

    #[test]
    fn pin_policy_parse_and_display() {
        for p in PinPolicy::ALL {
            assert_eq!(p.to_string().parse::<PinPolicy>().unwrap(), p);
        }
        assert_eq!("COMPACT".parse::<PinPolicy>().unwrap(), PinPolicy::Compact);
        assert!("firstcore".parse::<PinPolicy>().is_err());
        assert_eq!(PinPolicy::default(), PinPolicy::None);
    }

    /// Two nodes × two physical cores × two SMT threads:
    /// node0 = {0,1,4,5}, node1 = {2,3,6,7}; cpu N and N+4 are siblings.
    fn synthetic() -> Topology {
        let mut cores = Vec::new();
        for cpu in 0..8usize {
            cores.push(CoreInfo {
                cpu,
                node: (cpu % 4) / 2,
                core_id: cpu % 4,
                smt_rank: cpu / 4,
            });
        }
        Topology { cores }
    }

    #[test]
    fn plan_none_is_unpinned() {
        let t = synthetic();
        assert_eq!(t.plan(PinPolicy::None, 4), vec![None; 4]);
        assert_eq!(
            Topology::default().plan(PinPolicy::Compact, 3),
            vec![None; 3]
        );
        assert_eq!(t.nodes(), 2);
    }

    #[test]
    fn plan_compact_packs_one_node_first() {
        let t = synthetic();
        let plan = t.plan(PinPolicy::Compact, 8);
        // Node 0 filled first (core 0 + its sibling, then core 1 + its
        // sibling), then node 1.
        assert_eq!(plan, [0, 4, 1, 5, 2, 6, 3, 7].map(Some).to_vec());
    }

    #[test]
    fn plan_scatter_alternates_nodes_physical_first() {
        let t = synthetic();
        let plan = t.plan(PinPolicy::Scatter, 8);
        // Alternate node0/node1; all physical cores before any sibling.
        assert_eq!(plan, [0, 2, 1, 3, 4, 6, 5, 7].map(Some).to_vec());
    }

    #[test]
    fn plan_wraps_when_oversubscribed() {
        let t = synthetic();
        let plan = t.plan(PinPolicy::Compact, 10);
        assert_eq!(plan.len(), 10);
        assert_eq!(plan[8], plan[0]);
        assert_eq!(plan[9], plan[1]);
    }

    #[test]
    fn from_sysfs_reads_synthetic_tree() {
        let root = std::env::temp_dir().join(format!("iawj-topo-{}", std::process::id()));
        let mk = |rel: &str, content: &str| {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, content).unwrap();
        };
        mk("node/node0/cpulist", "0-1\n");
        mk("node/node1/cpulist", "2-3\n");
        for cpu in 0..4 {
            mk(
                &format!("cpu/cpu{cpu}/topology/core_id"),
                &format!("{}\n", cpu % 2),
            );
            // cpu and cpu^1 are SMT siblings within their node.
            let (a, b) = (cpu & !1, cpu | 1);
            mk(
                &format!("cpu/cpu{cpu}/topology/thread_siblings_list"),
                &format!("{a},{b}\n"),
            );
        }
        let mut mask = CpuSet::empty();
        for cpu in 0..4 {
            mask.set(cpu);
        }
        let t = Topology::from_sysfs(&root, &mask);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(t.cores.len(), 4);
        assert_eq!(
            t.cores[0],
            CoreInfo {
                cpu: 0,
                node: 0,
                core_id: 0,
                smt_rank: 0
            }
        );
        assert_eq!(
            t.cores[1],
            CoreInfo {
                cpu: 1,
                node: 0,
                core_id: 1,
                smt_rank: 1
            }
        );
        assert_eq!(
            t.cores[2],
            CoreInfo {
                cpu: 2,
                node: 1,
                core_id: 0,
                smt_rank: 0
            }
        );
        assert_eq!(
            t.cores[3],
            CoreInfo {
                cpu: 3,
                node: 1,
                core_id: 1,
                smt_rank: 1
            }
        );
        assert_eq!(t.nodes(), 2);
    }

    #[test]
    fn from_sysfs_defaults_without_tree() {
        // A root that does not exist: every CPU in the mask still gets an
        // entry with usable defaults.
        let mut mask = CpuSet::empty();
        mask.set(3);
        mask.set(5);
        let t = Topology::from_sysfs(Path::new("/nonexistent-iawj-sysfs"), &mask);
        assert_eq!(t.cores.len(), 2);
        assert_eq!(
            t.cores[0],
            CoreInfo {
                cpu: 3,
                node: 0,
                core_id: 3,
                smt_rank: 0
            }
        );
        assert_eq!(t.plan(PinPolicy::Compact, 2), vec![Some(3), Some(5)]);
    }

    #[test]
    fn huge_page_interior_keeps_whole_huge_pages_only() {
        const H: usize = HUGE_PAGE;
        // Empty, and under one huge page.
        assert_eq!(huge_page_interior(H, 0), None);
        assert_eq!(huge_page_interior(H + 64, H - 4096), None);
        // Straddling one boundary but shorter than two huge pages.
        assert_eq!(huge_page_interior(H - 4096, H + 8192), None);
        // Straddling one boundary at the 4 MiB threshold: the single whole
        // huge page inside.
        assert_eq!(huge_page_interior(H - 4096, 2 * H), Some(H..2 * H));
        // Exactly aligned: all of it.
        assert_eq!(huge_page_interior(4 * H, 3 * H), Some(4 * H..7 * H));
        // 4 MiB ± 1.
        assert_eq!(huge_page_interior(H, 2 * H - 1), None);
        assert_eq!(huge_page_interior(H, 2 * H), Some(H..3 * H));
        assert_eq!(huge_page_interior(H, 2 * H + 1), Some(H..3 * H));
        assert_eq!(huge_page_interior(H + 1, 2 * H + 1), Some(2 * H..3 * H));
        // An end past the address space is no range at all.
        assert_eq!(huge_page_interior(usize::MAX - H, 2 * H), None);
    }

    /// The graceful-degradation contract: detection and planning work (or
    /// degrade) on every host, and the per-thread affinity calls either
    /// succeed and are observable or fail without panicking.
    #[test]
    fn detect_and_pin_never_panic() {
        let t = Topology::detect();
        let plan = t.plan(PinPolicy::Compact, 4);
        assert_eq!(plan.len(), 4);
        assert!(affinity_core_count() >= 1);
        let Some(mask) = affinity_mask() else {
            // Syscall unavailable: pinning must simply report failure.
            assert!(!pin_to_cpu(0));
            return;
        };
        assert!(mask.count() >= 1);
        // The topology is restricted to the mask.
        for c in &t.cores {
            assert!(mask.contains(c.cpu), "cpu {} outside mask", c.cpu);
        }
        let target = mask.first().unwrap();
        if pin_to_cpu(target) {
            assert_eq!(current_cpu(), Some(target));
            // Restore the original mask so this test thread does not stay
            // pinned for later tests.
            assert!(set_affinity(&mask));
        }
        assert!(!pin_to_cpu(MAX_CPUS + 1));
    }
}
