//! Hardware performance counters via Linux `perf_event_open`.
//!
//! The paper's §6.2 microarchitectural analysis (Table 5, Fig. 19)
//! attributes engine behavior to cycles, instructions, cache/TLB misses
//! and branch mispredicts measured with PCM. This module provides the
//! same counters for our phase timers — *measured*, not simulated —
//! without adding a dependency: the one syscall the kernel needs
//! (`perf_event_open`) is issued through inline assembly, and the
//! returned descriptors are wrapped in `std::fs::File` so reads and
//! closes go through std.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic, never fail a run.** Counter availability is a host
//!    property (`perf_event_paranoid`, seccomp filters, missing PMUs in
//!    VMs, non-Linux targets). [`PerfSampler::open`] returns a
//!    [`PerfError`] and callers degrade to simulated-only columns.
//! 2. **Per-thread attribution.** A sampler opened on a worker thread
//!    (pid = 0, cpu = −1) follows exactly that thread, so per-phase
//!    deltas line up with the per-thread [`SpanJournal`] spans.
//! 3. **Honest multiplexing.** Each event is opened ungrouped with
//!    `PERF_FORMAT_TOTAL_TIME_ENABLED|RUNNING`; when the PMU rotates
//!    events, deltas are scaled by the enabled/running ratio of the
//!    interval, the same estimate `perf stat` reports.
//!
//! Events are counted in user space only (`exclude_kernel`,
//! `exclude_hv`), which keeps them usable at `perf_event_paranoid = 2`,
//! the default on most distributions.
//!
//! [`SpanJournal`]: crate::journal::SpanJournal

use std::fmt;
use std::fs::File;
use std::io::Read;
use std::ops::{Add, AddAssign};

/// Number of hardware counters a sampler tracks.
pub const N_COUNTERS: usize = 8;

/// Counter names, in [`CounterDelta::vals`] order.
pub const COUNTER_NAMES: [&str; N_COUNTERS] = [
    "cycles",
    "instructions",
    "l1d_loads",
    "l1d_misses",
    "llc_loads",
    "llc_misses",
    "dtlb_misses",
    "branch_misses",
];

/// Index of the cycle counter in [`CounterDelta::vals`].
pub const IDX_CYCLES: usize = 0;
/// Index of the retired-instruction counter.
pub const IDX_INSTRUCTIONS: usize = 1;
/// Index of the L1D load counter.
pub const IDX_L1D_LOADS: usize = 2;
/// Index of the L1D load-miss counter.
pub const IDX_L1D_MISSES: usize = 3;
/// Index of the last-level-cache load counter.
pub const IDX_LLC_LOADS: usize = 4;
/// Index of the last-level-cache load-miss counter.
pub const IDX_LLC_MISSES: usize = 5;
/// Index of the dTLB load-miss counter.
pub const IDX_DTLB_MISSES: usize = 6;
/// Index of the branch-mispredict counter.
pub const IDX_BRANCH_MISSES: usize = 7;

/// A bundle of counter increments over one interval (or a sum of
/// intervals). Addable across phases, workers and runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterDelta {
    /// One value per [`COUNTER_NAMES`] entry.
    pub vals: [u64; N_COUNTERS],
}

impl CounterDelta {
    /// The all-zero delta.
    pub const fn zero() -> Self {
        CounterDelta {
            vals: [0; N_COUNTERS],
        }
    }

    /// True when every counter is zero (no hardware data).
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }

    /// CPU cycles in this interval.
    pub fn cycles(&self) -> u64 {
        self.vals[IDX_CYCLES]
    }

    /// Retired instructions in this interval.
    pub fn instructions(&self) -> u64 {
        self.vals[IDX_INSTRUCTIONS]
    }

    /// Instructions per cycle; `None` when cycles are zero.
    pub fn ipc(&self) -> Option<f64> {
        let c = self.cycles();
        (c > 0).then(|| self.instructions() as f64 / c as f64)
    }

    /// `vals[idx]` per thousand instructions; `None` without instructions.
    pub fn per_kilo_instruction(&self, idx: usize) -> Option<f64> {
        let i = self.instructions();
        (i > 0).then(|| self.vals[idx] as f64 * 1000.0 / i as f64)
    }
}

impl AddAssign for CounterDelta {
    fn add_assign(&mut self, rhs: CounterDelta) {
        for (a, b) in self.vals.iter_mut().zip(rhs.vals.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

impl Add for CounterDelta {
    type Output = CounterDelta;
    fn add(mut self, rhs: CounterDelta) -> CounterDelta {
        self += rhs;
        self
    }
}

/// Where a run's per-phase counters came from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CounterSource {
    /// Measured by `perf_event_open` hardware counters.
    Perf,
    /// No hardware counters (permission denied, no PMU, non-Linux);
    /// only the cache simulator's modeled counters are available.
    #[default]
    Unavailable,
}

impl CounterSource {
    /// Machine-readable label (`"perf"` / `"none"`).
    pub fn label(self) -> &'static str {
        match self {
            CounterSource::Perf => "perf",
            CounterSource::Unavailable => "none",
        }
    }

    /// Did hardware counters back this data?
    pub fn is_perf(self) -> bool {
        self == CounterSource::Perf
    }
}

/// Why hardware counters could not be opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerfError {
    /// Not a Linux target (or an architecture without the syscall shim).
    Unsupported,
    /// `perf_event_open` failed with this errno for every core event.
    Errno(i32),
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PerfError::Unsupported => write!(f, "perf_event_open unavailable on this target"),
            PerfError::Errno(e) if e == 1 || e == 13 => write!(
                f,
                "perf_event_open denied (errno {e}); check \
                 /proc/sys/kernel/perf_event_paranoid or container seccomp policy"
            ),
            PerfError::Errno(e) => write!(f, "perf_event_open failed (errno {e})"),
        }
    }
}

// ---------------------------------------------------------------------------
// The syscall shim
// ---------------------------------------------------------------------------

/// `struct perf_event_attr`, `PERF_ATTR_SIZE_VER7` (128-byte) layout.
/// All-zero is a valid counting-event configuration; only the handful of
/// fields we set are named in `attr()` below.
#[repr(C)]
#[derive(Clone, Copy)]
struct PerfEventAttr {
    type_: u32,
    size: u32,
    config: u64,
    sample_period_or_freq: u64,
    sample_type: u64,
    read_format: u64,
    flags: u64,
    wakeup: u32,
    bp_type: u32,
    config1: u64,
    config2: u64,
    branch_sample_type: u64,
    sample_regs_user: u64,
    sample_stack_user: u32,
    clockid: i32,
    sample_regs_intr: u64,
    aux_watermark: u32,
    sample_max_stack: u16,
    reserved_2: u16,
    aux_sample_size: u32,
    reserved_3: u32,
    sig_data: u64,
}

const PERF_ATTR_SIZE: u32 = 128;
/// `read_format`: value + time_enabled + time_running.
const FORMAT_TOTAL_TIMES: u64 = 1 | 2;
/// `flags` bitfield: exclude_kernel (bit 5) | exclude_hv (bit 6) — user
/// space only, so `perf_event_paranoid = 2` still admits us.
const FLAG_EXCLUDE_KERNEL_HV: u64 = (1 << 5) | (1 << 6);
/// `perf_event_open` flags argument: close-on-exec.
const PERF_FLAG_FD_CLOEXEC: u64 = 8;

const PERF_TYPE_HARDWARE: u32 = 0;
const PERF_TYPE_HW_CACHE: u32 = 3;

const HW_CPU_CYCLES: u64 = 0;
const HW_INSTRUCTIONS: u64 = 1;
const HW_BRANCH_MISSES: u64 = 5;

/// `PERF_COUNT_HW_CACHE_*` config: `id | (op << 8) | (result << 16)`.
const fn hw_cache(id: u64, op: u64, result: u64) -> u64 {
    id | (op << 8) | (result << 16)
}
const CACHE_L1D: u64 = 0;
const CACHE_LL: u64 = 2;
const CACHE_DTLB: u64 = 3;
const OP_READ: u64 = 0;
const RESULT_ACCESS: u64 = 0;
const RESULT_MISS: u64 = 1;

/// `(type, config)` for each [`COUNTER_NAMES`] slot.
const EVENT_CONFIGS: [(u32, u64); N_COUNTERS] = [
    (PERF_TYPE_HARDWARE, HW_CPU_CYCLES),
    (PERF_TYPE_HARDWARE, HW_INSTRUCTIONS),
    (
        PERF_TYPE_HW_CACHE,
        hw_cache(CACHE_L1D, OP_READ, RESULT_ACCESS),
    ),
    (
        PERF_TYPE_HW_CACHE,
        hw_cache(CACHE_L1D, OP_READ, RESULT_MISS),
    ),
    (
        PERF_TYPE_HW_CACHE,
        hw_cache(CACHE_LL, OP_READ, RESULT_ACCESS),
    ),
    (PERF_TYPE_HW_CACHE, hw_cache(CACHE_LL, OP_READ, RESULT_MISS)),
    (
        PERF_TYPE_HW_CACHE,
        hw_cache(CACHE_DTLB, OP_READ, RESULT_MISS),
    ),
    (PERF_TYPE_HARDWARE, HW_BRANCH_MISSES),
];

fn attr(type_: u32, config: u64) -> PerfEventAttr {
    // SAFETY: PerfEventAttr is plain-old-data; all-zero is the kernel's
    // documented default configuration.
    let mut a: PerfEventAttr = unsafe { std::mem::zeroed() };
    a.type_ = type_;
    a.size = PERF_ATTR_SIZE;
    a.config = config;
    a.read_format = FORMAT_TOTAL_TIMES;
    a.flags = FLAG_EXCLUDE_KERNEL_HV;
    a
}

/// Raw `perf_event_open(attr, pid = 0, cpu = -1, group_fd = -1, CLOEXEC)`
/// for the calling thread. Returns the fd, or a negative errno.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sys_perf_event_open(a: &PerfEventAttr) -> i64 {
    let ret: i64;
    // SAFETY: the syscall reads `a` (live for the call) and touches no
    // other memory; rcx/r11 are declared clobbered per the x86_64 ABI.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 298i64 => ret, // __NR_perf_event_open
            in("rdi") a as *const PerfEventAttr,
            in("rsi") 0i64,  // pid: calling thread
            in("rdx") -1i64, // cpu: any
            in("r10") -1i64, // group_fd: ungrouped
            in("r8") PERF_FLAG_FD_CLOEXEC,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn sys_perf_event_open(a: &PerfEventAttr) -> i64 {
    let ret: i64;
    // SAFETY: as above; aarch64 passes the number in x8, args in x0..x4.
    unsafe {
        std::arch::asm!(
            "svc 0",
            inlateout("x0") a as *const PerfEventAttr as i64 => ret,
            in("x1") 0i64,
            in("x2") -1i64,
            in("x3") -1i64,
            in("x4") PERF_FLAG_FD_CLOEXEC,
            in("x8") 241i64, // __NR_perf_event_open
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn sys_perf_event_open(_a: &PerfEventAttr) -> i64 {
    -38 // -ENOSYS
}

// ---------------------------------------------------------------------------
// The sampler
// ---------------------------------------------------------------------------

/// One open counting event and its last-read cumulative state.
#[derive(Debug)]
struct EventState {
    file: File,
    value: u64,
    enabled: u64,
    running: u64,
}

impl EventState {
    /// Read `(value, time_enabled, time_running)` from the event fd.
    fn read_triple(&self) -> Option<[u64; 3]> {
        let mut buf = [0u8; 24];
        let mut f = &self.file;
        let n = f.read(&mut buf).ok()?;
        if n < 24 {
            return None;
        }
        let word = |i: usize| u64::from_ne_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
        Some([word(0), word(1), word(2)])
    }
}

/// A per-thread set of hardware counters. Open it on the thread you want
/// measured; [`PerfSampler::sample`] returns the (multiplexing-scaled)
/// increments since the previous call.
#[derive(Debug)]
pub struct PerfSampler {
    events: [Option<EventState>; N_COUNTERS],
}

impl PerfSampler {
    /// Open the counter set for the calling thread. Individual events may
    /// be missing (no dTLB event on this PMU, say) and simply read as
    /// zero; the open only fails when *both* core events — cycles and
    /// instructions — are rejected, in which case the host does not
    /// meaningfully support `perf_event` and callers should fall back to
    /// simulated counters.
    pub fn open() -> Result<PerfSampler, PerfError> {
        let mut events: [Option<EventState>; N_COUNTERS] = Default::default();
        let mut last_err = PerfError::Unsupported;
        for (i, &(type_, config)) in EVENT_CONFIGS.iter().enumerate() {
            let a = attr(type_, config);
            let ret = sys_perf_event_open(&a);
            if ret >= 0 {
                // SAFETY: ret is a fresh fd we own; File takes over closing.
                let file = unsafe {
                    use std::os::fd::FromRawFd;
                    File::from_raw_fd(ret as std::os::fd::RawFd)
                };
                let mut ev = EventState {
                    file,
                    value: 0,
                    enabled: 0,
                    running: 0,
                };
                if let Some([v, e, r]) = ev.read_triple() {
                    (ev.value, ev.enabled, ev.running) = (v, e, r);
                    events[i] = Some(ev);
                }
            } else {
                last_err = PerfError::Errno((-ret) as i32);
            }
        }
        if events[IDX_CYCLES].is_none() && events[IDX_INSTRUCTIONS].is_none() {
            return Err(last_err);
        }
        Ok(PerfSampler { events })
    }

    /// Which counters actually opened.
    pub fn available(&self) -> [bool; N_COUNTERS] {
        std::array::from_fn(|i| self.events[i].is_some())
    }

    /// Counter increments since the last `sample` (or since `open`).
    /// Events the PMU multiplexed out for part of the interval are scaled
    /// by `enabled/running`, like `perf stat`; events that never ran
    /// contribute zero.
    pub fn sample(&mut self) -> CounterDelta {
        let mut out = CounterDelta::zero();
        for (i, slot) in self.events.iter_mut().enumerate() {
            let Some(ev) = slot else { continue };
            let Some([v, e, r]) = ev.read_triple() else {
                continue;
            };
            let dv = v.saturating_sub(ev.value);
            let de = e.saturating_sub(ev.enabled);
            let dr = r.saturating_sub(ev.running);
            (ev.value, ev.enabled, ev.running) = (v, e, r);
            out.vals[i] = if dr == 0 {
                0
            } else if de == dr {
                dv
            } else {
                ((dv as u128).saturating_mul(de as u128) / dr as u128) as u64
            };
        }
        out
    }
}

/// Measure the calling thread's effective clock in GHz (cycles per
/// nanosecond) by spinning for at least `min_ms` milliseconds against the
/// cycle counter. `None` when hardware counters are unavailable or the
/// cycle event never ran.
pub fn measure_ghz(min_ms: u64) -> Option<f64> {
    let mut sampler = PerfSampler::open().ok()?;
    sampler.available()[IDX_CYCLES].then_some(())?;
    let start = std::time::Instant::now();
    sampler.sample();
    let mut acc = 0u64;
    while start.elapsed().as_millis() < u128::from(min_ms.max(1)) {
        // Dependent adds: one cycle each, keeps the core busy without
        // touching memory.
        for _ in 0..4096 {
            acc = std::hint::black_box(acc.wrapping_add(1));
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    let cycles = sampler.sample().cycles();
    (cycles > 0 && ns > 0).then(|| cycles as f64 / ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_arithmetic_accumulates() {
        let mut a = CounterDelta::zero();
        assert!(a.is_zero());
        let mut b = CounterDelta::zero();
        b.vals[IDX_CYCLES] = 100;
        b.vals[IDX_INSTRUCTIONS] = 250;
        b.vals[IDX_L1D_MISSES] = 5;
        a += b;
        a += b;
        assert_eq!(a.cycles(), 200);
        assert_eq!(a.instructions(), 500);
        assert!((a.ipc().unwrap() - 2.5).abs() < 1e-12);
        assert!((a.per_kilo_instruction(IDX_L1D_MISSES).unwrap() - 20.0).abs() < 1e-9);
        let c = a + b;
        assert_eq!(c.cycles(), 300);
    }

    #[test]
    fn zero_delta_has_no_rates() {
        let z = CounterDelta::zero();
        assert_eq!(z.ipc(), None);
        assert_eq!(z.per_kilo_instruction(IDX_LLC_MISSES), None);
    }

    #[test]
    fn saturating_add_does_not_wrap() {
        let mut a = CounterDelta::zero();
        a.vals[0] = u64::MAX - 1;
        let mut b = CounterDelta::zero();
        b.vals[0] = 5;
        a += b;
        assert_eq!(a.vals[0], u64::MAX);
    }

    #[test]
    fn counter_source_labels() {
        assert_eq!(CounterSource::Perf.label(), "perf");
        assert_eq!(CounterSource::Unavailable.label(), "none");
        assert!(CounterSource::Perf.is_perf());
        assert!(!CounterSource::default().is_perf());
    }

    #[test]
    fn perf_error_display_hints_at_paranoid() {
        let msg = PerfError::Errno(13).to_string();
        assert!(msg.contains("perf_event_paranoid"), "{msg}");
        let msg = PerfError::Errno(22).to_string();
        assert!(msg.contains("errno 22"), "{msg}");
        assert!(PerfError::Unsupported.to_string().contains("unavailable"));
    }

    /// The graceful-degradation contract: open either succeeds and then
    /// measures real work, or fails with a classified error — it never
    /// panics. Both branches are legitimate depending on the host
    /// (paranoid level, seccomp, VM without a PMU).
    #[test]
    fn open_measures_or_degrades() {
        match PerfSampler::open() {
            Ok(mut s) => {
                s.sample();
                let mut acc = 0u64;
                for _ in 0..2_000_000 {
                    acc = std::hint::black_box(acc.wrapping_add(3));
                }
                let d = s.sample();
                // Cycles (or at least one core counter) must have moved
                // for two million dependent adds.
                assert!(
                    d.cycles() > 0 || d.instructions() > 0,
                    "counters opened but never counted: {d:?}"
                );
            }
            Err(e) => {
                // Degraded hosts: the error formats and carries a reason.
                assert!(!e.to_string().is_empty());
            }
        }
    }

    #[test]
    fn measure_ghz_is_plausible_or_none() {
        // `None`: no counters on this host — the degraded path.
        if let Some(ghz) = measure_ghz(2) {
            assert!(
                (0.1..20.0).contains(&ghz),
                "implausible clock estimate: {ghz} GHz"
            );
        }
    }
}
