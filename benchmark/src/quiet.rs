//! The quiet gate: before a run measures anything, wait until the host is
//! about as fast as it has been.
//!
//! The benchmark runs on a few cores of a shared host. Neighbours that use
//! the shared L3 and memory slow a memory-bound join by 15–45 % for half a
//! minute to a few minutes at a time, which is more than any bound, and no
//! statistic inside a 16 s run removes a slowdown that covers the whole run.
//! So a run first times a canary that such a neighbour slows (sorting 8 MB,
//! which lives in the L3) and, while the canary reads slower than the fastest
//! reading on record, waits — up to a limit per run and a limit over all the
//! runs of a checkout, so that the gate can never use up the time the
//! contract allows. The record is a file under `benchmark/out/`.
//!
//! The gate only delays the start: everything a run reports is measured
//! afterwards, by the same code, whether it waited or not.

use crate::stats::median;
use iawj_common::Rng;
use std::path::Path;
use std::time::{Duration, Instant};

/// 2^20 `u64`s: 8 MB, beyond the L2 and inside the L3.
const CANARY_ELEMS: usize = 1 << 20;

/// A reading is the median of this many sorts (about 22 ms each).
const SAMPLES: usize = 5;

/// A reading more than this above the fastest on record is a busy host.
/// Readings of a quiet host stay within 8 % of each other. The host also
/// spends minutes at a time 10–15 % slow, which the bounds absorb and which
/// would only use up the allowance; the slowdowns to wait out are the ones
/// of 25–50 %.
const QUIET_RATIO: f64 = 1.2;

const RETRY_EVERY: Duration = Duration::from_secs(1);

/// One run waits this long at most: long enough that one wait outlasts a
/// slowdown of a minute, which would otherwise cover three runs, and short
/// enough that the run still ends well inside the contract's 180 s.
const MAX_WAIT: Duration = Duration::from_secs(90);

/// All runs of a checkout together wait this long at most: the contract's
/// limit for all runs leaves about 800 s beyond what they take unhindered.
const MAX_TOTAL_WAIT_S: f64 = 240.0;

pub struct Gate {
    pub waited_s: f64,
    /// The reading the run started behind, and the fastest on record.
    pub canary_ms: f64,
    pub reference_ms: f64,
}

/// The record: the fastest reading so far, and the seconds waited so far.
fn read_record(path: &Path) -> Option<(f64, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    let reference = fields.next()?.ok()?;
    let waited = fields.next()?.ok()?;
    (reference > 0.0 && waited >= 0.0).then_some((reference, waited))
}

fn reading(data: &[u64], scratch: &mut Vec<u64>) -> f64 {
    let ms: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            scratch.clear();
            scratch.extend_from_slice(data);
            let t0 = Instant::now();
            scratch.sort_unstable();
            std::hint::black_box(&scratch);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// Wait for a quiet host, within the limits. A missing or unreadable record
/// starts a new one; a record that cannot be written only costs the next
/// run its reference.
pub fn wait_for_quiet(record: &Path) -> Gate {
    let (mut reference_ms, waited_before) = read_record(record).unwrap_or((f64::INFINITY, 0.0));
    let mut rng = Rng::new(0xCA_4A_87);
    let data: Vec<u64> = (0..CANARY_ELEMS).map(|_| rng.next_u64()).collect();
    let mut scratch = Vec::with_capacity(CANARY_ELEMS);

    let started = Instant::now();
    let mut waited_s = 0.0;
    let canary_ms = loop {
        let ms = reading(&data, &mut scratch);
        reference_ms = reference_ms.min(ms);
        if ms <= reference_ms * QUIET_RATIO
            || started.elapsed() >= MAX_WAIT
            || waited_before + waited_s >= MAX_TOTAL_WAIT_S
        {
            break ms;
        }
        std::thread::sleep(RETRY_EVERY);
        waited_s = started.elapsed().as_secs_f64();
    };

    if let Some(dir) = record.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(
        record,
        format!("{reference_ms} {}\n", waited_before + waited_s),
    );
    Gate {
        waited_s,
        canary_ms,
        reference_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A directory of the test's own under `benchmark/out/`.
    fn scratch_dir(test: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("quiet-test-{test}-{}", std::process::id()))
    }

    #[test]
    fn a_spent_allowance_lets_a_slow_reading_through() {
        let dir = scratch_dir("spent");
        let record = dir.join("quiet_gate.txt");
        std::fs::create_dir_all(&dir).unwrap();
        // No sort of 8 MB takes a microsecond: every reading is "slow".
        std::fs::write(&record, format!("0.001 {MAX_TOTAL_WAIT_S}\n")).unwrap();
        let gate = wait_for_quiet(&record);
        assert_eq!(gate.waited_s, 0.0);
        assert_eq!(gate.reference_ms, 0.001);
        assert_eq!(
            read_record(&record),
            Some((0.001, MAX_TOTAL_WAIT_S)),
            "the record keeps the reference and the allowance"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_first_run_starts_at_once_and_leaves_a_record() {
        let dir = scratch_dir("first");
        let record = dir.join("quiet_gate.txt");
        let gate = wait_for_quiet(&record);
        assert_eq!(gate.waited_s, 0.0);
        assert_eq!(gate.canary_ms, gate.reference_ms);
        assert_eq!(read_record(&record), Some((gate.reference_ms, 0.0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
