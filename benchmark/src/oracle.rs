//! The independent oracle: expected match counts from dense key histograms
//! written here, sharing no code with the engines, `core::reference` (which
//! is O(n²)) or `execute_windowed` (which is the system itself).

use iawj_common::Tuple;

fn histogram(tuples: &[Tuple], buckets: usize) -> Vec<u32> {
    let mut h = vec![0u32; buckets];
    for t in tuples {
        h[t.key as usize] += 1;
    }
    h
}

fn key_buckets(r: &[Tuple], s: &[Tuple]) -> usize {
    r.iter()
        .chain(s)
        .map(|t| t.key)
        .max()
        .map_or(0, |k| k as usize + 1)
}

/// Matches of the equi-join of `r` and `s`: Σ over keys of |R_k|·|S_k|.
pub fn join_count(r: &[Tuple], s: &[Tuple]) -> u64 {
    let n = key_buckets(r, s);
    let (hr, hs) = (histogram(r, n), histogram(s, n));
    hr.iter().zip(&hs).map(|(&a, &b)| a as u64 * b as u64).sum()
}

/// One side of the rolling window: tuples in timestamp order, the key
/// histogram of those currently inside the window, and the two cursors.
struct Rolling {
    by_ts: Vec<Tuple>,
    hist: Vec<u32>,
    entered: usize,
    left: usize,
}

impl Rolling {
    fn new(tuples: &[Tuple], buckets: usize) -> Rolling {
        let mut by_ts = tuples.to_vec();
        by_ts.sort_unstable_by_key(|t| t.ts);
        Rolling {
            by_ts,
            hist: vec![0; buckets],
            entered: 0,
            left: 0,
        }
    }
}

/// Move `side`'s window to `[start, end)`, keeping `dot = Σ_k side_k·other_k`
/// current: a tuple entering adds the other side's count of its key, one
/// leaving subtracts it.
fn slide_to(side: &mut Rolling, other: &[u32], start: u64, end: u64, dot: &mut u64) {
    while side.entered < side.by_ts.len() && (side.by_ts[side.entered].ts as u64) < end {
        let k = side.by_ts[side.entered].key as usize;
        side.hist[k] += 1;
        *dot += other[k] as u64;
        side.entered += 1;
    }
    while side.left < side.entered && (side.by_ts[side.left].ts as u64) < start {
        let k = side.by_ts[side.left].key as usize;
        side.hist[k] -= 1;
        *dot -= other[k] as u64;
        side.left += 1;
    }
}

/// Expected matches of every realized window `[k·slide, k·slide + len)`,
/// `k = 0, 1, …` while `k·slide <= max_ts` — the windows a drained stream
/// flushes. `r` and `s` hold the tuples that are *not* dropped as late, in
/// any order; `max_ts` is the largest timestamp sent, late ones included.
pub fn window_counts(r: &[Tuple], s: &[Tuple], len: u32, slide: u32, max_ts: u32) -> Vec<u64> {
    assert!(len > 0 && slide > 0 && slide <= len);
    let n = key_buckets(r, s);
    let (mut rr, mut ss) = (Rolling::new(r, n), Rolling::new(s, n));
    let mut dot = 0u64;
    (0..=(max_ts / slide) as u64)
        .map(|k| {
            let (start, end) = (k * slide as u64, k * slide as u64 + len as u64);
            slide_to(&mut rr, &ss.hist, start, end, &mut dot);
            slide_to(&mut ss, &rr.hist, start, end, &mut dot);
            dot
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iawj_common::Rng;

    fn random_stream(n: usize, keys: u32, span: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| Tuple::new(rng.next_u32() % keys, rng.below(span as u64) as u32))
            .collect()
    }

    fn brute(r: &[Tuple], s: &[Tuple], lo: u32, hi: u32) -> u64 {
        let inside = |t: &&Tuple| t.ts >= lo && t.ts < hi;
        r.iter()
            .filter(inside)
            .map(|a| s.iter().filter(inside).filter(|b| a.key == b.key).count() as u64)
            .sum()
    }

    #[test]
    fn join_count_matches_nested_loops() {
        let r = random_stream(300, 16, 1, 1);
        let s = random_stream(400, 16, 1, 2);
        assert_eq!(join_count(&r, &s), brute(&r, &s, 0, 1));
        assert_eq!(join_count(&r, &[]), 0);
    }

    #[test]
    fn rolling_windows_match_nested_loops() {
        let r = random_stream(500, 8, 1000, 3);
        let s = random_stream(500, 8, 1000, 4);
        let max_ts = r.iter().chain(&s).map(|t| t.ts).max().unwrap();
        for (len, slide) in [(100, 100), (400, 100), (300, 150)] {
            let got = window_counts(&r, &s, len, slide, max_ts);
            assert_eq!(got.len() as u32, max_ts / slide + 1);
            for (k, &m) in got.iter().enumerate() {
                let lo = k as u32 * slide;
                assert_eq!(
                    m,
                    brute(&r, &s, lo, lo + len),
                    "window {k} of {len}/{slide}"
                );
            }
        }
    }
}
