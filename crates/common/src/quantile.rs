//! Streaming quantile estimation (the P² algorithm of Jain & Chlamtac).
//!
//! The paper reports 95th-percentile worst-case latency (§4.1). The
//! default harness reads quantiles from a log-bucketed histogram over every
//! match; this estimator is the constant-memory alternative for deployments
//! where even a 58 KiB histogram per worker is too much state — five markers track the target quantile of
//! an unbounded stream with no buffering, which is how production stream
//! processors expose their latency percentiles.

/// P² single-quantile estimator: five markers, O(1) per observation.
#[derive(Clone, Debug)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimated quantile positions).
    heights: [f64; 5],
    /// Actual marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    count: usize,
    /// First five observations, used to initialise the markers.
    warmup: [f64; 5],
}

impl P2Quantile {
    /// Estimator for quantile `q` in `(0, 1)`.
    ///
    /// # Panics
    /// Panics when `q` is outside the open unit interval.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1), got {q}");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            warmup: [0.0; 5],
        }
    }

    /// Observations seen so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feed one observation.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            self.warmup[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.warmup.sort_by(|a, b| a.total_cmp(b));
                self.heights = self.warmup;
            }
            return;
        }
        self.count += 1;

        // Find the cell containing x and clamp the extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // heights[k] <= x < heights[k+1]
            (0..4)
                .find(|&i| x < self.heights[i + 1])
                .expect("x is within the marker span")
        };
        for p in &mut self.positions[k + 1..] {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments.iter()) {
            *d += inc;
        }

        // Adjust the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let step_up = self.positions[i + 1] - self.positions[i] > 1.0;
            let step_down = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && step_up) || (d <= -1.0 && step_down) {
                let s = d.signum();
                let parabolic = self.parabolic(i, s);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, s)
                    };
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let (qm, qi, qp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, ni, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        qi + s / (np - nm)
            * ((ni - nm + s) * (qp - qi) / (np - ni) + (np - ni - s) * (qi - qm) / (ni - nm))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = (i as f64 + s) as usize;
        let dn = self.positions[j] - self.positions[i];
        // Coincident markers would divide to ±inf/NaN and poison every
        // later estimate; the marker has nowhere to move, so keep its
        // height.
        if dn == 0.0 {
            return self.heights[i];
        }
        self.heights[i] + s * (self.heights[j] - self.heights[i]) / dn
    }

    /// Current estimate; `None` until five observations have arrived
    /// (before that an exact small-sample quantile is returned).
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n @ 1..=4 => {
                // `estimate` may be polled per observation (latency
                // dashboards do); a stack copy + in-place sort keeps the
                // warmup path allocation-free.
                let mut v = [0.0f64; 4];
                v[..n].copy_from_slice(&self.warmup[..n]);
                let v = &mut v[..n];
                v.sort_unstable_by(|a, b| a.total_cmp(b));
                let idx = ((n - 1) as f64 * self.q).round() as usize;
                Some(v[idx])
            }
            _ => Some(self.heights[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn exact_quantile(mut v: Vec<f64>, q: f64) -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        v[((v.len() - 1) as f64 * q).round() as usize]
    }

    #[test]
    fn uniform_stream_p95() {
        let mut rng = Rng::new(1);
        let mut est = P2Quantile::new(0.95);
        let mut all = Vec::new();
        for _ in 0..50_000 {
            let x = rng.next_f64() * 1000.0;
            est.observe(x);
            all.push(x);
        }
        let exact = exact_quantile(all, 0.95);
        let got = est.estimate().unwrap();
        assert!(
            (got - exact).abs() < exact * 0.03,
            "P2 {got} vs exact {exact}"
        );
    }

    #[test]
    fn heavy_tail_median() {
        // Exponential-ish tail via inverse transform.
        let mut rng = Rng::new(2);
        let mut est = P2Quantile::new(0.5);
        let mut all = Vec::new();
        for _ in 0..50_000 {
            let x = -(1.0 - rng.next_f64()).ln() * 10.0;
            est.observe(x);
            all.push(x);
        }
        let exact = exact_quantile(all, 0.5);
        let got = est.estimate().unwrap();
        assert!(
            (got - exact).abs() < exact * 0.05,
            "P2 {got} vs exact {exact}"
        );
    }

    #[test]
    fn small_counts_are_exact() {
        let mut est = P2Quantile::new(0.95);
        assert!(est.estimate().is_none());
        est.observe(3.0);
        assert_eq!(est.estimate(), Some(3.0));
        est.observe(1.0);
        est.observe(2.0);
        // 3 observations, q=0.95 -> highest.
        assert_eq!(est.estimate(), Some(3.0));
        assert_eq!(est.count(), 3);
    }

    #[test]
    fn monotone_input_converges() {
        let mut est = P2Quantile::new(0.9);
        for i in 0..10_000 {
            est.observe(i as f64);
        }
        let got = est.estimate().unwrap();
        assert!((got - 9000.0).abs() < 250.0, "got {got}");
    }

    #[test]
    fn constant_stream() {
        let mut est = P2Quantile::new(0.75);
        for _ in 0..100 {
            est.observe(42.0);
        }
        assert_eq!(est.estimate(), Some(42.0));
    }

    /// Degenerate streams — long constant plateaus broken by jumps, values
    /// pinned to the extremes — are where marker positions can collide and
    /// the unguarded linear interpolation used to return NaN. Every
    /// intermediate estimate must stay finite.
    #[test]
    fn degenerate_streams_never_produce_nan() {
        let streams: Vec<Vec<f64>> = vec![
            std::iter::repeat_n(5.0, 500)
                .chain(std::iter::repeat_n(9.0, 7))
                .chain(std::iter::repeat_n(5.0, 500))
                .collect(),
            (0..600)
                .map(|i| if i % 97 == 0 { 1e9 } else { 0.0 })
                .collect(),
            vec![1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0],
        ];
        for (si, s) in streams.iter().enumerate() {
            for &q in &[0.05, 0.5, 0.95] {
                let mut est = P2Quantile::new(q);
                for (i, &x) in s.iter().enumerate() {
                    est.observe(x);
                    let e = est.estimate().unwrap();
                    assert!(
                        e.is_finite(),
                        "stream {si} q={q}: estimate became {e} at obs {i}"
                    );
                }
            }
        }
    }

    /// Direct regression for the equal-positions guard: force coincident
    /// marker positions and check linear() keeps the height finite.
    #[test]
    fn linear_interpolation_guards_equal_positions() {
        let mut est = P2Quantile::new(0.5);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            est.observe(x);
        }
        est.positions = [1.0, 3.0, 3.0, 4.0, 6.0];
        let up = est.linear(1, 1.0);
        assert!(up.is_finite(), "linear(1,+1) with equal positions: {up}");
        assert_eq!(up, est.heights[1], "height held in place");
        est.positions = [1.0, 2.0, 2.0, 4.0, 6.0];
        let down = est.linear(2, -1.0);
        assert!(down.is_finite());
        assert_eq!(down, est.heights[2]);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1)")]
    fn rejects_out_of_range_quantile() {
        let _ = P2Quantile::new(1.0);
    }
}
