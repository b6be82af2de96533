//! Checks shared by the integration test targets.

use iawj_study::common::Tuple;
use iawj_study::core::adaptive::sniff;
use iawj_study::datagen::MicroSpec;
use std::collections::HashSet;

/// The Fig. 4 inputs `sniff` reads from static `n × n` streams, over
/// dupe ∈ {1, 2, 4, 10, 40, 100} × key skew θ ∈ {0, 0.99}: the duplication
/// lands within ×1.5 of the exact `n / distinct keys` of the more
/// duplicated stream, and the skew reads below 0.3 on uniform keys and at
/// least 0.8 on Zipf(0.99) keys.
pub fn check_sniff_grid(n: usize) {
    let exact =
        |t: &[Tuple]| t.len() as f64 / t.iter().map(|t| t.key).collect::<HashSet<_>>().len() as f64;
    for theta in [0.0, 0.99] {
        for dupe in [1, 2, 4, 10, 40, 100] {
            let ds = MicroSpec::static_counts(n, n)
                .dupe(dupe)
                .skew_key(theta)
                .seed(dupe as u64)
                .generate();
            let reference = exact(&ds.r).max(exact(&ds.s));
            let w = sniff(&ds, 0.05, 2);
            let cell = format!("n={n} dupe={dupe} theta={theta}: {w:?}, exact dupe {reference:.2}");
            assert!(
                (reference / 1.5..=reference * 1.5).contains(&w.dupe),
                "{cell}"
            );
            if theta == 0.0 {
                assert!(w.skew_key < 0.3, "{cell}");
            } else {
                assert!(w.skew_key >= 0.8, "{cell}");
            }
        }
    }
}
