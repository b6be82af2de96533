//! The one identity property of the radix partitioner: whatever knobs a
//! [`PartitionPass`] runs under, its output is *bitwise identical* to the
//! sequential scalar partitioner — same bounds, same data, same
//! within-partition tuple order.
//!
//! One proptest walks the whole knob product per case — first-touch arena
//! on and off × worker count × key distribution, at sizes on both sides of
//! every dispatch threshold (0, 1, 7, 1023, 1024, 4097) and a random
//! `shift`/`bits`. A second checks the two-pass layout over the
//! composition PRJ runs (parallel first pass, shifted `partition_seq`
//! refinement).

use iawj_common::{Rng, Tuple, Zipf};
use iawj_exec::executor::Executor;
use iawj_exec::radix::{partition_seq, PartitionPass};
use iawj_exec::topology::PinPolicy;
use proptest::prelude::*;

const SIZES: [usize; 6] = [0, 1, 7, 1023, 1024, 4097];
const THREADS: [usize; 3] = [1, 2, 4];

/// Key distributions: uniform (θ = 0), heavily skewed (θ = 0.99), and the
/// degenerate single key that piles everything into one partition.
#[derive(Clone, Copy, Debug)]
enum Keys {
    Zipf(f64),
    Single,
}

fn tuples(n: usize, keys: Keys, seed: u64) -> Vec<Tuple> {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(
        1 << 14,
        if let Keys::Zipf(theta) = keys {
            theta
        } else {
            0.0
        },
    );
    (0..n)
        .map(|i| {
            let key = match keys {
                // Spread the Zipf ranks over the key bits the pass reads.
                Keys::Zipf(_) => (zipf.sample(&mut rng) as u32).wrapping_mul(0x9e37_79b9),
                Keys::Single => seed as u32,
            };
            Tuple::new(key, i as u32)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn every_knob_cell_is_bitwise_identical_to_partition_seq(
        seed in any::<u64>(),
        shift in 0u32..9,
        bits in 1u32..9,
    ) {
        let execs: Vec<Executor> =
            THREADS.iter().map(|&t| Executor::new(PinPolicy::None, t)).collect();
        for n in SIZES {
            for keys in [Keys::Zipf(0.0), Keys::Zipf(0.99), Keys::Single] {
                let input = tuples(n, keys, seed);
                let expect = partition_seq(&input, shift, bits);
                for first_touch in [false, true] {
                    for (&threads, exec) in THREADS.iter().zip(&execs) {
                        let got = PartitionPass::new(&input, shift, bits, threads, first_touch)
                            .run(exec);
                        prop_assert_eq!(
                            &expect.bounds, &got.bounds,
                            "bounds n={} {:?} first_touch={} threads={}",
                            n, keys, first_touch, threads
                        );
                        prop_assert_eq!(
                            &expect.data, &got.data,
                            "data n={} {:?} first_touch={} threads={}",
                            n, keys, first_touch, threads
                        );
                    }
                }
            }
        }
    }

    /// PRJ's two-pass scheme: a parallel first pass on the low `bits1` key
    /// bits, then each first-pass partition refined by a shifted
    /// `partition_seq` on the next `bits2`. Sub-partition `(p1, p2)` must
    /// hold exactly the tuples whose key bits say so — flat layout
    /// `p1 * 2^bits2 + p2` — and the whole is a permutation of the input.
    #[test]
    fn two_pass_layout_refines_first_pass(
        keys in proptest::collection::vec(any::<u32>(), 0..1500),
        bits1 in 1u32..5,
        bits2 in 1u32..5,
        threads in 1usize..4,
    ) {
        let input: Vec<Tuple> =
            keys.iter().enumerate().map(|(i, &k)| Tuple::new(k, i as u32)).collect();
        let exec = Executor::new(PinPolicy::None, threads);
        let first = PartitionPass::new(&input, 0, bits1, threads, false).run(&exec);
        prop_assert_eq!(first.fanout(), 1usize << bits1);
        let mut refined = Vec::with_capacity(input.len());
        for p1 in 0..first.fanout() {
            let second = partition_seq(first.partition(p1), bits1, bits2);
            prop_assert_eq!(second.fanout(), 1usize << bits2);
            for p2 in 0..second.fanout() {
                for t in second.partition(p2) {
                    prop_assert_eq!((t.key & ((1 << bits1) - 1)) as usize, p1);
                    prop_assert_eq!(((t.key >> bits1) & ((1 << bits2) - 1)) as usize, p2);
                }
            }
            refined.extend(second.data.iter().map(|t| t.pack()));
        }
        let mut expect: Vec<u64> = input.iter().map(|t| t.pack()).collect();
        expect.sort_unstable();
        refined.sort_unstable();
        prop_assert_eq!(expect, refined);
    }
}
