//! Property-based tests of the portability layer's invariants.

use std::sync::Arc;

use kokkos_rs::{
    deep_copy, parallel_for_1d, parallel_for_list, parallel_reduce_list, Functor1D, FunctorList,
    Layout, ListPolicy, MemSpace, RangePolicy, ReduceFunctorList, Reducer, Space, View, View1,
    View2,
};
use proptest::prelude::*;

struct Scale {
    x: View1<f64>,
    a: f64,
}
impl Functor1D for Scale {
    fn operator(&self, i: usize) {
        self.x.set_at(i, self.a * self.x.at(i));
    }
}
kokkos_rs::register_for_1d!(prop_scale, Scale);

/// A sum over the entries of an index list.
struct Sum {
    x: View1<f64>,
}
impl ReduceFunctorList for Sum {
    fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
        *acc += self.x.at(idx as usize);
    }
}
kokkos_rs::register_reduce_list!(prop_sum, Sum);

/// The list `0..n` in `tile`-entry tiles.
fn iota(n: usize, tile: usize) -> ListPolicy {
    ListPolicy::new(Arc::new((0..n as u32).collect())).with_tile(tile)
}

/// Gather through an index list: `dst[idx] = a * src[idx]`. Duplicate
/// indices write the same value, so the result is deterministic for any
/// list ordering.
struct GatherScale {
    src: View1<f64>,
    dst: View1<f64>,
    a: f64,
}
impl FunctorList for GatherScale {
    fn operator(&self, _n: usize, idx: u32) {
        let i = idx as usize;
        self.dst.set_at(i, self.a * self.src.at(i));
    }
}
kokkos_rs::register_for_list!(prop_gather_scale, GatherScale);

/// List reduction weighted by the list position `n`, so any deviation
/// from tile-ordered joining changes the bits.
struct ListSum {
    x: View1<f64>,
}
impl ReduceFunctorList for ListSum {
    fn contribute(&self, n: usize, idx: u32, acc: &mut f64) {
        *acc += self.x.at(idx as usize) * (n as f64 * 1.0e-3 + 1.0);
    }
}
kokkos_rs::register_reduce_list!(prop_list_sum, ListSum);

fn all_spaces() -> [Space; 4] {
    [
        Space::serial(),
        Space::threads(),
        Space::device_sim(),
        Space::sw_athread_with(sunway_sim::CgConfig::test_small()),
    ]
}

/// Arbitrary index list: possibly empty, unsorted, with duplicates — the
/// shapes a wet-point set never has but the policy must still handle.
/// Tests clamp entries to their view extent.
fn index_list() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..400, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// deep_copy across layouts is a logical identity for any shape.
    #[test]
    fn prop_deep_copy_layout_roundtrip(ny in 1usize..12, nx in 1usize..12, seed in 0u64..500) {
        let a: View2<f64> = View::from_fn("a", [ny, nx], |[j, i]| {
            ((j * 31 + i * 7) as u64).wrapping_mul(seed + 1) as f64
        });
        let left: View2<f64> = View::new("l", [ny, nx], Layout::Left, MemSpace::Host);
        let back: View2<f64> = View::host("b", [ny, nx]);
        deep_copy(&left, &a);
        deep_copy(&back, &left);
        for j in 0..ny {
            for i in 0..nx {
                prop_assert_eq!(a.at(j, i).to_bits(), back.at(j, i).to_bits());
            }
        }
    }

    /// Reductions are bitwise identical across every backend and any
    /// tile size.
    #[test]
    fn prop_reduce_backend_invariant(n in 1usize..2000, tile in 1usize..300, seed in 0u64..100) {
        prop_sum();
        let x: View1<f64> = View::from_fn("x", [n], |[i]| {
            (((i as u64 + 1).wrapping_mul(seed * 2654435761 + 1) % 1000) as f64 - 500.0) * 1.0e-3
        });
        let f = Sum { x };
        let policy = iota(n, tile);
        let spaces = [
            Space::serial(),
            Space::threads(),
            Space::device_sim(),
            Space::sw_athread_with(sunway_sim::CgConfig::test_small()),
        ];
        let bits: Vec<u64> = spaces
            .iter()
            .map(|s| parallel_reduce_list(s, &policy, &f, Reducer::Sum).to_bits())
            .collect();
        prop_assert!(bits.iter().all(|&b| b == bits[0]), "bits {:?}", bits);
    }

    /// Tile size never changes parallel_for results (disjoint writes).
    #[test]
    fn prop_for_tile_invariant(n in 1usize..1500, t1 in 1usize..200, t2 in 1usize..200) {
        prop_scale();
        let run = |tile: usize| {
            let x: View1<f64> = View::from_fn("x", [n], |[i]| i as f64 + 0.5);
            let f = Scale { x: x.clone(), a: 1.25 };
            parallel_for_1d(&Space::threads(), RangePolicy::new(n).with_tile(tile), &f);
            x.to_vec()
        };
        prop_assert_eq!(run(t1), run(t2));
    }

    /// ListPolicy parallel_for writes exactly the listed entries, bitwise
    /// identically on every backend, for ragged tile edges, empty lists,
    /// and non-monotone index lists with duplicates.
    #[test]
    fn prop_list_for_backend_invariant(
        n in 1usize..400,
        idxs in index_list(),
        tile in 1usize..64,
        seed in 0u64..100,
    ) {
        prop_gather_scale();
        let idxs: Vec<u32> = idxs.into_iter().filter(|&i| (i as usize) < n).collect();
        let src: View1<f64> = View::from_fn("src", [n], |[i]| {
            (((i as u64 + 3).wrapping_mul(seed * 2654435761 + 7) % 997) as f64 - 498.0) * 1.0e-3
        });
        let policy = ListPolicy::new(Arc::new(idxs.clone())).with_tile(tile);
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for space in all_spaces() {
            let dst: View1<f64> = View::from_fn("dst", [n], |[i]| -(i as f64));
            let f = GatherScale { src: src.clone(), dst: dst.clone(), a: 1.0 + seed as f64 * 1.0e-2 };
            parallel_for_list(&space, &policy, &f);
            // Listed entries got the gathered value; unlisted stayed put.
            for i in 0..n {
                let want = if idxs.contains(&(i as u32)) { f.a * src.at(i) } else { -(i as f64) };
                prop_assert_eq!(dst.at(i).to_bits(), want.to_bits(), "entry {}", i);
            }
            runs.push(dst.to_vec().iter().map(|v| v.to_bits()).collect());
        }
        prop_assert!(runs.iter().all(|r| r == &runs[0]), "backends diverged");
    }

    /// ListPolicy reductions join tile partials in tile order: bitwise
    /// identical across backends and tile sizes, with or without a cost
    /// prefix steering the worker split.
    #[test]
    fn prop_list_reduce_backend_invariant(
        n in 1usize..400,
        idxs in index_list(),
        tile in 1usize..64,
        seed in 0u64..100,
    ) {
        prop_list_sum();
        let idxs: Vec<u32> = idxs.into_iter().filter(|&i| (i as usize) < n).collect();
        let x: View1<f64> = View::from_fn("x", [n], |[i]| {
            (((i as u64 + 11).wrapping_mul(seed.wrapping_mul(6364136223846793005) + 13) % 811) as f64 - 405.0) * 1.0e-3
        });
        let f = ListSum { x };
        // Reference: sequential fold in list order.
        let mut want = 0.0;
        for (m, &idx) in idxs.iter().enumerate() {
            f.contribute(m, idx, &mut want);
        }
        // Cost prefix with pseudo-random per-entry weights (>=1 each).
        let mut prefix = Vec::with_capacity(idxs.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for (m, _) in idxs.iter().enumerate() {
            acc += 1 + (m as u64 * 2654435761 + seed) % 37;
            prefix.push(acc);
        }
        let plain = ListPolicy::new(Arc::new(idxs.clone())).with_tile(tile);
        let costed = ListPolicy::new(Arc::new(idxs))
            .with_tile(tile)
            .with_cost_prefix(Arc::new(prefix));
        let mut bits = Vec::new();
        for policy in [&plain, &costed] {
            for space in all_spaces() {
                bits.push(parallel_reduce_list(&space, policy, &f, Reducer::Sum).to_bits());
            }
        }
        prop_assert!(bits.iter().all(|&b| b == bits[0]), "bits {:?}", bits);
        // Tile-ordered joining with tile=1 degenerates to the sequential
        // list-order fold only when each tile holds one entry; the policy
        // contract is cross-backend identity, but a singleton-tile run must
        // also match the plain fold exactly.
        let singleton = ListPolicy::new(plain.indices().clone()).with_tile(1);
        let got = parallel_reduce_list(&Space::serial(), &singleton, &f, Reducer::Sum);
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }

    /// Min/Max reducers agree with the std fold on any data.
    #[test]
    fn prop_min_max_reducers(vals in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
        struct MinF { x: View1<f64> }
        impl ReduceFunctorList for MinF {
            fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
                *acc = acc.min(self.x.at(idx as usize));
            }
        }
        let x: View1<f64> = View::host("x", [vals.len()]);
        x.copy_from_slice(&vals);
        let f = MinF { x };
        let got = parallel_reduce_list(&Space::threads(), &iota(vals.len(), 256), &f, Reducer::Min);
        let want = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(got, want);
    }
}
