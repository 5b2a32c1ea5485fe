//! The simulated Sunway counts of every launch pattern, pinned.
//!
//! The SwAthread backend charges cycles, DMA bytes and transactions, LDM
//! residency and tiles from a functor's `cost()` and the launch's tiling.
//! Each row below is one launch on a fresh core group; its counters are
//! literals, so a change to how a pattern is tiled, split over the CPEs or
//! charged shows here as a one-row diff, whatever the model does with it.

use std::sync::Arc;

use kokkos_rs::{
    parallel_for_1d, parallel_for_3d, parallel_for_list, parallel_reduce_list, Functor1D,
    Functor3D, FunctorList, IterCost, ListPolicy, MDRangePolicy3, RangePolicy, ReduceFunctorList,
    Reducer, Space, View, View1,
};
use sunway_sim::CgConfig;

const N: usize = 6 * 23 * 71;

/// One functor for every pattern: a for-body scales its element, a
/// reduction sums it. Its declared cost is not the default, so the
/// retiling of dense for-launches has something to size from.
struct Probe {
    x: View1<f64>,
}

const COST: IterCost = IterCost {
    flops: 9,
    bytes: 40,
};

impl Probe {
    fn at(&self, n: usize) -> f64 {
        self.x.at(n)
    }
    fn scale(&self, n: usize) {
        self.x.set_at(n, 0.5 * self.x.at(n));
    }
}

impl Functor1D for Probe {
    fn operator(&self, i: usize) {
        self.scale(i);
    }
    fn cost(&self) -> IterCost {
        COST
    }
}
impl Functor3D for Probe {
    fn operator(&self, k: usize, j: usize, i: usize) {
        self.scale((k * 23 + j) * 71 + i);
    }
    fn cost(&self) -> IterCost {
        COST
    }
}
impl FunctorList for Probe {
    fn operator(&self, _n: usize, idx: u32) {
        self.scale(idx as usize);
    }
    fn cost(&self) -> IterCost {
        COST
    }
}
impl ReduceFunctorList for Probe {
    fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
        *acc += self.at(idx as usize);
    }
    fn cost(&self) -> IterCost {
        COST
    }
}

/// The probe walking each tile's rows as a wavefront that holds two of them
/// at once: a SwAthread launch stages two rows of a tile, not all of it.
struct Ringed(Probe);

impl Functor3D for Ringed {
    fn operator(&self, k: usize, j: usize, i: usize) {
        Functor3D::operator(&self.0, k, j, i);
    }
    fn cost(&self) -> IterCost {
        COST
    }
    fn resident_rows(&self) -> Option<usize> {
        Some(2)
    }
}

kokkos_rs::register_for_1d!(sim_counts_for_1d, Probe);
kokkos_rs::register_for_3d!(sim_counts_for_3d, Probe);
kokkos_rs::register_for_3d!(sim_counts_for_3d_ring, Ringed);
kokkos_rs::register_for_list!(sim_counts_for_list, Probe);
kokkos_rs::register_reduce_list!(sim_counts_reduce_list, Probe);

/// A list over every index, out of order, with a skewed cost prefix.
fn list() -> ListPolicy {
    let indices = (0..N as u32).map(|i| (i * 7919) % N as u32).collect();
    let mut prefix = vec![0u64; N + 1];
    for n in 0..N {
        prefix[n + 1] = prefix[n] + if n % 13 == 0 { 30 } else { 1 + (n % 4) as u64 };
    }
    ListPolicy::new(Arc::new(indices))
        .with_tile(97)
        .with_cost_prefix(Arc::new(prefix))
        .slice(5, N - 2)
}

/// The counters one launch leaves on a fresh core group, in the order
/// `[kernels, kernel_cycles, kernel_cycles_mean, flops, dma_get_bytes,
/// dma_put_bytes, dma_transactions, dma_stall_cycles, ldm_bytes,
/// ldm_high_water, tiles]`.
fn counts(cfg: &CgConfig, launch: impl FnOnce(&Space, &Probe)) -> [u64; 11] {
    let space = Space::sw_athread_with(cfg.clone());
    let probe = Probe {
        x: View::from_fn("x", [N], |[n]| (n % 17) as f64 - 8.0),
    };
    launch(&space, &probe);
    let Space::SwAthread(sw) = &space else {
        unreachable!()
    };
    let c = sw.counters();
    let t = &c.totals;
    [
        c.kernels_launched,
        c.kernel_cycles,
        c.kernel_cycles_mean,
        t.flops,
        t.dma_get_bytes,
        t.dma_put_bytes,
        t.dma_transactions,
        t.dma_stall_cycles,
        t.ldm_bytes,
        t.ldm_high_water,
        t.tiles,
    ]
}

type Launch = fn(&Space, &Probe);

/// Every pattern and shape once, the 3-D for-launch also over a single
/// level (the shape a 2-D kernel launches as) and for a body that holds two
/// rows of its tiles at once; the dense policies are offset and their tiles
/// divide nothing.
const LAUNCHES: [(&str, Launch); 6] = [
    ("for_1d", |s, f| {
        parallel_for_1d(s, RangePolicy::range(3, N).with_tile(50), f)
    }),
    ("for_one_level", |s, f| {
        let p = MDRangePolicy3::new([1, 6 * 23 - 1, 69]).with_tile([1, 5, 9]);
        parallel_for_3d(s, p.with_offset([0, 1, 2]), f)
    }),
    ("for_3d", |s, f| {
        let p = MDRangePolicy3::new([5, 21, 70]).with_tile([2, 3, 11]);
        parallel_for_3d(s, p.with_offset([1, 2, 1]), f)
    }),
    ("for_3d_ring", |s, f| {
        let p = MDRangePolicy3::new([5, 21, 70]).with_tile([2, 21, 11]);
        let ring = Ringed(Probe { x: f.x.clone() });
        parallel_for_3d(s, p.with_offset([1, 2, 1]), &ring)
    }),
    ("for_list", |s, f| parallel_for_list(s, &list(), f)),
    ("reduce_list", |s, f| {
        parallel_reduce_list(s, &list(), f, Reducer::Sum);
    }),
];

fn register_all() {
    sim_counts_for_1d();
    sim_counts_for_3d();
    sim_counts_for_3d_ring();
    sim_counts_for_list();
    sim_counts_reduce_list();
}

/// Compare every row, then print the whole table as found, so a deliberate
/// change is a paste.
fn check(cfg: &CgConfig, want: &[(&str, [u64; 11]); 6]) {
    register_all();
    let got: Vec<(&str, [u64; 11])> = LAUNCHES
        .iter()
        .map(|&(name, launch)| (name, counts(cfg, launch)))
        .collect();
    if got != want {
        for (name, row) in &got {
            eprintln!("    ({name:?}, {row:?}),");
        }
        panic!("simulated counts moved (table as found above)");
    }
}

#[test]
fn every_pattern_charges_its_literal_counts_on_the_test_core_group() {
    check(
        &CgConfig::test_small(),
        &[
            (
                "for_1d",
                [
                    1, 70767, 66039, 88155, 261200, 130600, 578, 498772, 0, 1632, 97,
                ],
            ),
            (
                "for_one_level",
                [
                    1, 70821, 69218, 85077, 252108, 126012, 578, 524569, 0, 1600, 112,
                ],
            ),
            (
                "for_3d",
                [
                    1, 66225, 51909, 66150, 196000, 98000, 462, 392184, 0, 1632, 105,
                ],
            ),
            (
                "for_3d_ring",
                [
                    1, 125206, 78023, 66150, 196000, 98000, 444, 601706, 0, 1344, 12,
                ],
            ),
            (
                "for_list",
                [
                    1, 70379, 66954, 88119, 261127, 130513, 606, 505140, 0, 1552, 101,
                ],
            ),
            (
                "reduce_list",
                [
                    1, 70379, 66954, 88119, 261127, 130513, 606, 505140, 0, 1552, 101,
                ],
            ),
        ],
    );
}

#[test]
fn every_pattern_charges_its_literal_counts_on_the_bench_core_group() {
    check(
        &CgConfig::bench(),
        &[
            (
                "for_1d",
                [
                    1, 31087, 31077, 88155, 261203, 130597, 48, 236057, 0, 9800, 8,
                ],
            ),
            (
                "for_one_level",
                [
                    1, 30311, 26449, 85077, 252080, 126040, 165, 195657, 0, 5520, 28,
                ],
            ),
            (
                "for_3d",
                [
                    1, 31655, 22563, 66150, 196000, 98000, 105, 168863, 0, 6720, 21,
                ],
            ),
            (
                "for_3d_ring",
                [
                    1, 125206, 78023, 66150, 196000, 98000, 444, 601706, 0, 1344, 12,
                ],
            ),
            (
                "for_list",
                [
                    1, 70379, 66954, 88119, 261127, 130513, 606, 505140, 0, 1552, 101,
                ],
            ),
            (
                "reduce_list",
                [
                    1, 70379, 66954, 88119, 261127, 130513, 606, 505140, 0, 1552, 101,
                ],
            ),
        ],
    );
}
