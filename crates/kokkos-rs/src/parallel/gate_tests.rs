//! The size gate of the host tile drivers: a `Threads` / `DeviceSim` launch
//! gives the bits `Serial` gives and is accounted as one launch, whichever
//! side of `MIN_POOL_ITERATIONS` it falls on.

use super::*;
use crate::profiling::{KernelId, KernelInfo, ProfilingHooks};
use crate::view::{View, View1};
use proptest::prelude::*;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::thread::{self, ThreadId};

const N: usize = MIN_POOL_ITERATIONS;

/// Awkward magnitudes, so a sum joined in any other order changes bits.
fn val(n: usize) -> f64 {
    ((n % 97) as f64 + 0.1) * 10f64.powi((n % 7) as i32 - 3)
}

/// One functor for every pattern and shape. As a for-body it adds to the
/// element it was called for (twice called ≠ once called); as a reduction it folds
/// `val` of the list entry with `op`.
struct Probe {
    op: Reducer,
    dims: [usize; 3],
    out: View1<f64>,
}

impl Probe {
    fn new(op: Reducer, dims: [usize; 3]) -> Self {
        let out = View::host("out", [dims.iter().product()]);
        Self { op, dims, out }
    }
    fn linear(&self, k: usize, j: usize, i: usize) -> usize {
        (k * self.dims[1] + j) * self.dims[2] + i
    }
    fn visit(&self, n: usize) {
        self.out.set_at(n, self.out.at(n) + 1.0 + val(n));
    }
    fn fold(&self, n: usize, acc: &mut f64) {
        *acc = self.op.join(*acc, val(n));
    }
}

impl Functor1D for Probe {
    fn operator(&self, i: usize) {
        self.visit(i);
    }
}
impl Functor3D for Probe {
    fn operator(&self, k: usize, j: usize, i: usize) {
        self.visit(self.linear(k, j, i));
    }
}
impl FunctorList for Probe {
    fn operator(&self, _n: usize, idx: u32) {
        self.visit(idx as usize);
    }
}
impl ReduceFunctorList for Probe {
    fn contribute(&self, n: usize, idx: u32, acc: &mut f64) {
        self.fold(idx as usize + n, acc);
    }
}

/// Counts `begin_*` / `end_*` callbacks fired on one thread. The tool is
/// process-global, so launches of tests running beside this one are left
/// out by the thread that fired them.
struct Count {
    owner: ThreadId,
    begun: AtomicUsize,
    ended: AtomicUsize,
}
impl Count {
    fn on_this_thread() -> Self {
        Self {
            owner: thread::current().id(),
            begun: AtomicUsize::new(0),
            ended: AtomicUsize::new(0),
        }
    }
    fn bump(&self, n: &AtomicUsize) {
        if thread::current().id() == self.owner {
            n.fetch_add(1, Ordering::SeqCst);
        }
    }
}
impl ProfilingHooks for Count {
    fn begin_parallel_for(&self, _: KernelId, _: &KernelInfo) {
        self.bump(&self.begun);
    }
    fn end_parallel_for(&self, _: KernelId) {
        self.bump(&self.ended);
    }
    fn begin_parallel_reduce(&self, _: KernelId, _: &KernelInfo) {
        self.bump(&self.begun);
    }
    fn end_parallel_reduce(&self, _: KernelId) {
        self.bump(&self.ended);
    }
}

/// Launches per [`run_all`] call: four for-loops, a reduction × Sum, Max.
const LAUNCHES: usize = 6;

/// Every pattern and shape once over `dims` (1-D and list over the
/// product, one level over `[nk * nj, ni]`), with tiles that divide nothing;
/// the bits of everything they produced.
fn run_all(space: &Space, dims: [usize; 3], tile: [usize; 3]) -> Vec<u64> {
    let [nk, nj, ni] = dims;
    let n = nk * nj * ni;
    let p1 = RangePolicy::new(n).with_tile(tile[1] * tile[2]);
    let p2 = MDRangePolicy3::new([1, nk * nj, ni]).with_tile([1, tile[1], tile[2]]);
    let p3 = MDRangePolicy3::new(dims).with_tile(tile);
    // Every index once (the for-body adds to its element), not in index order.
    let list = (0..n as u32).rev();
    let pl = ListPolicy::new(Arc::new(list.collect())).with_tile(tile[0] * tile[2] + 3);

    let mut bits = Vec::new();
    let f = Probe::new(Reducer::Sum, dims);
    parallel_for_1d(space, p1, &f);
    parallel_for_3d(space, p2, &f);
    parallel_for_3d(space, p3, &f);
    parallel_for_list(space, &pl, &f);
    bits.extend(f.out.to_vec().iter().map(|v| v.to_bits()));
    for op in [Reducer::Sum, Reducer::Max] {
        let f = Probe::new(op, dims);
        bits.push(parallel_reduce_list(space, &pl, &f, op).to_bits());
    }
    bits
}

/// `[k, j, i]` with `k * j * i == n`, as cubic as the divisors of `n` allow.
fn dims_of(n: usize) -> [usize; 3] {
    let split = |n: usize| {
        let a = (1..=n)
            .take_while(|a| a * a <= n)
            .filter(|&a| n.is_multiple_of(a))
            .last();
        a.map_or([n, 1], |a| [a, n / a])
    };
    let [k, rest] = split(n);
    let [j, i] = split(rest);
    [k, j, i]
}

#[test]
fn either_side_of_the_gate_gives_serial_bits_and_counts_one_launch() {
    // An attached tool flips the registry's one `enabled` flag.
    let _serial = profiling::test_registry_lock();
    let count = Arc::new(Count::on_this_thread());
    profiling::set_hooks(count.clone());

    for n in [0, 1, N - 1, N, N + 1] {
        let dims = dims_of(n);
        assert_eq!(dims.iter().product::<usize>(), n);
        let tile = [2, 3, 37];
        let want = run_all(&Space::serial(), dims, tile);
        for space in [Space::threads(), Space::device_sim()] {
            let begun = count.begun.load(Ordering::SeqCst);
            let got = run_all(&space, dims, tile);
            assert!(got == want, "{} at {n} iterations", space.name());
            assert_eq!(count.begun.load(Ordering::SeqCst) - begun, LAUNCHES);
            assert_eq!(
                count.begun.load(Ordering::SeqCst),
                count.ended.load(Ordering::SeqCst)
            );
            if let Space::DeviceSim(d) = &space {
                assert_eq!(d.launches(), LAUNCHES as u64, "at {n} iterations");
            }
        }
    }
    profiling::clear_hooks();
}

#[test]
fn gate_is_a_launch_size_and_nothing_else() {
    assert!(!forks(&Space::serial(), usize::MAX));
    for space in [Space::threads(), Space::device_sim()] {
        assert!(!forks(&space, N - 1));
        assert!(forks(&space, N));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Extents up to 10×44×48 = 21 120 iterations: both sides of the gate.
    #[test]
    fn any_extent_and_tile_gives_serial_bits(
        nk in 1usize..11, nj in 1usize..45, ni in 1usize..49,
        tk in 1usize..4, tj in 1usize..9, ti in 1usize..70,
    ) {
        let want = run_all(&Space::serial(), [nk, nj, ni], [tk, tj, ti]);
        for space in [Space::threads(), Space::device_sim()] {
            prop_assert!(run_all(&space, [nk, nj, ni], [tk, tj, ti]) == want, "{}", space.name());
        }
    }
}
