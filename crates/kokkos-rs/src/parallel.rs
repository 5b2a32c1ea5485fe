//! `parallel_for` / `parallel_reduce` dispatch.
//!
//! Four entry points and one launch: `parallel_for_{1d,3d,list}` and
//! `parallel_reduce_list`. Each names its policy and pattern, and `launch`
//! runs every tile of the policy through [`TileBody::tile`]. A 2-D kernel
//! is a 3-D one over a single level (`MDRangePolicy3::new([1, ny, nx])`).
//! The [`Space`] decides how tiles are executed:
//!
//! * `Serial` — tiles in order, one thread;
//! * `Threads` — tiles on the host pool, or in order on the launching
//!   thread when the launch is below the size gate;
//! * `DeviceSim` — the same, as a block grid, launch counted;
//! * `SwAthread` — registry lookup → trampoline → simulated CPEs.
//!
//! **Determinism**: for-loops write disjoint elements, so backend choice
//! cannot change results. Reductions always produce one partial per tile
//! and join them in tile order on the launching thread, so their results
//! are bitwise identical across backends and run-to-run.

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;

use crate::functor::{
    For, Functor1D, Functor3D, FunctorList, Pattern, Reduce, ReduceFunctorList, Reducer, TileBody,
};
use crate::policy::{ListPolicy, MDRangePolicy3, Policy, RangePolicy};
use crate::profiling::{self, PatternKind};
use crate::registry::{self, KernelKind};
use crate::space::Space;
use sunway_sim::pipeline::choose_tile_elems;

/// The launch-time failure of an unregistered functor on SwAthread, naming
/// the macro that registers it (the C++ version fails to link instead).
fn not_registered<F>(kind: KernelKind) -> ! {
    panic!(
        "functor `{}` is not registered for the SwAthread backend; \
         add `{}!(<name>, {});` and call `<name>()` during initialization \
         (the KOKKOS_REGISTER mechanism of paper §V-B)",
        std::any::type_name::<F>(),
        kind.macro_name(),
        std::any::type_name::<F>(),
    )
}

// ---------------------------------------------------------------------------
// Host-side tile driver
// ---------------------------------------------------------------------------
//
// Every non-Sunway backend executes tiles through [`drive_tiles`], so
// scheduling changes land in exactly one place. Launch accounting
// (profiling spans, DeviceSim launch counts, flight events) happens before
// it, at the dispatch chokepoint [`profiling::begin_kernel`]. The SwAthread
// backend never reaches it — its tiles run in the registry trampoline.

/// A `Threads` / `DeviceSim` launch of fewer iterations than this runs its
/// tiles in order on the launching thread, exactly as `Serial` does: waking
/// a pool thread costs more than such a launch has to share out. Measured
/// by `cargo bench -p bench --bench dispatch` (EXPERIMENTS.md, "Work-first
/// dispatch"). The gate lives here and not in the pool because a list launch
/// hands the pool one index per worker: only the driver knows the work.
const MIN_POOL_ITERATIONS: usize = 8192;

/// Whether a host launch of `iterations` goes to the pool.
fn forks(space: &Space, iterations: usize) -> bool {
    match space {
        Space::Serial => false,
        Space::Threads(_) | Space::DeviceSim(_) => iterations >= MIN_POOL_ITERATIONS,
        Space::SwAthread(_) => unreachable!("SwAthread dispatch goes through the registry"),
    }
}

/// Run `run_tile` over every tile of `policy` on a host backend. On the
/// pool, a policy with worker ranges gives each worker its contiguous tile
/// range ([`Policy::worker_tile_range`]); any other hands out tiles in
/// chunks. Tile contents never depend on the split, so results stay
/// bitwise identical to the serial sweep.
fn drive_tiles<P: Policy>(space: &Space, policy: &P, run_tile: impl Fn(usize) + Sync) {
    let total = policy.total_tiles();
    if !forks(space, policy.iterations()) {
        (0..total).for_each(run_tile)
    } else if P::WORKER_RANGES {
        let workers = rayon::current_num_threads();
        (0..workers).into_par_iter().for_each(|w| {
            let (lo, hi) = policy.worker_tile_range(w, workers);
            (lo..hi).for_each(&run_tile);
        });
    } else {
        (0..total).into_par_iter().for_each(run_tile)
    }
}

// ---------------------------------------------------------------------------
// The launch
// ---------------------------------------------------------------------------

/// Run every tile of `policy` through `f` on `space`. A reduction folds one
/// partial per tile from `op`'s identity and returns their join in tile
/// order; a for-launch has no partials (and allocates none) and returns the
/// identity.
///
/// On the Sunway backend the tile is the DMA staging unit, so a dense
/// launch is re-tiled from the functor's `IterCost`, the rows of a tile it
/// holds at once ([`Functor3D::resident_rows`]) and the core group's
/// LDM/bandwidth/latency parameters
/// ([`sunway_sim::pipeline::choose_tile_elems`]); for-loops write disjoint
/// elements, so retiling cannot change results. A list launch keeps
/// the caller's tiles ([`Policy::retiled`] is `None`): a list's tiles are
/// its cost-prefix schedule and its reduction's partials.
pub(crate) fn launch<F, P, M>(space: &Space, policy: &P, f: &F, op: Reducer) -> f64
where
    F: TileBody<P, M> + 'static,
    P: Policy,
    M: Pattern,
{
    let _span = profiling::begin_kernel(
        space,
        M::KIND,
        std::any::type_name::<F>(),
        P::KIND,
        policy.iterations() as u64,
    );
    let identity = op.identity();
    let reduces = M::KIND == PatternKind::ParallelReduce;
    let tiles = if reduces { policy.total_tiles() } else { 0 };
    let partials = match space {
        Space::SwAthread(sw) => {
            let kind = registry::kind_of::<P, M>();
            let Some(tramp) = registry::lookup_simd(registry::key_of::<F>(), kind) else {
                not_registered::<F>(kind);
            };
            let cost = f.tile_cost();
            // A body that holds `r` of a tile's rows at once occupies LDM
            // with that share of its declared bytes an iteration; the
            // retile keeps the share.
            let resident = policy.resident_elems(f.resident_rows()) as u64;
            let bytes = (cost.bytes * resident).div_ceil(policy.tile_elems().max(1) as u64);
            let retiled =
                policy.retiled(choose_tile_elems(sw.config(), bytes, policy.iterations()));
            let mut partials = vec![identity; tiles];
            let payload = registry::Launch {
                functor: f,
                policy: retiled.as_ref().unwrap_or(policy),
                cost,
                partials: partials.as_mut_slice(),
                identity,
            };
            sw.cg.lock().run(tramp, &payload as *const _ as usize);
            partials
        }
        host => {
            let partials: Vec<AtomicU64> = (0..tiles)
                .map(|_| AtomicU64::new(identity.to_bits()))
                .collect();
            drive_tiles(host, policy, |t| {
                let mut acc = identity;
                f.tile(policy, t, &mut acc);
                // Relaxed: slot `t` is written by the one thread that runs
                // tile `t`, and read only after the drive has returned,
                // which the pool's join orders.
                if let Some(slot) = partials.get(t) {
                    slot.store(acc.to_bits(), Ordering::Relaxed);
                }
            });
            let partials = partials.into_iter();
            partials.map(|p| f64::from_bits(p.into_inner())).collect()
        }
    };
    partials.into_iter().fold(identity, |a, b| op.join(a, b))
}

// ---------------------------------------------------------------------------
// parallel_for
// ---------------------------------------------------------------------------

/// 1-D parallel for over `policy` on `space`.
pub fn parallel_for_1d<F: Functor1D + 'static>(space: &Space, policy: RangePolicy, f: &F) {
    launch::<F, _, For>(space, &policy, f, Reducer::Sum);
}

/// 3-D parallel for; index order `(k, j, i)`. Every backend hands the
/// functor one policy tile at a time through [`Functor3D::operator_tile`].
pub fn parallel_for_3d<F: Functor3D + 'static>(space: &Space, policy: MDRangePolicy3, f: &F) {
    launch::<F, _, For>(space, &policy, f, Reducer::Sum);
}

/// Index-list parallel for (active-set iteration): run `f.operator(n,
/// policy.entry(n))` for every list position `n` in the policy's range,
/// handed to the functor one tile at a time through
/// [`FunctorList::operator_span`]. Host backends and the SwAthread CPEs
/// both split the tiles by cost.
pub fn parallel_for_list<F: FunctorList + 'static>(space: &Space, policy: &ListPolicy, f: &F) {
    launch::<F, _, For>(space, policy, f, Reducer::Sum);
}

// ---------------------------------------------------------------------------
// parallel_reduce
// ---------------------------------------------------------------------------

/// Index-list reduction. One partial per tile (folded by
/// [`ReduceFunctorList::contribute_span`]), joined in tile order — bitwise
/// identical across backends, worker counts and cost weightings.
pub fn parallel_reduce_list<F: ReduceFunctorList + 'static>(
    space: &Space,
    policy: &ListPolicy,
    f: &F,
    op: Reducer,
) -> f64 {
    launch::<F, _, Reduce>(space, policy, f, op)
}

/// Block until all outstanding work on `space` completes (Kokkos `fence`).
/// All our backends launch synchronously, so this only marks the fence
/// for an attached profiling tool (Kokkos Tools `kokkosp_*_fence`).
pub fn fence(space: &Space) {
    profiling::mark_fence("fence", space.name());
}

#[cfg(test)]
mod gate_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{View, View1, View2, View3};
    use std::sync::Arc;
    use sunway_sim::CgConfig;

    // The paper's Code 1: AXPY.
    struct FunctorAxpy {
        a: f64,
        x: View1<f64>,
        y: View1<f64>,
    }
    impl Functor1D for FunctorAxpy {
        fn operator(&self, i: usize) {
            self.y.set_at(i, self.a * self.x.at(i) + self.y.at(i));
        }
    }
    crate::register_for_1d!(my_axpy, FunctorAxpy);

    // A 2-D kernel: one level, `k` ignored.
    struct Stencil2 {
        src: View2<f64>,
        dst: View2<f64>,
    }
    impl Functor3D for Stencil2 {
        fn operator(&self, _k: usize, j: usize, i: usize) {
            let [ny, nx] = self.src.dims();
            let c = self.src.at(j, i);
            let n = if j + 1 < ny { self.src.at(j + 1, i) } else { c };
            let s = if j > 0 { self.src.at(j - 1, i) } else { c };
            let e = if i + 1 < nx { self.src.at(j, i + 1) } else { c };
            let w = if i > 0 { self.src.at(j, i - 1) } else { c };
            self.dst.set_at(j, i, 0.2 * (c + n + s + e + w));
        }
    }
    crate::register_for_3d!(stencil2, Stencil2);

    struct Fill3 {
        v: View3<f64>,
    }
    impl Functor3D for Fill3 {
        fn operator(&self, k: usize, j: usize, i: usize) {
            self.v.set_at(k, j, i, (k * 10000 + j * 100 + i) as f64);
        }
    }
    crate::register_for_3d!(fill3, Fill3);

    // Active-set iteration: dst slot n gets a value gathered via the
    // packed index — exercises both halves of the (n, idx) pair.
    struct ListScatter {
        src: View1<f64>,
        dst: View1<f64>,
    }
    impl FunctorList for ListScatter {
        fn operator(&self, n: usize, idx: u32) {
            self.dst
                .set_at(n, 2.0 * self.src.at(idx as usize) + n as f64);
        }
    }
    crate::register_for_list!(list_scatter, ListScatter);

    struct ListSum {
        src: View1<f64>,
    }
    impl ReduceFunctorList for ListSum {
        fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
            *acc += self.src.at(idx as usize) * self.src.at(idx as usize);
        }
    }
    crate::register_reduce_list!(list_sum, ListSum);

    struct ListMax {
        v: View1<f64>,
    }
    impl ReduceFunctorList for ListMax {
        fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
            *acc = acc.max(self.v.at(idx as usize));
        }
    }
    crate::register_reduce_list!(list_max, ListMax);

    fn all_spaces() -> Vec<Space> {
        vec![
            Space::serial(),
            Space::threads(),
            Space::device_sim(),
            Space::sw_athread_with(CgConfig::test_small()),
        ]
    }

    #[test]
    fn axpy_identical_on_all_backends() {
        my_axpy();
        let n = 1003;
        let mut reference: Option<Vec<f64>> = None;
        for space in all_spaces() {
            let x: View1<f64> = View::host("x", [n]);
            let y: View1<f64> = View::host("y", [n]);
            for i in 0..n {
                x.set_at(i, (i as f64).sin());
                y.set_at(i, (i as f64).cos());
            }
            let f = FunctorAxpy {
                a: 0.31,
                x,
                y: y.clone(),
            };
            parallel_for_1d(&space, RangePolicy::new(n).with_tile(64), &f);
            let got = y.to_vec();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(
                    r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "backend {} diverged bitwise",
                    space.name()
                ),
            }
        }
    }

    #[test]
    fn stencil_2d_identical_on_all_backends() {
        stencil2();
        let (ny, nx) = (37, 53);
        let mut reference: Option<Vec<u64>> = None;
        for space in all_spaces() {
            let src: View2<f64> = View::host("src", [ny, nx]);
            let dst: View2<f64> = View::host("dst", [ny, nx]);
            for j in 0..ny {
                for i in 0..nx {
                    src.set_at(j, i, ((j * 31 + i * 17) as f64).sin());
                }
            }
            let f = Stencil2 {
                src,
                dst: dst.clone(),
            };
            let policy = MDRangePolicy3::new([1, ny, nx]).with_tile([1, 5, 9]);
            parallel_for_3d(&space, policy, &f);
            let bits: Vec<u64> = dst.to_vec().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "backend {} diverged", space.name()),
            }
        }
    }

    #[test]
    fn for_3d_covers_every_index() {
        fill3();
        for space in all_spaces() {
            let v: View3<f64> = View::host("v", [5, 11, 13]);
            v.fill(-1.0);
            let f = Fill3 { v: v.clone() };
            parallel_for_3d(
                &space,
                MDRangePolicy3::new([5, 11, 13]).with_tile([2, 3, 4]),
                &f,
            );
            for k in 0..5 {
                for j in 0..11 {
                    for i in 0..13 {
                        assert_eq!(
                            v.at(k, j, i),
                            (k * 10000 + j * 100 + i) as f64,
                            "space {}",
                            space.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn list_reduce_max() {
        list_max();
        let v: View1<f64> = View::from_fn("v", [4 * 6 * 8], |[n]| -(n as f64));
        v.set_at(2 * 48 + 3 * 8 + 5, 99.5);
        let f = ListMax { v };
        let policy = ListPolicy::new(Arc::new((0..4 * 6 * 8).collect()));
        for space in all_spaces() {
            let m = parallel_reduce_list(&space, &policy, &f, Reducer::Max);
            assert_eq!(m, 99.5, "space {}", space.name());
        }
    }

    fn skewed_list_policy(n: usize) -> ListPolicy {
        // Non-monotone active set with a strongly skewed cost profile.
        let indices: Arc<Vec<u32>> = Arc::new(
            (0..n as u32)
                .map(|i| (i.wrapping_mul(2654435761)) % n as u32)
                .collect(),
        );
        let mut prefix = vec![0u64; n + 1];
        for i in 0..n {
            let w = if i % 11 == 0 { 40 } else { 1 + (i % 3) as u64 };
            prefix[i + 1] = prefix[i] + w;
        }
        ListPolicy::new(indices)
            .with_tile(7) // ragged final tile for n not divisible by 7
            .with_cost_prefix(Arc::new(prefix))
    }

    #[test]
    fn list_for_identical_on_all_backends() {
        list_scatter();
        let n = 997;
        let mut reference: Option<Vec<u64>> = None;
        for space in all_spaces() {
            let src: View1<f64> = View::host("src", [n]);
            let dst: View1<f64> = View::host("dst", [n]);
            for i in 0..n {
                src.set_at(i, (i as f64 * 0.37).sin());
            }
            let f = ListScatter {
                src,
                dst: dst.clone(),
            };
            let policy = skewed_list_policy(n);
            parallel_for_list(&space, &policy, &f);
            let bits: Vec<u64> = dst.to_vec().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "backend {} diverged", space.name()),
            }
        }
    }

    #[test]
    fn default_span_equals_per_entry_dispatch_on_all_backends() {
        list_scatter();
        let n = 997;
        let src: View1<f64> = View::from_fn("src", [n], |[i]| (i as f64 * 0.37).sin());
        // A CSR-style slice, so tile 0 starts mid-array.
        let policy = skewed_list_policy(n).slice(13, 981);
        let want: View1<f64> = View::host("want", [n]);
        let by_entry = ListScatter {
            src: src.clone(),
            dst: want.clone(),
        };
        for pos in policy.start..policy.end {
            by_entry.operator(pos, policy.entry(pos));
        }
        for space in all_spaces() {
            let dst: View1<f64> = View::host("dst", [n]);
            let f = ListScatter {
                src: src.clone(),
                dst: dst.clone(),
            };
            parallel_for_list(&space, &policy, &f);
            let bits = |v: &View1<f64>| v.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&want), bits(&dst), "backend {}", space.name());
        }
    }

    // Records, per list position, the span it was delivered in.
    struct SpanProbe {
        first: View1<u64>,
        len: View1<u64>,
        idx: View1<u64>,
    }
    impl FunctorList for SpanProbe {
        fn operator(&self, _n: usize, _idx: u32) {
            unreachable!("the drivers dispatch whole tiles through operator_span")
        }
        fn operator_span(&self, n0: usize, entries: &[u32]) {
            for (d, &idx) in entries.iter().enumerate() {
                self.first.set_at(n0 + d, n0 as u64);
                self.len.set_at(n0 + d, entries.len() as u64);
                self.idx.set_at(n0 + d, idx as u64);
            }
        }
    }
    crate::register_for_list!(span_probe, SpanProbe);

    #[test]
    fn spans_are_exactly_the_policy_tiles_on_all_backends() {
        span_probe();
        let n = 500;
        let policy = skewed_list_policy(n).slice(3, 489);
        for space in all_spaces() {
            let f = SpanProbe {
                first: View::host("first", [n]),
                len: View::host("len", [n]),
                idx: View::host("idx", [n]),
            };
            f.first.fill(u64::MAX);
            parallel_for_list(&space, &policy, &f);
            for t in 0..policy.total_tiles() {
                let (lo, hi) = policy.tile_range(t);
                for pos in lo..hi {
                    let at = format!("backend {} tile {t} position {pos}", space.name());
                    assert_eq!(f.first.at(pos), lo as u64, "span start, {at}");
                    assert_eq!(f.len.at(pos), (hi - lo) as u64, "span length, {at}");
                    assert_eq!(f.idx.at(pos), policy.entry(pos) as u64, "entry, {at}");
                }
            }
            for pos in (0..policy.start).chain(policy.end..n) {
                assert_eq!(
                    f.first.at(pos),
                    u64::MAX,
                    "position {pos} is outside the slice"
                );
            }
        }
    }

    // Records, per point of one level, the tile it was delivered in and how
    // often.
    struct TileProbe2 {
        j0: View2<u64>,
        i0: View2<u64>,
        points: View2<u64>,
        hits: View2<u64>,
    }
    impl Functor3D for TileProbe2 {
        fn operator(&self, _k: usize, _j: usize, _i: usize) {
            unreachable!("the drivers dispatch whole tiles through operator_tile")
        }
        fn operator_tile(&self, [k, (j0, j1), (i0, i1)]: [(usize, usize); 3]) {
            assert_eq!(k, (0, 1), "a one-level launch");
            for j in j0..j1 {
                for i in i0..i1 {
                    self.j0.set_at(j, i, j0 as u64);
                    self.i0.set_at(j, i, i0 as u64);
                    self.points.set_at(j, i, ((j1 - j0) * (i1 - i0)) as u64);
                    self.hits.set_at(j, i, self.hits.at(j, i) + 1);
                }
            }
        }
    }
    crate::register_for_3d!(tile_probe2, TileProbe2);

    struct TileProbe3 {
        first: View3<u64>,
        hits: View3<u64>,
    }
    impl Functor3D for TileProbe3 {
        fn operator(&self, _k: usize, _j: usize, _i: usize) {
            unreachable!("the drivers dispatch whole tiles through operator_tile")
        }
        fn operator_tile(&self, [(k0, k1), (j0, j1), (i0, i1)]: [(usize, usize); 3]) {
            for k in k0..k1 {
                for j in j0..j1 {
                    for i in i0..i1 {
                        self.first
                            .set_at(k, j, i, (k0 * 10000 + j0 * 100 + i0) as u64);
                        self.hits.set_at(k, j, i, self.hits.at(k, j, i) + 1);
                    }
                }
            }
        }
    }
    crate::register_for_3d!(tile_probe3, TileProbe3);

    #[test]
    fn tiles_and_offsets_partition_a_one_level_range_exactly_once_on_all_backends() {
        tile_probe2();
        let (pj, pi) = (23, 41);
        for (extent, tile, offset) in [
            ([17, 33], [5, 9], [3, 4]),
            ([1, 37], [8, 64], [22, 0]),
            ([19, 1], [8, 64], [2, 40]),
            ([0, 5], [3, 3], [1, 1]),
        ] {
            let policy = MDRangePolicy3::new([1, extent[0], extent[1]])
                .with_tile([1, tile[0], tile[1]])
                .with_offset([0, offset[0], offset[1]]);
            for space in all_spaces() {
                let f = TileProbe2 {
                    j0: View::host("j0", [pj, pi]),
                    i0: View::host("i0", [pj, pi]),
                    points: View::host("points", [pj, pi]),
                    hits: View::host("hits", [pj, pi]),
                };
                parallel_for_3d(&space, policy, &f);
                for j in 0..pj {
                    for i in 0..pi {
                        let inside = (offset[0]..offset[0] + extent[0]).contains(&j)
                            && (offset[1]..offset[1] + extent[1]).contains(&i);
                        let at = format!("backend {} policy {policy:?} ({j},{i})", space.name());
                        assert_eq!(f.hits.at(j, i), u64::from(inside), "visits, {at}");
                    }
                }
                // SwAthread re-tiles dense for-launches from the cost model;
                // the host backends deliver exactly the caller's tiles.
                if matches!(space, Space::SwAthread(_)) {
                    continue;
                }
                for t in 0..policy.total_tiles() {
                    let [_, (j0, j1), (i0, i1)] = policy.tile_bounds(t);
                    for j in j0..j1 {
                        for i in i0..i1 {
                            let at = format!("backend {} tile {t} ({j},{i})", space.name());
                            assert_eq!(f.j0.at(j, i), j0 as u64, "tile row origin, {at}");
                            assert_eq!(f.i0.at(j, i), i0 as u64, "tile column origin, {at}");
                            assert_eq!(
                                f.points.at(j, i),
                                ((j1 - j0) * (i1 - i0)) as u64,
                                "tile size, {at}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiles_and_offsets_partition_the_3d_range_exactly_once_on_all_backends() {
        tile_probe3();
        let dims = [7, 13, 29];
        let policy = MDRangePolicy3::new([4, 9, 21])
            .with_tile([2, 4, 8])
            .with_offset([3, 2, 5]);
        for space in all_spaces() {
            let f = TileProbe3 {
                first: View::host("first", dims),
                hits: View::host("hits", dims),
            };
            parallel_for_3d(&space, policy, &f);
            let total: u64 = f.hits.to_vec().iter().sum();
            assert_eq!(total, 4 * 9 * 21, "backend {}", space.name());
            assert!(f.hits.to_vec().iter().all(|&h| h <= 1));
            if matches!(space, Space::SwAthread(_)) {
                continue;
            }
            for t in 0..policy.total_tiles() {
                let [(k0, k1), (j0, j1), (i0, i1)] = policy.tile_bounds(t);
                for k in k0..k1 {
                    for j in j0..j1 {
                        for i in i0..i1 {
                            assert_eq!(
                                f.first.at(k, j, i),
                                (k0 * 10000 + j0 * 100 + i0) as u64,
                                "backend {} tile {t} ({k},{j},{i})",
                                space.name()
                            );
                        }
                    }
                }
            }
        }
    }

    // Logs the order points are visited in.
    struct OrderLog(std::sync::Mutex<Vec<[usize; 3]>>);
    impl Functor3D for OrderLog {
        fn operator(&self, k: usize, j: usize, i: usize) {
            self.0.lock().unwrap().push([k, j, i]);
        }
    }

    #[test]
    fn default_tile_is_the_per_point_loop_in_row_major_order() {
        let log = OrderLog(Default::default());
        log.operator_tile([(1, 3), (4, 6), (0, 3)]);
        let want: Vec<[usize; 3]> = (1..3)
            .flat_map(|k| (4..6).flat_map(move |j| (0..3).map(move |i| [k, j, i])))
            .collect();
        assert_eq!(*log.0.lock().unwrap(), want);
    }

    #[test]
    fn default_contribute_span_equals_per_entry_on_all_backends() {
        list_sum();
        let n = 1361;
        let src: View1<f64> = View::from_fn("src", [n], |[i]| {
            ((i % 89) as f64 + 0.3) * 10f64.powi((i % 5) as i32 - 2)
        });
        let f = ListSum { src };
        let policy = skewed_list_policy(n).slice(5, 1350);
        // One partial per tile by the per-entry call, joined in tile order.
        let mut want = Reducer::Sum.identity();
        for t in 0..policy.total_tiles() {
            let (lo, hi) = policy.tile_range(t);
            let mut acc = Reducer::Sum.identity();
            for pos in lo..hi {
                f.contribute(pos, policy.entry(pos), &mut acc);
            }
            want = Reducer::Sum.join(want, acc);
        }
        for space in all_spaces() {
            let got = parallel_reduce_list(&space, &policy, &f, Reducer::Sum);
            assert_eq!(got.to_bits(), want.to_bits(), "backend {}", space.name());
        }
    }

    #[test]
    fn list_reduce_bitwise_identical_on_all_backends() {
        list_sum();
        let n = 1361;
        let src: View1<f64> = View::host("src", [n]);
        for i in 0..n {
            src.set_at(i, ((i % 89) as f64 + 0.3) * 10f64.powi((i % 5) as i32 - 2));
        }
        let f = ListSum { src };
        let policy = skewed_list_policy(n);
        let mut bits = Vec::new();
        for space in all_spaces() {
            let s = parallel_reduce_list(&space, &policy, &f, Reducer::Sum);
            bits.push(s.to_bits());
        }
        assert!(
            bits.iter().all(|&b| b == bits[0]),
            "list reduction differed across backends: {bits:?}"
        );
    }

    #[test]
    fn empty_list_is_a_noop_everywhere() {
        list_scatter();
        for space in all_spaces() {
            let src: View1<f64> = View::host("src", [4]);
            let dst: View1<f64> = View::host("dst", [4]);
            let f = ListScatter {
                src,
                dst: dst.clone(),
            };
            let policy = ListPolicy::new(Arc::new(Vec::new()));
            parallel_for_list(&space, &policy, &f);
            assert!(dst.to_vec().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn sunway_list_launch_accounts_tiles() {
        list_scatter();
        let space = Space::sw_athread_with(CgConfig::test_small());
        let n = 200;
        let src: View1<f64> = View::host("src", [n]);
        let dst: View1<f64> = View::host("dst", [n]);
        let f = ListScatter { src, dst };
        let policy = skewed_list_policy(n);
        parallel_for_list(&space, &policy, &f);
        if let Space::SwAthread(sw) = &space {
            let c = sw.counters();
            assert_eq!(c.kernels_launched, 1);
            assert_eq!(
                c.totals.tiles,
                policy.total_tiles() as u64,
                "every tile executed exactly once across the CPEs"
            );
        } else {
            unreachable!()
        }
    }

    #[test]
    #[should_panic(expected = "not registered for the SwAthread backend")]
    fn unregistered_list_functor_panics_on_sunway() {
        struct UnregisteredList;
        impl FunctorList for UnregisteredList {
            fn operator(&self, _n: usize, _idx: u32) {}
        }
        let space = Space::sw_athread_with(CgConfig::test_small());
        let policy = ListPolicy::new(Arc::new(vec![0, 1, 2]));
        parallel_for_list(&space, &policy, &UnregisteredList);
    }

    #[test]
    fn device_sim_counts_list_launches() {
        list_scatter();
        let space = Space::device_sim();
        let src: View1<f64> = View::host("src", [32]);
        let dst: View1<f64> = View::host("dst", [32]);
        let f = ListScatter { src, dst };
        let policy = ListPolicy::new(Arc::new((0..32).collect()));
        for _ in 0..3 {
            parallel_for_list(&space, &policy, &f);
        }
        if let Space::DeviceSim(d) = &space {
            assert_eq!(d.launches(), 3);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn device_sim_counts_launches() {
        my_axpy();
        let space = Space::device_sim();
        let x: View1<f64> = View::host("x", [64]);
        let y: View1<f64> = View::host("y", [64]);
        let f = FunctorAxpy { a: 1.0, x, y };
        for _ in 0..5 {
            parallel_for_1d(&space, RangePolicy::new(64), &f);
        }
        if let Space::DeviceSim(d) = &space {
            assert_eq!(d.launches(), 5);
        } else {
            unreachable!()
        }
    }

    #[test]
    #[should_panic(expected = "not registered for the SwAthread backend")]
    fn unregistered_functor_panics_on_sunway() {
        struct Unregistered {
            v: View1<f64>,
        }
        impl Functor1D for Unregistered {
            fn operator(&self, i: usize) {
                self.v.set_at(i, 0.0);
            }
        }
        let space = Space::sw_athread_with(CgConfig::test_small());
        let f = Unregistered {
            v: View::host("v", [8]),
        };
        parallel_for_1d(&space, RangePolicy::new(8), &f);
    }

    #[test]
    fn sunway_counters_accumulate_over_launches() {
        my_axpy();
        let space = Space::sw_athread_with(CgConfig::test_small());
        let x: View1<f64> = View::host("x", [512]);
        let y: View1<f64> = View::host("y", [512]);
        let f = FunctorAxpy { a: 2.0, x, y };
        parallel_for_1d(&space, RangePolicy::new(512).with_tile(32), &f);
        if let Space::SwAthread(sw) = &space {
            let c = sw.counters();
            assert_eq!(c.kernels_launched, 1);
            assert!(c.totals.flops > 0);
            assert!(c.totals.dma_get_bytes > 0, "DMA staging was accounted");
        } else {
            unreachable!()
        }
    }

    #[test]
    fn empty_policy_is_a_noop_everywhere() {
        my_axpy();
        for space in all_spaces() {
            let x: View1<f64> = View::host("x", [4]);
            let y: View1<f64> = View::host("y", [4]);
            let f = FunctorAxpy {
                a: 5.0,
                x,
                y: y.clone(),
            };
            parallel_for_1d(&space, RangePolicy::range(0, 0), &f);
            assert!(y.to_vec().iter().all(|&v| v == 0.0));
        }
    }
}
