//! The lane-blocked row kernels against their own `W = 1` instantiation.
//!
//! The advection x and y passes and their row wavefront, the barotropic
//! substep kernels and the 3-D Asselin stream each have one body, generic over the number `W` of points adjacent in `i` it
//! updates together. An MDRange launch
//! hands the functor whole policy tiles (`operator_tile`), which it walks
//! down the ladder — `LANES`-wide blocks, then at most one block each of 4,
//! 2 and 1 points; calling `operator`
//! point by point runs the same body one point at a time. The two must
//! agree **bitwise** on every execution space, whatever the wet mask, the
//! tile shape and the launch origin look like — in particular the y pass,
//! whose tile body carries a row of face transports from one cell row to
//! the next, must not care where a tile is cut. A launch walks its tiles
//! under `Isa::detect()`; the same walk pinned to `Isa::BASELINE` must leave
//! those bits too — on an AVX2 host that holds the clone to the baseline and
//! to `W = 1`, elsewhere it walks the fallback twice.
//! (The momentum tendency and the tracer diffusion are members of column
//! passes, held to `W = 1` in `column_blocks.rs`.)

use halo_exchange::{FoldKind, Halo2D, Halo3D, RowBand, Strategy3D, HALO as H};
use kokkos_rs::{
    parallel_for_3d, Functor3D, MDRangePolicy3, Policy, Space, View, View1, View2, View3,
};
use licom::advect::{
    advect_tracer, AdvectFields, FunctorAdvectWave, FunctorAdvectX, FunctorAdvectY,
};
use licom::baroclinic::FunctorAsselin3D;
use licom::barotropic::{
    split_substep, FunctorAccum2D, FunctorBtEta, FunctorBtSubstep, FunctorBtVel, FunctorCopy2D,
    FunctorScaleAssign2D, FunctorZonalFilter,
};
use licom::lanes::{self, Isa, LANES};
use licom::localgrid::LocalGrid;
use mpi_sim::{CartComm, World};
use ocean_grid::{Bathymetry, GlobalGrid};
use proptest::prelude::*;
use sunway_sim::CgConfig;

/// A functor's walk of one policy tile with the ISA an argument instead of
/// detected — what its `operator_tile` does under `Isa::detect()`.
trait PinnedTile {
    fn tile(&self, isa: Isa, bounds: [(usize, usize); 3]);
}

macro_rules! pinned {
    // Row kernels, the 2-D ones launched over one level; their blocks add
    // the halo themselves.
    (rows: $($F:ty),*) => {$(
        impl PinnedTile for $F {
            fn tile(&self, isa: Isa, bounds: [(usize, usize); 3]) {
                lanes::run_tile(isa, self, bounds);
            }
        }
    )*};
    // The advection passes sweep their tiles by hand.
    (swept: $($F:ty),*) => {$(
        impl PinnedTile for $F {
            fn tile(&self, isa: Isa, bounds: [(usize, usize); 3]) {
                <$F>::tile(self, isa, bounds);
            }
        }
    )*};
}
pinned!(rows: FunctorBtSubstep, FunctorZonalFilter, FunctorCopy2D, FunctorAccum2D,
    FunctorScaleAssign2D, FunctorAsselin3D);
pinned!(swept: FunctorAdvectX<RowBand>, FunctorAdvectY<RowBand>, FunctorAdvectWave);

/// splitmix64: the fields are a pure function of `(seed, position)`.
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(seed: u64, n: u64) -> f64 {
    (mix(seed, n) >> 11) as f64 / (1u64 << 53) as f64
}

/// Which owned cells are wet.
#[derive(Debug, Clone, Copy)]
enum Wet {
    /// Every cell draws a depth in `0..=nz`; a third are land.
    Ragged,
    /// Row `j` is land from end to end, the rest ragged.
    LandRow(usize),
    /// Land everywhere except one cell.
    Single(usize, usize),
    /// Land in the first and last column of every `w`-wide tile.
    LandAtTileEdges(usize),
    /// Row `j` is full-depth runs of `LANES + 1 + j % (LANES - 1)` wet
    /// cells, one land cell between them: over `LANES - 1` rows, a run with
    /// every remainder `1..LANES`.
    Runs,
}

struct Case {
    nz: usize,
    ny: usize,
    nx: usize,
    seed: u64,
    kmt: View2<i32>,
    kmu: View2<i32>,
}

impl Case {
    fn new(nz: usize, ny: usize, nx: usize, wet: Wet, seed: u64) -> Self {
        let (pj, pi) = (ny + 2 * H, nx + 2 * H);
        // Halo masks are arbitrary: the face stencils compare across the
        // block edge, and a halo cell may be deeper, shallower or land.
        let depth = |salt: u64, n: usize| {
            let r = mix(seed ^ salt, n as u64);
            if r.is_multiple_of(3) {
                0
            } else {
                (1 + (r >> 8) % nz as u64) as i32
            }
        };
        let kmt: View2<i32> = View::from_fn("kmt", [pj, pi], |[jl, il]| depth(0xA5, jl * pi + il));
        let kmu: View2<i32> = View::from_fn("kmu", [pj, pi], |[jl, il]| depth(0x5A, jl * pi + il));
        for j in 0..ny {
            for i in 0..nx {
                let land = match wet {
                    Wet::Ragged => false,
                    Wet::LandRow(row) => j == row,
                    Wet::Single(wj, wi) => (j, i) != (wj, wi),
                    Wet::LandAtTileEdges(w) => i % w == 0 || i % w == w - 1,
                    Wet::Runs => {
                        let run = LANES + 1 + j % (LANES - 1);
                        i % (run + 1) == run
                    }
                };
                if land {
                    kmt.set_at(j + H, i + H, 0);
                    kmu.set_at(j + H, i + H, 0);
                } else if let Wet::Single(..) | Wet::Runs = wet {
                    kmt.set_at(j + H, i + H, nz as i32);
                    kmu.set_at(j + H, i + H, nz as i32);
                }
            }
        }
        Self {
            nz,
            ny,
            nx,
            seed,
            kmt,
            kmu,
        }
    }

    fn pj(&self) -> usize {
        self.ny + 2 * H
    }

    fn pi(&self) -> usize {
        self.nx + 2 * H
    }

    /// A `levels`-deep field of values in `lo..hi`, halo included.
    fn field3(&self, salt: u64, levels: usize, lo: f64, hi: f64) -> View3<f64> {
        let (pj, pi) = (self.pj(), self.pi());
        View::from_fn("field", [levels, pj, pi], |[k, j, i]| {
            lo + (hi - lo) * unit(self.seed ^ salt, ((k * pj + j) * pi + i) as u64)
        })
    }

    fn field2(&self, salt: u64, lo: f64, hi: f64) -> View2<f64> {
        let pi = self.pi();
        View::from_fn("field", [self.pj(), pi], |[j, i]| {
            lo + (hi - lo) * unit(self.seed ^ salt, (j * pi + i) as u64)
        })
    }

    /// A tracer with exactly flat stretches among the noise: scattered
    /// equal cells, every fifth row flat along `i` (`dq == 0` on its x
    /// faces) and every seventh column flat along `j` (on its y faces).
    fn tracer(&self, salt: u64) -> View3<f64> {
        let q = self.field3(salt, self.nz, -2.0, 30.0);
        let (pj, pi) = (self.pj(), self.pi());
        for k in 0..self.nz {
            for j in 0..pj {
                for i in 0..pi {
                    let n = ((k * pj + j) * pi + i) as u64;
                    if mix(self.seed ^ salt ^ 0xF1, n).is_multiple_of(4) {
                        q.set_at(k, j, i, 10.0);
                    }
                    if j % 5 == 0 || i % 7 == 0 {
                        q.set_at(k, j, i, 7.0 + k as f64);
                    }
                }
            }
        }
        q
    }

    fn dxt(&self) -> View1<f64> {
        View::from_fn("dxt", [self.pj()], |[j]| 9.0e3 + 137.0 * j as f64)
    }

    /// The one-level launch shapes a kernel must not care about: the dense
    /// default, the interior and the four rim strips of the barotropic
    /// pipeline, and a ragged tiling from a shifted origin.
    fn policies2(&self) -> Vec<MDRangePolicy3> {
        let (ny, nx) = (self.ny, self.nx);
        let mut out = vec![
            MDRangePolicy3::new([1, ny, nx]),
            MDRangePolicy3::new([1, ny, nx]).with_tile([1, 3, LANES + 3]),
            MDRangePolicy3::new([1, 1, nx]),
            MDRangePolicy3::new([1, 1, nx]).with_offset([0, ny - 1, 0]),
        ];
        if ny > 2 && nx > 2 {
            // Its first two rim strips are the two rows above.
            let (interior, [_, _, west, east]) = split_substep(ny, nx);
            out.extend([interior, west, east]);
            out.push(
                MDRangePolicy3::new([1, ny - 2, nx - 2])
                    .with_tile([1, 2, 5])
                    .with_offset([0, 1, 1]),
            );
        }
        out
    }

    fn policies3(&self) -> Vec<MDRangePolicy3> {
        (self.policies2().into_iter())
            .map(|p| {
                MDRangePolicy3::new([self.nz, p.extent[1], p.extent[2]])
                    .with_tile([1 + self.nz / 2, p.tile[1], p.tile[2]])
                    .with_offset([0, p.offset[1], p.offset[2]])
            })
            .collect()
    }
}

fn spaces() -> Vec<Space> {
    vec![
        Space::serial(),
        Space::threads(),
        Space::device_sim(),
        Space::sw_athread_with(CgConfig::test_small()),
    ]
}

/// What a kernel writes, in either rank.
enum Out {
    V2(View2<f64>),
    V3(View3<f64>),
}

impl From<&View2<f64>> for Out {
    fn from(v: &View2<f64>) -> Self {
        Out::V2(v.clone())
    }
}

impl From<&View3<f64>> for Out {
    fn from(v: &View3<f64>) -> Self {
        Out::V3(v.clone())
    }
}

fn bits(outs: &[Out]) -> Vec<Vec<u64>> {
    let of = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect();
    outs.iter()
        .map(|o| match o {
            Out::V2(v) => of(v.as_slice()),
            Out::V3(v) => of(v.as_slice()),
        })
        .collect()
}

/// The tile walk of `f` pinned to `Isa::BASELINE`, tile by tile (the spaces
/// differ in who runs a tile, not in how it is walked), against `want`.
fn check_pinned<F: PinnedTile>(
    kernel: &str,
    (f, out): (F, Vec<Out>),
    tiles: impl Iterator<Item = [(usize, usize); 3]>,
    want: &[Vec<u64>],
) -> Result<(), TestCaseError> {
    tiles.for_each(|bounds| f.tile(Isa::BASELINE, bounds));
    prop_assert!(
        bits(&out) == want,
        "{kernel}: the tile walk under Isa::BASELINE differs from per-point \
         execution (the spaces ran under {:?})",
        Isa::detect()
    );
    Ok(())
}

/// `make` builds the functor on fresh copies of whatever it writes and
/// returns those views. The reference runs it point by point (`W = 1`)
/// over the policy's range; every space must reproduce its bits through
/// the tile path, and so must the tile walk pinned to `Isa::BASELINE`.
fn check3<F: Functor3D + PinnedTile + 'static>(
    kernel: &str,
    policy: MDRangePolicy3,
    make: impl Fn() -> (F, Vec<Out>),
) -> Result<(), TestCaseError> {
    let (f, out) = make();
    let range = |d: usize| policy.offset[d]..policy.offset[d] + policy.extent[d];
    for k in range(0) {
        for j in range(1) {
            for i in range(2) {
                f.operator(k, j, i);
            }
        }
    }
    let want = bits(&out);
    for space in spaces() {
        let (f, out) = make();
        parallel_for_3d(&space, policy, &f);
        prop_assert!(
            bits(&out) == want,
            "{kernel}: tile execution on {} differs from per-point execution ({policy:?})",
            space.name()
        );
    }
    let tiles = (0..policy.total_tiles()).map(|t| policy.tile_bounds(t));
    check_pinned(kernel, make(), tiles, &want)
}

fn copy2(v: &View2<f64>) -> View2<f64> {
    let c: View2<f64> = View::host("copy", v.dims());
    c.copy_from_slice(v.as_slice());
    c
}

fn copy3(v: &View3<f64>) -> View3<f64> {
    let c: View3<f64> = View::host("copy", v.dims());
    c.copy_from_slice(v.as_slice());
    c
}

/// A band of `q`'s block holding `q`'s values on the rows it keeps.
fn band_of(q: &View3<f64>) -> RowBand {
    let b = RowBand::new("band", q.dims());
    let [nz, pj, pi] = q.dims();
    for k in 0..nz {
        for jl in (0..pj).filter(|&jl| b.holds(jl, jl + 1)) {
            for il in 0..pi {
                b.data().set_at(k, b.row(jl), il, q.at(k, jl, il));
            }
        }
    }
    b
}

/// The rows of `policy` (owned-cell coordinates) inside the wavefront's
/// interior `[H, ny − H)`, tiled as `policy` is.
fn interior(policy: MDRangePolicy3, ny: usize) -> Option<MDRangePolicy3> {
    let lo = policy.offset[1].max(H);
    let hi = (policy.offset[1] + policy.extent[1]).min(ny.saturating_sub(H));
    let [nz, _, nx] = policy.extent;
    (lo < hi).then(|| {
        MDRangePolicy3::new([nz, hi - lo, nx])
            .with_tile(policy.tile)
            .with_offset([policy.offset[0], lo, policy.offset[2]])
    })
}

/// An advection pass `q → q1` over `case`'s block, its faces moving at
/// `vel`.
fn pass<Q, Q1>(
    case: &Case,
    (q, q1): ([Q; 2], [Q1; 2]),
    vel: &View3<f64>,
    limited: bool,
) -> AdvectFields<Q, Q1> {
    AdvectFields {
        q,
        q1,
        vel: vel.clone(),
        kmt: case.kmt.clone(),
        dxt: case.dxt(),
        dyt: 1.1e4,
        dt: 600.0,
        limited,
    }
}

/// Every row-bodied 3-D kernel over `policy` (owned-cell coordinates). The
/// advection passes run as a step launches them: x into a band, y from a
/// band — where the band holds every row of the block, so any policy
/// stays inside it — and the wavefront over the policy's interior rows,
/// its ring fed from the band on the rows the band holds and by x on the
/// rest.
fn check_3d(case: &Case, policy: MDRangePolicy3) -> Result<(), TestCaseError> {
    let nz = case.nz;
    let (u, v) = (
        case.field3(1, nz, -1.5, 1.5),
        case.field3(17, nz, -1.5, 1.5),
    );
    let (t0, s0) = (case.tracer(2), case.tracer(3));
    let mid = [case.tracer(18), case.tracer(19)];
    let whole = band_of(&t0).holds(0, case.pj());
    for limited in [true, false] {
        // Poisoned outputs: a pass must write every cell of its range,
        // land included.
        let poisoned = || [4, 5].map(|salt| case.field3(salt, nz, -9.0, -8.0));
        if whole {
            check3("advect_x", policy, || {
                let q1 = poisoned().map(|p| band_of(&p));
                let out = q1.iter().map(|b| Out::from(b.data())).collect();
                let q = [t0.clone(), s0.clone()];
                (FunctorAdvectX(pass(case, (q, q1), &u, limited)), out)
            })?;
            check3("advect_y", policy, || {
                let q1 = poisoned();
                let out = q1.iter().map(Out::from).collect();
                let q = mid.each_ref().map(band_of);
                (FunctorAdvectY(pass(case, (q, q1), &v, limited)), out)
            })?;
        }
        if let Some(p) = interior(policy, case.ny) {
            check3("advect_wave", p, || {
                let band = mid.each_ref().map(band_of);
                let q1 = poisoned();
                let out = q1.iter().map(Out::from).collect();
                let q = [t0.clone(), s0.clone()];
                let x = FunctorAdvectX(pass(case, (q, band.clone()), &u, limited));
                let y = FunctorAdvectY(pass(case, (band, q1), &v, limited));
                (FunctorAdvectWave { x, y }, out)
            })?;
        }
    }
    let (old, new, cur0) = (
        case.field3(6, nz, -1.0, 1.0),
        case.field3(7, nz, -1.0, 1.0),
        case.field3(8, nz, -1.0, 1.0),
    );
    check3("asselin_3d", policy, || {
        let cur = copy3(&cur0);
        let f = FunctorAsselin3D {
            old: old.clone(),
            cur: cur.clone(),
            new: new.clone(),
        };
        (f, vec![Out::from(&cur)])
    })
}

/// Every row-bodied 2-D kernel over the one-level `policy`. The owned-cell
/// kernels add the halo width themselves; accumulate / scale-assign index
/// the padded block directly, so the same policy reaches other cells of
/// theirs.
fn check_2d(case: &Case, policy: MDRangePolicy3) -> Result<(), TestCaseError> {
    let dxt = case.dxt();
    let fcor: View1<f64> = View::from_fn("fcor", [case.pj()], |[j]| 1.0e-4 - 3.0e-6 * j as f64);
    let depth = case.field2(1, 50.0, 5000.0);
    let (e0, e1) = (case.field2(2, -0.5, 0.5), case.field2(3, -0.5, 0.5));
    let (u0, u1) = (case.field2(4, -1.0, 1.0), case.field2(5, -1.0, 1.0));
    let (v0, v1) = (case.field2(6, -1.0, 1.0), case.field2(7, -1.0, 1.0));
    let (gu, gv) = (
        case.field2(8, -1.0e-5, 1.0e-5),
        case.field2(9, -1.0e-5, 1.0e-5),
    );
    let poison = |salt| case.field2(salt, -9.0, -8.0);
    // The whole substep as the model launches it: the η and (u, v)
    // updates, the filtered middle level into the old slots and, but on a
    // window's first substep, the middle level into the sums.
    for (name, summing) in [("bt_substep", true), ("bt_substep_first", false)] {
        check3(name, policy, || {
            let [eta_new, u_new, v_new] = [10, 11, 12].map(poison);
            let [eta_old, u_old, v_old] = [&e0, &u0, &v0].map(copy2);
            let sums = [&gu, &u1, &gv].map(copy2);
            let out = [&eta_new, &u_new, &v_new, &eta_old, &u_old, &v_old]
                .into_iter()
                .chain(&sums)
                .map(Out::from)
                .collect();
            let eta = FunctorBtEta {
                eta_old,
                eta_new,
                ub: u1.clone(),
                vb: v1.clone(),
                depth: depth.clone(),
                kmt: case.kmt.clone(),
                dxt: dxt.clone(),
                dyt: 1.1e4,
                dt2: 4.0,
            };
            let vel = FunctorBtVel {
                u_old,
                v_old,
                u_cur: u1.clone(),
                v_cur: v1.clone(),
                eta_cur: e1.clone(),
                u_new,
                v_new,
                gu: gu.clone(),
                gv: gv.clone(),
                fcor: fcor.clone(),
                kmu: case.kmu.clone(),
                dxt: dxt.clone(),
                dyt: 1.1e4,
                dt2: 4.0,
            };
            let sums = summing.then_some(sums);
            (FunctorBtSubstep { eta, vel, sums }, out)
        })?;
    }
    // Every other row filtered, the rest copied through.
    let rows: View1<i32> = View::from_fn("rows", [case.pj()], |[j]| (j % 2) as i32);
    check3("zonal_filter", policy, || {
        let dst = poison(13);
        let f = FunctorZonalFilter {
            src: e0.clone(),
            dst: dst.clone(),
            rows: rows.clone(),
        };
        (f, vec![Out::from(&dst)])
    })?;
    check3("copy_2d", policy, || {
        let dst = poison(14);
        let f = FunctorCopy2D {
            src: e0.clone(),
            dst: dst.clone(),
        };
        (f, vec![Out::from(&dst)])
    })?;
    check3("accum_2d", policy, || {
        let acc = copy2(&u0);
        let f = FunctorAccum2D {
            acc: acc.clone(),
            x: v0.clone(),
        };
        (f, vec![Out::from(&acc)])
    })?;
    check3("scale_assign_2d", policy, || {
        let dst = poison(15);
        let f = FunctorScaleAssign2D {
            src: e0.clone(),
            dst: dst.clone(),
            scale: 1.0 / 40.0,
        };
        (f, vec![Out::from(&dst)])
    })
}

fn check_all(case: &Case) -> Result<(), TestCaseError> {
    licom::register_all_kernels();
    for p in case.policies2() {
        check_2d(case, p)?;
    }
    for p in case.policies3() {
        check_3d(case, p)?;
    }
    Ok(())
}

/// The shapes the issue names, one by one, so a failure says which.
/// (`limiter = false`, the exactly flat `dq == 0` stretches and the rim
/// policies of extent 1 ride along in every one of them.)
#[test]
#[rustfmt::skip] // one shape per line
fn named_shapes_are_bitwise_equal() {
    let w = LANES;
    let shape = |name: &str, nz, ny, nx, wet| {
        if let Err(e) = check_all(&Case::new(nz, ny, nx, wet, 0xC01)) {
            panic!("{name}: {e:?}");
        }
    };
    shape("ragged coast", 4, 9, 3 * w + 2, Wet::Ragged);
    shape("a band with rows between its edges", 2, 4 * H + 5, 2 * w + 3, Wet::Ragged);
    shape("an all-land row", 3, 6, 2 * w, Wet::LandRow(2));
    shape("a single wet cell", 3, 5, 2 * w + 1, Wet::Single(2, w));
    shape("land at both edges of every tile", 3, 7, 3 * (w + 3), Wet::LandAtTileEdges(w + 3));
    shape("nx shorter than a block", 3, 6, w - 3, Wet::Ragged);
    shape("nx one short of two blocks", 2, 6, 2 * w - 1, Wet::Ragged);
    shape("nx one past two blocks", 2, 6, 2 * w + 1, Wet::Ragged);
    shape("ny too short for a y-pass interior", 3, 4, w + 2, Wet::Ragged);
    shape("a single row, a single level", 1, 1, 2 * w + 3, Wet::Ragged);
    shape("wet runs with every remainder", 2, w - 1, 4 * w, Wet::Runs);
    for r in 1..w {
        shape(&format!("rows of a block and {r}"), 2, 3, w + r, Wet::Ragged);
    }
}

#[test]
fn a_full_row_really_is_walked_in_blocks() {
    // Guard the test itself: the tile path must reach every width of the
    // ladder, or the comparisons above compare W = 1 with W = 1.
    struct Widths(std::cell::RefCell<Vec<usize>>);
    impl licom::lanes::RowKernel for Widths {
        fn block<const W: usize>(&self, _k: usize, _j: usize, _i: usize) {
            self.0.borrow_mut().push(W);
        }
    }
    let log = Widths(Default::default());
    let policy = MDRangePolicy3::new([1, 1, 2 * LANES + 7]);
    lanes::run_tile(Isa::detect(), &log, policy.tile_bounds(0));
    assert_eq!(*log.0.borrow(), [LANES, LANES, 4, 2, 1]);
}

/// `advect_tracer` on `px × py` ranks of an `nx × ny` grid, with the
/// band's exchange carried and finished at its post, on `spaces`: the
/// schedule (boundary x, the wavefront under the exchange, the rims from
/// the band) must leave the bits of the passes composed here from the
/// public functors on Serial — x over all cells, a full exchange of the
/// whole intermediate, **one** dense y launch.
fn schedule_equals_blocking(px: usize, py: usize, nx: usize, ny: usize, spaces: &[Space]) {
    licom::register_all_kernels();
    let nz = 3;
    let global = GlobalGrid::build(nx, ny, nz, &Bathymetry::earth_like(), false);
    World::run(px * py, |comm| {
        let cart = CartComm::new(comm.clone(), px, py, true);
        let h2 = Halo2D::new(&cart, nx, ny);
        let g = LocalGrid::build(&global, &h2);
        let halo = Halo3D::new(h2, nz, Strategy3D::Transpose);
        let seed = 0xAD7 + (ny * 7 + comm.rank()) as u64;
        let case = Case::new(nz, g.ny, g.nx, Wet::Ragged, seed);
        let (u, v) = (case.field3(1, nz, -1.5, 1.5), case.field3(2, nz, -1.5, 1.5));
        let q = [case.tracer(4), case.tracer(5)];
        let (dt, limited) = (600.0, true);
        let mut epoch = 0;
        let outs = || [(); 2].map(|()| case.field3(6, nz, -9.0, -8.0));
        let blocking = {
            let [out, tmp] = [outs(), outs()];
            let fields = |qs, vel| AdvectFields::new(&g, qs, vel, dt, limited);
            let cells = MDRangePolicy3::new([nz, g.ny, g.nx]);
            let x = FunctorAdvectX(fields((q.clone(), tmp.clone()), &u));
            parallel_for_3d(&Space::serial(), cells, &x);
            halo.exchange_many(&tmp.each_ref().map(|t| (t, FoldKind::Scalar)), 820);
            let y = FunctorAdvectY(fields((tmp, out.clone()), &v));
            parallel_for_3d(&Space::serial(), cells, &y);
            bits(&out.each_ref().map(Out::from))
        };
        for space in spaces {
            for carried in [true, false] {
                // The band starts from what the whole intermediate held on
                // its rows: a ghost row behind the closed south wall is read
                // but never written.
                let [out, init] = [outs(), outs()];
                let band = init.map(|init| {
                    let b = RowBand::new("band", [nz, g.pj, g.pi]);
                    for k in 0..nz {
                        for jl in (0..g.pj).filter(|&jl| b.holds(jl, jl + 1)) {
                            for il in 0..g.pi {
                                b.data().set_at(k, b.row(jl), il, init.at(k, jl, il));
                            }
                        }
                    }
                    b
                });
                epoch += 1;
                halo.begin_step(epoch);
                advect_tracer(
                    space,
                    &g,
                    q.each_ref(),
                    out.each_ref(),
                    band.each_ref(),
                    &u,
                    &v,
                    dt,
                    limited,
                    &halo,
                    licom::Poster { carried },
                )
                .unwrap();
                let got = bits(&out.each_ref().map(Out::from));
                assert!(
                    got == blocking,
                    "{px}x{py} ranks, rank {}, ny = {ny}, {space:?}, carried = {carried}",
                    comm.rank()
                );
            }
        }
    });
}

/// One rank, for blocks too short to carve an interior (ny = 4), with one
/// interior row (5), two (6) and a tall one (11).
#[test]
fn overlap_schedule_equals_blocking_for_every_block_height() {
    let spaces = [
        Space::serial(),
        Space::threads(),
        Space::sw_athread_with(CgConfig::test_small()),
    ];
    for ny in [4, 5, 6, 11] {
        schedule_equals_blocking(1, 1, 2 * LANES + 4, ny, &spaces);
    }
}

/// 2 × 2 ranks: north/south neighbours, the fold between two ranks and
/// corners from a diagonal neighbour, all through the band.
#[test]
fn overlap_schedule_equals_blocking_on_two_by_two_ranks() {
    let spaces = [
        Space::serial(),
        Space::sw_athread_with(CgConfig::test_small()),
    ];
    for ny in [10, 23] {
        schedule_equals_blocking(2, 2, 2 * (LANES + 3), ny, &spaces);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random masks, block sizes, tile shapes and launch origins.
    #[test]
    fn prop_tile_equals_per_point(
        seed in 0u64..u64::MAX,
        nz in 1usize..5,
        ny in 1usize..9,
        nx in 1usize..30,
        tile in proptest::collection::vec(1usize..24, 3..4),
        cut in proptest::collection::vec(0usize..8, 4..5),
    ) {
        licom::register_all_kernels();
        let case = Case::new(nz, ny, nx, Wet::Ragged, seed);
        // A sub-range of the owned block from a shifted origin, so tiles
        // start and end anywhere.
        let (oj, oi) = (cut[0] % ny, cut[1] % nx);
        let (ej, ei) = (ny - oj - cut[2] % (ny - oj), nx - oi - cut[3] % (nx - oi));
        let tile = [1 + tile[0] % 3, 1 + tile[1] % 5, tile[2]];
        check_2d(
            &case,
            MDRangePolicy3::new([1, ej, ei])
                .with_tile([1, tile[1], tile[2]])
                .with_offset([0, oj, oi]),
        )?;
        check_3d(
            &case,
            MDRangePolicy3::new([nz, ej, ei]).with_tile(tile).with_offset([0, oj, oi]),
        )?;
    }
}
