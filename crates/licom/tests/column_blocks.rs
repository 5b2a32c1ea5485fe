//! The lane-blocked column kernels against their own `W = 1` instantiation
//! and against the launches they replaced, run one after another.
//!
//! Each of the column passes — the momentum pass over the wet velocity
//! columns (per level, its corners' hydrostatic pressure into work rows, the
//! tendency from it, the wind stress on the top level, the depth means) and
//! the one that finishes the new level (the canuto closure into work rows;
//! velocity: leapfrog, friction solve, mode correction; tracers: vertical
//! advection, diffusion, mixing solve, surface restore — each with the
//! guard's per-column maximum) — has one body, generic over the number `W`
//! of adjacent columns it runs together. A list launch hands
//! it whole tiles (`FunctorList::operator_span`), which it walks down the
//! ladder — `LANES`-wide blocks, then at most one block each of 4, 2 and 1
//! columns; calling
//! `FunctorList::operator` entry by entry runs the same body one column at a
//! time. The two must agree **bitwise** on every execution space, whatever
//! the wet mask looks like: isolated wet columns, runs shorter than, equal
//! to and longer than a block, runs cut by a tile boundary, one-level
//! columns, a one-level grid, all-land rows, ragged depths inside a block,
//! wet T columns without velocity cells inside a run, a north halo row
//! that is the fold's mirror of the top row. Each pass is held to more
//! than its own `W = 1`: to the launches it replaced, run one after
//! another, a column at a time. The momentum pass is held to density and
//! the pressure integral over the owned wet T columns and the wet halo
//! columns north and east of the block into a pressure field, the tendency
//! per wet velocity cell from that field, the wind stress on the top level
//! and the thickness-weighted depth means; the new level's pass to the
//! closure over every wet T column into `km` / `kh` fields, the velocity
//! chain over the columns with `kmu > 0`, the tracer chain over every wet T
//! column.
//! A launch walks its spans under `Isa::detect()`; the same walk pinned to
//! `Isa::BASELINE` must leave those bits too — on an AVX2 host that holds
//! the clone to the baseline and to `W = 1`, elsewhere it walks the fallback
//! twice.
//!
//! The tracer pass's vertical advection, which diagnoses `w` and the CFL
//! once for both tracers, has no single-field form to compare with; it must
//! instead not care which partner a tracer is paired with, or which slot it
//! rides in. (That the paired implicit solve leaves each field the bits of
//! its own single-field solve is a unit test of `licom::vmix`.)

use halo_exchange::HALO as H;
use kokkos_rs::{
    parallel_for_list, FunctorList, ListPolicy, Policy, Space, View, View1, View2, View3,
};
use licom::advect::AdvectZ;
use licom::baroclinic::{FunctorMomentumColumns, MomentumTend};
use licom::canuto::CanutoFields;
use licom::columns::{FunctorNewLevelColumns, TracerChain, TracerHDiff, VelocityChain};
use licom::forcing::{wind_stress_x, wind_stress_y, SurfaceRestore};
use licom::lanes::{self, ColumnKernel, F64x, Isa, LANES};
use licom::vmix::VerticalSolve;
use ocean_grid::{ActiveSet, GRAVITY, RHO0};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sunway_sim::CgConfig;

/// A list functor's span walk with the ISA an argument instead of detected;
/// `pi` is the row pitch of its packed columns.
trait Pinned {
    fn span(&self, isa: Isa, pi: usize, entries: &[u32]);
}

macro_rules! pinned {
    ($($F:ty),*) => {$(
        impl Pinned for $F {
            fn span(&self, isa: Isa, pi: usize, entries: &[u32]) {
                lanes::run_span(isa, self, pi, entries);
            }
        }
    )*};
}
pinned!(FunctorNewLevelColumns);

impl Pinned for FunctorMomentumColumns {
    fn span(&self, isa: Isa, _pi: usize, entries: &[u32]) {
        FunctorMomentumColumns::span(self, isa, entries);
    }
}

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

/// What one owned row of the wet mask looks like.
#[derive(Debug, Clone, Copy)]
enum Row {
    Land,
    /// Wet columns with land on both sides.
    Isolated,
    /// Wet runs of exactly this length, one land column between them.
    Runs(usize),
    /// One run across the whole row.
    Full,
}

/// How deep the wet columns are.
#[derive(Debug, Clone, Copy)]
enum Depth {
    /// Every wet column has one level.
    One,
    /// Every wet column reaches the bottom.
    Flat,
    /// Each column draws its own depth in `1..=nz`.
    Ragged,
}

/// The least of the four `kmt` at and north-east of a cell, as the grid
/// builds `kmu`: a wet T column may have no velocity cell.
fn kmu_of(kmt: &View2<i32>) -> View2<i32> {
    let [pj, pi] = kmt.dims();
    View::from_fn("kmu", [pj, pi], |[jl, il]| {
        let (jn, i_n) = ((jl + 1).min(pj - 1), (il + 1).min(pi - 1));
        [(jl, il), (jl, i_n), (jn, il), (jn, i_n)]
            .map(|(j, i)| kmt.at(j, i))
            .into_iter()
            .min()
            .unwrap()
    })
}

struct Case {
    nz: usize,
    ny: usize,
    nx: usize,
    tile: usize,
    seed: u64,
    kmt: View2<i32>,
    /// The least of the four `kmt` at and north-east of a cell, as the grid
    /// builds it: a wet T column may have no velocity cell.
    kmu: View2<i32>,
    /// The owned wet columns.
    policy: ListPolicy,
    /// The owned wet velocity columns (`kmu > 0`).
    ucols: ListPolicy,
    /// The north halo rows mirror the top rows, as at the fold.
    folded: bool,
}

impl Case {
    fn new(nz: usize, nx: usize, rows: &[Row], depth: Depth, tile: usize, seed: u64) -> Self {
        let ny = rows.len();
        let (pj, pi) = (ny + 2 * H, nx + 2 * H);
        // Halo masks are arbitrary: diagnose-w compares depths across the
        // block edge, and a halo cell may be deeper, shallower or land.
        let kmt: View2<i32> = View::from_fn("kmt", [pj, pi], |[jl, il]| {
            (mix(seed ^ 0xA5, (jl * pi + il) as u64) % (nz as u64 + 1)) as i32
        });
        for (j, row) in rows.iter().enumerate() {
            for i in 0..nx {
                let wet = match *row {
                    Row::Land => false,
                    Row::Isolated => i % 3 == 1,
                    Row::Runs(len) => i % (len + 1) < len,
                    Row::Full => true,
                };
                let levels = match depth {
                    _ if !wet => 0,
                    Depth::One => 1,
                    Depth::Flat => nz,
                    Depth::Ragged => {
                        1 + (mix(seed ^ 0x5A, (j * nx + i) as u64) % nz as u64) as usize
                    }
                };
                kmt.set_at(j + H, i + H, levels as i32);
            }
        }
        let kmu = kmu_of(&kmt);
        let (policy, ucols) = Self::lists(&kmt, &kmu, tile);
        Self {
            nz,
            ny,
            nx,
            tile,
            seed,
            kmt,
            kmu,
            policy,
            ucols,
            folded: false,
        }
    }

    /// The owned wet T columns and velocity columns, in tiles of `tile`.
    fn lists(kmt: &View2<i32>, kmu: &View2<i32>, tile: usize) -> (ListPolicy, ListPolicy) {
        let [pj, pi] = kmt.dims();
        let list = |mask: &View2<i32>| {
            let set = ActiveSet::build_columns(pi, H..pj - H, H..pi - H, |j, i| {
                mask.at(j, i).max(0) as u32
            });
            ListPolicy::new(set.indices.clone())
                .with_cost_prefix(set.cost_prefix.clone())
                .with_tile(tile)
        };
        (list(kmt), list(kmu))
    }

    /// This case with the north halo rows the i-mirror of the top owned rows
    /// (a one-rank-wide block at the tripolar fold): `kmt` here, and every
    /// field [`Case::field`] makes.
    fn folded(mut self) -> Self {
        let [pj, pi] = self.kmt.dims();
        for d in 0..H {
            for il in 0..pi {
                let mirror = self.kmt.at(pj - H - 1 - d, pi - 1 - il);
                self.kmt.set_at(pj - H + d, il, mirror);
            }
        }
        self.kmu = kmu_of(&self.kmt);
        (self.policy, self.ucols) = Self::lists(&self.kmt, &self.kmu, self.tile);
        self.folded = true;
        self
    }

    fn dims(&self, levels: usize) -> [usize; 3] {
        [levels, self.ny + 2 * H, self.nx + 2 * H]
    }

    /// A `levels`-deep field of values in `lo..hi`, halo included (its
    /// north halo rows the fold's mirror on a folded case).
    fn field(&self, salt: u64, levels: usize, lo: f64, hi: f64) -> View3<f64> {
        let [_, pj, pi] = self.dims(levels);
        let f = View::from_fn("field", self.dims(levels), |[k, j, i]| {
            lo + (hi - lo) * unit(self.seed ^ salt, ((k * pj + j) * pi + i) as u64)
        });
        if self.folded {
            for k in 0..levels {
                for d in 0..H {
                    for il in 0..pi {
                        f.set_at(k, pj - H + d, il, f.at(k, pj - H - 1 - d, pi - 1 - il));
                    }
                }
            }
        }
        f
    }

    /// A tracer with flat stretches (`dq == 0` faces) among the noise.
    fn tracer(&self, salt: u64) -> View3<f64> {
        let q = self.field(salt, self.nz, -2.0, 30.0);
        let [_, pj, pi] = self.dims(self.nz);
        for n in 0..(self.nz * pj * pi) {
            if mix(self.seed ^ salt ^ 0xF1, n as u64).is_multiple_of(4) {
                q.set_linear(n, 10.0);
            }
        }
        q
    }

    fn dz(&self) -> View1<f64> {
        View::from_fn("dz", [self.nz], |[k]| 5.0 + 3.0 * k as f64)
    }

    fn z_t(&self) -> View1<f64> {
        View::from_fn("z_t", [self.nz], |[k]| {
            2.5 + 6.5 * k as f64 + 0.25 * (k * k) as f64
        })
    }

    fn dxt(&self) -> View1<f64> {
        View::from_fn("dxt", [self.ny + 2 * H], |[j]| 9.0e3 + 137.0 * j as f64)
    }

    /// The implicit solve of the columns under `mask` over `dt`.
    fn solve(&self, mask: &View2<i32>, dt: f64) -> VerticalSolve {
        VerticalSolve {
            mask: mask.clone(),
            dz: self.dz(),
            z_t: self.z_t(),
            dt,
            nz: self.nz,
        }
    }

    /// A 2-D field of values in `lo..hi`, halo included.
    fn field2(&self, salt: u64, lo: f64, hi: f64) -> View2<f64> {
        let pi = self.nx + 2 * H;
        View::from_fn("field2", [self.ny + 2 * H, pi], |[j, i]| {
            lo + (hi - lo) * unit(self.seed ^ salt, (j * pi + i) as u64)
        })
    }

    /// The wet velocity columns whose corners reach the north halo row and
    /// the east halo column.
    fn corners_on_the_halo(&self) -> [usize; 2] {
        let pi = self.nx + 2 * H;
        let at = |c: &u32| (*c as usize / pi, *c as usize % pi);
        let corners: Vec<_> = self.ucols.indices().iter().map(at).collect();
        [
            corners
                .iter()
                .filter(|&&(jl, _)| jl == H + self.ny - 1)
                .count(),
            corners
                .iter()
                .filter(|&&(_, il)| il == H + self.nx - 1)
                .count(),
        ]
    }

    /// Owned wet T columns with no velocity cell (`kmu = 0 < kmt`) that
    /// share a run with a wet neighbour, so a lane block holds both kinds.
    fn velocity_less_lanes_in_runs(&self) -> usize {
        let pi = self.nx + 2 * H;
        let cols = self.policy.indices();
        let wet = |c: u32| cols.contains(&c);
        (cols.iter())
            .filter(|&&c| {
                let (jl, il) = (c as usize / pi, c as usize % pi);
                self.kmu.at(jl, il) == 0 && (wet(c + 1) || wet(c - 1))
            })
            .count()
    }
}

/// What a kernel writes, read back as bits.
enum Out {
    D3(View3<f64>),
    D2(View2<f64>),
}

impl From<&View3<f64>> for Out {
    fn from(v: &View3<f64>) -> Self {
        Out::D3(v.clone())
    }
}

impl From<&View2<f64>> for Out {
    fn from(v: &View2<f64>) -> Self {
        Out::D2(v.clone())
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

fn bits(outs: &[Out]) -> Vec<Vec<u64>> {
    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect();
    (outs.iter())
        .map(|o| match o {
            Out::D3(v) => bits(v.as_slice()),
            Out::D2(v) => bits(v.as_slice()),
        })
        .collect()
}

/// `make` builds the functor on fresh copies of whatever it writes and
/// returns those views. `reference` runs a functor the way the others are
/// held to; the functor run over `policy` entry by entry (`W = 1`) must
/// leave its bits, every space must reproduce them through the span path,
/// and so must the span walk pinned to `Isa::BASELINE`, tile by tile (the
/// spaces differ in who runs a tile, not in how it is walked).
fn check<F: FunctorList + Pinned + 'static>(
    kernel: &str,
    case: &Case,
    policy: &ListPolicy,
    reference: impl Fn(&F),
    make: impl Fn() -> (F, Vec<Out>),
) -> Result<Vec<Vec<u64>>, TestCaseError> {
    let (f, out) = make();
    reference(&f);
    let want = bits(&out);
    let (f, out) = make();
    per_entry(&f, policy);
    prop_assert!(
        bits(&out) == want,
        "{kernel}: per-entry execution differs from the reference \
         ({} wet columns, nz {})",
        policy.len(),
        case.nz
    );
    for space in spaces() {
        let (f, out) = make();
        parallel_for_list(&space, policy, &f);
        prop_assert!(
            bits(&out) == want,
            "{kernel}: span execution on {} differs from the reference \
             ({} wet columns, tile {}, nz {})",
            space.name(),
            policy.len(),
            case.tile,
            case.nz
        );
    }
    let (f, out) = make();
    for t in 0..policy.total_tiles() {
        f.span(Isa::BASELINE, case.nx + 2 * H, policy.tile_entries(t).1);
    }
    prop_assert!(
        bits(&out) == want,
        "{kernel}: the span walk under Isa::BASELINE differs from the \
         reference (the spaces ran under {:?})",
        Isa::detect()
    );
    Ok(want)
}

/// `f` over `policy` entry by entry: each column alone, at `W = 1`.
fn per_entry<F: FunctorList>(f: &F, policy: &ListPolicy) {
    for n in policy.start..policy.end {
        f.operator(n, policy.entry(n));
    }
}

/// The new level's pass as its three chains run one after another, a
/// column at a time: the closure over every wet T column into `km` / `kh`
/// fields (on a density field worked out from the current `T` / `S`), then
/// the velocity chain over the columns with `kmu > 0` on the `km` column,
/// then the tracer chain over every wet T column on the `kh` column.
fn three_chains(case: &Case, f: &FunctorNewLevelColumns) {
    let (nz, pi, cols) = (case.nz, case.nx + 2 * H, case.policy.indices());
    let [t, s] = &f.tracer.hdiff.q_cur;
    let rho: View3<f64> = View::from_fn("rho", t.dims(), |[k, j, i]| {
        licom::eos::density(F64x([t.at(k, j, i)]), F64x([s.at(k, j, i)])).0[0]
    });
    let (km, kh): (View3<f64>, View3<f64>) = (
        View::host("km", case.dims(nz + 1)),
        View::host("kh", case.dims(nz + 1)),
    );
    f.closure.evaluate(&rho, cols, pi, [&km, &kh]);
    let column = |k: &View3<f64>, jl, il| -> Vec<[f64; 1]> {
        (0..=nz).map(|kk| [k.at(kk, jl, il)]).collect()
    };
    let mut scratch = vec![0.0; f.scratch_words()];
    let at = |c: &u32| (*c as usize / pi, *c as usize % pi);
    for (jl, il) in cols
        .iter()
        .map(at)
        .filter(|&(jl, il)| case.kmu.at(jl, il) > 0)
    {
        f.velocity
            .block::<1>(jl, il, &column(&km, jl, il), &mut scratch);
    }
    for (jl, il) in cols.iter().map(at) {
        f.tracer
            .block::<1>(jl, il, &column(&kh, jl, il), &mut scratch);
    }
}

fn copy_of(v: &View3<f64>) -> View3<f64> {
    let c: View3<f64> = View::host("copy", v.dims());
    c.copy_from_slice(v.as_slice());
    c
}

fn check_all(case: &Case) -> Result<(), TestCaseError> {
    licom::register_all_kernels();
    let (nz, kmt) = (case.nz, &case.kmt);
    let (dz, z_t, dxt) = (case.dz(), case.z_t(), case.dxt());
    let u = case.field(1, nz, -1.5, 1.5);
    let v = case.field(2, nz, -1.5, 1.5);
    let (q0, s0) = (case.tracer(6), case.tracer(10));
    let (t_cur, s_cur) = (case.tracer(21), case.field(22, nz, 30.0, 38.0));
    for limited in [true, false] {
        let reference = |f: &FunctorNewLevelColumns| three_chains(case, f);
        check("new level", case, &case.policy, reference, || {
            // The new velocity level carries the tendency in, as the step
            // hands it over (on dry cells too, where the step's is `+0`: a
            // dry lane's must not reach a wet one); the tracers are finished
            // in place on the y pass's output. Every wet cell of a column and
            // its maxima (poisoned) must be written, and nothing else.
            let new = [
                case.field(16, nz, -1.0e-4, 1.0e-4),
                case.field(17, nz, -1.0e-4, 1.0e-4),
            ];
            let speed = case.field2(15, -9.0, -8.0);
            let q = [copy_of(&q0), copy_of(&s0)];
            let excess = case.field2(20, -9.0, -8.0);
            let f = FunctorNewLevelColumns {
                closure: CanutoFields {
                    u: u.clone(),
                    v: v.clone(),
                    kmt: kmt.clone(),
                    z_t: z_t.clone(),
                    nz,
                },
                velocity: VelocityChain {
                    old: [case.field(23, nz, -1.5, 1.5), case.field(24, nz, -1.5, 1.5)],
                    new: new.clone(),
                    solve: case.solve(&case.kmu, 1800.0),
                    bt: [case.field2(18, -0.5, 0.5), case.field2(19, -0.5, 0.5)],
                    speed: speed.clone(),
                },
                tracer: TracerChain {
                    q: q.clone(),
                    advect: AdvectZ {
                        u: u.clone(),
                        v: v.clone(),
                        kmt: kmt.clone(),
                        dxt: dxt.clone(),
                        dyt: 1.1e4,
                        dz: dz.clone(),
                        dt: 600.0,
                        nz,
                        limited,
                    },
                    hdiff: TracerHDiff {
                        q_cur: [t_cur.clone(), s_cur.clone()],
                        kmt: kmt.clone(),
                        dxt: dxt.clone(),
                        dyt: 1.1e4,
                        kappa: 2.5e2,
                        dt: 600.0,
                    },
                    solve: case.solve(kmt, 600.0),
                    restore: SurfaceRestore {
                        lat: View::from_fn("lat", [case.ny + 2 * H], |[j]| 20.0 * j as f64 - 40.0),
                        dt: 6.0e5,
                    },
                    // Windows the fields overrun, so the maxima are not all
                    // zero.
                    bounds: [(0.0, 25.0), (-1.0, 28.0)],
                    excess: excess.clone(),
                },
            };
            let out = vec![
                (&new[0]).into(),
                (&new[1]).into(),
                (&speed).into(),
                (&q[0]).into(),
                (&q[1]).into(),
                (&excess).into(),
            ];
            (f, out)
        })?;
    }
    for limited in [true, false] {
        let az = AdvectZ {
            u: u.clone(),
            v: v.clone(),
            kmt: kmt.clone(),
            dxt: dxt.clone(),
            dyt: 1.1e4,
            dz: dz.clone(),
            dt: 600.0,
            nz,
            limited,
        };
        check_advect_partners(case, &az, [&q0, &s0])?;
    }
    check_momentum(case, [&u, &v])?;
    Ok(())
}

/// The momentum pass on `case`'s velocity columns: `T` / `S` from salts 4
/// and 12, `[u, v]` at the current level, the old level from salts 23 and
/// 24, writing `out` and `mean`.
fn momentum(
    case: &Case,
    [u, v]: [&View3<f64>; 2],
    out: [View3<f64>; 2],
    mean: [View2<f64>; 2],
) -> FunctorMomentumColumns {
    let nz = case.nz;
    FunctorMomentumColumns {
        tend: MomentumTend {
            u_cur: u.clone(),
            v_cur: v.clone(),
            u_old: case.field(23, nz, -1.5, 1.5),
            v_old: case.field(24, nz, -1.5, 1.5),
            kmu: case.kmu.clone(),
            fcor: View::from_fn("fcor", [case.ny + 2 * H], |[j]| 1.0e-4 - 3.0e-6 * j as f64),
            dxt: case.dxt(),
            dyt: 1.1e4,
            dz: case.dz(),
            visc: 1.0e3,
        },
        ts: [
            case.field(4, nz, -2.0, 30.0),
            case.field(12, nz, 30.0, 38.0),
        ],
        kmt: case.kmt.clone(),
        lat: View::from_fn("lat", [case.ny + 2 * H], |[j]| 20.0 * j as f64 - 40.0),
        out,
        mean,
    }
}

/// The momentum pass as the launches it replaced, one after another, a
/// column or a cell at a time: density and the pressure integral over the
/// owned wet T columns and the wet halo columns north and east of the block
/// into a pressure field (held below a column's bottom, zero on land); the
/// tendency at each wet velocity cell from that field; the wind stress
/// added to the top level; the thickness-weighted depth means summed from
/// the surface down.
fn four_launches(case: &Case, f: &FunctorMomentumColumns) {
    let (nz, pi) = (case.nz, case.nx + 2 * H);
    let (kmt, [t, s], dz) = (&case.kmt, &f.ts, &f.tend.dz);
    let p: View3<f64> = View::host("p", case.dims(nz));
    for jl in H..=H + case.ny {
        for il in (H..=H + case.nx).filter(|&il| kmt.at(jl, il) > 0) {
            let (mut pk, mut prev_rho_dz) = (0.0, 0.0);
            for k in 0..nz {
                if (k as i32) < kmt.at(jl, il) {
                    let rho = licom::eos::density(F64x([t.at(k, jl, il)]), F64x([s.at(k, jl, il)]));
                    let rdz = rho.0[0] * dz.at(k);
                    pk = pk + GRAVITY * 0.5 * (prev_rho_dz + rdz);
                    prev_rho_dz = rdz;
                }
                p.set_at(k, jl, il, pk);
            }
        }
    }
    let corner = |c: &u32| (*c as usize / pi, *c as usize % pi);
    for (jl, il) in case.ucols.indices().iter().map(corner) {
        let kmu = case.kmu.at(jl, il);
        for k in 0..kmu as usize {
            let at = |jn, i_n| F64x([p.at(k, jn, i_n)]);
            let corners = [
                at(jl, il),
                at(jl, il + 1),
                at(jl + 1, il),
                at(jl + 1, il + 1),
            ];
            let tend = f.tend.block::<1>(k, jl, il, &[kmu], corners);
            for (out, d) in f.out.iter().zip(tend) {
                out.set_at(k, jl, il, d.0[0]);
            }
        }
        let lat = 0.5 * (f.lat.at(jl) + f.lat.at(jl + 1));
        let fac = 1.0 / (RHO0 * dz.at(0));
        for (out, tau) in f.out.iter().zip([wind_stress_x(lat), wind_stress_y(lat)]) {
            out.set_at(0, jl, il, out.at(0, jl, il) + tau * fac);
        }
        for (out, mean) in f.out.iter().zip(&f.mean) {
            let (mut sum, mut h) = (0.0, 0.0);
            for k in 0..kmu as usize {
                sum += out.at(k, jl, il) * dz.at(k);
                h += dz.at(k);
            }
            mean.set_at(jl, il, sum / h);
        }
    }
}

/// The momentum pass against [`four_launches`]. Its outputs start as the
/// step hands them over: the tendency `+0` on dry cells (which a block's dry
/// lanes store) and poisoned on wet ones, the means poisoned, so every wet
/// cell and every mean must be written and nothing else may change.
fn check_momentum(case: &Case, uv: [&View3<f64>; 2]) -> Result<(), TestCaseError> {
    let nz = case.nz;
    let poison = |salt| {
        let q = case.field(salt, nz, -9.0, -8.0);
        let [_, pj, pi] = case.dims(nz);
        for k in 0..nz {
            for jl in 0..pj {
                for il in 0..pi {
                    let owned = (H..pj - H).contains(&jl) && (H..pi - H).contains(&il);
                    if !owned || k as i32 >= case.kmu.at(jl, il) {
                        q.set_at(k, jl, il, 0.0);
                    }
                }
            }
        }
        q
    };
    let (ut, vt) = (poison(25), poison(26));
    let reference = |f: &FunctorMomentumColumns| four_launches(case, f);
    check("momentum", case, &case.ucols, reference, || {
        let out = [copy_of(&ut), copy_of(&vt)];
        let mean = [case.field2(27, -9.0, -8.0), case.field2(28, -9.0, -8.0)];
        let outs = vec![
            (&out[0]).into(),
            (&out[1]).into(),
            (&mean[0]).into(),
            (&mean[1]).into(),
        ];
        (momentum(case, uv, out, mean), outs)
    })?;
    Ok(())
}

/// The rows the vertical advection leaves for the pair `q`, `W` adjacent
/// owned columns at a time (whole blocks only; `W = 1` reaches every
/// column): per tracer slot, the bits of each lane's wet levels in walk
/// order.
fn advect_rows<const W: usize>(case: &Case, az: &AdvectZ, q: [&View3<f64>; 2]) -> [Vec<u64>; 2] {
    let mut scratch = vec![0.0; W * AdvectZ::scratch_words(case.nz)];
    let mut out = vec![[0.0; W]; 2 * case.nz];
    let mut rows = [Vec::new(), Vec::new()];
    for jl in H..H + case.ny {
        for il in (0..case.nx / W).map(|b| H + b * W) {
            let depths = lanes::depths::<W>(&case.kmt, jl, il);
            if depths.1 == 0 {
                continue;
            }
            az.column::<W>(q, jl, il, depths, &mut scratch, &mut out);
            for (lane, &kb) in depths.0.iter().enumerate() {
                for k in 0..kb.max(0) as usize {
                    for (t, rows) in rows.iter_mut().enumerate() {
                        rows.push(out[2 * k + t][lane].to_bits());
                    }
                }
            }
        }
    }
    rows
}

/// A tracer's vertical advection must not depend on its partner or on which
/// slot it rides in: the pairs `(a, b)`, `(b, a)` and `(a, a)`, one column
/// and a lane block at a time.
fn check_advect_partners(
    case: &Case,
    az: &AdvectZ,
    [a, b]: [&View3<f64>; 2],
) -> Result<(), TestCaseError> {
    let limited = az.limited;
    for (width, pass) in [
        (
            1,
            advect_rows::<1> as fn(&Case, &AdvectZ, [&View3<f64>; 2]) -> [Vec<u64>; 2],
        ),
        (LANES, advect_rows::<LANES>),
    ] {
        let (ab, ba, aa) = (
            pass(case, az, [a, b]),
            pass(case, az, [b, a]),
            pass(case, az, [a, a]),
        );
        prop_assert!(
            ab[0] == ba[1] && ab[1] == ba[0] && aa[0] == ab[0] && aa[1] == ab[0],
            "advect_z: a tracer's result depends on its partner (W {width}, limited {limited})"
        );
    }
    Ok(())
}

/// The shapes the issue names, one by one, so a failure says which.
#[test]
#[rustfmt::skip] // one shape per line
fn named_mask_shapes_are_bitwise_equal() {
    let w = LANES;
    let check_case = |name: &str, case: &Case| {
        if let Err(e) = check_all(case) {
            panic!("{name}: {e:?}");
        }
    };
    let shape = |name: &str, nz, nx, rows: &[Row], depth, tile| {
        check_case(name, &Case::new(nz, nx, rows, depth, tile, 0xC01));
    };
    use Depth::{Flat, One, Ragged};
    shape("isolated wet columns", 6, 20, &[Row::Isolated; 2], Ragged, 256);
    shape("runs shorter than a block", 6, 3 * w, &[Row::Runs(w - 1)], Ragged, 256);
    shape("runs of exactly one block", 6, 3 * w + 2, &[Row::Runs(w)], Ragged, 256);
    shape("runs longer than a block", 6, 4 * w, &[Row::Runs(2 * w + 1)], Ragged, 256);
    shape("a run cut by a tile boundary", 5, 3 * w, &[Row::Full; 2], Ragged, w + 3);
    shape("tiles shorter than a block", 5, 3 * w, &[Row::Full], Flat, 3);
    shape("one-level columns", 6, 2 * w + 1, &[Row::Full, Row::Runs(3)], One, 256);
    shape("a one-level grid", 1, 2 * w + 1, &[Row::Full, Row::Isolated], Flat, 7);
    let land_between = [Row::Land, Row::Full, Row::Land, Row::Land, Row::Runs(w)];
    shape("all-land rows between wet ones", 4, w + 2, &land_between, Ragged, 5);
    shape("nothing wet at all", 3, w, &[Row::Land; 2], Flat, 4);
    let every_remainder: Vec<Row> = (1..w).map(|r| Row::Runs(w + r)).collect();
    shape("runs with every remainder", 5, 4 * w, &every_remainder, Ragged, 256);
    // A full row under a row of short runs: where the row above is land,
    // the full row's T columns have no velocity cell.
    let coast = [Row::Full, Row::Runs(3), Row::Full];
    let case = Case::new(5, 3 * w + 1, &coast, Ragged, 256, 0xC01);
    assert!(case.velocity_less_lanes_in_runs() > 0, "the shape has no such lane");
    shape("wet T columns without velocity cells", 5, 3 * w + 1, &coast, Ragged, 256);
    // The top row's corners take the north half of their pressure from the
    // halo row, here the fold's mirror of the top row, and a full row's
    // last corner the east half from the halo column.
    let top = [Row::Runs(w + 3), Row::Full];
    let fold = Case::new(5, 3 * w + 1, &top, Ragged, 256, 0xC01).folded();
    let [north, east] = fold.corners_on_the_halo();
    assert!(north > 0 && east > 0, "the shape reaches the halo: {north}, {east}");
    check_case("a north halo row at the fold, the east halo column", &fold);
}

/// Bottom drag applies to the lanes whose cell is the deepest wet one. One
/// row per placement of such a lane in a block of the level below the
/// surface: inside it, at either edge, in every lane, in none.
#[test]
fn a_bottom_layer_inside_at_the_edge_of_or_absent_from_a_block() {
    licom::register_all_kernels();
    let (nz, nx) = (4, 2 * LANES + 3);
    let shallow: [&[usize]; 5] = [
        &[LANES / 2],
        &[0, LANES - 1],
        &[LANES, 2 * LANES - 1, 2 * LANES],
        &[],
        &(0..nx).collect::<Vec<_>>(),
    ];
    let mut case = Case::new(nz, nx, &[Row::Full; 5], Depth::Flat, 256, 0xB0D);
    for (j, cols) in shallow.iter().enumerate() {
        for i in 0..nx {
            // Two levels where named, full depth elsewhere: level 1 is the
            // bottom of exactly the named columns.
            let depth = if cols.contains(&i) { 2 } else { nz };
            case.kmu.set_at(j + H, i + H, depth as i32);
        }
    }
    (case.policy, case.ucols) = Case::lists(&case.kmt, &case.kmu, case.tile);
    let uv = [case.field(1, nz, -1.5, 1.5), case.field(2, nz, -1.5, 1.5)];
    check_momentum(&case, [&uv[0], &uv[1]]).unwrap();
    // Guard the test itself: the drag is in the result.
    let out = [case.field(9, nz, -9.0, -8.0), case.field(9, nz, -9.0, -8.0)];
    let mean = [case.field2(9, -9.0, -8.0), case.field2(9, -9.0, -8.0)];
    let f = momentum(&case, [&uv[0], &uv[1]], out.clone(), mean);
    let (jl, il) = (H, H + LANES / 2);
    let corner = (jl * (nx + 2 * H) + il) as u32;
    f.operator(0, corner);
    let dragged = out[0].at(1, jl, il);
    case.kmu.set_at(jl, il, nz as i32);
    f.operator(0, corner);
    assert_ne!(dragged.to_bits(), out[0].at(1, jl, il).to_bits());
}

/// The pressure-gradient term is `(-gx) / RHO0`. In a state at rest over
/// level water (one `T`, one `S`, one depth, the halo included) the
/// corners' pressure is equal, so `gx = +0`, and `-gx = -0` survives the
/// rest of the sum when every later term is a zero of the right sign — here
/// `v = -0` (so `f·v = -0`) and an old velocity of `+0` among neighbours of
/// `-0` (so the Laplacian is `-0`). `0 - gx` would leave `+0`: a different
/// bit, and the goldens pin every bit. The level probed is neither the top
/// (the wind) nor the bottom (the drag).
#[test]
fn a_zero_pressure_gradient_keeps_its_sign() {
    licom::register_all_kernels();
    let (nz, nx, k) = (3, 2 * LANES + 1, 1);
    let mut case = Case::new(nz, nx, &[Row::Full; 3], Depth::Flat, 256, 0x51);
    case.kmt.fill(nz as i32);
    case.kmu = kmu_of(&case.kmt);
    (case.policy, case.ucols) = Case::lists(&case.kmt, &case.kmu, case.tile);
    let uv = [case.field(1, nz, 0.0, 0.0), case.field(2, nz, 0.0, 0.0)];
    uv[1].fill(-0.0);
    let ut = case.field(9, nz, -9.0, -8.0);
    let (vt, mean) = (case.field(10, nz, -9.0, -8.0), case.field2(9, -9.0, -8.0));
    let f = momentum(
        &case,
        [&uv[0], &uv[1]],
        [ut.clone(), vt],
        [mean.clone(), mean],
    );
    f.ts[0].fill(10.0);
    f.ts[1].fill(35.0);
    f.tend.v_old.fill(0.0);
    f.tend.u_old.fill(-0.0);
    // One probe per block position: lane 0, an inner lane, the last block.
    let probes = [0, LANES / 2, 2 * LANES];
    for i in probes {
        f.tend.u_old.set_at(k, 1 + H, i + H, 0.0);
    }
    let corner = |i: usize| ((1 + H) * (nx + 2 * H) + i + H) as u32;
    let minus_zero = (-0.0f64).to_bits();
    for i in probes {
        f.operator(0, corner(i));
        assert_eq!(
            ut.at(k, 1 + H, i + H).to_bits(),
            minus_zero,
            "W = 1, i = {i}"
        );
    }
    ut.fill(9.0);
    parallel_for_list(&Space::serial(), &case.ucols, &f);
    for i in probes {
        assert_eq!(
            ut.at(k, 1 + H, i + H).to_bits(),
            minus_zero,
            "blocks, i = {i}"
        );
    }
    // Elsewhere the old velocity is uniform, its Laplacian `+0`, and the
    // sum ends on `+0` whatever the gradient's sign.
    assert_eq!(ut.at(k, 1 + H, 2 + H).to_bits(), 0.0f64.to_bits());
}

#[test]
fn a_full_row_really_is_walked_in_blocks() {
    // Guard the test itself: the span path must reach every width of the
    // ladder, or the comparisons above compare W = 1 with W = 1.
    struct Widths(std::cell::RefCell<Vec<usize>>);
    impl lanes::ColumnKernel for Widths {
        fn block<const W: usize>(&self, _jl: usize, _il: usize, _scratch: &mut [f64]) {
            self.0.borrow_mut().push(W);
        }
    }
    let case = Case::new(4, 2 * LANES + 7, &[Row::Full], Depth::Flat, 256, 1);
    let (entries, pi) = (case.policy.indices(), case.nx + 2 * H);
    assert_eq!(
        lanes::runs(entries, pi)
            .map(|(_, _, len)| len)
            .collect::<Vec<_>>(),
        vec![2 * LANES + 7],
        "one run"
    );
    let log = Widths(Default::default());
    lanes::run_span(Isa::detect(), &log, pi, entries);
    assert_eq!(*log.0.borrow(), [LANES, LANES, 4, 2, 1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random row kinds, depths, widths and tile lengths.
    #[test]
    fn prop_span_equals_per_entry(
        seed in 0u64..u64::MAX,
        nz in 1usize..10,
        nx in 1usize..40,
        kinds in proptest::collection::vec(0usize..6, 1..5),
        depth in 0usize..4,
        tile in 1usize..40,
    ) {
        let rows: Vec<Row> = kinds
            .iter()
            .enumerate()
            .map(|(j, &k)| match k {
                0 => Row::Land,
                1 => Row::Isolated,
                2 => Row::Full,
                // Run lengths around the block width.
                _ => Row::Runs(LANES - 2 + (mix(seed, j as u64) % 5) as usize),
            })
            .collect();
        let depth = [Depth::Ragged, Depth::Ragged, Depth::Flat, Depth::One][depth];
        check_all(&Case::new(nz, nx, &rows, depth, tile, seed))?;
    }
}
