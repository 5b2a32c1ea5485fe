//! Baroclinic momentum: the B-grid 3-D momentum tendency and the Asselin
//! filter. The leapfrog step itself is the first member of the velocity
//! chain of the new level's column pass ([`crate::columns::VelocityChain`]).
//!
//! Tendency terms at velocity corners (all masked by `kmu`):
//! baroclinic pressure gradient, Coriolis, centered horizontal advection
//! of momentum, free-slip Laplacian viscosity (evaluated at the old time
//! level, as leapfrog stability requires), quadratic bottom drag, and the
//! wind stress on the top layer ([`crate::forcing`]). The surface
//! (barotropic) pressure gradient lives in the split-explicit solver, which
//! this pass forces with the tendency's depth mean; its window average
//! re-enters through the velocity chain of the new level's column pass,
//! which replaces the depth-mean of the updated 3-D velocity with the
//! barotropic transport (mode consistency).
//!
//! The tendency is one list launch over the owned wet velocity columns,
//! [`FunctorMomentumColumns`]: a tile walks its columns level by level, and
//! at each level integrates the hydrostatic pressure of the T cells at its
//! corners one level further into work rows (density from `T` / `S`, as
//! [`crate::eos`] gives it), computes the tendency from them, adds the wind
//! on the top level, stores it and adds it to the column's thickness-weighted
//! sums, which leave the tile as the depth means `gu` / `gv`. Neither
//! pressure nor density is stored, and nothing reads the tendency back
//! before the new level's column pass.
//!
//! Vertical momentum advection is neglected (a documented fidelity
//! simplification — it is dynamically subdominant at these scales and
//! does not change the kernel's computational profile).
//!
//! The tendency spends twelve divides per point (two gradient, four
//! advective, four Laplacian, two by `RHO0`) and has one body,
//! [`MomentumTend::block`], over `W` points adjacent in `i` (see
//! [`crate::lanes`]): the twelve divides are packed ones, the four
//! neighbours' wet masks are worked out once for the four fields that use
//! them ([`lanes::wet_around`], [`lanes::free_slip`]), bottom drag is
//! evaluated only for a block that holds a bottom cell and merged by select.
//! A tile walks each run of its columns down the `LANES`, 4, 2, 1 ladder of
//! [`crate::lanes`]; the per-entry `operator` walks one column. Measured,
//! not modelled: 9.5 → 5.9 ms warm on 180×115×30, most of it from selects
//! that blend instead of branch (EXPERIMENTS.md "Divide once"); how much of
//! the scalar body's time was the divider itself was not isolated.

use kokkos_rs::{Functor3D, FunctorList, IterCost, View1, View2, View3};
use ocean_grid::{GRAVITY, RHO0};

use halo_exchange::HALO as H;

use crate::constants::{ASSELIN, BOTTOM_DRAG};
use crate::eos;
use crate::forcing::{wind_stress_x, wind_stress_y};
use crate::lanes::{self, above, lane_blocks, row_functor, F64x, Isa, Mask, RowKernel};

/// The momentum tendency stencil at B-grid corners, on the pressure of the
/// four T cells around each.
pub struct MomentumTend {
    pub u_cur: View3<f64>,
    pub v_cur: View3<f64>,
    pub u_old: View3<f64>,
    pub v_old: View3<f64>,
    pub kmu: View2<i32>,
    pub fcor: View1<f64>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dz: View1<f64>,
    /// Horizontal viscosity (m²/s), resolution-adaptive.
    pub visc: f64,
}

impl MomentumTend {
    /// `[du, dv]` at the `W` points `(k, jl, il..il + W)`, **padded**
    /// indices, whose wet depths are `kmu`, from the baroclinic pressure at
    /// the T cells `[(jl, il), (jl, il + 1), (jl + 1, il), (jl + 1, il + 1)]`
    /// of each. Dry lanes hold `+0`.
    #[inline(always)]
    pub fn block<const W: usize>(
        &self,
        k: usize,
        jl: usize,
        il: usize,
        kmu: &[i32; W],
        [p_sw, p_se, p_nw, p_ne]: [F64x<W>; 4],
    ) -> [F64x<W>; 2] {
        let zero = F64x::<W>::splat(0.0);
        let wet = above(k, kmu);
        let dx_c = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1));
        let dy = self.dyt;

        // Baroclinic pressure gradient (T cells around the corner).
        let gx = 0.5 * ((p_se - p_sw) + (p_ne - p_nw)) / dx_c;
        let gy = 0.5 * ((p_nw - p_sw) + (p_ne - p_se)) / dy;

        let f = self.fcor.at(jl);
        let u = F64x::<W>::load(&self.u_cur, k, jl, il);
        let v = F64x::<W>::load(&self.v_cur, k, jl, il);

        // Free-slip neighbours for viscosity and advection (east, west,
        // north, south): the four wet masks serve all four fields.
        let wet_nb = lanes::wet_around::<W>(&self.kmu, k, jl, il);
        let around = |field, centre| lanes::free_slip(field, &wet_nb, centre, k, jl, il);

        // Centered horizontal advection.
        let [u_e, u_w, u_n, u_s] = around(&self.u_cur, u);
        let [v_e, v_w, v_n, v_s] = around(&self.v_cur, v);
        let adv_u = u * (u_e - u_w) / (2.0 * dx_c) + v * (u_n - u_s) / (2.0 * dy);
        let adv_v = u * (v_e - v_w) / (2.0 * dx_c) + v * (v_n - v_s) / (2.0 * dy);

        // Free-slip Laplacian viscosity at the old level.
        let uo = F64x::<W>::load(&self.u_old, k, jl, il);
        let vo = F64x::<W>::load(&self.v_old, k, jl, il);
        let [uo_e, uo_w, uo_n, uo_s] = around(&self.u_old, uo);
        let [vo_e, vo_w, vo_n, vo_s] = around(&self.v_old, vo);
        let lap_u = (uo_e - 2.0 * uo + uo_w) / (dx_c * dx_c) + (uo_n - 2.0 * uo + uo_s) / (dy * dy);
        let lap_v = (vo_e - 2.0 * vo + vo_w) / (dx_c * dx_c) + (vo_n - 2.0 * vo + vo_s) / (dy * dy);

        // `-gx`, not `0 - gx`: they differ in the sign of a zero gradient.
        let mut du = -gx / RHO0 + f * v - adv_u + self.visc * lap_u;
        let mut dv = -gy / RHO0 - f * u - adv_v + self.visc * lap_v;

        // Quadratic bottom drag on the deepest wet layer (old level).
        let bottom = Mask::<W>::from_fn(|l| k as i32 == kmu[l] - 1);
        if bottom.any() {
            let speed = (uo * uo + vo * vo).sqrt();
            let fac = BOTTOM_DRAG * speed / self.dz.at(k);
            du = bottom.select(du - fac * uo, du);
            dv = bottom.select(dv - fac * vo, dv);
        }

        [wet.select(du, zero), wet.select(dv, zero)]
    }
}

/// The momentum pass over the owned wet velocity columns: per level, the
/// hydrostatic pressure of the corners' T cells integrated one level
/// further into work rows, the tendency from it (the wind stress added on
/// the top level) stored into the new velocity level, and the column's
/// thickness-weighted sums; then the depth means. The pressure is worked out
/// from the ghost `T` / `S` the old level holds for the row north of the
/// block and the column east of it, which no pass refreshes in between.
pub struct FunctorMomentumColumns {
    pub tend: MomentumTend,
    /// `[T, S]` at the current level: the pressure's source.
    pub ts: [View3<f64>; 2],
    pub kmt: View2<i32>,
    /// Cell-centre latitude (deg) per padded row: a corner's wind stress is
    /// taken at the midpoint of its two rows.
    pub lat: View1<f64>,
    /// Written: the tendency of `u` and `v` at every owned wet velocity
    /// cell (a block's dry lanes store `+0`, which every dry cell of it
    /// holds). The step hands it the new velocity level, which the new
    /// level's column pass reads it from ([`crate::columns::VelocityChain`]).
    pub out: [View3<f64>; 2],
    /// Written at every entry: the tendencies' depth means `[gu, gv]`, which
    /// force the barotropic window.
    pub mean: [View2<f64>; 2],
}

impl FunctorMomentumColumns {
    /// The members' costs per velocity column of `nz` levels
    /// (`crates/bench/tests/census.rs` holds them against the census rows).
    /// Per level: the tendency (80 flops, 220 B) less the four pressure
    /// loads it takes from work rows (32 B); the EOS and the pressure
    /// integral (6 + 5 flops, 24 + 24 B) for each of the two T rows a run
    /// of corners integrates, less density's store and reload and the
    /// pressure's store (24 B each row); the depth mean's two products and
    /// three sums (5 flops), on the tendency in register. Per column: the
    /// wind stress (20 flops, 48 B) less the load and store of the top
    /// level's tendency (32 B), and the means' two divides and stores (2
    /// flops, 16 B).
    fn footprint(&self) -> IterCost {
        let nz = self.tend.dz.len() as u64;
        IterCost {
            flops: (80 + 2 * 11 + 5) * nz + 20 + 2,
            bytes: (220 - 32 + 2 * 24) * nz + 16 + 16,
        }
    }

    /// The list tile of the pass: the largest power of two whose work rows
    /// ([`Self::scratch_words`], 44 KiB) fit the ¼-LDM stream budget of a
    /// CPE. They do not grow with depth: a tile walks its levels one at a
    /// time.
    pub const TILE: usize = 512;

    /// Work words a tile of `entries` corners needs: per run of `n`, the
    /// pressure and the level above's `ρ dz` of its two T rows (`4 (n + 1)`)
    /// and the corners' sums `Σ ut dz`, `Σ vt dz`, `Σ dz` (`3 n`).
    fn scratch_words(entries: usize) -> usize {
        11 * entries
    }

    /// One level further down the T cells `(jt, it..it + W)`: `p` and `prev`
    /// are their pressure and `ρ dz` of the level above, updated in place.
    /// Below a column's bottom its pressure is held.
    #[inline(always)]
    fn integrate<const W: usize>(
        &self,
        k: usize,
        jt: usize,
        it: usize,
        p: &mut [f64],
        prev: &mut [f64],
    ) {
        let kb = self.kmt.get_lanes::<W>([jt, it]);
        let [t, s] = &self.ts;
        let r = eos::density(F64x::load(t, k, jt, it), F64x::load(s, k, jt, it));
        let rdz = r * self.tend.dz.at(k);
        let (pk, prev_rho_dz) = (F64x::<W>::read(p), F64x::read(prev));
        above(k, &kb)
            .select(pk + GRAVITY * 0.5 * (prev_rho_dz + rdz), pk)
            .write(p);
        rdz.write(prev);
    }

    /// The corners `(k, jl, il..il + W)`: the tendency from the pressure
    /// rows `south` (row `jl`) and `north` (row `jl + 1`), whose first
    /// words are at `il`, stored, and added to the sums `[su, sv, h]`.
    #[inline(always)]
    fn corners<const W: usize>(
        &self,
        k: usize,
        jl: usize,
        il: usize,
        [south, north]: [&[f64]; 2],
        [su, sv, h]: [&mut [f64]; 3],
    ) {
        let kmu = self.tend.kmu.get_lanes::<W>([jl, il]);
        let wet = above(k, &kmu);
        if !wet.any() {
            return;
        }
        let p = [
            F64x::read(south),
            F64x::read(&south[1..]),
            F64x::read(north),
            F64x::read(&north[1..]),
        ];
        let [mut du, mut dv] = self.tend.block::<W>(k, jl, il, &kmu, p);
        if k == 0 {
            // Every corner of the list is wet at the top.
            let lat = 0.5 * (self.lat.at(jl) + self.lat.at(jl + 1));
            let fac = 1.0 / (RHO0 * self.tend.dz.at(0));
            du = du + wind_stress_x(lat) * fac;
            dv = dv + wind_stress_y(lat) * fac;
        }
        du.store(&self.out[0], k, jl, il);
        dv.store(&self.out[1], k, jl, il);
        let dz = self.tend.dz.at(k);
        for (sum, d) in [(su, du), (sv, dv)] {
            let s = F64x::<W>::read(sum);
            wet.select(s + d * dz, s).write(sum);
        }
        let depth = F64x::<W>::read(h);
        wet.select(depth + dz, depth).write(h);
    }

    /// The tile `entries` of packed corners `jl · pi + il`, level by level.
    #[inline(always)]
    fn walk(&self, entries: &[u32], scratch: &mut [f64]) {
        let pi = self.kmt.extent(1);
        let words = |n: usize| 7 * n + 4;
        let mut kmax = 0;
        let mut at = 0;
        for (jl, il, n) in lanes::runs(entries, pi) {
            for l in 0..n {
                kmax = kmax.max(self.tend.kmu.at(jl, il + l));
            }
            scratch[at..at + words(n)].fill(0.0);
            at += words(n);
        }
        for k in 0..kmax.max(0) as usize {
            let mut at = 0;
            for (jl, il, n) in lanes::runs(entries, pi) {
                let run = &mut scratch[at..at + words(n)];
                at += words(n);
                let (rows, sums) = run.split_at_mut(4 * (n + 1));
                for (jt, row) in [jl, jl + 1]
                    .into_iter()
                    .zip(rows.chunks_exact_mut(2 * (n + 1)))
                {
                    let (p, prev) = row.split_at_mut(n + 1);
                    lane_blocks!(d, W in n + 1 => {
                        self.integrate::<W>(k, jt, il + d, &mut p[d..], &mut prev[d..]);
                    });
                }
                let (south, north) = rows.split_at(2 * (n + 1));
                let (su, rest) = sums.split_at_mut(n);
                let (sv, h) = rest.split_at_mut(n);
                lane_blocks!(d, W in n => {
                    let sums = [&mut su[d..], &mut sv[d..], &mut h[d..]];
                    self.corners::<W>(k, jl, il + d, [&south[d..], &north[d..]], sums);
                });
            }
        }
        let mut at = 0;
        for (jl, il, n) in lanes::runs(entries, pi) {
            let sums = &scratch[at + 4 * (n + 1)..at + words(n)];
            at += words(n);
            lane_blocks!(d, W in n => {
                let h = F64x::<W>::read(&sums[2 * n + d..]);
                for (f, mean) in self.mean.iter().enumerate() {
                    (F64x::<W>::read(&sums[f * n + d..]) / h).store2(mean, jl, il + d);
                }
            });
        }
    }

    /// The tile `entries` walked under `isa`: what `operator_span` does
    /// under [`Isa::detect`] and `operator` under [`Isa::BASELINE`], one
    /// column at a time.
    #[inline(always)]
    pub fn span(&self, isa: Isa, entries: &[u32]) {
        isa.run_with_scratch(
            Self::scratch_words(entries.len()),
            self,
            #[inline(always)]
            |f, scratch| f.walk(entries, scratch),
        );
    }
}

/// Entry `idx` is a packed owned wet velocity column `jl · pi + il`
/// (`kmu > 0`; `pi` is `kmu`'s row pitch). Dry columns are not visited:
/// their cells keep the `+0` every level of the new velocity holds there,
/// which is the tendency the new level's velocity chain reads for a dry
/// lane, and their means keep the zero `gu` / `gv` start from.
impl FunctorList for FunctorMomentumColumns {
    fn operator(&self, _n: usize, idx: u32) {
        self.span(Isa::BASELINE, &[idx]);
    }

    /// Out of line, once a tile, so `scripts/check_isa_clone.sh` can follow
    /// the pass into its AVX2 clone.
    #[inline(never)]
    fn operator_span(&self, _n0: usize, entries: &[u32]) {
        self.span(Isa::detect(), entries);
    }

    fn cost(&self) -> IterCost {
        self.footprint()
    }
}

kokkos_rs::register_for_list!(kernel_momentum_columns, FunctorMomentumColumns);

/// Asselin filter on a 3-D leapfrog triple.
pub struct FunctorAsselin3D {
    pub old: View3<f64>,
    pub cur: View3<f64>,
    pub new: View3<f64>,
}

impl RowKernel for FunctorAsselin3D {
    #[inline(always)]
    fn block<const W: usize>(&self, k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        let c = F64x::<W>::load(&self.cur, k, jl, il);
        let (old, new) = (
            F64x::load(&self.old, k, jl, il),
            F64x::load(&self.new, k, jl, il),
        );
        (c + ASSELIN * (old - 2.0 * c + new)).store(&self.cur, k, jl, il);
    }
}

impl Functor3D for FunctorAsselin3D {
    row_functor!();

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 5,
            bytes: 40,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_asselin_3d, FunctorAsselin3D);

/// Register this module's functors.
pub fn register() {
    kernel_momentum_columns();
    kernel_asselin_3d();
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_rs::View;

    const OMEGA: f64 = 7.292_115e-5;

    fn grid_views(nz: usize, n: usize) -> (View2<i32>, View1<f64>, View1<f64>, View1<f64>) {
        let (pj, pi) = (n + 2 * H, n + 2 * H);
        let kmu: View2<i32> = View::host("kmu", [pj, pi]);
        kmu.fill(nz as i32);
        let fcor: View1<f64> = View::host("fcor", [pj]);
        fcor.fill(2.0 * OMEGA * 0.5); // 30° N
        let dxt: View1<f64> = View::host("dxt", [pj]);
        dxt.fill(100_000.0);
        let dz: View1<f64> = View::host("dz", [nz]);
        dz.fill(50.0);
        (kmu, fcor, dxt, dz)
    }

    fn tend(nz: usize, n: usize) -> MomentumTend {
        let (pj, pi) = (n + 2 * H, n + 2 * H);
        let d3 = [nz, pj, pi];
        let (kmu, fcor, dxt, dz) = grid_views(nz, n);
        MomentumTend {
            u_cur: View::host("uc", d3),
            v_cur: View::host("vc", d3),
            u_old: View::host("uo", d3),
            v_old: View::host("vo", d3),
            kmu,
            fcor,
            dxt,
            dyt: 100_000.0,
            dz,
            visc: 1.0e3,
        }
    }

    /// `[du, dv]` at the owned point `(k, j, i)` from its corners' pressure
    /// `[sw, se, nw, ne]`.
    fn tend_at(f: &MomentumTend, k: usize, j: usize, i: usize, p: [f64; 4]) -> [f64; 2] {
        let (jl, il) = (j + H, i + H);
        let kmu = [f.kmu.at(jl, il)];
        f.block::<1>(k, jl, il, &kmu, p.map(|p| F64x([p])))
            .map(|d| d.0[0])
    }

    /// A flat pressure field.
    const FLAT: [f64; 4] = [1.0e5; 4];

    #[test]
    fn geostrophic_balance_tendency() {
        // A zonal pressure gradient must produce f·v response only: with
        // v chosen geostrophic (v = gx / (ρ0 f)), du/dt ≈ 0.
        let f = tend(1, 4);
        // p increasing eastward: dp/dx = 0.01 Pa/m over 100 km cells.
        let p = |il: usize| 0.01 * il as f64 * 100_000.0;
        let il = H + 1;
        let fc = f.fcor.at(H);
        let v_geo = 0.01 / (RHO0 * fc);
        f.v_cur.fill(v_geo);
        let [du, _] = tend_at(&f, 0, 1, 1, [p(il), p(il + 1), p(il), p(il + 1)]);
        assert!(du.abs() < 1e-10, "geostrophic residual du/dt = {du}");
    }

    #[test]
    fn coriolis_turns_flow_clockwise_north() {
        let f = tend(1, 4);
        f.u_cur.fill(1.0);
        let [du, dv] = tend_at(&f, 0, 1, 1, FLAT);
        // Northern hemisphere: eastward flow gets southward acceleration.
        assert!(dv < 0.0);
        assert!(du.abs() < 1e-12, "no du for uniform u");
    }

    #[test]
    fn viscosity_damps_a_spike() {
        let f = tend(1, 5);
        f.u_old.set_at(0, H + 2, H + 2, 1.0);
        // u_cur zero → no advection/coriolis; spike must get negative
        // tendency at its center, positive at neighbors.
        assert!(tend_at(&f, 0, 2, 2, FLAT)[0] < 0.0);
        assert!(tend_at(&f, 0, 2, 1, FLAT)[0] > 0.0);
    }

    #[test]
    fn dry_corners_produce_zero_tendency() {
        let f = tend(2, 4);
        f.kmu.set_at(H + 1, H + 1, 0);
        f.u_cur.fill(5.0);
        assert_eq!(tend_at(&f, 0, 1, 1, FLAT), [0.0, 0.0]);
    }

    #[test]
    fn bottom_drag_opposes_old_velocity() {
        let f = tend(2, 4);
        f.u_old.fill(1.0);
        let du_bottom = tend_at(&f, 1, 1, 1, FLAT)[0]; // kmu - 1 == 1
        let du_top = tend_at(&f, 0, 1, 1, FLAT)[0];
        assert!(
            du_bottom < du_top,
            "drag must decelerate the bottom layer: {du_bottom} vs {du_top}"
        );
    }

    /// Still, unstratified water in one column: the corners' pressure is
    /// level, so the tendency is the wind on the top level alone, and the
    /// depth mean is that level's share of the column. A corner with a
    /// deeper T cell beside it walks only its own levels.
    #[test]
    fn still_water_takes_the_wind_on_its_top_level() {
        use crate::constants::{S_REF, T_REF};
        let (nz, n) = (4, 3);
        let tend = tend(nz, n);
        let d3 = [nz, n + 2 * H, n + 2 * H];
        let kmt: View2<i32> = View::host("kmt", [d3[1], d3[2]]);
        kmt.fill(nz as i32);
        tend.kmu.set_at(H + 1, H + 1, 3);
        let lat: View1<f64> = View::from_fn("lat", [d3[1]], |[j]| 10.0 * j as f64);
        let f = FunctorMomentumColumns {
            ts: [
                View::from_fn("t", d3, |_| T_REF),
                View::from_fn("s", d3, |_| S_REF),
            ],
            kmt,
            lat: lat.clone(),
            out: [View::host("ut", d3), View::host("vt", d3)],
            mean: [
                View::host("gu", [d3[1], d3[2]]),
                View::host("gv", [d3[1], d3[2]]),
            ],
            tend,
        };
        let (jl, il) = (H + 1, H + 1);
        f.operator(0, (jl * d3[2] + il) as u32);
        let wind = wind_stress_x(0.5 * (lat.at(jl) + lat.at(jl + 1))) / (RHO0 * 50.0);
        let ut: Vec<f64> = (0..nz).map(|k| f.out[0].at(k, jl, il)).collect();
        assert!((ut[0] - wind).abs() < 1e-18, "{ut:?} against {wind}");
        assert_eq!(&ut[1..], &[0.0; 3], "below the top, and below kmu");
        assert!((f.mean[0].at(jl, il) - wind / 3.0).abs() < 1e-18);
        assert!(f.mean[1].at(jl, il) > 0.0, "a northward stress at 35° N");
    }

    /// The §V-C2 evidence for the list tile: a tile's work rows, the
    /// functor's local arrays, fit a quarter of a CPE's LDM, and twice the
    /// tile's would not.
    #[test]
    fn a_tiles_work_rows_fit_a_quarter_of_ldm() {
        let budget = 256 * 1024 / 4;
        let bytes = |tile| 8 * FunctorMomentumColumns::scratch_words(tile);
        assert!(bytes(FunctorMomentumColumns::TILE) <= budget);
        assert!(bytes(2 * FunctorMomentumColumns::TILE) > budget);
    }

    #[test]
    fn asselin_filters_the_middle_level() {
        let d3 = [1, 1 + 2 * H, 1 + 2 * H];
        let old: View3<f64> = View::host("o", d3);
        let cur: View3<f64> = View::host("c", d3);
        let new: View3<f64> = View::host("n", d3);
        old.fill(1.0);
        new.fill(2.0);
        cur.fill(1.2);
        let asl = FunctorAsselin3D {
            old,
            cur: cur.clone(),
            new,
        };
        asl.operator(0, 0, 0);
        // 1.2 + 0.1*(1 - 2.4 + 2) = 1.26
        assert!((cur.at(0, H, H) - 1.26).abs() < 1e-12);
    }
}
