//! Baroclinic momentum: the B-grid 3-D momentum tendency and the Asselin
//! filter. The leapfrog step itself is the first member of the velocity
//! chain of the new level's column pass ([`crate::columns::VelocityChain`]).
//!
//! Tendency terms at velocity corners (all masked by `kmu`):
//! baroclinic pressure gradient, Coriolis, centered horizontal advection
//! of momentum, free-slip Laplacian viscosity (evaluated at the old time
//! level, as leapfrog stability requires), and quadratic bottom drag.
//! Wind stress is added separately ([`crate::forcing`]); the surface
//! (barotropic) pressure gradient lives in the split-explicit solver and
//! its window average re-enters through the velocity chain of the new
//! level's column pass, which replaces the depth-mean of the updated 3-D
//! velocity with the barotropic transport (mode consistency).
//!
//! Vertical momentum advection is neglected (a documented fidelity
//! simplification — it is dynamically subdominant at these scales and
//! does not change the kernel's computational profile).
//!
//! The tendency spends twelve divides per point (two gradient, four
//! advective, four Laplacian, two by `RHO0`) and has one body,
//! `FunctorMomentumTend::block::<W>`, over `W` points adjacent in `i` (see
//! [`crate::lanes`]): the twelve divides are packed ones, the four
//! neighbours' wet masks are worked out once for the four fields that use
//! them ([`lanes::wet_around`], [`lanes::free_slip`]), bottom drag is
//! evaluated only for a block that holds a bottom cell and merged by select.
//! The per-entry `operator` is `W = 1`; list spans walk their runs down
//! the `LANES`, 4, 2, 1 ladder of [`crate::lanes`]. Measured, not
//! modelled: 9.5 → 5.9 ms warm on 180×115×30, most of it from selects that
//! blend instead of branch (EXPERIMENTS.md "Divide once"); how much of the
//! scalar body's time was the divider itself was not isolated.

use kokkos_rs::{Functor3D, FunctorList, IterCost, View1, View2, View3};
use ocean_grid::RHO0;

use halo_exchange::HALO as H;

use crate::constants::{ASSELIN, BOTTOM_DRAG};
use crate::lanes::{self, row_functor, F64x, Isa, Mask, RowKernel};

/// The model's heavyweight 3-D stencil kernel: full momentum tendency.
pub struct FunctorMomentumTend {
    pub u_cur: View3<f64>,
    pub v_cur: View3<f64>,
    pub u_old: View3<f64>,
    pub v_old: View3<f64>,
    /// Baroclinic hydrostatic pressure at T cells, read at a corner's four
    /// `(jl..=jl + 1, il..=il + 1)`: owned cells, the row north of the
    /// block and the column east of it (`LocalGrid::wet.cols_halo`).
    pub pressure: View3<f64>,
    /// Written: the tendency of `u` and `v`. The step hands it the new
    /// velocity level, which the new level's column pass reads it from
    /// ([`crate::columns::VelocityChain`]).
    pub ut: View3<f64>,
    pub vt: View3<f64>,
    pub kmu: View2<i32>,
    pub fcor: View1<f64>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dz: View1<f64>,
    /// Horizontal viscosity (m²/s), resolution-adaptive.
    pub visc: f64,
}

impl RowKernel for FunctorMomentumTend {
    /// Tendency at the `W` points `(k, jl, il..il + W)`, **padded** indices
    /// — the one body: the per-entry `operator` is `W = 1`. Dry lanes of a
    /// block store zeros.
    #[inline(always)]
    fn block<const W: usize>(&self, k: usize, jl: usize, il: usize) {
        let zero = F64x::<W>::splat(0.0);
        let kmu = self.kmu.get_lanes::<W>([jl, il]);
        let wet = lanes::above(k, &kmu);
        if !wet.any() {
            zero.store(&self.ut, k, jl, il);
            zero.store(&self.vt, k, jl, il);
            return;
        }
        let dx_c = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1));
        let dy = self.dyt;

        // Baroclinic pressure gradient (T cells around the corner).
        let p = |jn, i_n| F64x::<W>::load(&self.pressure, k, jn, i_n);
        let (p_sw, p_se, p_nw, p_ne) = (p(jl, il), p(jl, il + 1), p(jl + 1, il), p(jl + 1, il + 1));
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

        wet.select(du, zero).store(&self.ut, k, jl, il);
        wet.select(dv, zero).store(&self.vt, k, jl, il);
    }
}

/// Entry `idx` is a packed owned wet velocity cell `(k·pj + jl)·pi + il`
/// (`k < kmu`; `[pj, pi]` are `kmu`'s extents). Dry cells are not visited:
/// they keep the `+0` every level of the new velocity holds there, which is
/// the tendency the new level's velocity chain reads for a dry lane.
impl FunctorList for FunctorMomentumTend {
    fn operator(&self, _n: usize, idx: u32) {
        let [pj, pi] = self.kmu.dims();
        let (row, il) = (idx as usize / pi, idx as usize % pi);
        self.block::<1>(row / pj, row % pj, il);
    }

    fn operator_span(&self, _n0: usize, entries: &[u32]) {
        let [pj, pi] = self.kmu.dims();
        lanes::run_cells(Isa::detect(), self, pj, pi, entries);
    }

    fn cost(&self) -> IterCost {
        // The genuine hotspot: ~80 flops over ~25 stencil reads.
        IterCost {
            flops: 80,
            bytes: 220,
        }
    }
}

kokkos_rs::register_for_list!(kernel_momentum_tend, FunctorMomentumTend);

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
    kernel_momentum_tend();
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

    fn tend_functor(nz: usize, n: usize) -> FunctorMomentumTend {
        let (pj, pi) = (n + 2 * H, n + 2 * H);
        let d3 = [nz, pj, pi];
        let (kmu, fcor, dxt, dz) = grid_views(nz, n);
        FunctorMomentumTend {
            u_cur: View::host("uc", d3),
            v_cur: View::host("vc", d3),
            u_old: View::host("uo", d3),
            v_old: View::host("vo", d3),
            pressure: View::host("p", d3),
            ut: View::host("ut", d3),
            vt: View::host("vt", d3),
            kmu,
            fcor,
            dxt,
            dyt: 100_000.0,
            dz,
            visc: 1.0e3,
        }
    }

    /// The tendency at the owned point `(k, j, i)`, through its list entry.
    fn tend_at(f: &FunctorMomentumTend, k: usize, j: usize, i: usize) {
        let [pj, pi] = f.kmu.dims();
        f.operator(0, ((k * pj + j + H) * pi + i + H) as u32);
    }

    #[test]
    fn geostrophic_balance_tendency() {
        // A zonal pressure gradient must produce f·v response only: with
        // v chosen geostrophic (v = gx / (ρ0 f)), du/dt ≈ 0.
        let f = tend_functor(1, 4);
        // p increasing eastward: dp/dx = 0.01 Pa/m.
        for jl in 0..f.pressure.dims()[1] {
            for il in 0..f.pressure.dims()[2] {
                f.pressure.set_at(0, jl, il, 0.01 * il as f64 * 100_000.0);
            }
        }
        let fc = f.fcor.at(H);
        let v_geo = 0.01 / (RHO0 * fc);
        f.v_cur.fill(v_geo);
        tend_at(&f, 0, 1, 1);
        let du = f.ut.at(0, H + 1, H + 1);
        assert!(du.abs() < 1e-10, "geostrophic residual du/dt = {du}");
    }

    #[test]
    fn coriolis_turns_flow_clockwise_north() {
        let f = tend_functor(1, 4);
        f.u_cur.fill(1.0);
        tend_at(&f, 0, 1, 1);
        // Northern hemisphere: eastward flow gets southward acceleration.
        assert!(f.vt.at(0, H + 1, H + 1) < 0.0);
        assert!(
            f.ut.at(0, H + 1, H + 1).abs() < 1e-12,
            "no du for uniform u"
        );
    }

    #[test]
    fn viscosity_damps_a_spike() {
        let f = tend_functor(1, 5);
        f.u_old.set_at(0, H + 2, H + 2, 1.0);
        // u_cur zero → no advection/coriolis; spike must get negative
        // tendency at its center, positive at neighbors.
        tend_at(&f, 0, 2, 2);
        assert!(f.ut.at(0, H + 2, H + 2) < 0.0);
        tend_at(&f, 0, 2, 1);
        assert!(f.ut.at(0, H + 2, H + 1) > 0.0);
    }

    #[test]
    fn dry_corners_produce_zero_tendency() {
        let f = tend_functor(2, 4);
        f.kmu.set_at(H + 1, H + 1, 0);
        f.u_cur.fill(5.0);
        tend_at(&f, 0, 1, 1);
        assert_eq!(f.ut.at(0, H + 1, H + 1), 0.0);
        assert_eq!(f.vt.at(0, H + 1, H + 1), 0.0);
    }

    #[test]
    fn bottom_drag_opposes_old_velocity() {
        let f = tend_functor(2, 4);
        f.u_old.fill(1.0);
        tend_at(&f, 1, 1, 1); // bottom layer (kmu-1 == 1)
        let du_bottom = f.ut.at(1, H + 1, H + 1);
        tend_at(&f, 0, 1, 1);
        let du_top = f.ut.at(0, H + 1, H + 1);
        assert!(
            du_bottom < du_top,
            "drag must decelerate the bottom layer: {du_bottom} vs {du_top}"
        );
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
