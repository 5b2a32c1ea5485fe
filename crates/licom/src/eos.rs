//! Equation of state and hydrostatic pressure.
//!
//! The reproduction uses a linearised seawater EOS,
//! `ρ = ρ0 (1 − α(T−T0) + β(S−S0))`, which preserves what the dynamics
//! need — buoyancy gradients driven by temperature and salinity — without
//! the 25-term UNESCO polynomial (a fidelity, not performance, detail).
//! Pressure is the hydrostatic integral of density plus the free-surface
//! contribution `g ρ0 η`.

use kokkos_rs::{parallel_for_list, FunctorList, IterCost, ListPolicy, Space, View1, View2, View3};

use ocean_grid::{GRAVITY, RHO0};

use crate::constants::{ALPHA_T, BETA_S, S_REF, T_REF};
use crate::lanes::{self, above, ColumnKernel, F64x, Isa};

/// Pointwise density from the linearised EOS. Density below `kmt` (and on
/// land) is never consumed — `rho` feeds only the pressure integral and the
/// canuto `N²`, both of which stop at the column bottom — so only wet cells
/// are computed.
pub struct FunctorEos {
    pub t: View3<f64>,
    pub s: View3<f64>,
    pub rho: View3<f64>,
}

impl FunctorEos {
    /// Shared body at a storage-order offset. All three views are root
    /// `[nz, pj, pi]` Right-layout allocations, so their offsets
    /// coincide and the pointwise EOS never needs `(k, j, i)` at all.
    #[inline(always)]
    fn at_offset(&self, off: usize) {
        let t = self.t.get_linear(off);
        let s = self.s.get_linear(off);
        let rho = RHO0 * (1.0 - ALPHA_T * (t - T_REF) + BETA_S * (s - S_REF));
        self.rho.set_linear(off, rho);
    }
}

impl FunctorList for FunctorEos {
    /// Entry `idx` is a packed wet cell `(k·pj + jl)·pi + il` of the
    /// **padded** block (halo cells, whose T/S are exchanged, get valid
    /// density without an extra halo update). The packed index doubles as
    /// the views' storage-order offset, so the hot path is division-free.
    fn operator(&self, _n: usize, idx: u32) {
        self.at_offset(idx as usize);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 6,
            bytes: 24,
        }
    }
}

kokkos_rs::register_for_list!(kernel_eos, FunctorEos);

/// Column-wise hydrostatic pressure integral (includes `g ρ0 η`).
pub struct FunctorPressure {
    pub rho: View3<f64>,
    pub eta: View2<f64>,
    pub pressure: View3<f64>,
    pub dz: View1<f64>,
    pub kmt: View2<i32>,
    pub nz: usize,
}

impl ColumnKernel for FunctorPressure {
    /// The columns `(jl, il..il + W)`: the integral down to each lane's
    /// bottom, held constant below it (a land column is all "below").
    #[inline(always)]
    fn block<const W: usize>(&self, jl: usize, il: usize, _scratch: &mut [f64]) {
        let (kb, _) = lanes::depths::<W>(&self.kmt, jl, il);
        let mut p = GRAVITY * RHO0 * F64x::<W>::load2(&self.eta, jl, il);
        let mut prev_rho_dz = F64x::<W>::splat(0.0);
        for k in 0..self.nz {
            let rdz = F64x::load(&self.rho, k, jl, il) * self.dz.at(k);
            p = above(k, &kb).select(p + GRAVITY * 0.5 * (prev_rho_dz + rdz), p);
            p.store(&self.pressure, k, jl, il);
            prev_rho_dz = rdz;
        }
    }
}

/// Entry `idx` is a packed wet column `jl·pi + il` (`pi` is `kmt`'s row
/// pitch). The set must span the **padded** block — the momentum stencil
/// reads pressure in the halo columns. Dry columns are not visited: their
/// pressure stays the zero it was allocated with, which is the integral over
/// no water under the model's `η ≡ 0`.
impl FunctorList for FunctorPressure {
    fn operator(&self, _n: usize, idx: u32) {
        lanes::run_column(self, self.kmt.extent(1), idx);
    }

    fn operator_span(&self, _n0: usize, entries: &[u32]) {
        lanes::run_span(Isa::detect(), self, self.kmt.extent(1), entries);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 5 * self.nz as u64,
            bytes: 24 * self.nz as u64,
        }
    }
}

kokkos_rs::register_for_list!(kernel_pressure, FunctorPressure);

/// Register this module's functors.
pub fn register() {
    kernel_eos();
    kernel_pressure();
}

/// Launch density over the packed wet `cells` and pressure over the packed
/// wet `cols`, both of the **full padded block**, so pressure halos are
/// valid wherever T/S halos are.
pub fn compute_density_pressure(
    space: &Space,
    cells: &ListPolicy,
    cols: &ListPolicy,
    f_eos: &FunctorEos,
    f_p: &FunctorPressure,
) {
    parallel_for_list(space, cells, f_eos);
    parallel_for_list(space, cols, f_p);
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_exchange::HALO as H;
    use kokkos_rs::View;
    use ocean_grid::{ActiveSet, ActiveSet3};

    fn setup(nz: usize, ny: usize, nx: usize) -> (FunctorEos, FunctorPressure) {
        let d3 = [nz, ny + 2 * H, nx + 2 * H];
        let d2 = [ny + 2 * H, nx + 2 * H];
        let t: View3<f64> = View::host("t", d3);
        let s: View3<f64> = View::host("s", d3);
        let rho: View3<f64> = View::host("rho", d3);
        let eta: View2<f64> = View::host("eta", d2);
        let p: View3<f64> = View::host("p", d3);
        let dz: View1<f64> = View::host("dz", [nz]);
        let kmt: View2<i32> = View::host("kmt", d2);
        t.fill(T_REF);
        s.fill(S_REF);
        dz.fill(10.0);
        kmt.fill(nz as i32);
        (
            FunctorEos {
                t: t.clone(),
                s: s.clone(),
                rho: rho.clone(),
            },
            FunctorPressure {
                rho,
                eta,
                pressure: p,
                dz,
                kmt,
                nz,
            },
        )
    }

    /// Density and pressure over the wet lists of `p.kmt`, as the model
    /// packs them.
    fn run(eos: &FunctorEos, p: &FunctorPressure) {
        let [nz, pj, pi] = eos.rho.dims();
        let kmt = |j, i| p.kmt.at(j, i) as u32;
        let cells = ActiveSet3::build_cells(nz, pj, pi, 0..pj, 0..pi, kmt);
        let cols = ActiveSet::build_columns(pi, 0..pj, 0..pi, kmt);
        compute_density_pressure(
            &Space::serial(),
            &ListPolicy::new(cells.indices),
            &ListPolicy::new(cols.indices),
            eos,
            p,
        );
    }

    #[test]
    fn reference_state_has_reference_density() {
        let (eos, p) = setup(4, 3, 3);
        run(&eos, &p);
        assert_eq!(eos.rho.at(0, H, H), RHO0);
    }

    #[test]
    fn warm_water_is_lighter_salty_water_heavier() {
        let (eos, p) = setup(2, 2, 2);
        eos.t.set_at(0, H, H, T_REF + 5.0);
        eos.s.set_at(1, H, H, S_REF + 1.0);
        run(&eos, &p);
        assert!(eos.rho.at(0, H, H) < RHO0);
        assert!(eos.rho.at(1, H, H) > RHO0);
    }

    #[test]
    fn pressure_increases_downward_hydrostatically() {
        let (eos, p) = setup(6, 2, 2);
        run(&eos, &p);
        let mut prev = 0.0;
        for k in 0..6 {
            let pk = p.pressure.at(k, H, H);
            assert!(pk > prev, "k={k}: {pk} <= {prev}");
            prev = pk;
        }
        // First level: g*rho0*dz/2 within roundoff (eta = 0).
        let want = GRAVITY * RHO0 * 5.0;
        assert!((p.pressure.at(0, H, H) - want).abs() / want < 1e-12);
    }

    #[test]
    fn free_surface_raises_pressure_everywhere() {
        let (eos, p) = setup(3, 2, 2);
        run(&eos, &p);
        let base = p.pressure.at(2, H, H);
        p.eta.set_at(H, H, 1.0); // 1 m of extra surface height
        run(&eos, &p);
        let lifted = p.pressure.at(2, H, H);
        assert!((lifted - base - GRAVITY * RHO0).abs() < 1e-6);
    }

    #[test]
    fn land_columns_get_flat_extension() {
        let (eos, p) = setup(4, 2, 2);
        p.kmt.set_at(H, H, 2);
        run(&eos, &p);
        // Below kmt the pressure is held constant.
        assert_eq!(p.pressure.at(2, H, H), p.pressure.at(1, H, H));
        assert_eq!(p.pressure.at(3, H, H), p.pressure.at(1, H, H));
    }
}
