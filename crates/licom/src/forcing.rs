//! Analytic surface forcing: climatological wind stress and surface
//! restoring.
//!
//! The paper forces LICOMK++ with observed climatologies (a data gate);
//! we substitute smooth analytic profiles with the same structure —
//! easterly trades, mid-latitude westerlies, polar easterlies for the
//! momentum flux, and restoring toward a latitude-dependent SST/SSS
//! target for the thermohaline flux. This drives realistic gyres, western
//! boundary currents and fronts, which is what the submesoscale
//! diagnostics (Fig. 6) feed on.

use kokkos_rs::{FunctorList, IterCost, View1, View2, View3};

use ocean_grid::RHO0;

/// Zonal wind stress (N/m²) as a function of latitude: trades/westerlies
/// pattern peaking at ±0.1 N/m².
pub fn wind_stress_x(lat_deg: f64) -> f64 {
    let phi = lat_deg.to_radians();
    // Classic double-gyre-like profile extended globally.
    -0.1 * (3.0 * phi).cos() * phi.cos().max(0.0)
}

/// Meridional wind stress (N/m²): small cross-equatorial component.
pub fn wind_stress_y(lat_deg: f64) -> f64 {
    0.02 * (2.0 * lat_deg.to_radians()).sin()
}

/// Restoring SST target (°C) by latitude.
pub fn sst_target(lat_deg: f64) -> f64 {
    28.0 * lat_deg.to_radians().cos().powi(2) - 1.0
}

/// Restoring SSS target (psu) by latitude (subtropical salinity maxima).
pub fn sss_target(lat_deg: f64) -> f64 {
    35.0 + 1.2 * (2.0 * lat_deg.to_radians()).cos() - 0.5 * (lat_deg / 60.0).powi(2)
}

/// Restoring timescale for surface tracers, seconds (30 days).
pub const RESTORE_SECONDS: f64 = 30.0 * 86_400.0;

/// Add wind-stress acceleration to the top-layer momentum tendency at
/// B-grid corners: `du/dt += τx / (ρ0 dz0)`.
pub struct FunctorWindStress {
    pub ut: View3<f64>,
    pub vt: View3<f64>,
    pub lat: View1<f64>,
    pub kmu: View2<i32>,
    pub dz0: f64,
}

impl FunctorWindStress {
    /// One corner at **padded** indices.
    fn column(&self, jl: usize, il: usize) {
        if self.kmu.at(jl, il) == 0 {
            return;
        }
        // Corner latitude ≈ midpoint of adjacent rows.
        let lat = 0.5 * (self.lat.at(jl) + self.lat.at(jl + 1));
        let fac = 1.0 / (RHO0 * self.dz0);
        self.ut
            .set_at(0, jl, il, self.ut.at(0, jl, il) + wind_stress_x(lat) * fac);
        self.vt
            .set_at(0, jl, il, self.vt.at(0, jl, il) + wind_stress_y(lat) * fac);
    }
}

/// Entry `idx` is a packed owned wet velocity corner `jl·pi + il` (`pi` is
/// `kmu`'s row pitch).
impl FunctorList for FunctorWindStress {
    fn operator(&self, _n: usize, idx: u32) {
        let pi = self.kmu.extent(1);
        self.column(idx as usize / pi, idx as usize % pi);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 20,
            bytes: 48,
        }
    }
}

kokkos_rs::register_for_list!(kernel_wind_stress, FunctorWindStress);

/// Restore the new-level surface tracers toward the climatological target
/// with timescale [`RESTORE_SECONDS`].
pub struct FunctorSurfaceRestore {
    pub t_new: View3<f64>,
    pub s_new: View3<f64>,
    pub lat: View1<f64>,
    pub kmt: View2<i32>,
    pub dt: f64,
}

impl FunctorSurfaceRestore {
    /// One column at **padded** indices.
    fn column(&self, jl: usize, il: usize) {
        if self.kmt.at(jl, il) == 0 {
            return;
        }
        let lat = self.lat.at(jl);
        let gamma = self.dt / RESTORE_SECONDS;
        let t = self.t_new.at(0, jl, il);
        let s = self.s_new.at(0, jl, il);
        self.t_new
            .set_at(0, jl, il, t + gamma * (sst_target(lat) - t));
        self.s_new
            .set_at(0, jl, il, s + gamma * (sss_target(lat) - s));
    }
}

/// Entry `idx` is a packed owned wet T column `jl·pi + il` (`pi` is `kmt`'s
/// row pitch).
impl FunctorList for FunctorSurfaceRestore {
    fn operator(&self, _n: usize, idx: u32) {
        let pi = self.kmt.extent(1);
        self.column(idx as usize / pi, idx as usize % pi);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 16,
            bytes: 48,
        }
    }
}

kokkos_rs::register_for_list!(kernel_surface_restore, FunctorSurfaceRestore);

/// Register this module's functors.
pub fn register() {
    kernel_wind_stress();
    kernel_surface_restore();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wind_profile_has_trades_and_westerlies() {
        // Trades: easterly (negative) near 15°.
        assert!(wind_stress_x(15.0) < 0.0);
        // Westerlies: positive near 45°.
        assert!(wind_stress_x(45.0) > 0.0);
        // Bounded by 0.11 N/m².
        for lat in -90..=90 {
            assert!(wind_stress_x(lat as f64).abs() <= 0.11);
        }
    }

    #[test]
    fn sst_target_warm_tropics_cold_poles() {
        assert!(sst_target(0.0) > 25.0);
        assert!(sst_target(80.0) < 2.0);
        assert!(sst_target(-80.0) < 2.0);
    }

    #[test]
    fn sss_target_reasonable_range() {
        for lat in -85..=85 {
            let s = sss_target(lat as f64);
            assert!((31.0..37.5).contains(&s), "lat {lat}: {s}");
        }
    }

    #[test]
    fn restore_moves_toward_target() {
        use halo_exchange::HALO as H;
        use kokkos_rs::View;
        let d3 = [2, 2 + 2 * H, 2 + 2 * H];
        let d2 = [2 + 2 * H, 2 + 2 * H];
        let t: View3<f64> = View::host("t", d3);
        let s: View3<f64> = View::host("s", d3);
        let lat: View1<f64> = View::host("lat", [2 + 2 * H]);
        let kmt: View2<i32> = View::host("kmt", d2);
        t.fill(0.0);
        s.fill(34.0);
        lat.fill(0.0); // equator: target ~27, salinity ~36.2
        kmt.fill(2);
        let f = FunctorSurfaceRestore {
            t_new: t.clone(),
            s_new: s.clone(),
            lat,
            kmt,
            dt: RESTORE_SECONDS, // gamma = 1: full restoration
        };
        f.operator(0, (H * (2 + 2 * H) + H) as u32);
        assert!((t.at(0, H, H) - sst_target(0.0)).abs() < 1e-12);
        assert!((s.at(0, H, H) - sss_target(0.0)).abs() < 1e-12);
        // Deeper levels untouched.
        assert_eq!(t.at(1, H, H), 0.0);
    }
}
