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

use kokkos_rs::View1;

use crate::lanes::{F64x, Mask};

/// Zonal wind stress (N/m²) as a function of latitude: trades/westerlies
/// pattern peaking at ±0.1 N/m². The momentum pass adds `τ / (ρ0 dz0)` to
/// the top level's tendency at each wet corner
/// ([`crate::baroclinic::FunctorMomentumColumns`]).
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

/// Restoring of the new-level surface tracers toward the climatological
/// target with timescale [`RESTORE_SECONDS`]. Not a launch of its own: the
/// last member of the tracer chain of the new level's column pass
/// ([`crate::columns::TracerChain`]), applied to the surface row the
/// implicit solve leaves behind.
pub struct SurfaceRestore {
    pub lat: View1<f64>,
    pub dt: f64,
}

impl SurfaceRestore {
    /// `[T, S]` at level 0 of the `W` columns of row `jl` (one latitude),
    /// restored where `wet`; dry lanes keep their value.
    #[inline(always)]
    pub fn apply<const W: usize>(&self, jl: usize, wet: Mask<W>, ts: [F64x<W>; 2]) -> [F64x<W>; 2] {
        let lat = self.lat.at(jl);
        let gamma = self.dt / RESTORE_SECONDS;
        let [t, s] = ts;
        [
            wet.select(t + gamma * (sst_target(lat) - t), t),
            wet.select(s + gamma * (sss_target(lat) - s), s),
        ]
    }
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
        use kokkos_rs::View;
        let lat: View1<f64> = View::host("lat", [2]);
        lat.fill(0.0); // equator: target ~27, salinity ~36.2
        let f = SurfaceRestore {
            lat,
            dt: RESTORE_SECONDS, // gamma = 1: full restoration
        };
        let wet = Mask::from_fn(|l| l == 0);
        let [t, s] = f.apply::<2>(1, wet, [F64x([0.0, 0.0]), F64x([34.0, 34.0])]);
        assert!((t.0[0] - sst_target(0.0)).abs() < 1e-12);
        assert!((s.0[0] - sss_target(0.0)).abs() < 1e-12);
        // A dry lane keeps its values.
        assert_eq!((t.0[1], s.0[1]), (0.0, 34.0));
    }
}
