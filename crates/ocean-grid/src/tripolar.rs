//! Tripolar horizontal coordinates and Arakawa-B metrics.
//!
//! LICOM's grid is regular longitude–latitude south of a joining latitude
//! and a bipolar cap north of it, placing the two northern poles over
//! land so no singularity lies in the ocean. For the reproduction we use
//! an analytically convenient construction:
//!
//! * south of `lat_join` (65° N): uniform spherical grid — `dx ∝ cos φ`;
//! * north of `lat_join`: rows are re-mapped toward the fold with a
//!   smooth stretching, and the top row is the **fold line** where cell
//!   `i` abuts cell `nx-1-i` of the same row (implemented by the
//!   north-fold halo exchange).
//!
//! What the dynamics need from the grid is exactly what we provide:
//! per-cell zonal/meridional spacings `dx`, `dy` (meters), cell
//! latitudes/longitudes, and the Coriolis parameter at B-grid velocity
//! (corner) points. The Arakawa-B staggering places tracers at cell
//! centers and both velocity components at cell corners.

use crate::{EARTH_RADIUS_M, OMEGA};

/// Horizontal tripolar grid of `nx × ny` tracer cells.
///
/// Index convention: `i` zonal (0..nx, periodic), `j` meridional
/// (0 = southernmost row, ny-1 = fold row).
#[derive(Debug, Clone)]
pub struct TripolarGrid {
    pub nx: usize,
    pub ny: usize,
    /// Southern edge latitude (degrees). LICOM starts around 78.5° S.
    pub lat_south: f64,
    /// Latitude where the bipolar cap begins (degrees).
    pub lat_join: f64,
    /// Cell-center latitudes per row (degrees), length `ny`.
    lat_t: Vec<f64>,
    /// Zonal spacing at cell centers per row (meters), length `ny`.
    dx_t: Vec<f64>,
    /// Meridional spacing (meters), uniform per construction.
    dy_t: f64,
}

impl TripolarGrid {
    /// Build the grid. The effective northernmost tracer latitude is a
    /// little short of 90° N; the cap rows compress smoothly toward the
    /// fold so metric terms stay finite (the analytic stand-in for the
    /// conformal bipolar mapping).
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx >= 4 && ny >= 4, "grid too small: {nx}x{ny}");
        let lat_south = -78.5;
        let lat_north = 89.5;
        let lat_join = 65.0;
        let dlat = (lat_north - lat_south) / ny as f64;
        let mut lat_t = Vec::with_capacity(ny);
        for j in 0..ny {
            lat_t.push(lat_south + (j as f64 + 0.5) * dlat);
        }
        let dy_t = EARTH_RADIUS_M * dlat.to_radians();
        let dlon = 360.0 / nx as f64;
        let mut dx_t = Vec::with_capacity(ny);
        for &lat in &lat_t {
            let coslat = if lat <= lat_join {
                lat.to_radians().cos()
            } else {
                // Cap stretching: interpolate between cos(lat_join) and a
                // floor so dx never collapses to zero at the fold — the
                // property of the bipolar mapping that removes the polar
                // CFL singularity of a plain lat-lon grid.
                let t = (lat - lat_join) / (lat_north - lat_join);
                let floor = 0.2 * lat_join.to_radians().cos();
                (1.0 - t) * lat_join.to_radians().cos() + t * floor
            };
            dx_t.push(EARTH_RADIUS_M * dlon.to_radians() * coslat);
        }
        Self {
            nx,
            ny,
            lat_south,
            lat_join,
            lat_t,
            dx_t,
            dy_t,
        }
    }

    /// Cell-center longitude of column `i` (degrees in `[0, 360)`).
    pub fn lon_t(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * 360.0 / self.nx as f64
    }

    /// Cell-center latitude of row `j` (degrees).
    pub fn lat_t(&self, j: usize) -> f64 {
        self.lat_t[j]
    }

    /// Zonal spacing at tracer point `(j, i)` in meters (row-constant).
    pub fn dx_t(&self, j: usize) -> f64 {
        self.dx_t[j]
    }

    /// Meridional spacing in meters (uniform).
    pub fn dy_t(&self) -> f64 {
        self.dy_t
    }

    /// Coriolis parameter `f = 2Ω sin φ` at the B-grid velocity corner
    /// north-east of tracer cell `(j, i)`.
    pub fn coriolis_u(&self, j: usize) -> f64 {
        let lat_corner = if j + 1 < self.ny {
            0.5 * (self.lat_t[j] + self.lat_t[j + 1])
        } else {
            self.lat_t[j]
        };
        2.0 * OMEGA * lat_corner.to_radians().sin()
    }

    /// Nominal resolution in kilometers (equatorial zonal spacing).
    pub fn nominal_res_km(&self) -> f64 {
        let jeq = self
            .lat_t
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .map(|(j, _)| j)
            .unwrap();
        self.dx_t[jeq] / 1000.0
    }

    /// Fold partner column of `i` on the top row: cell `i` meets cell
    /// `nx-1-i` across the tripolar seam.
    pub fn fold_partner(&self, i: usize) -> usize {
        self.nx - 1 - i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_and_monotonic_latitudes() {
        let g = TripolarGrid::new(360, 218);
        assert!(g.lat_t(0) > -79.0 && g.lat_t(0) < -77.0);
        assert!(g.lat_t(217) > 88.0 && g.lat_t(217) < 90.0);
        for j in 1..218 {
            assert!(g.lat_t(j) > g.lat_t(j - 1));
        }
    }

    #[test]
    fn dx_shrinks_with_latitude_but_never_collapses() {
        let g = TripolarGrid::new(360, 218);
        let dx_eq = g.dx_t(109);
        let dx_polar = g.dx_t(217);
        assert!(dx_polar < dx_eq);
        // Bipolar cap keeps dx above ~8% of equatorial (vs cos(89.5°)≈0.9%).
        assert!(
            dx_polar > 0.05 * dx_eq,
            "fold row dx {dx_polar} collapsed vs equator {dx_eq}"
        );
    }

    #[test]
    fn nominal_resolution_100km_config() {
        // Table III coarse config: 360x218 ≈ O(100 km).
        let g = TripolarGrid::new(360, 218);
        let r = g.nominal_res_km();
        assert!(
            (90.0..130.0).contains(&r),
            "expected ~111 km equatorial spacing, got {r}"
        );
    }

    #[test]
    fn nominal_resolution_1km_config_shape() {
        // The 1-km Table III grid is 36000 wide: 360°/36000 ≈ 1.11 km.
        let g = TripolarGrid::new(36000, 220); // ny shrunk for test speed
        let r = g.nominal_res_km();
        assert!((0.9..1.3).contains(&r), "got {r}");
    }

    #[test]
    fn coriolis_sign_and_magnitude() {
        let g = TripolarGrid::new(360, 218);
        // Southern hemisphere: negative; northern: positive.
        assert!(g.coriolis_u(10) < 0.0);
        assert!(g.coriolis_u(200) > 0.0);
        // |f| <= 2Ω everywhere.
        for j in 0..218 {
            assert!(g.coriolis_u(j).abs() <= 2.0 * OMEGA + 1e-12);
        }
    }

    #[test]
    fn fold_partner_is_involutive() {
        let g = TripolarGrid::new(360, 218);
        for i in [0usize, 1, 100, 359] {
            assert_eq!(g.fold_partner(g.fold_partner(i)), i);
        }
        assert_eq!(g.fold_partner(0), 359);
    }

    #[test]
    fn longitudes_wrap_the_globe() {
        let g = TripolarGrid::new(360, 218);
        assert!((g.lon_t(0) - 0.5).abs() < 1e-12);
        assert!((g.lon_t(359) - 359.5).abs() < 1e-12);
    }
}
