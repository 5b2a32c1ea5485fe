//! The assembled global grid: horizontal metrics + vertical levels +
//! discrete bathymetry (`kmt`) + Arakawa-B masks.

use crate::bathymetry::Bathymetry;
use crate::tripolar::TripolarGrid;
use crate::vertical::VerticalLevels;

/// A fully-built global model grid.
#[derive(Debug, Clone)]
pub struct GlobalGrid {
    pub horiz: TripolarGrid,
    pub vert: VerticalLevels,
    /// Active tracer levels per column, `ny × nx`, row-major `(j, i)`.
    /// `0` = land.
    pub kmt: Vec<usize>,
    /// Active velocity levels at the B-grid corner NE of cell `(j, i)`:
    /// the minimum `kmt` of the four surrounding tracer cells (a velocity
    /// point exists only where all four tracer columns do).
    pub kmu: Vec<usize>,
    /// Water-column depth (m) per cell, `ny × nx`.
    pub depth: Vec<f64>,
}

impl GlobalGrid {
    /// Sample `bathy` onto an `nx × ny × nz` grid.
    pub fn build(nx: usize, ny: usize, nz: usize, bathy: &Bathymetry, full_depth: bool) -> Self {
        let horiz = TripolarGrid::new(nx, ny);
        let vert = VerticalLevels::standard(nz, full_depth);
        let lons: Vec<f64> = (0..nx).map(|i| horiz.lon_t(i)).collect();
        let lats: Vec<f64> = (0..ny).map(|j| horiz.lat_t(j)).collect();
        let depth = bathy.table(&lons, &lats);
        let kmt: Vec<usize> = depth.iter().map(|&d| vert.kmt(d)).collect();
        let mut kmu = vec![0usize; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let ip = (i + 1) % nx; // zonal periodicity
                let m = if j + 1 < ny {
                    kmt[j * nx + i]
                        .min(kmt[j * nx + ip])
                        .min(kmt[(j + 1) * nx + i])
                        .min(kmt[(j + 1) * nx + ip])
                } else {
                    // Corner on the tripolar fold: its northern neighbor
                    // cells are the zonal mirrors of the top row. A
                    // velocity point on the seam exists only where its
                    // mirrored columns are wet too — otherwise pressure
                    // gradients would read flat-extended (sub-bottom)
                    // values across the seam.
                    kmt[j * nx + i]
                        .min(kmt[j * nx + ip])
                        .min(kmt[j * nx + (nx - 1 - i)])
                        .min(kmt[j * nx + (nx - 1 - ip)])
                };
                kmu[j * nx + i] = m;
            }
        }
        Self {
            horiz,
            vert,
            kmt,
            kmu,
            depth,
        }
    }

    pub fn nx(&self) -> usize {
        self.horiz.nx
    }

    pub fn ny(&self) -> usize {
        self.horiz.ny
    }

    pub fn nz(&self) -> usize {
        self.vert.nz()
    }

    /// Linear cell index.
    #[inline]
    pub fn idx(&self, j: usize, i: usize) -> usize {
        j * self.nx() + i
    }

    /// Tracer cell `(j, i)` has at least one wet level.
    #[inline]
    pub fn is_ocean(&self, j: usize, i: usize) -> bool {
        self.kmt[self.idx(j, i)] > 0
    }

    /// Tracer mask at level `k` (1.0 wet / 0.0 dry).
    #[inline]
    pub fn tmask(&self, k: usize, j: usize, i: usize) -> f64 {
        if k < self.kmt[self.idx(j, i)] {
            1.0
        } else {
            0.0
        }
    }

    /// Total wet tracer cells (surface).
    pub fn ocean_cells(&self) -> usize {
        self.kmt.iter().filter(|&&k| k > 0).count()
    }

    /// Total wet tracer points over all levels (the paper's ">63 billion
    /// grid points" headline counts these at 1 km).
    pub fn wet_points_3d(&self) -> usize {
        self.kmt.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_earth() -> GlobalGrid {
        GlobalGrid::build(90, 54, 20, &Bathymetry::earth_like(), false)
    }

    #[test]
    fn masks_consistent_with_kmt() {
        let g = small_earth();
        for j in 0..g.ny() {
            for i in 0..g.nx() {
                let kmt = g.kmt[g.idx(j, i)];
                if kmt > 0 {
                    assert_eq!(g.tmask(kmt - 1, j, i), 1.0);
                }
                assert_eq!(g.tmask(kmt, j, i), 0.0);
            }
        }
    }

    #[test]
    fn umask_no_wetter_than_neighbors() {
        let g = small_earth();
        for j in 0..g.ny() - 1 {
            for i in 0..g.nx() {
                let ip = (i + 1) % g.nx();
                let kmu = g.kmu[g.idx(j, i)];
                assert!(kmu <= g.kmt[g.idx(j, i)]);
                assert!(kmu <= g.kmt[g.idx(j, ip)]);
                assert!(kmu <= g.kmt[g.idx(j + 1, i)]);
                assert!(kmu <= g.kmt[g.idx(j + 1, ip)]);
            }
        }
    }

    #[test]
    fn earth_like_has_both_land_and_ocean() {
        let g = small_earth();
        let ocean = g.ocean_cells();
        let total = g.nx() * g.ny();
        assert!(ocean > total / 3, "too little ocean: {ocean}/{total}");
        assert!(ocean < total, "no land at all");
    }

    #[test]
    fn wet_points_scale_with_resolution() {
        let lo = GlobalGrid::build(45, 27, 10, &Bathymetry::earth_like(), false);
        let hi = GlobalGrid::build(90, 54, 10, &Bathymetry::earth_like(), false);
        // 4x horizontal cells → roughly 4x wet points.
        let ratio = hi.wet_points_3d() as f64 / lo.wet_points_3d() as f64;
        assert!((2.5..6.0).contains(&ratio), "ratio {ratio}");
    }

    /// The grid's depths, sampled as one table, against the per-point body
    /// at each cell centre, bit for bit: the benchmark's five grids, odd
    /// sizes, and the flat and basin planets.
    #[test]
    fn the_depth_table_is_the_per_point_body() {
        use crate::bathymetry::tests::reference_depth;
        let basin = Bathymetry::Basin {
            lon0: 60.0,
            lon1: 300.0,
            lat0: -50.0,
            lat1: 50.0,
            depth: 4000.0,
        };
        let earth = Bathymetry::earth_like();
        let cases = [
            (180, 115, &earth),
            (120, 76, &earth),
            (60, 38, &earth),
            (40, 25, &earth),
            (30, 19, &earth),
            (4, 4, &earth),
            (7, 5, &earth),
            (97, 61, &earth),
            (361, 181, &earth),
            (45, 27, &Bathymetry::Flat(4000.0)),
            (45, 27, &basin),
            (61, 37, &basin),
        ];
        for (nx, ny, bathy) in cases {
            let g = GlobalGrid::build(nx, ny, 6, bathy, false);
            for j in 0..ny {
                for i in 0..nx {
                    let (lon, lat) = (g.horiz.lon_t(i), g.horiz.lat_t(j));
                    assert_eq!(
                        g.depth[g.idx(j, i)].to_bits(),
                        reference_depth(bathy, lon, lat).to_bits(),
                        "{nx}×{ny} {bathy:?}: cell ({j}, {i})"
                    );
                }
            }
        }
    }

    #[test]
    fn aquaplanet_is_all_ocean() {
        let g = GlobalGrid::build(36, 24, 5, &Bathymetry::Flat(4000.0), false);
        assert_eq!(g.ocean_cells(), 36 * 24);
        assert_eq!(g.wet_points_3d(), 36 * 24 * 5);
    }

    #[test]
    fn paper_1km_wet_point_headline_extrapolates() {
        // The paper reports >63 billion grid points at 36000×22018×80.
        // Check our planet's ocean fraction puts the same grid in that
        // range: fraction * 36000 * 22018 * 80 > 40e9 (sanity, not exact).
        let g = small_earth();
        let frac = g.ocean_cells() as f64 / (g.nx() * g.ny()) as f64;
        let extrap = frac * 36000.0 * 22018.0 * 80.0;
        assert!(extrap > 35e9, "extrapolated wet points {extrap:.3e}");
    }
}
