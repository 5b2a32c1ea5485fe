//! Synthetic, deterministic planet bathymetry.
//!
//! Substitutes the observed ETOPO-style topography the paper uses (a data
//! gate) with smooth analytic functions of longitude/latitude, so every
//! resolution from 100 km to 1 km samples the *same* planet. The
//! construction preserves the properties the paper's optimizations feed
//! on: coherent continents (≈30 % land → sea-land load imbalance),
//! shallow shelves, mid-ocean ridges, seamount chains and a Mariana-like
//! trench reaching below 10,900 m for the full-depth 2-km configuration
//! (Fig. 1f–g resolves the Challenger Deep at 10,905 m).

/// Smoothstep on `[e0, e1]`.
fn smoothstep(e0: f64, e1: f64, x: f64) -> f64 {
    let t = ((x - e0) / (e1 - e0)).clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

/// Wrapped longitude difference in degrees, in `[-180, 180)`.
fn dlon_wrap(a: f64, b: f64) -> f64 {
    let mut d = a - b;
    while d < -180.0 {
        d += 360.0;
    }
    while d >= 180.0 {
        d -= 360.0;
    }
    d
}

/// An elliptical land mass with soft edges: strength 1 deep inside, 0 far
/// away (`r ≥ 1.15` in units of its semi-axes), a smooth shelf between.
#[derive(Debug, Clone, Copy)]
struct LandBlob {
    lon: f64,
    lat: f64,
    /// Zonal/meridional semi-axes in degrees.
    a: f64,
    b: f64,
}

/// Bathymetry generator.
#[derive(Debug, Clone)]
pub enum Bathymetry {
    /// Analytic Earth-like planet (continents, ridges, trench).
    EarthLike,
    /// Flat-bottom aquaplanet of the given depth (m) — for idealized tests.
    Flat(f64),
    /// Rectangular mid-latitude basin (land elsewhere): the classic
    /// double-gyre test domain. Bounds in degrees: (lon0, lon1, lat0, lat1).
    Basin {
        lon0: f64,
        lon1: f64,
        lat0: f64,
        lat1: f64,
        depth: f64,
    },
}

/// Depth of the Challenger Deep analog, meters.
pub const TRENCH_DEPTH_M: f64 = 10_905.0;

const CONTINENTS: [LandBlob; 7] = [
    // Eurasia
    LandBlob {
        lon: 85.0,
        lat: 52.0,
        a: 75.0,
        b: 26.0,
    },
    // Africa
    LandBlob {
        lon: 22.0,
        lat: 6.0,
        a: 30.0,
        b: 32.0,
    },
    // North America
    LandBlob {
        lon: 262.0,
        lat: 50.0,
        a: 42.0,
        b: 24.0,
    },
    // South America
    LandBlob {
        lon: 298.0,
        lat: -15.0,
        a: 18.0,
        b: 28.0,
    },
    // Australia
    LandBlob {
        lon: 134.0,
        lat: -25.0,
        a: 18.0,
        b: 12.0,
    },
    // Greenland (hosts one northern pole of the tripolar grid)
    LandBlob {
        lon: 318.0,
        lat: 74.0,
        a: 14.0,
        b: 10.0,
    },
    // Siberian shelf landmass (hosts the other northern pole)
    LandBlob {
        lon: 105.0,
        lat: 74.0,
        a: 28.0,
        b: 9.0,
    },
];

/// Seamounts of the Emperor-like chain, spaced along its arc.
const SEAMOUNTS: usize = 12;

/// `(lon, lat)` of seamount `n`.
fn seamount(n: usize) -> (f64, f64) {
    let t = n as f64 / 11.0;
    (168.0 + 22.0 * t, 45.0 - 55.0 * t)
}

/// Below this an `exp` is exactly `+0` (`e^-745.2` already rounds to it),
/// so a bump that far out adds nothing and is not evaluated.
const EXP_UNDERFLOW: f64 = -746.0;

/// Beyond this `r²` a blob's strength is exactly `+0`: `r > 1.15`, where
/// the shelf's smoothstep saturates (`1.15² = 1.3225`).
const BLOB_OUTSIDE_R2: f64 = 1.33;

/// What [`Bathymetry::table`] needs of one longitude, computed once per
/// column of the table.
struct LonFactors {
    /// Each continent's scaled zonal offset `dx`.
    blob_dx: [f64; CONTINENTS.len()],
    /// Each seamount's zonal offset.
    sea_dx: [f64; SEAMOUNTS],
    /// The trench's scaled zonal offset.
    tx: f64,
    /// The ridge's `sin 2λ` and `cos(5λ + 1.3)`.
    ridge: [f64; 2],
}

impl LonFactors {
    fn new(lon: f64) -> Self {
        let lr = lon.to_radians();
        Self {
            blob_dx: CONTINENTS.map(|b| dlon_wrap(lon, b.lon) / b.a),
            sea_dx: std::array::from_fn(|n| dlon_wrap(lon, seamount(n).0)),
            tx: dlon_wrap(lon, 142.2) / 6.0,
            ridge: [(2.0 * lr).sin(), (5.0 * lr + 1.3).cos()],
        }
    }
}

/// What [`Bathymetry::table`] needs of one latitude, computed once per row.
struct LatFactors {
    /// South of the Antarctic coast: the whole row is land.
    land: bool,
    /// Each continent's scaled meridional offset `dy`.
    blob_dy: [f64; CONTINENTS.len()],
    /// Each seamount's meridional offset.
    sea_dy: [f64; SEAMOUNTS],
    /// The trench's scaled meridional offset.
    ty: f64,
    /// The Antarctic margin shelf's land strength.
    antarctic: f64,
    /// The ridge's `cos 3φ` and `sin(2φ + 0.7)`.
    ridge: [f64; 2],
}

impl LatFactors {
    fn new(lat: f64) -> Self {
        let pr = lat.to_radians();
        Self {
            land: lat < -70.0,
            blob_dy: CONTINENTS.map(|b| (lat - b.lat) / b.b),
            sea_dy: std::array::from_fn(|n| lat - seamount(n).1),
            ty: (lat - 11.35) / 1.6,
            antarctic: 1.0 - smoothstep(-70.0, -66.0, lat),
            ridge: [(3.0 * pr).cos(), (2.0 * pr + 0.7).sin()],
        }
    }
}

impl Bathymetry {
    /// The default Earth-like planet.
    pub fn earth_like() -> Self {
        Bathymetry::EarthLike
    }

    /// Depth in meters at `(lon, lat)` degrees; `0.0` means land.
    /// Positive values are water-column depths. The 1 × 1 [`table`].
    ///
    /// [`table`]: Bathymetry::table
    pub fn depth(&self, lon: f64, lat: f64) -> f64 {
        self.table(&[lon], &[lat])[0]
    }

    /// Depths at every `(lons[i], lats[j])`, row-major: entry `j ·
    /// lons.len() + i`. Every factor that depends on the longitude alone or
    /// on the latitude alone is computed once per column or row, and each
    /// point combines them in the per-point formula's own order, so an
    /// entry has the bits a point evaluated on its own would.
    pub fn table(&self, lons: &[f64], lats: &[f64]) -> Vec<f64> {
        match *self {
            Bathymetry::Flat(d) => vec![d; lons.len() * lats.len()],
            Bathymetry::Basin {
                lon0,
                lon1,
                lat0,
                lat1,
                depth,
            } => (lats.iter())
                .flat_map(|&lat| {
                    lons.iter().map(move |&lon| {
                        let inside = lon >= lon0 && lon <= lon1 && lat >= lat0 && lat <= lat1;
                        if inside {
                            depth
                        } else {
                            0.0
                        }
                    })
                })
                .collect(),
            Bathymetry::EarthLike => {
                let cols: Vec<LonFactors> = lons.iter().map(|&lon| LonFactors::new(lon)).collect();
                let mut out = Vec::with_capacity(lons.len() * lats.len());
                for &lat in lats {
                    let row = LatFactors::new(lat);
                    out.extend(cols.iter().map(|col| Self::earth_depth(col, &row)));
                }
                out
            }
        }
    }

    /// True when `(lon, lat)` is land.
    pub fn is_land(&self, lon: f64, lat: f64) -> bool {
        self.depth(lon, lat) <= 0.0
    }

    fn earth_depth(col: &LonFactors, row: &LatFactors) -> f64 {
        // Antarctica: solid land cap.
        if row.land {
            return 0.0;
        }
        let mut land = 0.0f64;
        for (dx, dy) in col.blob_dx.iter().zip(&row.blob_dy) {
            let r2 = dx * dx + dy * dy;
            // Outside, the strength is `+0`, which cannot raise `land`.
            if r2 <= BLOB_OUTSIDE_R2 {
                land = land.max(1.0 - smoothstep(0.8, 1.15, r2.sqrt()));
            }
        }
        if land >= 0.999 {
            return 0.0;
        }
        // Antarctic margin shelf.
        land = land.max(row.antarctic);

        // Abyssal base with mid-ocean-ridge undulation.
        let ridge = 900.0 * (col.ridge[0] * row.ridge[0]) + 500.0 * (col.ridge[1] * row.ridge[1]);
        let mut depth = 4600.0 - ridge;

        // Seamount chain (Emperor-like): bumps along a great-circle-ish arc.
        for (dx, dy) in col.sea_dx.iter().zip(&row.sea_dy) {
            let r2 = (dx * dx + dy * dy) / (1.1 * 1.1);
            if -r2 >= EXP_UNDERFLOW {
                depth -= 3200.0 * (-r2).exp();
            }
        }

        // Mariana-like trench: elongated gaussian, deepest point 10,905 m.
        let arg = -(col.tx * col.tx + row.ty * row.ty);
        if arg >= EXP_UNDERFLOW {
            depth += (TRENCH_DEPTH_M - 4600.0) * arg.exp();
        }

        // Continental shelf: land strength melts depth to zero smoothly.
        depth *= 1.0 - smoothstep(0.35, 0.999, land);

        // Coastal cut-off: anything shallower than 25 m is land (the
        // model's minimum resolvable column).
        if depth < 25.0 {
            0.0
        } else {
            depth.min(TRENCH_DEPTH_M)
        }
    }

    /// Fraction of ocean cells on an `nx × ny` uniform sample.
    pub fn ocean_fraction(&self, nx: usize, ny: usize) -> f64 {
        let lats: Vec<f64> = (0..ny)
            .map(|j| -78.5 + (j as f64 + 0.5) * 168.0 / ny as f64)
            .collect();
        let lons: Vec<f64> = (0..nx)
            .map(|i| (i as f64 + 0.5) * 360.0 / nx as f64)
            .collect();
        let ocean = (self.table(&lons, &lats).iter())
            .filter(|&&d| d > 0.0)
            .count();
        ocean as f64 / (nx * ny) as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The per-point body [`Bathymetry::table`] is held to bit for bit:
    /// every factor evaluated at the point, every blob's `sqrt` and every
    /// `exp` taken.
    pub(crate) fn reference_depth(bathy: &Bathymetry, lon: f64, lat: f64) -> f64 {
        match *bathy {
            Bathymetry::Flat(d) => return d,
            Bathymetry::Basin {
                lon0,
                lon1,
                lat0,
                lat1,
                depth,
            } => {
                let inside = lon >= lon0 && lon <= lon1 && lat >= lat0 && lat <= lat1;
                return if inside { depth } else { 0.0 };
            }
            Bathymetry::EarthLike => {}
        }
        // Antarctica: solid land cap.
        if lat < -70.0 {
            return 0.0;
        }
        let mut land = 0.0f64;
        for blob in CONTINENTS {
            let dx = dlon_wrap(lon, blob.lon) / blob.a;
            let dy = (lat - blob.lat) / blob.b;
            let r = (dx * dx + dy * dy).sqrt();
            land = land.max(1.0 - smoothstep(0.8, 1.15, r));
        }
        if land >= 0.999 {
            return 0.0;
        }
        // Antarctic margin shelf.
        let antarctic = 1.0 - smoothstep(-70.0, -66.0, lat);
        land = land.max(antarctic);

        // Abyssal base with mid-ocean-ridge undulation.
        let lr = lon.to_radians();
        let pr = lat.to_radians();
        let ridge = 900.0 * ((2.0 * lr).sin() * (3.0 * pr).cos())
            + 500.0 * ((5.0 * lr + 1.3).cos() * (2.0 * pr + 0.7).sin());
        let mut depth = 4600.0 - ridge;

        // Seamount chain (Emperor-like): bumps along a great-circle-ish arc.
        for n in 0..12 {
            let t = n as f64 / 11.0;
            let slon = 168.0 + 22.0 * t;
            let slat = 45.0 - 55.0 * t;
            let dx = dlon_wrap(lon, slon);
            let dy = lat - slat;
            let r2 = (dx * dx + dy * dy) / (1.1 * 1.1);
            depth -= 3200.0 * (-r2).exp();
        }

        // Mariana-like trench: elongated gaussian, deepest point 10,905 m.
        let tx = dlon_wrap(lon, 142.2) / 6.0;
        let ty = (lat - 11.35) / 1.6;
        let trench = (TRENCH_DEPTH_M - 4600.0) * (-(tx * tx + ty * ty)).exp();
        depth += trench;

        // Continental shelf: land strength melts depth to zero smoothly.
        depth *= 1.0 - smoothstep(0.35, 0.999, land);

        // Coastal cut-off.
        if depth < 25.0 {
            0.0
        } else {
            depth.min(TRENCH_DEPTH_M)
        }
    }

    /// Off the tables' sample points: the equator, the trench's axis, a
    /// blob's rim and the seams of the longitude wrap.
    #[test]
    fn a_point_is_its_reference() {
        let b = Bathymetry::earth_like();
        let lons = [
            -180.0, -10.0, 0.0, 22.0, 142.2, 168.0, 179.999, 180.0, 359.99, 400.0,
        ];
        let lats = [
            -89.0, -70.0, -69.99, -66.0, 0.0, 6.0, 11.35, 45.0, 74.0, 89.5,
        ];
        for lon in lons {
            for lat in lats {
                assert_eq!(
                    b.depth(lon, lat).to_bits(),
                    reference_depth(&b, lon, lat).to_bits(),
                    "({lon}, {lat})"
                );
            }
        }
    }

    #[test]
    fn land_fraction_is_earth_like() {
        let b = Bathymetry::earth_like();
        let f = b.ocean_fraction(180, 109);
        assert!(
            (0.55..0.80).contains(&f),
            "ocean fraction {f} out of Earth-like band"
        );
    }

    #[test]
    fn trench_reaches_challenger_deep() {
        let b = Bathymetry::earth_like();
        let d = b.depth(142.2, 11.35);
        assert!(d > 10_000.0, "trench analog only {d} m deep");
        assert!(d <= TRENCH_DEPTH_M + 1e-9);
    }

    #[test]
    fn continents_are_land() {
        let b = Bathymetry::earth_like();
        assert!(b.is_land(85.0, 52.0), "central Eurasia");
        assert!(b.is_land(262.0, 50.0), "central North America");
        assert!(b.is_land(0.0, -80.0), "Antarctica");
    }

    #[test]
    fn open_ocean_is_deep() {
        let b = Bathymetry::earth_like();
        // Central Pacific
        let d = b.depth(200.0, 0.0);
        assert!(d > 2500.0, "Pacific depth {d}");
        // Arctic has ocean (the tripolar cap must cross water)
        let arctic = b.depth(0.0, 87.0);
        assert!(arctic > 0.0, "Arctic must be ocean for the tripolar fold");
    }

    #[test]
    fn depth_is_continuous_at_coast() {
        // March from deep ocean onto Africa; consecutive samples should
        // never jump by more than ~the shelf depth scale.
        let b = Bathymetry::earth_like();
        let mut prev = b.depth(-10.0, 0.0);
        for step in 1..200 {
            let lon = -10.0 + step as f64 * 0.25;
            let d = b.depth(lon, 0.0);
            assert!(
                (d - prev).abs() < 600.0,
                "coastal jump {} -> {} at lon {}",
                prev,
                d,
                lon
            );
            prev = d;
        }
    }

    #[test]
    fn flat_and_basin_variants() {
        let f = Bathymetry::Flat(4000.0);
        assert_eq!(f.depth(10.0, 10.0), 4000.0);
        let basin = Bathymetry::Basin {
            lon0: 10.0,
            lon1: 50.0,
            lat0: 20.0,
            lat1: 50.0,
            depth: 2000.0,
        };
        assert_eq!(basin.depth(30.0, 35.0), 2000.0);
        assert!(basin.is_land(5.0, 35.0));
        assert!(basin.is_land(30.0, 55.0));
    }

    #[test]
    fn resolution_independence() {
        // The same planet seen at different resolutions: a point deep in
        // the Pacific is ocean at every sampling.
        let b = Bathymetry::earth_like();
        for res in [1.0, 0.5, 0.1, 0.05] {
            let d = b.depth(200.0 + res / 2.0, res / 2.0);
            assert!(d > 2000.0);
        }
    }
}
