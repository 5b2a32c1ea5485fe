//! Per-rank grid data, extracted from the deterministic global grid.
//!
//! Because the synthetic planet is an analytic function, every rank can
//! materialise its own padded block — including halo-region masks and the
//! north-fold mirror of `kmt` — without communication. Metric arrays in
//! ghost rows are clamped to the nearest owned row; the dynamical
//! operators only evaluate metrics on owned cells.

use kokkos_rs::{View, View1, View2};
use ocean_grid::{ActiveSet, ActiveSet3, GlobalGrid};

use halo_exchange::{Halo2D, HALO as H};

/// Packed wet-point index sets of the owned block, built once per rank
/// from `kmt`/`kmu` and shared (via `Arc`) with every `ListPolicy` launch.
/// Every masked kernel touches owned cells only: what the momentum pass
/// reads of the halo (the `T` / `S` of the row north of the block and the
/// column east of it, its corners' pressure) it reads from inside an owned
/// column's walk.
pub struct WetSets {
    /// Owned-interior wet tracer columns (`kmt > 0`), packed
    /// `jl * pi + il`; cost = wet levels.
    pub cols_own: ActiveSet,
    /// Owned-interior wet velocity columns (`kmu > 0`); cost = wet levels.
    pub ucols_own: ActiveSet,
    /// Owned-interior 3-D wet tracer cells. No kernel iterates them:
    /// `licom_bench` counts the wet cells of a rank with them.
    pub cells3_own: ActiveSet3,
}

impl WetSets {
    /// Pack the wet sets of one padded `[ny + 2H, nx + 2H]` block of `nz`
    /// levels from its masks.
    fn build(nz: usize, kmt: &View2<i32>, kmu: &View2<i32>) -> Self {
        let [pj, pi] = kmt.dims();
        let (rows, cols) = (H..pj - H, H..pi - H);
        let kmt_at = |jl: usize, il: usize| kmt.at(jl, il).max(0) as u32;
        let kmu_at = |jl: usize, il: usize| kmu.at(jl, il).max(0) as u32;
        Self {
            cols_own: ActiveSet::build_columns(pi, rows.clone(), cols.clone(), kmt_at),
            ucols_own: ActiveSet::build_columns(pi, rows.clone(), cols.clone(), kmu_at),
            cells3_own: ActiveSet3::build_cells(nz, pj, pi, rows, cols, kmt_at),
        }
    }
}

/// Grid slice owned by one rank, with 2-cell padding, as device-agnostic
/// `View`s ready to be captured by functors.
pub struct LocalGrid {
    /// Owned interior extents.
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Padded extents (`ny + 2H`, `nx + 2H`).
    pub pj: usize,
    pub pi: usize,
    /// Global offsets of the first owned cell.
    pub x0: usize,
    pub y0: usize,
    /// Global grid extents.
    pub nxg: usize,
    pub nyg: usize,
    /// Zonal spacing (m) per padded row.
    pub dxt: View1<f64>,
    /// Meridional spacing (m), uniform.
    pub dyt: f64,
    /// Coriolis parameter at B-grid corners, per padded row.
    pub fcor: View1<f64>,
    /// Cell-center latitude (deg) per padded row (clamped in ghosts).
    pub lat: View1<f64>,
    /// Cell-center longitude (deg) per padded column (wrapped).
    pub lon: View1<f64>,
    /// Active tracer levels per padded cell (0 = land), with correct
    /// periodic / fold values in the halo.
    pub kmt: View2<i32>,
    /// Active velocity levels per padded corner.
    pub kmu: View2<i32>,
    /// Layer thicknesses (m).
    pub dz: View1<f64>,
    /// Layer center depths (m, positive down).
    pub z_t: View1<f64>,
    /// Total water depth (m) per padded cell (0 on land).
    pub depth: View2<f64>,
    /// Active-set index lists for wet-point iteration.
    pub wet: WetSets,
}

impl LocalGrid {
    /// Extract this rank's padded block from the global grid.
    pub fn build(global: &GlobalGrid, halo: &Halo2D) -> Self {
        let (nx, ny, nz) = (halo.nx, halo.ny, global.nz());
        // The column kernels size their work arrays from `nz`; this is the
        // one place the depth they are budgeted for is enforced.
        assert!(
            nz <= crate::lanes::MAX_NZ,
            "nz = {nz} exceeds the {} levels the column kernels support",
            crate::lanes::MAX_NZ
        );
        let (pj, pi) = halo.padded();
        let (nxg, nyg) = (global.nx(), global.ny());
        let (x0, y0) = (halo.x0, halo.y0);

        // Global lookup with periodic x, closed south, folded north.
        let glob = |jl: usize, il: usize| -> Option<(usize, usize)> {
            let jg = y0 as i64 + jl as i64 - H as i64;
            let ig = x0 as i64 + il as i64 - H as i64;
            let iw = ig.rem_euclid(nxg as i64) as usize;
            if jg < 0 {
                None
            } else if (jg as usize) < nyg {
                Some((jg as usize, iw))
            } else {
                let d = jg - nyg as i64;
                if d >= H as i64 {
                    None
                } else {
                    let src_i = (nxg as i64 - 1 - ig).rem_euclid(nxg as i64) as usize;
                    Some((nyg - 1 - d as usize, src_i))
                }
            }
        };

        let dxt: View1<f64> = View::host("dxt", [pj]);
        let fcor: View1<f64> = View::host("fcor", [pj]);
        let lat: View1<f64> = View::host("lat", [pj]);
        for jl in 0..pj {
            let jg = (y0 as i64 + jl as i64 - H as i64).clamp(0, nyg as i64 - 1) as usize;
            dxt.set_at(jl, global.horiz.dx_t(jg));
            fcor.set_at(jl, global.horiz.coriolis_u(jg));
            lat.set_at(jl, global.horiz.lat_t(jg));
        }
        let lon: View1<f64> = View::host("lon", [pi]);
        for il in 0..pi {
            let ig = (x0 as i64 + il as i64 - H as i64).rem_euclid(nxg as i64) as usize;
            lon.set_at(il, global.horiz.lon_t(ig));
        }

        let kmt: View2<i32> = View::host("kmt", [pj, pi]);
        let kmu: View2<i32> = View::host("kmu", [pj, pi]);
        let depth: View2<f64> = View::host("depth", [pj, pi]);
        for jl in 0..pj {
            for il in 0..pi {
                match glob(jl, il) {
                    Some((jg, ig)) => {
                        kmt.set_at(jl, il, global.kmt[global.idx(jg, ig)] as i32);
                        kmu.set_at(jl, il, global.kmu[global.idx(jg, ig)] as i32);
                        depth.set_at(jl, il, global.depth[global.idx(jg, ig)]);
                    }
                    None => {
                        kmt.set_at(jl, il, 0);
                        kmu.set_at(jl, il, 0);
                        depth.set_at(jl, il, 0.0);
                    }
                }
            }
        }

        let dz: View1<f64> = View::host("dz", [nz]);
        let z_t: View1<f64> = View::host("z_t", [nz]);
        for k in 0..nz {
            dz.set_at(k, global.vert.dz[k]);
            z_t.set_at(k, global.vert.z_t[k]);
        }

        let wet = WetSets::build(nz, &kmt, &kmu);

        Self {
            nx,
            ny,
            nz,
            pj,
            pi,
            x0,
            y0,
            nxg,
            nyg,
            dxt,
            dyt: global.horiz.dy_t(),
            fcor,
            lat,
            lon,
            kmt,
            kmu,
            dz,
            z_t,
            depth,
            wet,
        }
    }

    /// Owned wet columns.
    pub fn wet_count(&self) -> usize {
        self.wet.cols_own.len()
    }

    /// Smallest zonal spacing among owned rows (CFL/polar-filter input).
    pub fn min_dx(&self) -> f64 {
        (H..H + self.ny)
            .map(|j| self.dxt.at(j))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::{CartComm, World};
    use ocean_grid::Bathymetry;
    use proptest::prelude::*;
    use std::ops::Range;

    #[test]
    fn halo_kmt_matches_global_semantics() {
        let global = GlobalGrid::build(24, 12, 6, &Bathymetry::earth_like(), false);
        World::run(4, |comm| {
            let cart = CartComm::new(comm.clone(), 2, 2, true);
            let halo = Halo2D::new(&cart, 24, 12);
            let lg = LocalGrid::build(&global, &halo);
            // Interior cells agree with the global grid.
            for j in 0..lg.ny {
                for i in 0..lg.nx {
                    let want = global.kmt[global.idx(lg.y0 + j, lg.x0 + i)] as i32;
                    assert_eq!(lg.kmt.at(H + j, H + i), want);
                }
            }
            // South ghosts of the bottom row are land-walled.
            if lg.y0 == 0 {
                for r in 0..H {
                    for il in 0..lg.pi {
                        assert_eq!(lg.kmt.at(r, il), 0);
                    }
                }
            }
        });
    }

    #[test]
    fn fold_halo_mirrors_kmt() {
        let global = GlobalGrid::build(16, 8, 5, &Bathymetry::earth_like(), false);
        World::run(1, |comm| {
            let cart = CartComm::new(comm.clone(), 1, 1, true);
            let halo = Halo2D::new(&cart, 16, 8);
            let lg = LocalGrid::build(&global, &halo);
            // Ghost row above the fold equals the mirrored top row.
            for il in H..H + 16 {
                let ig = il - H;
                let want = global.kmt[global.idx(7, 15 - ig)] as i32;
                assert_eq!(lg.kmt.at(H + 8, il), want, "il={il}");
            }
        });
    }

    #[test]
    fn wet_columns_counts_only_interior_ocean() {
        let global = GlobalGrid::build(16, 8, 5, &Bathymetry::Flat(4000.0), false);
        World::run(2, |comm| {
            let cart = CartComm::new(comm.clone(), 2, 1, true);
            let halo = Halo2D::new(&cart, 16, 8);
            let lg = LocalGrid::build(&global, &halo);
            assert_eq!(lg.wet_count(), lg.nx * lg.ny);
        });
    }

    type Block = (Range<usize>, Range<usize>);

    /// The packed columns of `block` with `mask > 0`, in row-major scan
    /// order, and the running wet depth.
    fn support2(mask: &View2<i32>, (rows, cols): Block) -> (Vec<u32>, Vec<u64>) {
        let pi = mask.extent(1);
        let (mut idx, mut prefix) = (Vec::new(), vec![0u64]);
        for jl in rows {
            for il in cols.clone().filter(|&il| mask.at(jl, il) > 0) {
                idx.push((jl * pi + il) as u32);
                prefix.push(prefix[idx.len() - 1] + mask.at(jl, il) as u64);
            }
        }
        (idx, prefix)
    }

    /// The packed cells `k < mask` of `block`, level-major, and the offset
    /// at which each level starts.
    fn support3(nz: usize, mask: &View2<i32>, (rows, cols): Block) -> (Vec<u32>, Vec<usize>) {
        let [pj, pi] = mask.dims();
        let (mut idx, mut offsets) = (Vec::new(), vec![0]);
        for k in 0..nz {
            for jl in rows.clone() {
                for il in cols.clone() {
                    if (k as i32) < mask.at(jl, il) {
                        idx.push(((k * pj + jl) * pi + il) as u32);
                    }
                }
            }
            offsets.push(idx.len());
        }
        (idx, offsets)
    }

    /// Every [`WetSets`] member against the mask it is documented to pack.
    fn check_wet_sets(nz: usize, kmt: &View2<i32>, kmu: &View2<i32>) -> Result<(), TestCaseError> {
        let [pj, pi] = kmt.dims();
        let owned: Block = (H..pj - H, H..pi - H);
        let w = WetSets::build(nz, kmt, kmu);
        for (name, set, mask) in [
            ("cols_own", &w.cols_own, kmt),
            ("ucols_own", &w.ucols_own, kmu),
        ] {
            let (idx, prefix) = support2(mask, owned.clone());
            prop_assert!(**set.indices == idx, "{name}");
            prop_assert!(**set.cost_prefix == prefix, "{name}: cost_prefix");
            // Row-major scan order is packed order: sorted, no repeats.
            prop_assert!(set.indices.windows(2).all(|p| p[0] < p[1]), "{name}: order");
        }
        let (idx, offsets) = support3(nz, kmt, owned);
        let cells = &w.cells3_own;
        prop_assert!(**cells.indices == idx, "cells3_own");
        prop_assert!(cells.level_offsets == offsets, "cells3_own: level_offsets");
        Ok(())
    }

    /// splitmix64.
    fn mix(seed: u64, n: u64) -> u64 {
        let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random masks, depths and block sizes, halo cells included — `kmt`
        /// and `kmu` drawn independently, so no set can pass by reading the
        /// other's mask. Every draw also runs at `nz = 1`, all land (empty
        /// lists) and all land but one owned column.
        #[test]
        fn wet_sets_are_the_supports_of_their_masks(
            seed in 0u64..u64::MAX,
            nz in 2usize..8,
            ny in 1usize..8,
            nx in 1usize..12,
        ) {
            let (pj, pi) = (ny + 2 * H, nx + 2 * H);
            let only = (H + mix(seed, 0) as usize % ny, H + mix(seed, 1) as usize % nx);
            for nz in [1, nz] {
                // Land share in thirds; 3 is all land, 4 all but `only`.
                for land in 0..5 {
                    let mask = |salt: u64| -> View2<i32> {
                        View::from_fn("mask", [pj, pi], |[jl, il]| {
                            let r = mix(seed ^ salt, (jl * pi + il) as u64);
                            let dry = if land == 4 { (jl, il) != only } else { r % 3 < land };
                            if dry { 0 } else { 1 + ((r >> 8) % nz as u64) as i32 }
                        })
                    };
                    if let Err(TestCaseError::Fail(msg)) = check_wet_sets(nz, &mask(1), &mask(2)) {
                        prop_assert!(false, "{msg} (nz {nz}, land {land})");
                    }
                }
            }
        }
    }

    #[test]
    fn min_dx_positive() {
        let global = GlobalGrid::build(24, 12, 4, &Bathymetry::Flat(4000.0), false);
        World::run(1, |comm| {
            let cart = CartComm::new(comm.clone(), 1, 1, true);
            let halo = Halo2D::new(&cart, 24, 12);
            let lg = LocalGrid::build(&global, &halo);
            assert!(lg.min_dx() > 0.0);
            assert!(lg.min_dx() < lg.dxt.at(H + 6)); // polar rows are tighter
        });
    }
}
