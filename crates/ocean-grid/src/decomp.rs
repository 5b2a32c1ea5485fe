//! Block decomposition and load-imbalance census.
//!
//! Each MPI rank owns one horizontal block with a halo of width 2: "Each
//! grid block includes the outermost two layers of the ghost halo, a
//! second layer with two layers of the real halo, and internal data"
//! (§V-D). As resolution and scale grow, blocks on sea-land boundaries
//! hold very different ocean-point counts — the imbalance the *canuto*
//! load balancer (paper §V-C1, `licom::canuto`) removes. This module
//! provides the decomposition geometry and the imbalance census that the
//! balancer and the performance model both consume.

use crate::grid::GlobalGrid;

/// Halo width in cells on every side (ghost = 2 per the paper).
pub const HALO: usize = 2;

/// Extent of one rank's block in global index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockExtent {
    /// Global index of the first owned column.
    pub x0: usize,
    /// Owned columns.
    pub nx: usize,
    /// Global index of the first owned row.
    pub y0: usize,
    /// Owned rows.
    pub ny: usize,
}

impl BlockExtent {
    /// Owned cells.
    pub fn cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Local array extent including the 2-wide halo frame.
    pub fn padded(&self) -> (usize, usize) {
        (self.ny + 2 * HALO, self.nx + 2 * HALO)
    }
}

/// A `px × py` decomposition of an `nx × ny` global grid.
#[derive(Debug, Clone)]
pub struct BlockDecomp {
    pub px: usize,
    pub py: usize,
    pub nx: usize,
    pub ny: usize,
}

impl BlockDecomp {
    pub fn new(nx: usize, ny: usize, px: usize, py: usize) -> Self {
        assert!(px >= 1 && py >= 1);
        assert!(nx >= px, "more zonal ranks than columns");
        assert!(ny >= py, "more meridional ranks than rows");
        Self { px, py, nx, ny }
    }

    /// Balanced 1-D split (same rule as `mpi_sim::CartComm::partition`).
    fn split(n: usize, parts: usize, idx: usize) -> (usize, usize) {
        let base = n / parts;
        let extra = n % parts;
        let len = base + usize::from(idx < extra);
        let start = idx * base + idx.min(extra);
        (start, len)
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.px * self.py
    }

    /// Extent of block `(cx, cy)`.
    pub fn block(&self, cx: usize, cy: usize) -> BlockExtent {
        assert!(cx < self.px && cy < self.py);
        let (x0, nx) = Self::split(self.nx, self.px, cx);
        let (y0, ny) = Self::split(self.ny, self.py, cy);
        BlockExtent { x0, nx, y0, ny }
    }

    /// Extent of block by linear rank (row-major, `rank = cy*px + cx`).
    pub fn block_of_rank(&self, rank: usize) -> BlockExtent {
        self.block(rank % self.px, rank / self.px)
    }

    /// Ocean (wet surface) cells owned by each rank.
    pub fn ocean_cells_per_rank(&self, grid: &GlobalGrid) -> Vec<usize> {
        assert_eq!(grid.nx(), self.nx);
        assert_eq!(grid.ny(), self.ny);
        (0..self.ranks())
            .map(|r| {
                let b = self.block_of_rank(r);
                let mut n = 0;
                for j in b.y0..b.y0 + b.ny {
                    for i in b.x0..b.x0 + b.nx {
                        if grid.is_ocean(j, i) {
                            n += 1;
                        }
                    }
                }
                n
            })
            .collect()
    }

    /// Wet 3-D points (Σ kmt) owned by each rank — the canuto workload.
    pub fn wet_points_per_rank(&self, grid: &GlobalGrid) -> Vec<usize> {
        (0..self.ranks())
            .map(|r| {
                let b = self.block_of_rank(r);
                let mut n = 0;
                for j in b.y0..b.y0 + b.ny {
                    for i in b.x0..b.x0 + b.nx {
                        n += grid.kmt[grid.idx(j, i)];
                    }
                }
                n
            })
            .collect()
    }

    /// Load imbalance factor of a per-rank workload: `max / mean` over
    /// ranks with any work (1.0 = perfectly balanced). The paper's canuto
    /// optimization drives this toward 1.
    pub fn imbalance(workload: &[usize]) -> f64 {
        let active: Vec<usize> = workload.to_vec();
        let total: usize = active.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / active.len() as f64;
        let max = *active.iter().max().unwrap() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathymetry::Bathymetry;

    fn grid() -> GlobalGrid {
        GlobalGrid::build(96, 48, 12, &Bathymetry::earth_like(), false)
    }

    #[test]
    fn blocks_tile_the_globe_exactly() {
        let d = BlockDecomp::new(96, 48, 6, 4);
        let mut hit = vec![0u8; 96 * 48];
        for r in 0..d.ranks() {
            let b = d.block_of_rank(r);
            for j in b.y0..b.y0 + b.ny {
                for i in b.x0..b.x0 + b.nx {
                    hit[j * 96 + i] += 1;
                }
            }
        }
        assert!(hit.iter().all(|&h| h == 1), "every cell owned exactly once");
    }

    #[test]
    fn padded_extent_includes_halo() {
        let d = BlockDecomp::new(96, 48, 6, 4);
        let b = d.block(0, 0);
        let (pj, pi) = b.padded();
        assert_eq!(pj, b.ny + 4);
        assert_eq!(pi, b.nx + 4);
    }

    #[test]
    fn earth_decomposition_is_imbalanced() {
        // The motivating fact for §V-C1: on a realistic planet, per-rank
        // ocean counts differ strongly.
        let g = grid();
        let d = BlockDecomp::new(96, 48, 8, 6);
        let per = d.ocean_cells_per_rank(&g);
        let imb = BlockDecomp::imbalance(&per);
        assert!(
            imb > 1.1,
            "expected sea-land imbalance, got max/mean = {imb}"
        );
    }

    #[test]
    fn aquaplanet_is_balanced() {
        let g = GlobalGrid::build(96, 48, 12, &Bathymetry::Flat(4000.0), false);
        let d = BlockDecomp::new(96, 48, 8, 6);
        let per = d.ocean_cells_per_rank(&g);
        let imb = BlockDecomp::imbalance(&per);
        assert!(imb < 1.01, "aquaplanet should balance, got {imb}");
    }

    #[test]
    fn wet_points_sum_matches_grid() {
        let g = grid();
        let d = BlockDecomp::new(96, 48, 4, 4);
        let per = d.wet_points_per_rank(&g);
        assert_eq!(per.iter().sum::<usize>(), g.wet_points_3d());
    }

    #[test]
    fn imbalance_of_uniform_load_is_one() {
        assert_eq!(BlockDecomp::imbalance(&[5, 5, 5, 5]), 1.0);
        assert_eq!(BlockDecomp::imbalance(&[0, 0]), 1.0);
        assert!((BlockDecomp::imbalance(&[10, 0, 0, 0]) - 4.0).abs() < 1e-12);
    }
}
