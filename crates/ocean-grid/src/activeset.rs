//! Active-set (wet-point) index lists.
//!
//! Roughly a third of a global tripolar grid is land; dense kernels that
//! sweep `(nz, ny, nx)` and branch on `kmt` per point waste their land
//! share of iterations and, worse, load-imbalance whatever backend splits
//! the dense range evenly (the canuto story of the paper, §V-C). The
//! builders here pack the wet points once — as flat `u32` index lists plus
//! a per-entry cost prefix — in exactly the shape `kokkos_rs::ListPolicy`
//! consumes, so hot kernels iterate water only and schedulers split work
//! by cumulative wet cost instead of cell count.
//!
//! Index packing (all row-major, `i` innermost, matching `View` layout):
//!
//! * surface/column sets: `j * pi + i`
//! * 3-D cell sets:       `(k * pj + j) * pi + i`, grouped by level `k`
//!   with CSR offsets so one shared array serves per-level slices.

use std::sync::Arc;

/// A packed set of wet surface points (columns), with per-column costs.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    /// Packed `j * pi + i` indices in row-major scan order.
    pub indices: Arc<Vec<u32>>,
    /// Exclusive prefix sum of per-column costs (`len + 1` entries,
    /// `prefix[0] == 0`); entry `n`'s cost is `prefix[n+1] - prefix[n]`.
    pub cost_prefix: Arc<Vec<u64>>,
}

impl ActiveSet {
    /// Pack every point in `j_range × i_range` whose `levels(j, i) > 0`,
    /// weighting each by its level count (wet depth). `pi` is the row
    /// pitch of the packed index.
    ///
    /// The wet points are counted first and each list is allocated once.
    /// Grown by doubling, the lists leave a chain of freed buffers among
    /// the fields a model allocates next; on a server that builds and drops
    /// models one after another, that chain was measured to decide whether
    /// the next model's zeroed fields come from warm memory or from pages
    /// the allocator released and must fault back in and clear (about 1 ms
    /// of a 60×38×6 model's 2 ms set-up).
    pub fn build_columns(
        pi: usize,
        j_range: std::ops::Range<usize>,
        i_range: std::ops::Range<usize>,
        levels: impl Fn(usize, usize) -> u32,
    ) -> Self {
        let wet: usize = (j_range.clone())
            .map(|j| i_range.clone().filter(|&i| levels(j, i) > 0).count())
            .sum();
        let mut indices = Vec::with_capacity(wet);
        let mut prefix = Vec::with_capacity(wet + 1);
        prefix.push(0u64);
        for j in j_range {
            for i in i_range.clone() {
                let kb = levels(j, i);
                if kb > 0 {
                    let packed = j * pi + i;
                    assert!(packed <= u32::MAX as usize, "packed index overflows u32");
                    indices.push(packed as u32);
                    prefix.push(prefix.last().unwrap() + kb as u64);
                }
            }
        }
        Self {
            indices: Arc::new(indices),
            cost_prefix: Arc::new(prefix),
        }
    }

    /// Number of wet columns.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Total wet levels across the set (sum of per-column costs).
    pub fn total_cost(&self) -> u64 {
        *self.cost_prefix.last().unwrap()
    }
}

/// A packed set of wet 3-D cells, grouped by level (CSR over `k`).
#[derive(Debug, Clone)]
pub struct ActiveSet3 {
    /// Packed `(k * pj + j) * pi + i` indices, level-major.
    pub indices: Arc<Vec<u32>>,
    /// CSR offsets (`nz + 1` entries): level `k`'s cells occupy
    /// `indices[level_offsets[k]..level_offsets[k+1]]`.
    pub level_offsets: Vec<usize>,
}

impl ActiveSet3 {
    /// Pack every cell `(k, j, i)` with `k < levels(j, i)` over
    /// `j_range × i_range`, for `k` in `0..nz`.
    pub fn build_cells(
        nz: usize,
        pj: usize,
        pi: usize,
        j_range: std::ops::Range<usize>,
        i_range: std::ops::Range<usize>,
        levels: impl Fn(usize, usize) -> u32,
    ) -> Self {
        assert!(
            nz.saturating_mul(pj).saturating_mul(pi) <= u32::MAX as usize + 1,
            "3-D packed index overflows u32"
        );
        // Allocated once, as [`ActiveSet::build_columns`] is.
        let wet: usize = (j_range.clone())
            .flat_map(|j| i_range.clone().map(move |i| (j, i)))
            .map(|(j, i)| (levels(j, i) as usize).min(nz))
            .sum();
        let mut indices = Vec::with_capacity(wet);
        let mut level_offsets = Vec::with_capacity(nz + 1);
        level_offsets.push(0usize);
        for k in 0..nz {
            for j in j_range.clone() {
                for i in i_range.clone() {
                    if (k as u32) < levels(j, i) {
                        indices.push(((k * pj + j) * pi + i) as u32);
                    }
                }
            }
            level_offsets.push(indices.len());
        }
        Self {
            indices: Arc::new(indices),
            level_offsets,
        }
    }

    /// Number of wet cells across all levels.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Index range `[lo, hi)` of level `k`'s cells within `indices`.
    pub fn level_range(&self, k: usize) -> (usize, usize) {
        (self.level_offsets[k], self.level_offsets[k + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels(j: usize, i: usize) -> u32 {
        // A 6×8 toy mask: land on the left edge, a shelf, deep interior.
        if i == 0 {
            0
        } else if j < 2 {
            1
        } else {
            4
        }
    }

    #[test]
    fn columns_pack_wet_points_in_scan_order() {
        let set = ActiveSet::build_columns(8, 0..6, 0..8, levels);
        assert_eq!(set.len(), 6 * 7); // column i=0 is land
                                      // Scan order, monotone packed indices.
        assert!(set.indices.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(set.indices[0], 1); // (0, 1)
                                       // Cost = wet levels: 2 rows of 7 shallow + 4 rows of 7 deep.
        assert_eq!(set.total_cost(), (2 * 7) + (4 * 7 * 4));
    }

    #[test]
    fn columns_subrange_excludes_halo() {
        let set = ActiveSet::build_columns(8, 2..4, 1..7, levels);
        assert_eq!(set.len(), 2 * 6);
        for &p in set.indices.iter() {
            let (j, i) = ((p / 8) as usize, (p % 8) as usize);
            assert!((2..4).contains(&j) && (1..7).contains(&i));
        }
    }

    #[test]
    fn cells3_csr_levels_partition_the_set() {
        let set = ActiveSet3::build_cells(4, 6, 8, 0..6, 0..8, levels);
        // Level 0: all wet columns; levels 1..4: only the deep ones.
        assert_eq!(set.level_range(0), (0, 42));
        for k in 1..4 {
            let (lo, hi) = set.level_range(k);
            assert_eq!(hi - lo, 4 * 7, "level {k}");
        }
        assert_eq!(set.len(), 42 + 3 * 28);
        // Each level's packed indices decode back to that level.
        for k in 0..4 {
            let (lo, hi) = set.level_range(k);
            for &p in &set.indices[lo..hi] {
                assert_eq!((p as usize) / (6 * 8), k);
            }
        }
    }

    #[test]
    fn empty_mask_yields_empty_sets() {
        let set = ActiveSet::build_columns(8, 0..4, 0..8, |_, _| 0);
        assert!(set.is_empty());
        assert_eq!(set.total_cost(), 0);
        let set3 = ActiveSet3::build_cells(3, 4, 8, 0..4, 0..8, |_, _| 0);
        assert!(set3.is_empty());
        assert_eq!(set3.level_range(2), (set3.len(), set3.len()));
    }
}
