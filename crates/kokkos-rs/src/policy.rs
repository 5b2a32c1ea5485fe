//! Execution policies and the CPE tile mapping.
//!
//! Implements the paper's Eq. (1) and Eq. (2):
//!
//! ```text
//! total_tile        = Π_n ⌈ len_range_n / len_tile_n ⌉          (1)
//! num_tile_per_cpe  = ⌈ total_tile / num_cpe ⌉                  (2)
//! ```
//!
//! Tiles are the unit of work distribution on CPEs and also the unit of
//! deterministic reduction on every backend: partial sums are produced per
//! tile and combined in tile order, making `parallel_reduce` bitwise
//! identical across Serial, Threads, DeviceSim and SwAthread.
//!
//! [`ListPolicy`] extends the same tiling to *compact index lists*: instead
//! of a dense range, iteration walks a shared packed array of indices (the
//! active set — e.g. the wet points of an ocean grid, where roughly a third
//! of a global tripolar domain is land). Tiles may additionally carry a
//! **cost weight** (e.g. wet levels per column); workers/CPEs then split
//! tiles by cumulative cost instead of count ([`Policy::worker_tile_range`]),
//! generalizing the canuto column balancer into the dispatch layer.

use std::sync::Arc;

use crate::profiling::PolicyKind;

/// 1-D iteration policy `[start, end)` with a tile (chunk) length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePolicy {
    pub start: usize,
    pub end: usize,
    pub tile: usize,
}

impl RangePolicy {
    /// Policy over `0..n` with the default tile (256, a cache/LDM-friendly
    /// chunk that also gives Threads enough parallel slack).
    pub fn new(n: usize) -> Self {
        Self {
            start: 0,
            end: n,
            tile: 256,
        }
    }

    /// Policy over `start..end`.
    pub fn range(start: usize, end: usize) -> Self {
        assert!(start <= end);
        Self {
            start,
            end,
            tile: 256,
        }
    }

    /// Override the tile length.
    pub fn with_tile(mut self, tile: usize) -> Self {
        assert!(tile > 0, "tile length must be positive");
        self.tile = tile;
        self
    }

    /// Number of iterations.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Index range of tile `t`.
    pub fn tile_range(&self, t: usize) -> (usize, usize) {
        let lo = self.start + t * self.tile;
        let hi = (lo + self.tile).min(self.end);
        (lo, hi)
    }
}

/// 3-D multidimensional range policy (Kokkos `MDRangePolicy<Rank<3>>`).
/// Index order is `(k, j, i)`, `i` innermost — LICOM's storage convention.
/// A 2-D launch is its one-level case, `extent = [1, ny, nx]`, whose
/// default tile `[1, 8, 64]` cuts each level into 8-row, 64-column blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MDRangePolicy3 {
    pub extent: [usize; 3],
    pub tile: [usize; 3],
    /// Origin the iteration indices start from (Kokkos' lower-bound
    /// `MDRangePolicy({b0,b1,b2},{e0,e1,e2})`): the functor sees indices
    /// `offset[d] .. offset[d] + extent[d]`. Lets interior/rim sub-ranges
    /// of one kernel reuse the registered dense launch path.
    pub offset: [usize; 3],
}

impl MDRangePolicy3 {
    pub fn new(extent: [usize; 3]) -> Self {
        Self {
            extent,
            tile: [1, 8, 64],
            offset: [0, 0, 0],
        }
    }

    pub fn with_tile(mut self, tile: [usize; 3]) -> Self {
        assert!(tile.iter().all(|&t| t > 0));
        self.tile = tile;
        self
    }

    /// Shift the iteration origin; `extent` stays the iteration count.
    pub fn with_offset(mut self, offset: [usize; 3]) -> Self {
        self.offset = offset;
        self
    }

    pub fn tiles_per_dim(&self) -> [usize; 3] {
        [
            self.extent[0].div_ceil(self.tile[0]),
            self.extent[1].div_ceil(self.tile[1]),
            self.extent[2].div_ceil(self.tile[2]),
        ]
    }

    /// Decode tile `t` into per-dim index ranges (shifted by `offset`).
    pub fn tile_bounds(&self, t: usize) -> [(usize, usize); 3] {
        let td = self.tiles_per_dim();
        let tk = t / (td[1] * td[2]);
        let rem = t % (td[1] * td[2]);
        let tj = rem / td[2];
        let ti = rem % td[2];
        let k0 = tk * self.tile[0];
        let j0 = tj * self.tile[1];
        let i0 = ti * self.tile[2];
        [
            (
                self.offset[0] + k0,
                self.offset[0] + (k0 + self.tile[0]).min(self.extent[0]),
            ),
            (
                self.offset[1] + j0,
                self.offset[1] + (j0 + self.tile[1]).min(self.extent[1]),
            ),
            (
                self.offset[2] + i0,
                self.offset[2] + (i0 + self.tile[2]).min(self.extent[2]),
            ),
        ]
    }
}

/// Paper Eq. (2): tiles each CPE sweeps to cover `total_tiles`.
pub fn tiles_per_cpe(total_tiles: usize, num_cpe: usize) -> usize {
    total_tiles.div_ceil(num_cpe.max(1))
}

/// What the one launch path ([`crate::parallel`]) and the one CPE
/// trampoline ([`crate::registry`]) need of a policy: its size, its tiles,
/// and how the tiles split over workers. The functor side of a tile is
/// [`crate::functor::TileBody`].
pub trait Policy: Sync {
    /// The profiling tag of a launch over this policy.
    const KIND: PolicyKind;
    /// Whether host pool workers each take their contiguous tile range
    /// ([`Policy::worker_tile_range`]) instead of claiming tiles in chunks.
    const WORKER_RANGES: bool = false;

    /// Iterations in all.
    fn iterations(&self) -> usize;
    /// Paper Eq. (1).
    fn total_tiles(&self) -> usize;
    /// Iterations in tile `t` (an edge tile may be short).
    fn tile_iterations(&self, t: usize) -> usize;
    /// Iterations in a whole tile.
    fn tile_elems(&self) -> usize;
    /// Iterations of a whole tile in LDM at once — a SwAthread launch's
    /// staging unit — when its body holds `rows` of the tile's rows at a
    /// time ([`crate::Functor3D::resident_rows`]); `None`: the whole tile.
    fn resident_elems(&self, _rows: Option<usize>) -> usize {
        self.tile_elems()
    }

    /// The contiguous tiles `[lo, hi)` that worker (CPE) `w` of `workers`
    /// runs: paper Eq. (2), `⌈total / workers⌉` tiles each.
    fn worker_tile_range(&self, w: usize, workers: usize) -> (usize, usize) {
        let total = self.total_tiles();
        let per = tiles_per_cpe(total, workers);
        let lo = (w * per).min(total);
        (lo, (lo + per).min(total))
    }

    /// This policy re-tiled to about `elems` iterations a tile, as a dense
    /// SwAthread for-launch streams it through LDM; `None` keeps the
    /// caller's tiles.
    fn retiled(&self, _elems: usize) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

impl Policy for RangePolicy {
    const KIND: PolicyKind = PolicyKind::Range;

    fn iterations(&self) -> usize {
        self.len()
    }
    fn total_tiles(&self) -> usize {
        self.len().div_ceil(self.tile)
    }
    fn tile_iterations(&self, t: usize) -> usize {
        let (lo, hi) = self.tile_range(t);
        hi - lo
    }
    fn tile_elems(&self) -> usize {
        self.tile
    }
    fn retiled(&self, elems: usize) -> Option<Self> {
        Some(self.with_tile(elems.max(1)))
    }
}

impl Policy for MDRangePolicy3 {
    const KIND: PolicyKind = PolicyKind::MDRange3;

    fn iterations(&self) -> usize {
        self.extent.iter().product()
    }
    fn total_tiles(&self) -> usize {
        self.tiles_per_dim().iter().product()
    }
    fn tile_iterations(&self, t: usize) -> usize {
        let [(k0, k1), (j0, j1), (i0, i1)] = self.tile_bounds(t);
        (k1 - k0) * (j1 - j0) * (i1 - i0)
    }
    fn tile_elems(&self) -> usize {
        self.tile.iter().product()
    }
    fn resident_elems(&self, rows: Option<usize>) -> usize {
        let [kt, jt, it] = self.tile;
        kt * rows.map_or(jt, |r| r.min(jt)) * it
    }
    /// Keeps the caller's level and row blocking and widens or narrows the
    /// streaming (innermost) dimension.
    fn retiled(&self, elems: usize) -> Option<Self> {
        let w = (elems / (self.tile[0] * self.tile[1]).max(1)).clamp(1, self.extent[2].max(1));
        Some(self.with_tile([self.tile[0], self.tile[1], w]))
    }
}

/// A list keeps the caller's tiles everywhere: they are the unit of its
/// cost-prefix schedule.
impl Policy for ListPolicy {
    const KIND: PolicyKind = PolicyKind::List;
    const WORKER_RANGES: bool = true;

    fn iterations(&self) -> usize {
        self.len()
    }
    fn total_tiles(&self) -> usize {
        self.len().div_ceil(self.tile)
    }
    fn tile_iterations(&self, t: usize) -> usize {
        let (lo, hi) = self.tile_range(t);
        hi - lo
    }
    fn tile_elems(&self) -> usize {
        self.tile
    }
    /// Cost-weighted scheduling. Deterministic for a given `workers`: the
    /// ranges are disjoint, ordered and cover `0..total_tiles()` — so which
    /// worker runs a tile may change with `workers`, but tile contents and
    /// (for reductions) the tile-ordered join never do.
    fn worker_tile_range(&self, w: usize, workers: usize) -> (usize, usize) {
        let workers = workers.max(1);
        let total = self.total_tiles();
        (
            self.cost_boundary(w, workers, total),
            self.cost_boundary(w + 1, workers, total),
        )
    }
}

/// Compact index-list policy: iterate positions `start..end` of a shared
/// packed index array instead of a dense range.
///
/// The functor receives both the list position `n` (disjoint-write slot —
/// well-defined even if the list repeats an index) and the packed index
/// `indices[n]`. Tiling follows Eq. (1) over the *list length*; an optional
/// per-entry cost prefix turns the count-balanced split of Eq. (2) into a
/// cost-balanced one. The `Arc` makes cloning the policy (and slicing CSR
/// sub-ranges out of one shared array) allocation-free.
#[derive(Debug, Clone)]
pub struct ListPolicy {
    indices: Arc<Vec<u32>>,
    /// Iterated sub-range `[start, end)` of the index array (CSR slice).
    pub start: usize,
    pub end: usize,
    pub tile: usize,
    /// Exclusive prefix sum of per-entry costs over the **whole** index
    /// array (`len + 1` entries, `prefix[0] == 0`): the cost of entries
    /// `[a, b)` is `prefix[b] - prefix[a]`, O(1) per tile.
    cost_prefix: Option<Arc<Vec<u64>>>,
}

impl ListPolicy {
    /// Policy over the full index list with the default tile length.
    pub fn new(indices: Arc<Vec<u32>>) -> Self {
        let end = indices.len();
        Self {
            indices,
            start: 0,
            end,
            tile: 256,
            cost_prefix: None,
        }
    }

    /// Restrict iteration to positions `start..end` (e.g. one CSR level of
    /// a per-level 3-D wet-cell list). The cost prefix, if any, still
    /// indexes the full array.
    pub fn slice(mut self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.indices.len());
        self.start = start;
        self.end = end;
        self
    }

    /// Override the tile length.
    pub fn with_tile(mut self, tile: usize) -> Self {
        assert!(tile > 0, "tile length must be positive");
        self.tile = tile;
        self
    }

    /// Attach a per-entry cost prefix (see the `cost_prefix` field);
    /// enables cost-weighted tile scheduling on every backend.
    pub fn with_cost_prefix(mut self, prefix: Arc<Vec<u64>>) -> Self {
        assert_eq!(
            prefix.len(),
            self.indices.len() + 1,
            "cost prefix must have indices.len() + 1 entries"
        );
        self.cost_prefix = Some(prefix);
        self
    }

    /// Number of list positions iterated.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The shared packed index array.
    pub fn indices(&self) -> &Arc<Vec<u32>> {
        &self.indices
    }

    /// Packed index at list position `n`.
    #[inline]
    pub fn entry(&self, n: usize) -> u32 {
        self.indices[n]
    }

    /// List-position range of tile `t`.
    #[inline]
    pub fn tile_range(&self, t: usize) -> (usize, usize) {
        let lo = self.start + t * self.tile;
        let hi = (lo + self.tile).min(self.end);
        (lo, hi)
    }

    /// Tile `t` as [`crate::FunctorList::operator_span`] takes it: its first
    /// list position and its packed indices.
    #[inline]
    pub fn tile_entries(&self, t: usize) -> (usize, &[u32]) {
        let (lo, hi) = self.tile_range(t);
        (lo, &self.indices[lo..hi])
    }

    /// Cumulative cost of tiles `[0, t)`. Without a cost prefix every entry
    /// costs 1, so this degenerates to the entry count (Eq. 2 split).
    fn cum_cost(&self, t: usize) -> u64 {
        let hi = (self.start + t * self.tile).min(self.end);
        match &self.cost_prefix {
            Some(p) => p[hi] - p[self.start],
            None => (hi - self.start) as u64,
        }
    }

    /// Cost of tile `t` alone.
    pub fn tile_cost(&self, t: usize) -> u64 {
        self.cum_cost(t + 1) - self.cum_cost(t)
    }

    /// Total cost of the iterated range.
    pub fn total_cost(&self) -> u64 {
        self.cum_cost(self.total_tiles())
    }

    /// Cost-balanced boundary `b(w)`: the smallest tile `t` such that the
    /// cumulative cost of tiles `[0, t)` reaches fraction `w / workers` of
    /// the total. Monotone in `w`, with `b(0) = 0` and `b(workers) = total`.
    fn cost_boundary(&self, w: usize, workers: usize, total: usize) -> usize {
        if w == 0 {
            return 0;
        }
        if w >= workers {
            return total;
        }
        let total_cost = self.cum_cost(total);
        if total_cost == 0 {
            // No cost signal (all-zero weights): fall back to a count split.
            return (w * total) / workers;
        }
        // Binary search (u128 products cannot overflow: cost and counts
        // both fit in u64).
        let goal = total_cost as u128 * w as u128;
        let ww = workers as u128;
        let (mut lo, mut hi) = (0usize, total);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cum_cost(mid) as u128 * ww >= goal {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_1d() {
        let p = RangePolicy::new(1000).with_tile(64);
        assert_eq!(p.total_tiles(), 16); // ceil(1000/64)
    }

    #[test]
    fn eq1_3d_product() {
        let p = MDRangePolicy3::new([30, 218, 360]).with_tile([1, 8, 64]);
        // ceil(30/1)=30, ceil(218/8)=28, ceil(360/64)=6 → 5040
        assert_eq!(p.total_tiles(), 30 * 28 * 6);
    }

    #[test]
    fn eq2_balanced_distribution() {
        assert_eq!(tiles_per_cpe(5040, 64), 79); // ceil
        assert_eq!(tiles_per_cpe(64, 64), 1);
        assert_eq!(tiles_per_cpe(65, 64), 2);
        assert_eq!(tiles_per_cpe(0, 64), 0);
    }

    #[test]
    fn tile_ranges_cover_1d_exactly() {
        let p = RangePolicy::range(5, 103).with_tile(16);
        let mut covered = Vec::new();
        for t in 0..p.total_tiles() {
            let (lo, hi) = p.tile_range(t);
            assert!(lo < hi);
            covered.extend(lo..hi);
        }
        let expect: Vec<usize> = (5..103).collect();
        assert_eq!(covered, expect);
    }

    #[test]
    fn tile_bounds_cover_3d_exactly() {
        let p = MDRangePolicy3::new([4, 7, 9]).with_tile([2, 3, 4]);
        let mut hit = vec![0u32; 4 * 7 * 9];
        for t in 0..p.total_tiles() {
            let [(k0, k1), (j0, j1), (i0, i1)] = p.tile_bounds(t);
            for k in k0..k1 {
                for j in j0..j1 {
                    for i in i0..i1 {
                        hit[(k * 7 + j) * 9 + i] += 1;
                    }
                }
            }
        }
        assert!(hit.iter().all(|&c| c == 1));
    }

    #[test]
    fn offset_tile_bounds_cover_shifted_range_3d() {
        let p = MDRangePolicy3::new([4, 7, 9])
            .with_tile([2, 3, 4])
            .with_offset([1, 2, 3]);
        let (pk, pj, pi) = (1 + 4, 2 + 7, 3 + 9);
        let mut hit = vec![0u32; pk * pj * pi];
        for t in 0..p.total_tiles() {
            let [(k0, k1), (j0, j1), (i0, i1)] = p.tile_bounds(t);
            assert!(k0 >= 1 && k1 <= pk && j0 >= 2 && j1 <= pj && i0 >= 3 && i1 <= pi);
            for k in k0..k1 {
                for j in j0..j1 {
                    for i in i0..i1 {
                        hit[(k * pj + j) * pi + i] += 1;
                    }
                }
            }
        }
        let covered: u32 = hit.iter().sum();
        assert_eq!(covered as usize, 4 * 7 * 9);
        assert!(hit.iter().all(|&c| c <= 1));
    }

    #[test]
    #[should_panic(expected = "tile length must be positive")]
    fn zero_tile_rejected() {
        let _ = RangePolicy::new(10).with_tile(0);
    }

    fn list(n: usize, tile: usize) -> ListPolicy {
        ListPolicy::new(Arc::new((0..n as u32).rev().collect())).with_tile(tile)
    }

    #[test]
    fn list_tiles_cover_exactly() {
        let p = list(103, 16).slice(5, 99);
        assert_eq!(p.len(), 94);
        assert_eq!(p.total_tiles(), 94usize.div_ceil(16));
        let mut covered = Vec::new();
        for t in 0..p.total_tiles() {
            let (lo, hi) = p.tile_range(t);
            assert!(lo < hi);
            for n in lo..hi {
                assert_eq!(p.entry(n), (102 - n) as u32);
            }
            covered.extend(lo..hi);
        }
        assert_eq!(covered, (5..99).collect::<Vec<_>>());
    }

    #[test]
    fn list_worker_ranges_partition_tiles() {
        for workers in [1, 2, 3, 7, 64, 200] {
            let p = list(1000, 13);
            let mut next = 0;
            for w in 0..workers {
                let (lo, hi) = p.worker_tile_range(w, workers);
                assert_eq!(lo, next, "ranges contiguous at worker {w}");
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, p.total_tiles(), "ranges cover all tiles");
        }
    }

    #[test]
    fn list_cost_weighting_balances_skewed_work() {
        // 256 entries: the first 64 cost 31 each, the rest cost 1 —
        // a count split at tile=1 would give worker 0 all the heavy work.
        let n = 256;
        let costs: Vec<u64> = (0..n).map(|i| if i < 64 { 31 } else { 1 }).collect();
        let mut prefix = vec![0u64; n + 1];
        for i in 0..n {
            prefix[i + 1] = prefix[i] + costs[i];
        }
        let p = ListPolicy::new(Arc::new((0..n as u32).collect()))
            .with_tile(1)
            .with_cost_prefix(Arc::new(prefix));
        assert_eq!(p.total_cost(), 64 * 31 + 192);
        let workers = 8;
        let ideal = p.total_cost() as f64 / workers as f64;
        for w in 0..workers {
            let (lo, hi) = p.worker_tile_range(w, workers);
            let cost: u64 = (lo..hi).map(|t| p.tile_cost(t)).sum();
            assert!(
                (cost as f64) < 2.0 * ideal,
                "worker {w} got {cost} of ideal {ideal}"
            );
        }
        // Heavy half spreads across several workers, not just worker 0.
        let (_, hi0) = p.worker_tile_range(0, workers);
        assert!(hi0 < 64, "worker 0 must not own every heavy tile");
    }

    #[test]
    fn list_empty_and_zero_cost() {
        let p = ListPolicy::new(Arc::new(Vec::new()));
        assert!(p.is_empty());
        assert_eq!(p.total_tiles(), 0);
        assert_eq!(p.worker_tile_range(0, 4), (0, 0));
        // All-zero cost prefix falls back to a count split.
        let q = ListPolicy::new(Arc::new(vec![9, 3, 7, 1]))
            .with_tile(1)
            .with_cost_prefix(Arc::new(vec![0; 5]));
        let mut next = 0;
        for w in 0..2 {
            let (lo, hi) = q.worker_tile_range(w, 2);
            assert_eq!(lo, next);
            next = hi;
        }
        assert_eq!(next, 4);
    }

    #[test]
    #[should_panic(expected = "indices.len() + 1")]
    fn list_bad_prefix_rejected() {
        let _ = ListPolicy::new(Arc::new(vec![1, 2, 3])).with_cost_prefix(Arc::new(vec![0, 1]));
    }

    /// What the launch path reads of any policy: the tiles' iterations sum
    /// to the policy's, and the worker ranges are contiguous, in order and
    /// cover every tile once — for more workers than tiles too.
    fn check_policy<P: Policy>(p: &P) {
        let per_tile: usize = (0..p.total_tiles()).map(|t| p.tile_iterations(t)).sum();
        assert_eq!(per_tile, p.iterations());
        assert!((0..p.total_tiles()).all(|t| p.tile_iterations(t) <= p.tile_elems()));
        for workers in [1, 3, 8, 64, 1000] {
            let mut next = 0;
            for w in 0..workers {
                let (lo, hi) = p.worker_tile_range(w, workers);
                assert_eq!(lo, next, "worker {w} of {workers}");
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, p.total_tiles(), "{workers} workers");
        }
    }

    #[test]
    fn every_policy_tiles_and_splits_consistently() {
        check_policy(&RangePolicy::range(5, 103).with_tile(16));
        check_policy(
            &MDRangePolicy3::new([1, 7, 13])
                .with_tile([1, 3, 5])
                .with_offset([0, 2, 4]),
        );
        check_policy(&MDRangePolicy3::new([4, 7, 9]).with_tile([2, 3, 4]));
        check_policy(&list(103, 16).slice(5, 99));
        check_policy(&RangePolicy::new(0));
    }

    #[test]
    fn dense_workers_split_by_eq2_and_a_list_by_cost() {
        let p = RangePolicy::new(1000).with_tile(64); // 16 tiles
        assert_eq!(p.worker_tile_range(0, 5), (0, 4)); // ⌈16 / 5⌉ = 4 each
        assert_eq!(p.worker_tile_range(3, 5), (12, 16));
        assert_eq!(p.worker_tile_range(4, 5), (16, 16));
        // Entry 0 costs 8 of the 15: it alone is worker 0's half.
        let l = list(8, 1).with_cost_prefix(Arc::new(vec![0, 8, 9, 10, 11, 12, 13, 14, 15]));
        assert_eq!(l.worker_tile_range(0, 2), (0, 1));
        assert_eq!(l.worker_tile_range(1, 2), (1, 8));
    }

    #[test]
    fn only_dense_policies_retile_and_only_their_streaming_dimension() {
        let p2 = MDRangePolicy3::new([1, 40, 300]);
        assert_eq!(p2.retiled(1000).unwrap().tile, [1, 8, 125]);
        assert_eq!(p2.retiled(1 << 20).unwrap().tile, [1, 8, 300]);
        let p3 = MDRangePolicy3::new([5, 40, 300]).with_tile([1, 8, 64]);
        assert_eq!(p3.retiled(1000).unwrap().tile, [1, 8, 125]);
        assert_eq!(RangePolicy::new(10).retiled(0).unwrap().tile, 1);
        assert!(list(10, 4).retiled(1000).is_none());
    }

    #[test]
    fn a_tile_stages_the_rows_its_body_holds() {
        let p = MDRangePolicy3::new([5, 40, 300]).with_tile([2, 8, 64]);
        assert_eq!(p.resident_elems(None), p.tile_elems());
        assert_eq!(p.resident_elems(Some(3)), 2 * 3 * 64);
        assert_eq!(p.resident_elems(Some(20)), p.tile_elems());
        assert_eq!(list(10, 4).resident_elems(Some(3)), 4);
    }
}
