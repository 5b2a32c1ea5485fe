//! Functor traits — the kernel abstraction.
//!
//! Kokkos kernels are classes with an `operator()`; the paper's Code 1
//! shows the AXPY example. We mirror that: a kernel is a struct holding
//! `View` handles (shallow copies) implementing one of the traits below.
//! `Sync` is required because the functor is shared by every thread / CPE
//! executing the launch.
//!
//! The `cost()` hook reports a per-iteration arithmetic/memory estimate
//! used by the simulated Sunway backend to charge CPE cycles and by the
//! performance model to build its kernel census. It has **no effect on
//! results**, only on simulated timing; the default is a nominal
//! stencil-ish cost.

use crate::policy::{ListPolicy, MDRangePolicy3, RangePolicy};
use crate::profiling::PatternKind;

/// Per-iteration cost estimate for simulated timing and roofline analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterCost {
    /// Double-precision FLOPs per iteration.
    pub flops: u64,
    /// Main-memory bytes touched per iteration (reads + writes).
    pub bytes: u64,
}

impl Default for IterCost {
    fn default() -> Self {
        // A generic low-intensity ocean-model kernel: ~20 flops touching
        // ~6 f64 values. Computation-to-memory ratio ≈ 0.4 flop/byte,
        // matching the paper's "very low computation-to-memory access
        // ratio" characterisation.
        Self {
            flops: 20,
            bytes: 48,
        }
    }
}

/// 1-D parallel-for body (`operator()(const int &i)` in the paper).
pub trait Functor1D: Sync {
    fn operator(&self, i: usize);

    /// Cost estimate per iteration (see [`IterCost`]).
    fn cost(&self) -> IterCost {
        IterCost::default()
    }
}

/// 3-D parallel-for body; index order `(k, j, i)`, `i` innermost. A 2-D
/// kernel is its one-level case: it ignores `k` and launches over
/// `MDRangePolicy3::new([1, ny, nx])`.
pub trait Functor3D: Sync {
    fn operator(&self, k: usize, j: usize, i: usize);

    /// Run the points of `bounds = [(k0, k1), (j0, j1), (i0, i1)]` — always
    /// one whole policy tile ([`crate::MDRangePolicy3::tile_bounds`]), never
    /// more, so tile contents, scheduling and cost charging do not depend
    /// on it. The default is the per-point loop; a kernel overrides it to
    /// walk each row in blocks of adjacent `i` and must then produce
    /// exactly what the per-point loop produces.
    #[inline]
    fn operator_tile(&self, bounds: [(usize, usize); 3]) {
        let [(k0, k1), (j0, j1), (i0, i1)] = bounds;
        for k in k0..k1 {
            for j in j0..j1 {
                for i in i0..i1 {
                    self.operator(k, j, i);
                }
            }
        }
    }

    fn cost(&self) -> IterCost {
        IterCost::default()
    }

    /// Rows of a tile the body holds at once when it walks the tile's rows
    /// as a wavefront (a ring of rows) instead of keeping the whole tile;
    /// `None`: the whole tile. A SwAthread launch sizes its LDM tiles from
    /// it.
    fn resident_rows(&self) -> Option<usize> {
        None
    }
}

/// Three bodies fused into one launch (kernel fusion). The members run
/// one after the other over each tile (per cell under the per-point
/// `operator`); with disjoint write sets and no read of another's output,
/// results are bitwise identical to three separate launches while paying
/// one dispatch. The cost is the members' sum, which is right only while
/// they share no field.
pub struct FunctorTriple<A, B, C> {
    pub a: A,
    pub b: B,
    pub c: C,
}

impl<A: Functor3D, B: Functor3D, C: Functor3D> Functor3D for FunctorTriple<A, B, C> {
    fn operator(&self, k: usize, j: usize, i: usize) {
        self.a.operator(k, j, i);
        self.b.operator(k, j, i);
        self.c.operator(k, j, i);
    }

    fn operator_tile(&self, bounds: [(usize, usize); 3]) {
        self.a.operator_tile(bounds);
        self.b.operator_tile(bounds);
        self.c.operator_tile(bounds);
    }

    fn cost(&self) -> IterCost {
        let (a, b, c) = (self.a.cost(), self.b.cost(), self.c.cost());
        IterCost {
            flops: a.flops + b.flops + c.flops,
            bytes: a.bytes + b.bytes + c.bytes,
        }
    }
}

/// Index-list parallel-for body (active-set iteration over a
/// [`crate::policy::ListPolicy`]).
///
/// `n` is the list position (the disjoint-write slot — well-defined even
/// when the list repeats an index); `idx` is the packed index stored at
/// that position (`policy.entry(n)`), which the kernel decodes into grid
/// coordinates.
pub trait FunctorList: Sync {
    fn operator(&self, n: usize, idx: u32);

    /// Run the list positions `n0..n0 + entries.len()`, whose packed
    /// indices are `entries` — always one whole policy tile, never more,
    /// so tile contents, scheduling and cost charging do not depend on it.
    /// The default is the per-entry loop; a kernel overrides it to decode
    /// once per run of consecutive packed indices or to process adjacent
    /// entries together, and must then produce exactly what the per-entry
    /// loop produces.
    #[inline]
    fn operator_span(&self, n0: usize, entries: &[u32]) {
        for (d, &idx) in entries.iter().enumerate() {
            self.operator(n0 + d, idx);
        }
    }

    fn cost(&self) -> IterCost {
        IterCost::default()
    }
}

/// Index-list reduction body; see [`FunctorList`] for the `(n, idx)` pair.
pub trait ReduceFunctorList: Sync {
    fn contribute(&self, n: usize, idx: u32, acc: &mut f64);

    /// Fold the list positions `n0..n0 + entries.len()` — one whole policy
    /// tile, as in [`FunctorList::operator_span`] — into `acc`, the tile's
    /// partial. The default is the per-entry loop; an override must leave
    /// in `acc` exactly the bits that loop leaves.
    #[inline]
    fn contribute_span(&self, n0: usize, entries: &[u32], acc: &mut f64) {
        for (d, &idx) in entries.iter().enumerate() {
            self.contribute(n0 + d, idx, acc);
        }
    }

    fn cost(&self) -> IterCost {
        IterCost::default()
    }
}

/// Launch pattern marker: a parallel for ([`TileBody`]'s `M`).
pub enum For {}
/// Launch pattern marker: a parallel reduce ([`TileBody`]'s `M`).
pub enum Reduce {}

/// A launch pattern: [`For`] or [`Reduce`].
pub trait Pattern {
    /// The profiling tag of a launch of this pattern.
    const KIND: PatternKind;
}
impl Pattern for For {
    const KIND: PatternKind = PatternKind::ParallelFor;
}
impl Pattern for Reduce {
    const KIND: PatternKind = PatternKind::ParallelReduce;
}

/// One whole tile of policy `P` under pattern `M`: the seam through which
/// the one launch path and the one CPE trampoline reach a kernel. Kernels
/// implement the traits above; one blanket impl each maps it onto its
/// policy. A for-body runs the tile and leaves `acc` alone; a reduction
/// folds the tile into `acc`, the tile's partial.
pub trait TileBody<P, M>: Sync {
    fn tile(&self, policy: &P, t: usize, acc: &mut f64);
    /// The kernel's declared [`IterCost`].
    fn tile_cost(&self) -> IterCost;
    /// [`Functor3D::resident_rows`] of a 3-D for-body; `None` for any
    /// other.
    fn resident_rows(&self) -> Option<usize> {
        None
    }
}

impl<F: Functor1D> TileBody<RangePolicy, For> for F {
    #[inline]
    fn tile(&self, policy: &RangePolicy, t: usize, _: &mut f64) {
        let (lo, hi) = policy.tile_range(t);
        for i in lo..hi {
            self.operator(i);
        }
    }
    fn tile_cost(&self) -> IterCost {
        self.cost()
    }
}

impl<F: Functor3D> TileBody<MDRangePolicy3, For> for F {
    #[inline]
    fn tile(&self, policy: &MDRangePolicy3, t: usize, _: &mut f64) {
        self.operator_tile(policy.tile_bounds(t));
    }
    fn tile_cost(&self) -> IterCost {
        self.cost()
    }
    fn resident_rows(&self) -> Option<usize> {
        Functor3D::resident_rows(self)
    }
}

impl<F: FunctorList> TileBody<ListPolicy, For> for F {
    #[inline]
    fn tile(&self, policy: &ListPolicy, t: usize, _: &mut f64) {
        let (n0, entries) = policy.tile_entries(t);
        self.operator_span(n0, entries);
    }
    fn tile_cost(&self) -> IterCost {
        self.cost()
    }
}

impl<F: ReduceFunctorList> TileBody<ListPolicy, Reduce> for F {
    #[inline]
    fn tile(&self, policy: &ListPolicy, t: usize, acc: &mut f64) {
        let (n0, entries) = policy.tile_entries(t);
        self.contribute_span(n0, entries, acc);
    }
    fn tile_cost(&self) -> IterCost {
        self.cost()
    }
}

/// Reduction combiner (Kokkos `Sum`, `Min`, `Max` reducers).
///
/// Partials are produced per policy tile and joined **in tile order** on
/// every backend, so reductions are bitwise reproducible and
/// backend-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reducer {
    Sum,
    Min,
    Max,
}

impl Reducer {
    pub fn identity(self) -> f64 {
        match self {
            Reducer::Sum => 0.0,
            Reducer::Min => f64::INFINITY,
            Reducer::Max => f64::NEG_INFINITY,
        }
    }

    pub fn join(self, a: f64, b: f64) -> f64 {
        match self {
            Reducer::Sum => a + b,
            Reducer::Min => a.min(b),
            Reducer::Max => a.max(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reducer_identities() {
        assert_eq!(Reducer::Sum.join(Reducer::Sum.identity(), 5.0), 5.0);
        assert_eq!(Reducer::Min.join(Reducer::Min.identity(), 5.0), 5.0);
        assert_eq!(Reducer::Max.join(Reducer::Max.identity(), 5.0), 5.0);
    }

    // Logs which member ran, through which entry point, over what.
    struct Member<'a>(&'static str, &'a std::sync::Mutex<Vec<String>>);
    impl Functor3D for Member<'_> {
        fn operator(&self, k: usize, j: usize, i: usize) {
            self.1
                .lock()
                .unwrap()
                .push(format!("{}({k},{j},{i})", self.0));
        }
        fn operator_tile(&self, bounds: [(usize, usize); 3]) {
            self.1.lock().unwrap().push(format!("{}{bounds:?}", self.0));
        }
    }

    #[test]
    fn triple_forwards_whole_tiles_member_by_member() {
        let log = std::sync::Mutex::new(Vec::new());
        let bounds = [(0, 1), (2, 4), (5, 9)];
        let triple = FunctorTriple {
            a: Member("a", &log),
            b: Member("b", &log),
            c: Member("c", &log),
        };
        triple.operator_tile(bounds);
        triple.operator(0, 3, 4);
        let tile = |m: &str| format!("{m}{bounds:?}");
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                tile("a"),
                tile("b"),
                tile("c"),
                "a(0,3,4)".to_string(),
                "b(0,3,4)".to_string(),
                "c(0,3,4)".to_string(),
            ]
        );
    }

    #[test]
    fn default_cost_is_memory_bound() {
        let c = IterCost::default();
        assert!((c.flops as f64) / (c.bytes as f64) < 1.0);
    }
}
