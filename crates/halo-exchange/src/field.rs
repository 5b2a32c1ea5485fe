//! What a field must tell the exchange engine — and nothing more.
//!
//! "Extending 2D halo updates point-wise in the vertical direction" (§V-D)
//! read literally: a [`View2`] is a one-level block, a [`View3`] an
//! `nz`-level one, and [`crate::Pending`] runs the same protocol over
//! either. [`HaloField`] supplies the few things that differ — the block
//! extents, element access for the reference and fold paths, the tag
//! offset and profiling region of the field's rank, and which strips are
//! worth a kernel launch. Everything built on those (strip pack/unpack,
//! the mirrored fold unpack, the element-wise reference) is written once,
//! below.

use kokkos_rs::{Layout, View, View2, View3};

use crate::halo2d::{FoldKind, Halo2D};
use crate::halo3d::Strategy3D;
use crate::strip::{self, Rect};

mod sealed {
    pub trait Sealed {}
    impl Sealed for kokkos_rs::View2<f64> {}
    impl Sealed for kokkos_rs::View3<f64> {}
}

/// A padded block the halo engine can update: [`View2<f64>`] (one level)
/// or [`View3<f64>`] (`nz` levels, horizontal-major). Sealed.
pub trait HaloField: sealed::Sealed + Clone {
    /// Added to the caller's tag base, so a 2-D and a 3-D exchange begun on
    /// the same base never match each other's messages.
    #[doc(hidden)]
    const TAG: u64;
    /// Profiling region around a blocking exchange of this rank.
    #[doc(hidden)]
    const REGION: &'static str;
    /// `[levels, padded rows, padded columns]`.
    #[doc(hidden)]
    fn block_dims(&self) -> [usize; 3];
    #[doc(hidden)]
    fn cell(&self, k: usize, j: usize, i: usize) -> f64;
    #[doc(hidden)]
    fn set_cell(&self, k: usize, j: usize, i: usize, v: f64);
    /// Start of the storage the strip kernels address by linear offset;
    /// panics unless the view is a root row-major one.
    #[doc(hidden)]
    fn root_ptr(&self) -> *mut f64;
    /// Does a strip of `elems` elements (`fold`: the fold's descending-row
    /// pack) leave the MPE as a kernel launch on `h`'s space?
    #[doc(hidden)]
    fn launches(h: &Halo2D, elems: usize, fold: bool) -> bool;
}

fn root_ptr<const R: usize>(v: &View<f64, R>) -> *mut f64 {
    assert!(
        v.is_root_view() && v.layout() == Layout::Right,
        "strip copy requires a root row-major field"
    );
    v.data_ptr()
}

impl HaloField for View2<f64> {
    const TAG: u64 = 0;
    const REGION: &'static str = "halo:exchange2d";
    fn block_dims(&self) -> [usize; 3] {
        let [pj, pi] = self.dims();
        [1, pj, pi]
    }
    fn cell(&self, _k: usize, j: usize, i: usize) -> f64 {
        self.at(j, i)
    }
    fn set_cell(&self, _k: usize, j: usize, i: usize, v: f64) {
        self.set_at(j, i, v);
    }
    fn root_ptr(&self) -> *mut f64 {
        root_ptr(self)
    }
    /// A launch costs on the order of a microsecond; one level's strip is
    /// worth it only past [`Halo2D`]'s dispatch threshold.
    fn launches(h: &Halo2D, elems: usize, _fold: bool) -> bool {
        h.dispatch_strips(elems)
    }
}

impl HaloField for View3<f64> {
    const TAG: u64 = 10;
    const REGION: &'static str = "halo:exchange3d";
    fn block_dims(&self) -> [usize; 3] {
        self.dims()
    }
    fn cell(&self, k: usize, j: usize, i: usize) -> f64 {
        self.at(k, j, i)
    }
    fn set_cell(&self, k: usize, j: usize, i: usize, v: f64) {
        self.set_at(k, j, i, v);
    }
    fn root_ptr(&self) -> *mut f64 {
        root_ptr(self)
    }
    /// Every rectangle is a kernel on the context's space (§V-D: staging
    /// runs on the CPEs) but a fold image, whose pack stays on the MPE
    /// with the mirrored unpack it feeds.
    fn launches(_h: &Halo2D, _elems: usize, fold: bool) -> bool {
        !fold
    }
}

/// Position in a strip buffer of level `k`, strip row `jj`, strip column
/// `ii`: `(k, j, i)` order for HorizontalMajor, `(j, i, k)` for Transpose.
#[inline(always)]
fn buf_index(order: Strategy3D, nz: usize, rect: &Rect, k: usize, jj: usize, ii: usize) -> usize {
    match order {
        Strategy3D::HorizontalMajor => (k * rect.nj + jj) * rect.ni + ii,
        Strategy3D::Transpose => (jj * rect.ni + ii) * nz + k,
    }
}

/// Pack `rect` of `f` into `out` — on `h`'s space or on the MPE, as
/// [`HaloField::launches`] decides.
pub(crate) fn pack<F: HaloField>(
    h: &Halo2D,
    order: Strategy3D,
    f: &F,
    rect: Rect,
    out: &mut [f64],
) {
    let on = F::launches(h, out.len(), rect.rev).then(|| h.space());
    strip::pack(on, order, f, rect, out);
}

/// Unpack `buf` into `rect` of `f`, inverse of [`pack`].
pub(crate) fn unpack<F: HaloField>(h: &Halo2D, order: Strategy3D, f: &F, rect: Rect, buf: &[f64]) {
    let on = F::launches(h, buf.len(), rect.rev).then(|| h.space());
    strip::unpack(on, order, f, rect, buf);
}

/// Fold unpack: `buf` holds an image packed as the owner's rows
/// descending from its top owned row; fill the ghost rectangle `ghost`
/// with its columns mirrored (and the sign flip of vector fields). Stays
/// on the MPE: the mirror reverses element order, so there are no
/// contiguous runs to hand a strip kernel, and only `H` ghost rows ever
/// take this path.
pub(crate) fn unpack_fold<F: HaloField>(
    order: Strategy3D,
    f: &F,
    ghost: Rect,
    buf: &[f64],
    kind: FoldKind,
) {
    let [nz, _, _] = f.block_dims();
    debug_assert_eq!(buf.len(), nz * ghost.cells());
    let sign = kind.sign();
    for jj in 0..ghost.nj {
        for ii in 0..ghost.ni {
            let il = ghost.i0 + ghost.ni - 1 - ii;
            for k in 0..nz {
                let v = buf[buf_index(order, nz, &ghost, k, jj, ii)];
                f.set_cell(k, ghost.row(jj), il, sign * v);
            }
        }
    }
}

/// Element-wise pack into a fresh vector — the allocating reference's half
/// of [`pack`], sharing nothing with the strip kernels.
pub(crate) fn pack_ref<F: HaloField>(order: Strategy3D, f: &F, rect: Rect) -> Vec<f64> {
    let [nz, _, _] = f.block_dims();
    let mut buf = vec![0.0; nz * rect.cells()];
    for k in 0..nz {
        for jj in 0..rect.nj {
            for ii in 0..rect.ni {
                buf[buf_index(order, nz, &rect, k, jj, ii)] = f.cell(k, rect.row(jj), rect.i0 + ii);
            }
        }
    }
    buf
}

/// Element-wise unpack, the reference's half of [`unpack`].
pub(crate) fn unpack_ref<F: HaloField>(order: Strategy3D, f: &F, rect: Rect, buf: &[f64]) {
    let [nz, _, _] = f.block_dims();
    assert_eq!(buf.len(), nz * rect.cells());
    for k in 0..nz {
        for jj in 0..rect.nj {
            for ii in 0..rect.ni {
                let v = buf[buf_index(order, nz, &rect, k, jj, ii)];
                f.set_cell(k, rect.row(jj), rect.i0 + ii, v);
            }
        }
    }
}
