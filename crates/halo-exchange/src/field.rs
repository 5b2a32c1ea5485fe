//! What a field must tell the exchange engine — and nothing more.
//!
//! "Extending 2D halo updates point-wise in the vertical direction" (§V-D)
//! read literally: a [`View2`] is a one-level block, a [`View3`] an
//! `nz`-level one, a [`RowBand`] an `nz`-level one kept only near its south
//! and north edges, and [`crate::Pending`] runs the same protocol over
//! each. [`HaloField`] supplies the few things that differ — the block
//! extents, where its rows are stored, which rows it holds, element access
//! for the reference and fold paths, the tag offset and profiling region of
//! the field's rank, and which strips are worth a kernel launch. Everything
//! built on those (strip pack/unpack, the mirrored fold unpack, the
//! element-wise reference) is written once, below.

use kokkos_rs::{Layout, View, View2, View3};

use crate::halo2d::{FoldKind, Halo2D};
use crate::halo3d::Strategy3D;
use crate::strip::{self, Rect};
use crate::HALO;

mod sealed {
    pub trait Sealed {}
    impl Sealed for kokkos_rs::View2<f64> {}
    impl Sealed for kokkos_rs::View3<f64> {}
    impl Sealed for super::RowBand {}
}

/// A padded block the halo engine can update: [`View2<f64>`] (one level),
/// [`View3<f64>`] (`nz` levels, horizontal-major) or a [`RowBand`] (`nz`
/// levels, only the rows near the south and north edges). Sealed.
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
    /// `[levels, rows, columns]` of that storage.
    #[doc(hidden)]
    fn storage_dims(&self) -> [usize; 3] {
        self.block_dims()
    }
    /// The storage row of padded row `j`, which the field must hold.
    #[doc(hidden)]
    fn storage_row(&self, j: usize) -> usize {
        j
    }
    /// Does the field hold every padded row of `[lo, hi)`? A route whose
    /// rectangle one field of a batch does not hold stays off the wire, on
    /// the sending side and the receiving side alike.
    #[doc(hidden)]
    fn holds(&self, _lo: usize, _hi: usize) -> bool {
        true
    }
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

/// A padded `nz`-level field stored only on the [`RowBand::DEPTH`] rows at
/// its south and north edges: padded rows `[0, DEPTH)` and
/// `[pj - DEPTH, pj)`, every column. A block too short to leave rows between
/// the two is stored whole. The exchange runs only the route rectangles the
/// band holds — the south and north ghost rows, the fold rows and the
/// corners, and the owned rows they are images of — and skips the east/west
/// strips, on both sides of every message, so sender and receiver agree on
/// its layout without negotiation. Each rectangle it keeps is contiguous in
/// the band's rows.
#[derive(Clone)]
pub struct RowBand {
    data: View3<f64>,
    /// Padded rows of the whole block.
    pj: usize,
}

impl RowBand {
    /// Rows kept at each edge: the `HALO` ghost rows and the `2 · HALO`
    /// owned rows a `±HALO` stencil on the outer `HALO` owned rows reads.
    pub const DEPTH: usize = 3 * HALO;

    /// A zeroed band of the padded block `[nz, pj, pi]`.
    pub fn new(label: &str, [nz, pj, pi]: [usize; 3]) -> Self {
        let rows = (2 * Self::DEPTH).min(pj);
        Self {
            data: View::host(label, [nz, rows, pi]),
            pj,
        }
    }

    /// The stored rows: `[nz, rows, pi]`, the south rows first.
    pub fn data(&self) -> &View3<f64> {
        &self.data
    }

    /// `[nz, pj, pi]` of the whole padded block.
    pub fn dims(&self) -> [usize; 3] {
        let [nz, _, pi] = self.data.dims();
        [nz, self.pj, pi]
    }

    /// Does the band hold every padded row of `[lo, hi)`?
    pub fn holds(&self, lo: usize, hi: usize) -> bool {
        self.data.extent(1) == self.pj || hi <= Self::DEPTH || lo + Self::DEPTH >= self.pj
    }

    /// The stored row of padded row `jl`, which the band must hold.
    #[inline(always)]
    pub fn row(&self, jl: usize) -> usize {
        debug_assert!(self.holds(jl, jl + 1), "padded row {jl} is not in the band");
        if jl < Self::DEPTH {
            jl
        } else {
            jl - (self.pj - self.data.extent(1))
        }
    }
}

impl HaloField for RowBand {
    /// A band is a 3-D field and takes a 3-D field's offset.
    const TAG: u64 = 10;
    const REGION: &'static str = "halo:exchange3d";
    fn block_dims(&self) -> [usize; 3] {
        self.dims()
    }
    fn cell(&self, k: usize, j: usize, i: usize) -> f64 {
        self.data.at(k, self.row(j), i)
    }
    fn set_cell(&self, k: usize, j: usize, i: usize, v: f64) {
        self.data.set_at(k, self.row(j), i, v);
    }
    fn root_ptr(&self) -> *mut f64 {
        root_ptr(&self.data)
    }
    fn storage_dims(&self) -> [usize; 3] {
        self.data.dims()
    }
    fn storage_row(&self, j: usize) -> usize {
        self.row(j)
    }
    fn holds(&self, lo: usize, hi: usize) -> bool {
        RowBand::holds(self, lo, hi)
    }
    /// As a [`View3`]'s.
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
