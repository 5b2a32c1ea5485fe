//! Memcpy pack/unpack of halo strips (paper §V-D).
//!
//! A halo strip is a set of contiguous runs, not a set of elements:
//!
//! * **HorizontalMajor** — every `(k, j)` row of the strip is `ni`
//!   consecutive elements in both the field and the message buffer, so
//!   pack/unpack is a straight `copy_from_slice` per row. A 2-D field is
//!   the `nz = 1` case of this order.
//! * **Transpose** — every `(j, i)` column is `nz` consecutive elements on
//!   the buffer side (that is the point of the vertical-major ordering,
//!   Fig. 5); the field side strides by one horizontal plane per level.
//!
//! [`StripCopy`] expresses one run per iteration as a [`Functor1D`], so the
//! same copy either dispatches over a kokkos execution space — serial, the
//! rayon pool, or simulated CPEs (it is registered for the SwAthread
//! backend like every other kernel) — or stays on the calling thread, the
//! MPE path of strips too small to be worth a launch. Runs are disjoint by
//! construction, which is exactly the Kokkos concurrent-write contract.

use kokkos_rs::functor::{Functor1D, IterCost};
use kokkos_rs::parallel::parallel_for_1d;
use kokkos_rs::policy::RangePolicy;
use kokkos_rs::Space;

use crate::field::HaloField;
use crate::halo3d::Strategy3D;
use crate::HALO as H;

/// Which way a [`StripCopy`] moves data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyDir {
    /// Field → message buffer.
    Pack,
    /// Message buffer → field.
    Unpack,
}

/// A strip of a padded block: `nj` rows × `ni` columns, over every level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rect {
    pub j0: usize,
    pub nj: usize,
    pub i0: usize,
    pub ni: usize,
    /// Rows descend from `j0` (`j0`, `j0 - 1`, …) instead of ascending —
    /// the order in which the tripolar fold packs its rows.
    pub rev: bool,
}

impl Rect {
    /// Cells per level.
    pub fn cells(&self) -> usize {
        self.nj * self.ni
    }

    /// The padded rows `[lo, hi)` the strip covers.
    pub fn rows(&self) -> (usize, usize) {
        if self.rev {
            ((self.j0 + 1).saturating_sub(self.nj), self.j0 + 1)
        } else {
            (self.j0, self.j0 + self.nj)
        }
    }

    /// Field row of the strip's `jj`-th row.
    pub fn row(&self, jj: usize) -> usize {
        if self.rev {
            self.j0 - jj
        } else {
            self.j0 + jj
        }
    }
}

/// One halo-strip copy: `rect` over the `nz` levels of a `(nz, rows, pi)`
/// horizontal-major storage, against a buffer in the order given by
/// `order`.
/// Each iteration copies one contiguous run. The side being read is only
/// ever dereferenced through `*const` — the `Unpack` buffer pointer
/// originates from a shared slice and is never written.
struct StripCopy {
    field: *mut f64,
    buf: *mut f64,
    /// Elements per stored horizontal plane (`rows * pi`).
    plane: usize,
    /// Elements per field row (`pi`).
    row: usize,
    rect: Rect,
    nz: usize,
    dir: CopyDir,
    order: Strategy3D,
}

// SAFETY: the raw pointers target a live field view and a live message
// buffer for the (synchronous) duration of the launch, and every iteration
// touches a disjoint run — the standard Kokkos disjoint-writes contract.
unsafe impl Send for StripCopy {}
unsafe impl Sync for StripCopy {}

impl StripCopy {
    /// The contiguous runs come in `outer` groups of `inner`: levels ×
    /// strip rows (HorizontalMajor) or strip rows × columns (Transpose).
    fn shape(&self) -> (usize, usize) {
        match self.order {
            Strategy3D::HorizontalMajor => (self.nz, self.rect.nj),
            Strategy3D::Transpose => (self.rect.nj, self.rect.ni),
        }
    }

    /// Copy run `(o, i)` of [`StripCopy::shape`].
    #[inline(always)]
    fn run(&self, o: usize, i: usize) {
        let Rect { i0, nj, ni, .. } = self.rect;
        match self.order {
            Strategy3D::HorizontalMajor => {
                // Field row (k = o, strip row i): `ni` consecutive elements
                // on both sides.
                let foff = o * self.plane + self.rect.row(i) * self.row + i0;
                let boff = (o * nj + i) * ni;
                // SAFETY: `copy` checked the rect against the field extents
                // and the buffer length, so both `ni`-element runs are in
                // bounds; different runs are disjoint.
                unsafe {
                    let (src, dst) = match self.dir {
                        CopyDir::Pack => (self.field.add(foff) as *const f64, self.buf.add(boff)),
                        CopyDir::Unpack => (self.buf.add(boff) as *const f64, self.field.add(foff)),
                    };
                    if ni == H {
                        // An east/west strip's run: two moves, not a call.
                        dst.cast::<[f64; H]>()
                            .write_unaligned(src.cast::<[f64; H]>().read_unaligned());
                    } else {
                        std::ptr::copy_nonoverlapping(src, dst, ni);
                    }
                }
            }
            Strategy3D::Transpose => {
                // Column (strip row o, i = i0 + i): `nz` consecutive
                // elements on the buffer side, one plane apart on the
                // field side.
                let fbase = self.rect.row(o) * self.row + i0 + i;
                let boff = (o * ni + i) * self.nz;
                // SAFETY: as above — `fbase + k * plane` stays inside the
                // `nz` planes and `boff + k` inside the buffer.
                unsafe {
                    match self.dir {
                        CopyDir::Pack => {
                            for k in 0..self.nz {
                                *self.buf.add(boff + k) = *self.field.add(fbase + k * self.plane);
                            }
                        }
                        CopyDir::Unpack => {
                            for k in 0..self.nz {
                                *self.field.add(fbase + k * self.plane) = *self.buf.add(boff + k);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Copy `rect` between `f` and `buf[..buf_len]`: as one kernel launch on
/// `on`, or run by run on the calling thread (the MPE path) when `on` is
/// `None`. `rect` is in padded rows; a rectangle the field holds is
/// contiguous in its stored rows, so the copy moves its first row there.
/// Every bound the copy loops rely on is checked here.
fn copy<F: HaloField>(
    on: Option<&Space>,
    dir: CopyDir,
    order: Strategy3D,
    f: &F,
    rect: Rect,
    buf: *mut f64,
    buf_len: usize,
) {
    let [nz, pj, pi] = f.storage_dims();
    assert_eq!(buf_len, nz * rect.cells(), "strip buffer length mismatch");
    let (lo, hi) = rect.rows();
    assert!(f.holds(lo, hi), "strip out of bounds");
    debug_assert!(
        hi <= lo || f.storage_row(hi - 1) - f.storage_row(lo) == hi - 1 - lo,
        "a held strip spans a gap in the stored rows"
    );
    let rect = Rect {
        j0: f.storage_row(rect.j0),
        ..rect
    };
    if rect.rev {
        assert!(
            rect.nj <= rect.j0 + 1 && rect.j0 < pj,
            "strip out of bounds"
        );
    } else {
        assert!(rect.j0 + rect.nj <= pj, "strip out of bounds");
    }
    assert!(rect.i0 + rect.ni <= pi, "strip out of bounds");
    let func = StripCopy {
        field: f.root_ptr(),
        buf,
        plane: pj * pi,
        row: pi,
        rect,
        nz,
        dir,
        order,
    };
    let (outer, inner) = func.shape();
    match on {
        Some(space) => {
            // One tile per ~1/64th of the runs keeps every backend busy even
            // for the short-row strips (the default 256-run tile would
            // serialize them).
            let n = outer * inner;
            let tile = (n / 64).clamp(1, 256);
            parallel_for_1d(space, RangePolicy::new(n).with_tile(tile), &func);
        }
        None => (0..outer).for_each(|o| (0..inner).for_each(|i| func.run(o, i))),
    }
}

/// Pack `rect` (all levels) of `f` into `out`, in `order`.
pub(crate) fn pack<F: HaloField>(
    on: Option<&Space>,
    order: Strategy3D,
    f: &F,
    rect: Rect,
    out: &mut [f64],
) {
    let (ptr, len) = (out.as_mut_ptr(), out.len());
    copy(on, CopyDir::Pack, order, f, rect, ptr, len);
}

/// Unpack `buf` into `rect` of `f`, inverse of [`pack`]. `buf` is only
/// read (the pointer cast is an artifact of the shared functor).
pub(crate) fn unpack<F: HaloField>(
    on: Option<&Space>,
    order: Strategy3D,
    f: &F,
    rect: Rect,
    buf: &[f64],
) {
    let (ptr, len) = (buf.as_ptr() as *mut f64, buf.len());
    copy(on, CopyDir::Unpack, order, f, rect, ptr, len);
}

impl Functor1D for StripCopy {
    fn operator(&self, r: usize) {
        let (_, inner) = self.shape();
        self.run(r / inner, r % inner);
    }

    fn cost(&self) -> IterCost {
        // Pure data movement: one read + one write per element of the run.
        let run = match self.order {
            Strategy3D::HorizontalMajor => self.rect.ni,
            Strategy3D::Transpose => self.nz,
        };
        IterCost {
            flops: 0,
            bytes: 16 * run as u64,
        }
    }
}

kokkos_rs::register_for_1d!(register_strip_copy, StripCopy);

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_rs::{View, View2, View3};

    fn field(nz: usize, pj: usize, pi: usize) -> View3<f64> {
        View::from_fn("f", [nz, pj, pi], |[k, j, i]| {
            (k * 1_000_000 + j * 1000 + i) as f64 + 0.5
        })
    }

    fn rect(j0: usize, nj: usize, i0: usize, ni: usize, rev: bool) -> Rect {
        Rect {
            j0,
            nj,
            i0,
            ni,
            rev,
        }
    }

    /// Reference element-wise pack, mirroring the original implementation.
    fn pack_ref<F: HaloField>(f: &F, order: Strategy3D, r: Rect) -> Vec<f64> {
        let [nz, _, _] = f.block_dims();
        let mut buf = Vec::new();
        match order {
            Strategy3D::HorizontalMajor => {
                for k in 0..nz {
                    for jj in 0..r.nj {
                        for i in r.i0..r.i0 + r.ni {
                            buf.push(f.cell(k, r.row(jj), i));
                        }
                    }
                }
            }
            Strategy3D::Transpose => {
                for jj in 0..r.nj {
                    for i in r.i0..r.i0 + r.ni {
                        for k in 0..nz {
                            buf.push(f.cell(k, r.row(jj), i));
                        }
                    }
                }
            }
        }
        buf
    }

    fn spaces() -> [Option<Space>; 4] {
        register_strip_copy();
        [
            None,
            Some(Space::serial()),
            Some(Space::threads()),
            Some(Space::sw_athread_with(sunway_sim::CgConfig::test_small())),
        ]
    }

    #[test]
    fn pack_matches_reference_launched_and_on_the_mpe() {
        let f = field(5, 11, 13);
        for order in [Strategy3D::HorizontalMajor, Strategy3D::Transpose] {
            for on in spaces() {
                // Ascending rows, and the fold's descending ones.
                for r in [rect(2, 7, 3, 2, false), rect(8, 2, 0, 13, true)] {
                    let want = pack_ref(&f, order, r);
                    let mut got = vec![0.0; want.len()];
                    pack(on.as_ref(), order, &f, r, &mut got);
                    assert_eq!(got, want, "{order:?} {r:?} on {on:?}");
                }
            }
        }
    }

    #[test]
    fn unpack_inverts_pack() {
        for order in [Strategy3D::HorizontalMajor, Strategy3D::Transpose] {
            let src = field(4, 9, 10);
            let r = rect(1, 3, 2, 5, false);
            let mut buf = vec![0.0; 4 * r.cells()];
            pack(Some(&Space::threads()), order, &src, r, &mut buf);
            for on in spaces() {
                let dst: View3<f64> = View::host("dst", [4, 9, 10]);
                dst.fill(-1.0);
                unpack(on.as_ref(), order, &dst, r, &buf);
                for k in 0..4 {
                    for j in 0..9 {
                        for i in 0..10 {
                            let inside = (1..4).contains(&j) && (2..7).contains(&i);
                            let want = if inside { src.at(k, j, i) } else { -1.0 };
                            assert_eq!(dst.at(k, j, i), want, "{order:?} k={k} j={j} i={i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_2d_field_is_the_one_level_case() {
        let f2: View2<f64> = View::from_fn("f2", [9, 12], |[j, i]| (j * 100 + i) as f64 + 0.25);
        let f3: View3<f64> = View::from_fn("f3", [1, 9, 12], |[_, j, i]| f2.at(j, i));
        let order = Strategy3D::HorizontalMajor;
        for on in spaces() {
            for r in [rect(2, 5, 3, 2, false), rect(8, 2, 0, 12, true)] {
                let want = pack_ref(&f2, order, r);
                let mut got = vec![0.0; want.len()];
                pack(on.as_ref(), order, &f2, r, &mut got);
                assert_eq!(got, want, "pack {r:?} on {on:?}");
                let mut got3 = vec![0.0; want.len()];
                pack(on.as_ref(), order, &f3, r, &mut got3);
                assert_eq!(got3, want, "one-level 3-D pack {r:?} on {on:?}");

                let dst: View2<f64> = View::host("dst2", [9, 12]);
                dst.fill(-1.0);
                unpack(on.as_ref(), order, &dst, r, &want);
                for jj in 0..r.nj {
                    for i in r.i0..r.i0 + r.ni {
                        assert_eq!(dst.at(r.row(jj), i), f2.at(r.row(jj), i), "unpack {r:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strip out of bounds")]
    fn a_descending_strip_cannot_run_below_row_zero() {
        let f = field(2, 6, 6);
        let r = rect(1, 3, 0, 6, true);
        pack(None, Strategy3D::HorizontalMajor, &f, r, &mut vec![0.0; 36]);
    }
}
