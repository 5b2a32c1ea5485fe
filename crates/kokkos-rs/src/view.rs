//! Multi-dimensional `View`s — the Kokkos data abstraction.
//!
//! A [`View`] is a reference-counted, rank-`R` array with a runtime
//! [`Layout`] and a [`MemSpace`] tag. Like `Kokkos::View`, copies are
//! *shallow* (they alias the same allocation), element access goes through
//! `&self`, and writing from inside a parallel region is legal **iff**
//! iterations touch disjoint elements — the usual Kokkos contract, which
//! our kernels uphold and the cross-backend bitwise tests verify.
//!
//! Layout matters for the paper's 3-D halo optimization: LICOM stores
//! fields as `(k, j, i)`; [`Layout::Right`] makes `i` fastest ("horizontal
//! major order"), [`Layout::Left`] makes `k` fastest ("vertical major
//! order"). The Fig. 5 transpose kernels in `halo-exchange` convert halo
//! strips between the two.

use std::alloc::Layout as AllocLayout;
use std::sync::Arc;

use crate::memspace::MemSpace;

/// Element ordering of a `View`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// C order: the **last** index is contiguous (Kokkos `LayoutRight`).
    Right,
    /// Fortran order: the **first** index is contiguous (Kokkos `LayoutLeft`).
    Left,
}

/// Every view's storage starts on a 64-byte line, as Kokkos allocates it:
/// a lane block, a DMA tile or a halo strip never straddles a line
/// boundary because of where the heap happened to put the field.
pub const ALIGN: usize = 64;

/// One allocation of `len` elements on an [`ALIGN`]-byte line, owned by
/// the views that share it. The bytes come from `std::alloc` with a layout
/// of that alignment and go back with the same layout, and every element
/// is written with `T::default()` before any view can see it — one pass
/// the same whatever the heap held there before (a fresh mapping, a reused
/// chunk or trimmed pages), where `calloc` skipped it on fresh pages and
/// paid it on reused ones.
struct ViewBuf<T> {
    ptr: *mut T,
    len: usize,
    layout: AllocLayout,
}

impl<T: Clone + Default> ViewBuf<T> {
    fn new(len: usize) -> Self {
        let layout = AllocLayout::array::<T>(len)
            .and_then(|l| l.align_to(ALIGN))
            .unwrap_or_else(|_| panic!("a view of {len} elements overflows the address space"));
        let ptr = if layout.size() == 0 {
            // Nothing to allocate: any non-null address of the layout's
            // alignment is a valid base for zero-sized accesses.
            std::ptr::without_provenance_mut(layout.align())
        } else {
            // SAFETY: the layout's size is non-zero (checked above).
            let p = unsafe { std::alloc::alloc(layout) }.cast::<T>();
            if p.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            p
        };
        let fill = T::default();
        for i in 0..len {
            // SAFETY: `i < len`, so the slot lies inside the allocation
            // (or is a zero-sized slot at an aligned address); it is
            // uninitialised, so `write` drops nothing.
            unsafe { ptr.add(i).write(fill.clone()) }
        }
        Self { ptr, len, layout }
    }
}

impl<T> Drop for ViewBuf<T> {
    fn drop(&mut self) {
        // SAFETY: the last handle is gone, so nothing reads the `len`
        // elements `new` initialised; they are dropped once, then the
        // block goes back to the allocator with the layout it came with.
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(self.ptr, self.len));
            if self.layout.size() != 0 {
                std::alloc::dealloc(self.ptr.cast(), self.layout);
            }
        }
    }
}

// SAFETY: Views follow the Kokkos aliasing model — concurrent mutation is
// only performed by parallel kernels over provably disjoint index sets
// (each linear index written by at most one iteration). All bulk accessors
// that could observe torn state are documented with that precondition.
// The block itself is owned by the `Arc` around the buffer and freed on
// whichever thread drops the last handle, which `T: Send` allows.
unsafe impl<T: Send + Sync> Sync for ViewBuf<T> {}
unsafe impl<T: Send + Sync> Send for ViewBuf<T> {}

/// A rank-`R` multi-dimensional array with shared ownership.
pub struct View<T, const R: usize> {
    /// Keeps the allocation alive; element access goes through `base`.
    buf: Arc<ViewBuf<T>>,
    /// The address of element 0 (inside the allocation for a subview),
    /// cached so `at`/`set_at` are one add and one load/store: re-deriving
    /// it through the `Arc` after every store kept LLVM from
    /// hoisting bases out of inlined kernel loops.
    base: *mut T,
    dims: [usize; R],
    strides: [usize; R],
    layout: Layout,
    space: MemSpace,
    label: Arc<str>,
    /// Whether this view is its allocation, from the start with the
    /// canonical strides of its layout — false for every subview, whatever
    /// its offset.
    root: bool,
}

// SAFETY: `base` points into the block owned by `buf`, which this handle
// keeps alive and which never moves or reallocates (it is allocated once in
// `ViewBuf::new` and freed only when the last handle drops), so the pointer
// is valid on any thread for the handle's lifetime. Sharing or
// sending a handle exposes exactly what `Arc<ViewBuf<T>>` already exposes —
// `&T`/`T` on other threads, hence the `T: Send + Sync` bounds — and
// concurrent mutation follows the Kokkos aliasing contract stated on
// `ViewBuf`. The remaining fields (`dims`, `strides`, `layout`, `space`,
// `root`, `label: Arc<str>`) are plain `Send + Sync` data.
unsafe impl<T: Send + Sync, const R: usize> Send for View<T, R> {}
unsafe impl<T: Send + Sync, const R: usize> Sync for View<T, R> {}

/// Rank aliases matching Kokkos spelling (`View1<f64>` ~ `View<double*>`).
pub type View1<T> = View<T, 1>;
pub type View2<T> = View<T, 2>;
pub type View3<T> = View<T, 3>;

impl<T, const R: usize> Clone for View<T, R> {
    /// Shallow copy: aliases the same allocation, as in Kokkos.
    fn clone(&self) -> Self {
        Self {
            buf: Arc::clone(&self.buf),
            base: self.base,
            dims: self.dims,
            strides: self.strides,
            layout: self.layout,
            space: self.space,
            label: Arc::clone(&self.label),
            root: self.root,
        }
    }
}

fn strides_for(dims: &[usize], layout: Layout) -> Vec<usize> {
    let r = dims.len();
    let mut strides = vec![0usize; r];
    match layout {
        Layout::Right => {
            let mut s = 1;
            for d in (0..r).rev() {
                strides[d] = s;
                s *= dims[d];
            }
        }
        Layout::Left => {
            let mut s = 1;
            for d in 0..r {
                strides[d] = s;
                s *= dims[d];
            }
        }
    }
    strides
}

impl<T: Clone + Default + Send + Sync, const R: usize> View<T, R> {
    /// Allocate a zero-initialised (`T::default()`) view whose element 0
    /// starts on an [`ALIGN`]-byte line.
    pub fn new(label: &str, dims: [usize; R], layout: Layout, space: MemSpace) -> Self {
        let len: usize = dims.iter().product();
        let mut strides = [0usize; R];
        strides.copy_from_slice(&strides_for(&dims, layout));
        let buf = Arc::new(ViewBuf::new(len));
        let base = buf.ptr;
        Self {
            buf,
            base,
            dims,
            strides,
            layout,
            space,
            label: Arc::from(label),
            root: true,
        }
    }

    /// Host view with default (`Right`) layout — the common case.
    pub fn host(label: &str, dims: [usize; R]) -> Self {
        Self::new(label, dims, Layout::Right, MemSpace::Host)
    }

    /// A new view with the same shape/layout in `space` (Kokkos
    /// `create_mirror_view`), contents zero-initialised.
    pub fn mirror(&self, space: MemSpace) -> Self {
        Self::new(&self.label, self.dims, self.layout, space)
    }
}

impl<T, const R: usize> View<T, R> {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when any extent is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extents per rank.
    pub fn dims(&self) -> [usize; R] {
        self.dims
    }

    /// Extent of rank `d`.
    pub fn extent(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// Element layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Memory space tag.
    pub fn space(&self) -> MemSpace {
        self.space
    }

    /// Debug label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Linear offset of a logical index.
    #[inline(always)]
    pub fn offset(&self, idx: [usize; R]) -> usize {
        let mut off = 0;
        for d in 0..R {
            debug_assert!(
                idx[d] < self.dims[d],
                "index {:?} out of bounds {:?} in view '{}'",
                idx,
                self.dims,
                self.label
            );
            off += idx[d] * self.strides[d];
        }
        off
    }

    #[inline(always)]
    fn ptr(&self) -> *mut T {
        self.base
    }

    /// True when this view addresses its allocation from the start with
    /// the canonical strides of its layout, i.e. is not a subview — a level
    /// slice is not root even at level 0, where it starts at the allocation.
    pub fn is_root_view(&self) -> bool {
        self.root
    }

    /// Read the whole allocation as a slice **in storage order**.
    ///
    /// Precondition (Kokkos model): no kernel is concurrently writing.
    /// Only meaningful for root views whose elements are contiguous;
    /// subviews with gaps would expose unrelated storage.
    pub fn as_slice(&self) -> &[T] {
        assert!(self.is_root_view(), "as_slice on subview '{}'", self.label);
        // SAFETY: a root view's `len()` elements are its whole allocation,
        // which the shared buffer keeps alive as long as `self`. The caller
        // owes the precondition above: no kernel writes the view while the
        // slice lives, so nothing mutates what the slice reads.
        unsafe { std::slice::from_raw_parts(self.ptr(), self.len()) }
    }

    /// Raw pointer to the first element (storage order), for bulk-copy
    /// kernels (halo pack/unpack) that carve out provably disjoint
    /// sub-slices. Callers must uphold the Kokkos aliasing contract:
    /// concurrent accesses through this pointer target disjoint elements,
    /// and the pointer is not used past the view's lifetime.
    pub fn data_ptr(&self) -> *mut T {
        self.ptr()
    }
}

impl<T: Copy, const R: usize> View<T, R> {
    /// Read element at `idx`.
    #[inline(always)]
    pub fn get(&self, idx: [usize; R]) -> T {
        let off = self.offset(idx);
        // SAFETY: the caller keeps `idx` inside `dims` — `offset` only
        // checks it in debug builds — so `off` lies in the allocation the
        // buffer keeps alive; a concurrent writer of the same element would
        // break the Kokkos contract, not this read.
        unsafe { *self.ptr().add(off) }
    }

    /// Write element at `idx`. Goes through `&self` per the Kokkos model;
    /// concurrent writers must target disjoint elements.
    #[inline(always)]
    pub fn set(&self, idx: [usize; R], v: T) {
        let off = self.offset(idx);
        // SAFETY: as in `get`, `idx` is in bounds by the caller's contract;
        // concurrent writers target disjoint elements (the Kokkos model),
        // so no other access races this store.
        unsafe { *self.ptr().add(off) = v }
    }

    /// Read element at a raw linear (storage-order) offset.
    #[inline(always)]
    pub fn get_linear(&self, off: usize) -> T {
        debug_assert!(off < self.len());
        // SAFETY: the caller keeps `off` inside the view's storage — for a
        // root view `off < len()`, checked in debug builds only — which the
        // buffer keeps alive as long as `self`.
        unsafe { *self.ptr().add(off) }
    }

    /// Write element at a raw linear (storage-order) offset.
    #[inline(always)]
    pub fn set_linear(&self, off: usize, v: T) {
        debug_assert!(off < self.len());
        // SAFETY: as in `get_linear` for the bound; concurrent writers
        // target disjoint offsets (the Kokkos model).
        unsafe { *self.ptr().add(off) = v }
    }

    /// Lane access needs the last index contiguous ([`Layout::Right`], or
    /// rank 1). A cold check, not a fallback: a strided path merged into
    /// the same code keeps the compiler from forming vector loads.
    #[inline(always)]
    fn lanes_ptr<const W: usize>(&self, idx: [usize; R]) -> *mut [T; W] {
        assert!(
            self.strides[R - 1] == 1,
            "lane access to view '{}' needs a contiguous last index",
            self.label
        );
        debug_assert!(idx[R - 1] + W <= self.dims[R - 1], "lanes run off the row");
        // SAFETY: `idx` is in bounds (caller contract, as for `get`), so the
        // offset stays inside the allocation.
        unsafe { self.ptr().add(self.offset(idx)).cast() }
    }

    /// Read the `W` elements at `idx`, `idx + 1`, … along the **last**
    /// index as one contiguous load — the lane load of a `W`-wide kernel
    /// body. Panics unless the last index is the layout's fastest. Bounds
    /// (`idx[R-1] + W ≤ extent`) are the caller's, as for [`View::get`].
    #[inline(always)]
    pub fn get_lanes<const W: usize>(&self, idx: [usize; R]) -> [T; W] {
        // SAFETY: the `W` lanes are in bounds (caller contract, checked in
        // debug builds) and contiguous (checked by `lanes_ptr`).
        unsafe { self.lanes_ptr::<W>(idx).read_unaligned() }
    }

    /// Write `W` elements along the last index starting at `idx`; the
    /// store counterpart of [`View::get_lanes`]. Concurrent writers must
    /// target disjoint elements.
    #[inline(always)]
    pub fn set_lanes<const W: usize>(&self, idx: [usize; R], v: [T; W]) {
        // SAFETY: as in `get_lanes`.
        unsafe { self.lanes_ptr::<W>(idx).write_unaligned(v) }
    }

    /// Fill every element with `v` (single-threaded, one `slice::fill`).
    /// Root views only, and — as for [`View::as_slice`] — no kernel may be
    /// touching the view meanwhile.
    pub fn fill(&self, v: T) {
        assert!(self.is_root_view(), "fill on subview '{}'", self.label);
        // SAFETY: a root view's `len()` elements are its whole allocation,
        // contiguous from `ptr()`; the caller holds off concurrent access.
        unsafe { std::slice::from_raw_parts_mut(self.ptr(), self.len()) }.fill(v)
    }

    /// Overwrite the allocation from a storage-order slice (one `memmove`,
    /// so `src` may be another handle's slice of this same storage).
    /// Root views only.
    pub fn copy_from_slice(&self, src: &[T]) {
        assert_eq!(src.len(), self.len(), "copy_from_slice length mismatch");
        assert!(
            self.is_root_view(),
            "copy_from_slice on subview '{}'",
            self.label
        );
        // SAFETY: as in `fill`, and `src` holds exactly `len()` readable
        // elements (asserted above); `ptr::copy` tolerates overlap.
        unsafe { std::ptr::copy(src.as_ptr(), self.ptr(), self.len()) }
    }

    /// Snapshot the allocation into a `Vec` in storage order.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

// Ergonomic per-rank accessors.
impl<T: Copy> View<T, 1> {
    #[inline(always)]
    pub fn at(&self, i: usize) -> T {
        self.get([i])
    }
    #[inline(always)]
    pub fn set_at(&self, i: usize, v: T) {
        self.set([i], v)
    }
}

impl<T: Copy> View<T, 2> {
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> T {
        self.get([i, j])
    }
    #[inline(always)]
    pub fn set_at(&self, i: usize, j: usize, v: T) {
        self.set([i, j], v)
    }
}

impl<T: Copy> View<T, 3> {
    #[inline(always)]
    pub fn at(&self, k: usize, j: usize, i: usize) -> T {
        self.get([k, j, i])
    }
    #[inline(always)]
    pub fn set_at(&self, k: usize, j: usize, i: usize, v: T) {
        self.set([k, j, i], v)
    }
}

/// Logical deep copy `src → dst` (Kokkos `deep_copy`).
///
/// Shapes must match; layouts may differ. The copy is index-wise, with a
/// `memcpy` fast path when both views are root views of one layout (a
/// subview's storage order is not its logical order). The attached
/// profiling tool sees both spaces and the bytes of every copy.
pub fn deep_copy<T: Copy + Send + Sync, const R: usize>(dst: &View<T, R>, src: &View<T, R>) {
    assert_eq!(dst.dims(), src.dims(), "deep_copy shape mismatch");
    let bytes = std::mem::size_of::<T>() * src.len();
    let _span = crate::profiling::begin_deep_copy(&crate::profiling::DeepCopyInfo {
        dst_label: dst.label(),
        src_label: src.label(),
        dst_space: dst.space(),
        src_space: src.space(),
        bytes: bytes as u64,
    });
    if dst.layout() == src.layout() && dst.is_root_view() && src.is_root_view() {
        dst.copy_from_slice(src.as_slice());
        return;
    }
    // Layout conversion or subview: iterate logical indices.
    let dims = src.dims();
    let len = src.len();
    let mut idx = [0usize; R];
    for _ in 0..len {
        dst.set(idx, src.get(idx));
        // odometer increment, last rank fastest
        for d in (0..R).rev() {
            idx[d] += 1;
            if idx[d] < dims[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_right_last_index_contiguous() {
        let v: View2<f64> = View::new("a", [3, 4], Layout::Right, MemSpace::Host);
        assert_eq!(v.offset([0, 0]), 0);
        assert_eq!(v.offset([0, 1]), 1);
        assert_eq!(v.offset([1, 0]), 4);
    }

    #[test]
    fn layout_left_first_index_contiguous() {
        let v: View2<f64> = View::new("a", [3, 4], Layout::Left, MemSpace::Host);
        assert_eq!(v.offset([1, 0]), 1);
        assert_eq!(v.offset([0, 1]), 3);
    }

    #[test]
    fn set_get_roundtrip_3d() {
        let v: View3<f64> = View::host("t", [2, 3, 4]);
        for k in 0..2 {
            for j in 0..3 {
                for i in 0..4 {
                    v.set_at(k, j, i, (k * 100 + j * 10 + i) as f64);
                }
            }
        }
        assert_eq!(v.at(1, 2, 3), 123.0);
        assert_eq!(v.at(0, 0, 0), 0.0);
        assert_eq!(v.len(), 24);
    }

    #[test]
    fn clones_alias_the_same_storage() {
        let a: View1<f64> = View::host("x", [10]);
        let b = a.clone();
        a.set_at(3, 7.5);
        assert_eq!(b.at(3), 7.5);
    }

    #[test]
    fn deep_copy_same_layout() {
        let a: View2<f64> = View::host("a", [5, 5]);
        let b: View2<f64> = View::host("b", [5, 5]);
        for i in 0..25 {
            a.set_linear(i, i as f64);
        }
        deep_copy(&b, &a);
        assert_eq!(b.to_vec(), a.to_vec());
    }

    #[test]
    fn deep_copy_converts_layout() {
        let a: View2<f64> = View::new("a", [2, 3], Layout::Right, MemSpace::Host);
        let b: View2<f64> = View::new("b", [2, 3], Layout::Left, MemSpace::Host);
        for i in 0..2 {
            for j in 0..3 {
                a.set_at(i, j, (10 * i + j) as f64);
            }
        }
        deep_copy(&b, &a);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(b.at(i, j), (10 * i + j) as f64, "logical equality");
            }
        }
        // but the storage order differs
        assert_ne!(a.to_vec(), b.to_vec());
    }

    #[test]
    #[should_panic(expected = "deep_copy shape mismatch")]
    fn deep_copy_rejects_shape_mismatch() {
        let a: View1<f64> = View::host("a", [3]);
        let b: View1<f64> = View::host("b", [4]);
        deep_copy(&b, &a);
    }

    #[test]
    fn fill_and_to_vec() {
        let v: View1<i32> = View::host("v", [4]);
        v.fill(9);
        assert_eq!(v.to_vec(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn mirror_preserves_shape_and_layout() {
        let a: View3<f64> = View::new("a", [2, 3, 4], Layout::Left, MemSpace::Host);
        let d = a.mirror(MemSpace::Device);
        assert_eq!(d.dims(), [2, 3, 4]);
        assert_eq!(d.layout(), Layout::Left);
        assert_eq!(d.space(), MemSpace::Device);
        assert_eq!(d.label(), "a");
    }

    #[test]
    fn concurrent_disjoint_writes_are_consistent() {
        // The Kokkos aliasing model in action: many threads, disjoint indices.
        let v: View1<u64> = View::host("p", [10_000]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let v = v.clone();
                s.spawn(move || {
                    let mut i = t;
                    while i < 10_000 {
                        v.set_at(i, i as u64 * 2);
                        i += 4;
                    }
                });
            }
        });
        for i in 0..10_000 {
            assert_eq!(v.at(i), i as u64 * 2);
        }
    }
}

/// A borrowed lower-rank slice of a `View` (Kokkos `subview` with one
/// index fixed). Shares storage with the parent; reads/writes are live.
impl<T: Copy + Send + Sync> View<T, 3> {
    /// The rank-2 slice at level `k` (shares storage with `self`).
    pub fn level(&self, k: usize) -> View<T, 2> {
        assert!(k < self.dims[0], "level {k} out of {}", self.dims[0]);
        // A level is a rank-2 view with the parent's (j, i) strides in
        // either layout: contiguous under Right, where k is the slowest
        // index, strided under Left, where it is the fastest.
        let dims = [self.dims[1], self.dims[2]];
        let strides = [self.strides[1], self.strides[2]];
        let offset = k * self.strides[0];
        View {
            buf: Arc::clone(&self.buf),
            // SAFETY: `k < dims[0]` (asserted above), so the level's first
            // element lies inside the parent's extent of the allocation.
            base: unsafe { self.base.add(offset) },
            dims,
            strides,
            layout: self.layout,
            space: self.space,
            label: Arc::from(format!("{}[k={k}]", self.label)),
            root: false,
        }
    }
}

impl<T: Clone + Default + Send + Sync, const R: usize> View<T, R> {
    /// Allocate and initialise from a function of the logical index.
    pub fn from_fn(label: &str, dims: [usize; R], f: impl Fn([usize; R]) -> T) -> Self
    where
        T: Copy,
    {
        let v = Self::host(label, dims);
        let len = v.len();
        let mut idx = [0usize; R];
        for _ in 0..len {
            v.set(idx, f(idx));
            for d in (0..R).rev() {
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        v
    }
}

#[cfg(test)]
mod subview_tests {
    use super::*;

    #[test]
    fn level_slice_shares_storage() {
        let v: View3<f64> = View::host("v", [3, 4, 5]);
        for k in 0..3 {
            for j in 0..4 {
                for i in 0..5 {
                    v.set_at(k, j, i, (k * 100 + j * 10 + i) as f64);
                }
            }
        }
        let s = v.level(1);
        assert_eq!(s.dims(), [4, 5]);
        assert_eq!(s.at(2, 3), 123.0);
        s.set_at(0, 0, -7.0);
        assert_eq!(v.at(1, 0, 0), -7.0, "writes through the slice are live");
    }

    #[test]
    fn level_slice_layout_left() {
        let v: View3<f64> = View::new("v", [3, 4, 5], Layout::Left, MemSpace::Host);
        v.set_at(2, 1, 4, 9.5);
        let s = v.level(2);
        assert_eq!(s.at(1, 4), 9.5);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn level_out_of_range_panics() {
        let v: View3<f64> = View::host("v", [2, 2, 2]);
        let _ = v.level(2);
    }

    /// `get_linear`'s bound is the caller's; debug builds check it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "off < self.len()")]
    fn an_out_of_range_linear_read_panics_in_debug_builds() {
        let v: View3<f64> = View::host("v", [2, 2, 2]);
        let _ = v.get_linear(8);
    }

    #[test]
    fn slices_and_clones_alias_through_the_cached_pointer() {
        let v: View3<f64> = View::host("v", [3, 4, 5]);
        let s = v.clone().level(2);
        let s2 = s.clone();
        assert!(!s.is_root_view());
        assert_eq!(s.data_ptr(), unsafe { v.data_ptr().add(2 * 4 * 5) });
        assert_eq!(s2.data_ptr(), s.data_ptr(), "clone copies the pointer");
        v.set_at(2, 1, 3, 4.5);
        assert_eq!(s2.at(1, 3), 4.5, "parent write seen by a cloned slice");
        s2.set_at(3, 4, -1.0);
        assert_eq!(v.at(2, 3, 4), -1.0, "slice-clone write seen by parent");
        assert_eq!(v.get_linear(v.offset([2, 3, 4])), -1.0);
        // The slice keeps the allocation alive on its own.
        drop(v);
        drop(s);
        assert_eq!(s2.at(1, 3), 4.5);
    }

    #[test]
    fn lanes_run_along_the_last_index() {
        let v: View3<f64> =
            View::from_fn("v", [2, 3, 7], |[k, j, i]| (k * 100 + j * 10 + i) as f64);
        assert_eq!(v.get_lanes::<4>([1, 2, 3]), [123.0, 124.0, 125.0, 126.0]);
        v.set_lanes([0, 1, 2], [-1.0, -2.0, -3.0]);
        assert_eq!(
            v.get_lanes::<5>([0, 1, 1]),
            [11.0, -1.0, -2.0, -3.0, 15.0],
            "exactly the three lanes written"
        );
        assert_eq!(v.level(1).get_lanes::<2>([2, 5]), [125.0, 126.0]);
        let m: View2<i32> = View::from_fn("m", [2, 4], |[j, i]| (10 * j + i) as i32);
        assert_eq!(m.get_lanes::<1>([1, 3]), [13]);
    }

    #[test]
    #[should_panic(expected = "contiguous last index")]
    fn lanes_reject_a_strided_last_index() {
        let v: View2<f64> = View::new("left", [3, 4], Layout::Left, MemSpace::Host);
        let _ = v.get_lanes::<2>([0, 0]);
    }

    #[test]
    fn views_are_send_and_sync() {
        fn assert_send_sync<X: Send + Sync>() {}
        assert_send_sync::<View1<f64>>();
        assert_send_sync::<View3<f64>>();
        assert_send_sync::<View2<i32>>();
    }

    #[test]
    fn from_fn_initialises_by_logical_index() {
        let v: View2<f64> = View::from_fn("f", [3, 4], |[j, i]| (10 * j + i) as f64);
        assert_eq!(v.at(2, 3), 23.0);
        let l: View2<f64> = View::new("l", [3, 4], Layout::Left, MemSpace::Host);
        deep_copy(&l, &v);
        assert_eq!(l.at(2, 3), 23.0);
    }

    #[test]
    fn fill_and_copy_cover_the_whole_allocation() {
        let a: View3<f64> =
            View::from_fn("a", [2, 3, 5], |[k, j, i]| (k * 100 + j * 10 + i) as f64);
        let b: View3<f64> = View::host("b", [2, 3, 5]);
        b.fill(f64::NAN);
        assert!(b.as_slice().iter().all(|x| x.is_nan()));
        b.copy_from_slice(a.as_slice());
        assert_eq!(b.as_slice(), a.as_slice());
        // A second handle's slice of the same storage is a legal source.
        b.clone().copy_from_slice(b.as_slice());
        assert_eq!(b.at(1, 2, 4), 124.0);
    }

    #[test]
    #[should_panic(expected = "fill on subview")]
    fn fill_rejects_a_subview() {
        let v: View3<f64> = View::host("v", [3, 4, 5]);
        v.level(1).fill(1.0);
    }

    #[test]
    #[should_panic(expected = "fill on subview")]
    fn fill_rejects_level_zero_of_a_left_view() {
        // Under Left layout level 0 starts at the allocation but is strided:
        // a whole-allocation fill would write the other levels' cells.
        let v: View3<f64> = View::new("v", [3, 4, 5], Layout::Left, MemSpace::Host);
        v.level(0).fill(1.0);
    }

    #[test]
    fn deep_copy_of_a_level_copies_that_level() {
        for layout in [Layout::Left, Layout::Right] {
            let v: View3<f64> = View::new("v", [3, 4, 5], layout, MemSpace::Host);
            for k in 0..3 {
                for j in 0..4 {
                    for i in 0..5 {
                        v.set_at(k, j, i, (k * 100 + j * 10 + i) as f64);
                    }
                }
            }
            let dst: View2<f64> = View::new("dst", [4, 5], layout, MemSpace::Host);
            deep_copy(&dst, &v.level(0));
            for j in 0..4 {
                for i in 0..5 {
                    assert_eq!(dst.at(j, i), v.at(0, j, i), "{layout:?} ({j},{i})");
                }
            }
            assert!(!v.level(0).is_root_view(), "{layout:?}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_slice_rejects_a_wrong_length() {
        let v: View1<f64> = View::host("v", [4]);
        v.copy_from_slice(&[1.0; 5]);
    }

    /// Every root view starts on a line, whatever its element type and
    /// length (none included), and reads as defaults; a level of it starts
    /// wherever its offset puts it.
    #[test]
    fn root_views_start_on_a_line_and_read_defaults() {
        fn check<T: Copy + Default + PartialEq + std::fmt::Debug + Send + Sync>(len: usize) {
            let v: View1<T> = View::host("a", [len]);
            assert_eq!(
                v.data_ptr() as usize % ALIGN,
                0,
                "{len} x {}",
                std::any::type_name::<T>()
            );
            assert!(v.as_slice().iter().all(|x| *x == T::default()));
        }
        for len in [0, 1, 3, 7, 8, 9, 100, 4097] {
            check::<f64>(len);
            check::<f32>(len);
            check::<i32>(len);
            check::<u64>(len);
        }
        let v: View3<f64> = View::host("v", [2, 3, 5]);
        assert_eq!(v.level(1).data_ptr() as usize % ALIGN, 15 * 8 % ALIGN);
    }

    #[test]
    fn f32_views_work() {
        let v: View1<f32> = View::host("v32", [8]);
        v.fill(0.5f32);
        assert_eq!(v.at(3), 0.5f32);
    }
}
