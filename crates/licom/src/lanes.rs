//! Lane blocks: the in-tree `f64xN` the column and row kernels are written
//! over.
//!
//! A per-column kernel (the column passes' advection and tridiagonal
//! solves, canuto closure, continuity) is a chain of dependent divides walked down one
//! `(jl, il)` at a time; the host cannot overlap anything inside it. The
//! same arithmetic over `W` columns adjacent in `i` is `W` independent
//! chains on contiguous memory, which the compiler keeps in flight
//! together. So each column kernel has **one body, generic over
//! `const W: usize`**: [`F64x<W>`] values carry one number per column, every
//! operator applies the scalar IEEE operation lane by lane in the order the
//! scalar code would (no FMA, no reassociation — results are bitwise those
//! of `W = 1`), and ragged depths are handled by [`Mask`] selects and
//! masked stores instead of branches.
//!
//! Every walker cuts a run the same way, a **ladder**: [`LANES`]-wide
//! blocks while a whole one fits, then at most one block each of 4, 2 and 1
//! lanes — the remainder's binary digits, widest first. A run of 15 is
//! `8 + 4 + 2 + 1`: four blocks, where a scalar tail would be eight. On the
//! small per-rank blocks of a strong-scaled run a third of the wet cells sit
//! in such remainders (EXPERIMENTS.md "The ladder"). Each width is the same
//! generic body, so every block leaves the bits of `W = 1`.
//!
//! [`run_span`] feeds such a body from a `ListPolicy` tile: maximal runs of
//! consecutive packed indices, each block announced one ahead to
//! [`ColumnKernel::prefetch`] (the levels of a column block sit on a page
//! each, which no hardware prefetcher follows for long). [`run_column`] is
//! the per-entry path.
//!
//! The dense horizontal kernels (the advection x/y passes, the barotropic
//! substep, the Asselin stream) are the same idea turned
//! sideways: a [`RowKernel`] body updates `W` points adjacent in `i` of one
//! row, [`run_tile`] walks an MDRange policy tile with it
//! (`lane_blocks!` is the ladder itself, for bodies that stage through
//! scratch between two sweeps of a row), and the
//! per-point `operator` is the `W = 1` instantiation. The momentum pass
//! walks its list tile level by level, each run of velocity columns in
//! [`lane_blocks!`] at every level, and its tendency takes its free-slip
//! neighbours from [`wet_around`] / [`free_slip`], as the tracer pass's
//! diffusion does per level of a column block.
//! `LANES` is a constant, not an option; how many of those lanes a register
//! holds is the host's business ([`Isa`]).

use std::cell::RefCell;
use std::ops::{Add, Div, Mul, Neg, Sub};

use kokkos_rs::{View2, View3};

/// Columns per block on the span path (a 64-byte row of `f64`).
pub const LANES: usize = 8;

/// Deepest supported column. A column pass keeps one column's work rows,
/// at most `(9 · nz + 4)` words (the new level's pass: two coefficient rows
/// and the tracer chain's), which at this depth is 18 kB — inside the ¼-LDM
/// stream budget of a CPE; the 244-level full-depth configuration fits. Checked once where
/// the grid is built
/// ([`crate::localgrid::LocalGrid::build`]).
pub const MAX_NZ: usize = 256;

/// `W` doubles, one per column of a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64x<const W: usize>(pub [f64; W]);

/// `W` lane predicates, each all-ones or all-zeros — the form a packed
/// compare produces and a bit blend consumes, so selects compile to
/// `and`/`andnot`/`or` instead of a branch per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask<const W: usize>([u64; W]);

impl<const W: usize> F64x<W> {
    #[inline(always)]
    pub fn splat(x: f64) -> Self {
        Self([x; W])
    }

    #[inline(always)]
    pub fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        let mut out = [0.0; W];
        for (l, o) in out.iter_mut().enumerate() {
            *o = f(l);
        }
        Self(out)
    }

    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Self::from_fn(|l| f(self.0[l], o.0[l]))
    }

    #[inline(always)]
    pub fn abs(self) -> Self {
        Self::from_fn(|l| self.0[l].abs())
    }

    /// Lane-wise [`f64::sqrt`] (correctly rounded, so bitwise the scalar call).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        Self::from_fn(|l| self.0[l].sqrt())
    }

    /// Lane-wise [`f64::min`] (same NaN behaviour as the scalar call).
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        self.zip(o, f64::min)
    }

    /// Lane-wise [`f64::max`].
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        self.zip(o, f64::max)
    }

    #[inline(always)]
    pub fn lt(self, o: Self) -> Mask<W> {
        Mask::from_fn(|l| self.0[l] < o.0[l])
    }

    #[inline(always)]
    pub fn ge(self, o: Self) -> Mask<W> {
        Mask::from_fn(|l| self.0[l] >= o.0[l])
    }

    #[inline(always)]
    pub fn is_finite(self) -> Mask<W> {
        Mask::from_fn(|l| self.0[l].is_finite())
    }

    /// `W` values adjacent in `i`, starting at `(k, jl, il)`.
    #[inline(always)]
    pub fn load(v: &View3<f64>, k: usize, jl: usize, il: usize) -> Self {
        Self(v.get_lanes([k, jl, il]))
    }

    /// Write every lane.
    #[inline(always)]
    pub fn store(self, v: &View3<f64>, k: usize, jl: usize, il: usize) {
        v.set_lanes([k, jl, il], self.0);
    }

    /// [`Self::load`] from a 2-D field.
    #[inline(always)]
    pub fn load2(v: &View2<f64>, jl: usize, il: usize) -> Self {
        Self(v.get_lanes([jl, il]))
    }

    /// [`Self::store`] to a 2-D field.
    #[inline(always)]
    pub fn store2(self, v: &View2<f64>, jl: usize, il: usize) {
        v.set_lanes([jl, il], self.0);
    }

    /// The first `W` words of a scratch row.
    #[inline(always)]
    pub fn read(s: &[f64]) -> Self {
        Self(s[..W].try_into().expect("a slice of W words"))
    }

    /// Overwrite the first `W` words of a scratch row.
    #[inline(always)]
    pub fn write(self, s: &mut [f64]) {
        s[..W].copy_from_slice(&self.0);
    }

    /// Write the lanes `m` selects; the others' cells are not touched.
    #[inline(always)]
    pub fn store_where(self, m: Mask<W>, v: &View3<f64>, k: usize, jl: usize, il: usize) {
        for l in 0..W {
            if m.0[l] != 0 {
                v.set_at(k, jl, il + l, self.0[l]);
            }
        }
    }

    /// [`Self::store_where`] to a 2-D field.
    #[inline(always)]
    pub fn store2_where(self, m: Mask<W>, v: &View2<f64>, jl: usize, il: usize) {
        for l in 0..W {
            if m.0[l] != 0 {
                v.set_at(jl, il + l, self.0[l]);
            }
        }
    }
}

impl<const W: usize> Mask<W> {
    #[inline(always)]
    pub fn from_fn(mut f: impl FnMut(usize) -> bool) -> Self {
        let mut out = [0; W];
        for (l, o) in out.iter_mut().enumerate() {
            *o = 0u64.wrapping_sub(u64::from(f(l)));
        }
        Self(out)
    }

    /// True when some lane holds.
    #[inline(always)]
    pub fn any(self) -> bool {
        self.0.iter().fold(0, |acc, &m| acc | m) != 0
    }

    #[inline(always)]
    pub fn and(self, o: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l] & o.0[l]))
    }

    /// Lane `l` is `a[l]` where the mask holds, else `b[l]` (a bit blend:
    /// the chosen lane keeps its exact bits).
    #[inline(always)]
    pub fn select(self, a: F64x<W>, b: F64x<W>) -> F64x<W> {
        F64x::from_fn(|l| {
            let m = self.0[l];
            f64::from_bits((a.0[l].to_bits() & m) | (b.0[l].to_bits() & !m))
        })
    }
}

macro_rules! lane_op {
    ($tr:ident, $m:ident, $op:tt) => {
        impl<const W: usize> $tr for F64x<W> {
            type Output = Self;
            #[inline(always)]
            fn $m(self, o: Self) -> Self {
                self.zip(o, |a, b| a $op b)
            }
        }
        impl<const W: usize> $tr<f64> for F64x<W> {
            type Output = Self;
            #[inline(always)]
            fn $m(self, o: f64) -> Self {
                Self::from_fn(|l| self.0[l] $op o)
            }
        }
        impl<const W: usize> $tr<F64x<W>> for f64 {
            type Output = F64x<W>;
            #[inline(always)]
            fn $m(self, o: F64x<W>) -> F64x<W> {
                F64x::from_fn(|l| self $op o.0[l])
            }
        }
    };
}

/// `-x` flips the sign bit; `0.0 - x` would turn `+0` into `+0`, not `-0`.
impl<const W: usize> Neg for F64x<W> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::from_fn(|l| -self.0[l])
    }
}

lane_op!(Add, add, +);
lane_op!(Sub, sub, -);
lane_op!(Mul, mul, *);
lane_op!(Div, div, /);

/// Wet depths of the `W` columns starting at `(jl, il)` — as the mask
/// stores them, so a level test is one packed 32-bit compare — and the
/// deepest.
#[inline(always)]
pub fn depths<const W: usize>(mask: &View2<i32>, jl: usize, il: usize) -> ([i32; W], usize) {
    let kb = mask.get_lanes::<W>([jl, il]);
    (kb, kb.into_iter().max().unwrap_or(0).max(0) as usize)
}

/// Lanes whose column is wet at level `k` (`k < kb[l]`).
#[inline(always)]
pub fn above<const W: usize>(k: usize, kb: &[i32; W]) -> Mask<W> {
    Mask::from_fn(|l| (k as i32) < kb[l])
}

/// Lanes whose cell `(jl, il + l)` has more than `k` wet levels — the
/// kernels' `mask.at(jl, il) <= k → land` branch as a predicate (`k = 0`
/// for the 2-D fields).
#[inline(always)]
pub fn wet<const W: usize>(mask: &View2<i32>, k: usize, jl: usize, il: usize) -> Mask<W> {
    let kb = mask.get_lanes::<W>([jl, il]);
    Mask::from_fn(|l| kb[l] > k as i32)
}

/// [`wet`] at the east, west, north and south neighbours of the cells
/// `(jl, il..il + W)` — worked out once per block, whatever number of
/// fields the stencil then reads.
#[inline(always)]
pub fn wet_around<const W: usize>(
    mask: &View2<i32>,
    k: usize,
    jl: usize,
    il: usize,
) -> [Mask<W>; 4] {
    [
        wet(mask, k, jl, il + 1),
        wet(mask, k, jl, il - 1),
        wet(mask, k, jl + 1, il),
        wet(mask, k, jl - 1, il),
    ]
}

/// The free-slip (no-flux) stencil of `field` around the cells
/// `(k, jl, il..il + W)`: its east, west, north and south values, each
/// replaced by `centre` where `around` (from [`wet_around`]) says that
/// neighbour is dry.
#[inline(always)]
pub fn free_slip<const W: usize>(
    field: &View3<f64>,
    around: &[Mask<W>; 4],
    centre: F64x<W>,
    k: usize,
    jl: usize,
    il: usize,
) -> [F64x<W>; 4] {
    let at = |jn, i_n| F64x::<W>::load(field, k, jn, i_n);
    let [e, w, n, s] = *around;
    [
        e.select(at(jl, il + 1), centre),
        w.select(at(jl, il - 1), centre),
        n.select(at(jl + 1, il), centre),
        s.select(at(jl - 1, il), centre),
    ]
}

/// The first `n` rows of `W` words of a flat work array.
#[inline(always)]
pub fn rows<const W: usize>(s: &mut [f64], n: usize) -> &mut [[f64; W]] {
    s[..n * W].as_chunks_mut::<W>().0
}

/// A column kernel written once: `block::<W>` runs the `W` columns
/// `(jl, il..il + W)` of one padded row together.
pub trait ColumnKernel {
    /// Work words **per lane** a block needs (`0` for streaming bodies).
    fn scratch_words(&self) -> usize {
        0
    }

    /// `scratch` holds at least `W · scratch_words()` words; contents on
    /// entry are arbitrary.
    fn block<const W: usize>(&self, jl: usize, il: usize, scratch: &mut [f64]);

    /// Stream-ahead hook: [`run_span`] names the block it will run *next*
    /// (its first column) before it computes the current one, so a body can
    /// [`prefetch3`] that block's levels — each sits on its own cache line
    /// and page, a stride the hardware prefetchers do not follow. The host
    /// analogue of `DmaPipe`'s double buffering (§V-C2). Default: nothing.
    #[inline(always)]
    fn prefetch(&self, _jl: usize, _il: usize) {}
}

/// Hint that the cache line holding `v(k, jl, il)` will be read soon.
#[inline(always)]
pub fn prefetch3(v: &View3<f64>, k: usize, jl: usize, il: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = v.data_ptr().wrapping_add(v.offset([k, jl, il]));
        // SAFETY: a prefetch is a hint: it dereferences nothing and never
        // faults, whatever the address; the address itself is formed with
        // `wrapping_add`, which asks nothing of it either.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (v, k, jl, il);
}

/// The instruction set a lane walker runs its kernel under. On an x86-64
/// host that reports AVX2 the walkers run the same generic walk — and,
/// inlined into it, the same `block::<W>` body — compiled inside one
/// `#[target_feature(enable = "avx2")]` function: `ymm` operations where the
/// baseline has `xmm` pairs and no `fma`, so bitwise the results of
/// [`Isa::BASELINE`] and of the `W = 1` per-point paths, which never enter
/// the clone. The AVX2 value comes only from [`Isa::detect`]: nothing to set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The walk as the build's target compiles it: the only path without
    /// AVX2, and what the tests hold the clone to.
    pub const BASELINE: Isa = Isa { avx2: false };

    /// What this host supports (std caches the probe: one relaxed load).
    #[inline(always)]
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Isa { avx2 }
    }

    /// `"avx2"` or `"baseline"`, as run summaries print it.
    pub fn name(self) -> &'static str {
        ["baseline", "avx2"][usize::from(self.avx2)]
    }

    /// Run `f(kernel)` compiled for this instruction set. `f` and all under
    /// it must inline (`#[inline(always)]`, closures included): an
    /// out-of-line call runs, correctly, at the baseline —
    /// `scripts/check_isa_clone.sh` finds those. The functor is an argument,
    /// not a capture: a `&K` parameter tells LLVM its fields do not change
    /// under the body's stores, a reference loaded back out of a closure
    /// environment does not (EXPERIMENTS.md "One clone").
    #[inline(always)]
    pub fn run<K: ?Sized, R>(self, kernel: &K, f: impl FnOnce(&K) -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is private and set nowhere but in `detect`,
            // from `is_x86_feature_detected!("avx2")`: this CPU executes
            // the AVX2 instructions `avx2_clone` is compiled to.
            return unsafe { avx2_clone(kernel, f) };
        }
        f(kernel)
    }

    /// [`Self::run`] with `words` of per-thread scratch. The clone is
    /// entered inside the scratch closure: `LocalKey::with` does not
    /// inline, and a walk behind that call would run at the baseline.
    #[inline(always)]
    pub(crate) fn run_with_scratch<K: ?Sized, R>(
        self,
        words: usize,
        kernel: &K,
        f: impl FnOnce(&K, &mut [f64]) -> R,
    ) -> R {
        with_scratch(words, |scratch| {
            self.run(
                kernel,
                #[inline(always)]
                |kernel| f(kernel, scratch),
            )
        })
    }
}

/// The clone: `f`, inlined, compiled with 256-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_clone<K: ?Sized, R>(kernel: &K, f: impl FnOnce(&K) -> R) -> R {
    f(kernel)
}

thread_local! {
    /// Per-thread work arrays of the blocked bodies, grown on first use and
    /// then reused — the steady-state step allocates nothing, and a block
    /// touches only the rows down to its deepest column.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

fn with_scratch<R>(words: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < words {
            s.resize(words, 0.0);
        }
        f(&mut s[..words])
    })
}

/// The ladder's rungs below [`LANES`] are `LANES / 2`, `/ 4` and `/ 8`; the
/// last must be one lane, so every remainder is a sum of distinct rungs.
const _: () = assert!(LANES.is_power_of_two() && LANES / 8 == 1);

/// Walk `0..$n` in blocks: [`LANES`]-wide while a whole one fits, then at
/// most one block each of `LANES / 2`, `/ 4` and `/ 8` (= 1) lanes — the
/// binary digits of the remainder, widest first. `$body` runs with `$d` the
/// block's offset and the constant `$W` its width, so it can name
/// `kernel::<$W>` — once per width at compile time, which is what a
/// `const`-generic closure would be.
macro_rules! lane_blocks {
    ($d:ident, $W:ident in $n:expr => $body:expr) => {{
        let n: usize = $n;
        let mut $d = 0;
        while $d + $crate::lanes::LANES <= n {
            const $W: usize = $crate::lanes::LANES;
            $body;
            $d += $W;
        }
        if $d + $crate::lanes::LANES / 2 <= n {
            const $W: usize = $crate::lanes::LANES / 2;
            $body;
            $d += $W;
        }
        if $d + $crate::lanes::LANES / 4 <= n {
            const $W: usize = $crate::lanes::LANES / 4;
            $body;
            $d += $W;
        }
        if $d < n {
            const $W: usize = $crate::lanes::LANES / 8;
            $body;
        }
    }};
}
pub(crate) use lane_blocks;

/// The maximal runs `(row, il, len)` of consecutive packed indices
/// `row · pi + il ..` in `entries` that stay inside one row, in list order.
/// One div/mod per run instead of per entry.
pub fn runs(entries: &[u32], pi: usize) -> Runs<'_> {
    Runs { entries, pi }
}

pub struct Runs<'a> {
    entries: &'a [u32],
    pi: usize,
}

impl Iterator for Runs<'_> {
    type Item = (usize, usize, usize);

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        let first = *self.entries.first()? as usize;
        let (row, il) = (first / self.pi, first % self.pi);
        let room = (self.pi - il).min(self.entries.len());
        let mut len = 1;
        while len < room && self.entries[len] as usize == first + len {
            len += 1;
        }
        self.entries = &self.entries[len..];
        Some((row, il, len))
    }
}

/// Run `kernel` over one list tile of packed columns `jl · pi + il`, each
/// run in the blocks of [`lane_blocks!`]. Whatever block comes next — in
/// this run, or the first of the next run — is announced to
/// [`ColumnKernel::prefetch`] before the current one is computed.
#[inline]
pub fn run_span<K: ColumnKernel>(isa: Isa, kernel: &K, pi: usize, entries: &[u32]) {
    isa.run_with_scratch(
        kernel.scratch_words() * LANES,
        kernel,
        #[inline(always)]
        |kernel, scratch| {
            let mut done = 0;
            for (jl, il, len) in runs(entries, pi) {
                done += len;
                lane_blocks!(d, W in len => {
                    if d + W < len {
                        kernel.prefetch(jl, il + d + W);
                    } else if let Some(&first) = entries.get(done) {
                        kernel.prefetch(first as usize / pi, first as usize % pi);
                    }
                    kernel.block::<W>(jl, il + d, scratch);
                });
            }
        },
    );
}

/// Run `kernel` on the single packed column `jl · pi + il` — the per-entry
/// list path.
#[inline]
pub fn run_column<K: ColumnKernel>(kernel: &K, pi: usize, packed: u32) {
    let packed = packed as usize;
    with_scratch(kernel.scratch_words(), |scratch| {
        kernel.block::<1>(packed / pi, packed % pi, scratch);
    });
}

/// A horizontal kernel written once: `block::<W>` updates the `W` points
/// `(k, j, i..i + W)` (a 2-D kernel ignores `k`) in the policy coordinates
/// [`run_tile`] hands it. Points of a row are independent, so a block reads
/// whatever neighbours the per-point body reads and writes only its own `W`
/// outputs.
pub trait RowKernel {
    fn block<const W: usize>(&self, k: usize, j: usize, i: usize);
}

/// The `Functor3D` entry points of a [`RowKernel`] — the one impl every row
/// kernel's launch uses, a 2-D one's over a single level: the per-point
/// `operator` is its `W = 1` block, a policy tile its rows in lane blocks.
macro_rules! row_functor {
    () => {
        fn operator(&self, k: usize, j: usize, i: usize) {
            self.block::<1>(k, j, i);
        }

        fn operator_tile(&self, bounds: [(usize, usize); 3]) {
            $crate::lanes::run_tile($crate::lanes::Isa::detect(), self, bounds);
        }
    };
}
pub(crate) use row_functor;

/// Run `kernel` over one policy tile `[(k0, k1), (j0, j1), (i0, i1)]` (a
/// 2-D launch's is one level, `(0, 1)`): each row in blocks along `i`.
#[inline]
pub fn run_tile<K: RowKernel>(isa: Isa, kernel: &K, bounds: [(usize, usize); 3]) {
    let [(k0, k1), (j0, j1), (i0, i1)] = bounds;
    isa.run(
        kernel,
        #[inline(always)]
        |kernel| {
            for k in k0..k1 {
                for j in j0..j1 {
                    lane_blocks!(d, W in i1 - i0 => kernel.block::<W>(k, j, i0 + d));
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logs `(W, k, j, i)` per block.
    struct Log(RefCell<Vec<(usize, usize, usize, usize)>>);
    impl RowKernel for Log {
        fn block<const W: usize>(&self, k: usize, j: usize, i: usize) {
            self.0.borrow_mut().push((W, k, j, i));
        }
    }

    #[test]
    fn tiles_walk_rows_down_the_ladder() {
        let log = Log(RefCell::new(Vec::new()));
        run_tile(Isa::detect(), &log, [(3, 4), (5, 7), (2, 2 + LANES + 7)]);
        let row = |j| {
            [
                (LANES, 3, j, 2),
                (4, 3, j, 2 + LANES),
                (2, 3, j, 6 + LANES),
                (1, 3, j, 8 + LANES),
            ]
        };
        assert_eq!(*log.0.borrow(), [row(5), row(6)].concat());
        log.0.borrow_mut().clear();
        run_tile(Isa::detect(), &log, [(0, 1), (0, 1), (4, 4)]);
        assert!(log.0.borrow().is_empty(), "an empty row has no blocks");
    }

    /// `blocks` (`(W, first index)`, in walk order) cover `start..start +
    /// len` once each, left to right, in non-increasing power-of-two widths
    /// with at most one block of each width below `LANES`.
    fn assert_ladder(blocks: &[(usize, usize)], start: usize, len: usize) {
        let mut at = start;
        for (n, &(w, i)) in blocks.iter().enumerate() {
            assert_eq!(
                i, at,
                "run {start}+{len}: block {n} starts off the last one's end"
            );
            assert!(
                w.is_power_of_two() && w <= LANES,
                "run {start}+{len}: width {w}"
            );
            if let Some(&(next, _)) = blocks.get(n + 1) {
                assert!(
                    next < w || (next, w) == (LANES, LANES),
                    "run {start}+{len}: {w} then {next}"
                );
            }
            at += w;
        }
        assert_eq!(
            at,
            start + len,
            "run {start}+{len}: not every index visited"
        );
    }

    #[test]
    fn every_run_length_at_every_offset_walks_the_ladder() {
        for len in 0..=3 * LANES + 1 {
            for start in 0..2 * LANES {
                let log = Log(RefCell::new(Vec::new()));
                run_tile(Isa::detect(), &log, [(0, 1), (0, 1), (start, start + len)]);
                let tile: Vec<_> = log.0.borrow().iter().map(|&(w, _, _, i)| (w, i)).collect();
                assert_ladder(&tile, start, len);
                // The same run as a wet list of columns.
                let pi = 2 * LANES + len + 1;
                let entries: Vec<u32> = (start..start + len).map(|i| (pi + i) as u32).collect();
                let spans = RefCell::new(Vec::new());
                run_span(Isa::detect(), &Count(&spans), pi, &entries);
                let span: Vec<_> = (spans.borrow().iter())
                    .filter(|&&(w, _, _)| w > 0)
                    .map(|&(w, _, i)| (w, i))
                    .collect();
                assert_eq!(span, tile, "run_span walks the run as run_tile does");
            }
        }
    }

    proptest::proptest! {
        /// A list of rows, each a run of any length from any offset and a
        /// lone entry past a gap: every run is its own ladder, and
        /// `run_span` announces each block but the last one block ahead.
        #[test]
        fn a_list_of_runs_walks_each_down_the_ladder(
            lens in proptest::collection::vec(0usize..=3 * LANES + 1, 0..6),
            gaps in proptest::collection::vec(1usize..LANES, 6usize),
        ) {
            let rows: Vec<(usize, usize)> = lens.into_iter().zip(gaps).collect();
            let pi = 5 * LANES;
            let entries: Vec<u32> = (rows.iter().enumerate())
                .flat_map(|(j, &(len, gap))| {
                    (gap..gap + len).chain([2 * gap + len]).map(move |i| (j * pi + i) as u32)
                })
                .collect();
            let spans = RefCell::new(Vec::new());
            run_span(Isa::detect(), &Count(&spans), pi, &entries);
            let spans = spans.into_inner();
            let blocks: Vec<_> = spans.iter().copied().filter(|&(w, _, _)| w > 0).collect();
            for (j, &(len, gap)) in rows.iter().enumerate() {
                let row: Vec<_> = (blocks.iter())
                    .filter(|b| b.1 == j)
                    .map(|&(w, _, i)| (w, i))
                    .collect();
                let (run, lone) = row.split_at(row.len() - 1);
                assert_ladder(run, gap, len);
                proptest::prop_assert_eq!(lone, &[(1, 2 * gap + len)]);
            }
            let mut want = Vec::new();
            for (n, &block) in blocks.iter().enumerate() {
                want.extend(blocks.get(n + 1).map(|&(_, j, i)| (0, j, i)));
                want.push(block);
            }
            proptest::prop_assert_eq!(spans, want);
        }
    }

    #[test]
    fn runs_split_at_gaps_and_row_ends() {
        let pi = 10;
        // Row 1: 12,13,14 | gap | 17 ; row 1→2 wrap 19,20 must split.
        let entries = [12, 13, 14, 17, 19, 20, 21, 35];
        assert_eq!(
            runs(&entries, pi).collect::<Vec<_>>(),
            vec![(1, 2, 3), (1, 7, 1), (1, 9, 1), (2, 0, 2), (3, 5, 1)]
        );
        assert_eq!(runs(&[], pi).next(), None, "an empty list has no runs");
    }

    #[test]
    fn lane_ops_are_the_scalar_ops_per_lane() {
        let a = F64x::<4>([1.5, -2.0, 0.0, f64::NAN]);
        let b = F64x::<4>([0.5, 4.0, -3.0, 1.0]);
        let bits = |x: F64x<4>| x.0.map(f64::to_bits);
        assert_eq!(
            bits(a / b)[..3],
            [1.5f64 / 0.5, -2.0 / 4.0, 0.0 / -3.0].map(f64::to_bits),
            "including the signed zero"
        );
        assert_eq!(
            bits(2.0 * a - b)[..3],
            bits(F64x::from_fn(|l| 2.0 * a.0[l] - b.0[l]))[..3]
        );
        assert_eq!(
            a.min(b).0[3],
            1.0,
            "f64::min drops the NaN like the scalar call"
        );
        assert_eq!(a.lt(b), Mask::from_fn(|l| l == 1));
        assert_eq!(a.lt(b).select(a, b).0[..3], [0.5, -2.0, -3.0]);
        assert!(a.lt(b).any() && !a.lt(b).and(b.lt(a)).any());
        assert_eq!(
            bits(-a)[..3],
            [-1.5f64, 2.0, -0.0].map(f64::to_bits),
            "negation flips the sign of a zero, which `0.0 - x` does not"
        );
        assert_ne!(bits(-a)[2], bits(0.0 - a)[2]);
    }

    #[test]
    fn select_keeps_the_chosen_lane_bit_for_bit() {
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let a = F64x::<4>([-0.0, nan, f64::INFINITY, 1.0]);
        let b = F64x::<4>([0.0, 2.0, nan, -1.0]);
        let m = Mask::<4>::from_fn(|l| l % 2 == 0);
        let got = m.select(a, b).0.map(f64::to_bits);
        assert_eq!(got, [a.0[0], b.0[1], a.0[2], b.0[3]].map(f64::to_bits));
    }

    /// Every `F64x` / `Mask` operation on the lane pairs `(a, b)`, as bits.
    /// `#[inline(always)]`, so under [`Isa::run`] it is compiled inside the
    /// clone like a kernel body.
    #[inline(always)]
    fn every_op((a, b, cell): &(F64x<LANES>, F64x<LANES>, View3<f64>)) -> [[u64; LANES]; 15] {
        let (a, b) = (*a, *b);
        let bits = |x: F64x<LANES>| x.0.map(f64::to_bits);
        let lanes = |m: Mask<LANES>| m.0;
        let lt = a.lt(b);
        // A masked store over a sentinel: unselected cells keep it.
        F64x::<LANES>::splat(-7.25).store(cell, 0, 0, 0);
        (a * b).store_where(lt, cell, 0, 0, 0);
        [
            bits(a + b),
            bits(a - b),
            bits(a * b),
            bits(a / b),
            bits(2.5 * a - b / 3.0),
            bits(-a),
            bits(a.abs()),
            bits(a.sqrt()),
            bits(a.min(b)),
            bits(a.max(b)),
            lanes(lt),
            lanes(a.ge(b)),
            lanes(a.is_finite().and(lt)),
            bits(lt.select(a, b)),
            bits(F64x::load(cell, 0, 0, 0)),
        ]
    }

    #[test]
    fn the_clone_computes_every_lane_op_bit_for_bit() {
        let nan = |payload: u64| f64::from_bits(0x7FF8_0000_0000_0000 | payload);
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            1.0 / 3.0,
            6.02e23,
            -2.5e-300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            nan(0),
            nan(0xDEAD_BEEF),
            -nan(0x1234),
        ];
        let cell: View3<f64> = kokkos_rs::View::host("cell", [1, 1, LANES]);
        for (i, &x) in values.iter().enumerate() {
            // Lane `l` pairs `x` with `values[i + l + shift]`: over the two
            // shifts every value meets every value, in both operand orders
            // (two NaNs of different payloads too: x86 returns the first
            // operand's, and both compilations keep the operand order).
            for shift in [0, LANES] {
                let a = F64x::<LANES>::splat(x);
                let b = F64x::<LANES>::from_fn(|l| values[(i + l + shift) % values.len()]);
                let inputs = (a, b, cell.clone());
                assert_eq!(
                    Isa::BASELINE.run(&inputs, every_op),
                    Isa::detect().run(&inputs, every_op),
                    "{x:e} against {:?} under {:?}",
                    b.0,
                    Isa::detect()
                );
            }
        }
    }

    /// Logs `(W, jl, il)` per block and `(0, jl, il)` per stream-ahead hint.
    struct Count<'a>(&'a RefCell<Vec<(usize, usize, usize)>>);
    impl ColumnKernel for Count<'_> {
        fn scratch_words(&self) -> usize {
            3
        }
        fn block<const W: usize>(&self, jl: usize, il: usize, scratch: &mut [f64]) {
            assert!(scratch.len() >= 3 * W);
            self.0.borrow_mut().push((W, jl, il));
        }
        fn prefetch(&self, jl: usize, il: usize) {
            self.0.borrow_mut().push((0, jl, il));
        }
    }

    #[test]
    fn span_walks_runs_down_the_ladder() {
        let log = RefCell::new(Vec::new());
        // A run of LANES + 3 in row 2, then an isolated column in row 3.
        let pi = 40;
        let mut entries: Vec<u32> = (0..LANES as u32 + 3).map(|d| 2 * 40 + 5 + d).collect();
        entries.push(3 * 40 + 1);
        run_span(Isa::detect(), &Count(&log), pi, &entries);
        let blocks = [
            (LANES, 2, 5),
            (2, 2, 5 + LANES),
            (1, 2, 7 + LANES),
            (1, 3, 1),
        ];
        // A hint ahead of every block but the first: inside the run, and
        // from its last block to the next run.
        let want = vec![
            (0, 2, 5 + LANES),
            blocks[0],
            (0, 2, 7 + LANES),
            blocks[1],
            (0, 3, 1),
            blocks[2],
            blocks[3],
        ];
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    fn a_prefetch_is_only_a_hint() {
        let v: View3<f64> = kokkos_rs::View::host("v", [2, 3, 4]);
        v.fill(7.0);
        prefetch3(&v, 1, 2, 3);
        assert!(v.as_slice().iter().all(|&x| x == 7.0));
    }
}
