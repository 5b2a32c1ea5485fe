//! Two-step shape-preserving tracer advection (Yu 1994) —
//! `advection_tracer`, the paper's hottest kernel (§V-C2).
//!
//! The scheme is dimension-split (x → y → z). Each 1-D pass computes
//! flux-form face transports in two conceptual steps:
//!
//! 1. a **monotone upstream** face value (the "shape-preserving"
//!    predictor), then
//! 2. a **limited anti-diffusive correction** — a van-Leer-limited
//!    second-order increment scaled by `(1 − CFL)` — which restores
//!    second-order accuracy wherever the profile is smooth without
//!    creating new extrema (the TVD property tested by the proptests).
//!
//! With `limited = false` only step 1 runs (the diffusive reference the
//! two-step scheme improves on). Fluxes are length-weighted, so each pass
//! conserves the tracer integral exactly in closed basins; the vertical
//! velocity is diagnosed from continuity so the z-pass telescopes to the
//! (zero-flux) surface and bottom boundaries.
//!
//! The kernel reads 3 fields over a ±2 stencil with heavy branching —
//! precisely the "very low computation-to-memory access ratio and
//! severely scattered memory access" profile the paper optimizes with
//! architecture-specific code. Here the x and y passes of the interior
//! rows are one row wavefront ([`FunctorAdvectWave`]) whose x results live
//! in a five-row ring in per-thread scratch, as the paper keeps a tile
//! resident in LDM across the scheme's passes; only the rows within reach
//! of a neighbour's or the fold's stencil pass through memory, in a
//! [`RowBand`]. The `cost()` hooks carry that traffic into the Sunway
//! cycle model.

use kokkos_rs::{parallel_for_3d, Functor3D, IterCost, MDRangePolicy3, Space, View1, View2, View3};

use halo_exchange::{FoldKind, Halo3D, HaloError, RowBand, HALO as H};

use crate::lanes::{self, above, F64x, Isa, Mask};
use crate::localgrid::LocalGrid;
use crate::model::Poster;

/// Van Leer limiter φ(r); φ(r)·dq is evaluated safely for tiny dq.
#[inline(always)]
fn van_leer<const W: usize>(r: F64x<W>) -> F64x<W> {
    (r + r.abs()) / (1.0 + r.abs())
}

/// Limited face values of `W` faces: donor cells `qc` with downwind `qd`,
/// upwind `qu` (behind the donor), local CFL `c`. The one body of the
/// limiter: the x/y passes call it with a block of faces adjacent in `i`,
/// the vertical pass with a block of columns.
#[inline(always)]
fn face_values<const W: usize>(
    qu: F64x<W>,
    qc: F64x<W>,
    qd: F64x<W>,
    c: F64x<W>,
    limited: bool,
) -> F64x<W> {
    if !limited {
        return qc;
    }
    let dq = qd - qc;
    let r = (qc - qu) / dq;
    let corrected = qc + 0.5 * van_leer(r) * (1.0 - c) * dq;
    // Flat profile: pure upstream (and the `r` above is discarded).
    dq.abs().lt(F64x::splat(1e-30)).select(qc, corrected)
}

/// Where a horizontal pass keeps the intermediate between x and y,
/// addressed by padded row: a whole padded field, or the [`RowBand`] of the
/// rows the rims read.
pub trait Rows: Clone + Send + Sync + 'static {
    fn view(&self) -> &View3<f64>;
    /// The stored row of padded row `jl`.
    fn row(&self, jl: usize) -> usize;
}

impl Rows for View3<f64> {
    #[inline(always)]
    fn view(&self) -> &View3<f64> {
        self
    }
    #[inline(always)]
    fn row(&self, jl: usize) -> usize {
        jl
    }
}

impl Rows for RowBand {
    #[inline(always)]
    fn view(&self) -> &View3<f64> {
        self.data()
    }
    #[inline(always)]
    fn row(&self, jl: usize) -> usize {
        RowBand::row(self, jl)
    }
}

/// Both tracers' rows at one level from column `il0` on, as a pass's row
/// body reads or leaves them; `d` counts columns from `il0`.
trait Plane {
    fn load<const W: usize>(&self, t: usize, jl: usize, d: usize) -> F64x<W>;
    fn store<const W: usize>(&mut self, t: usize, jl: usize, d: usize, v: F64x<W>);
}

/// Level `k` of a pair of fields.
struct Level<'a, Q> {
    q: &'a [Q; 2],
    k: usize,
    il0: usize,
}

impl<Q: Rows> Plane for Level<'_, Q> {
    #[inline(always)]
    fn load<const W: usize>(&self, t: usize, jl: usize, d: usize) -> F64x<W> {
        let q = &self.q[t];
        F64x::load(q.view(), self.k, q.row(jl), self.il0 + d)
    }
    #[inline(always)]
    fn store<const W: usize>(&mut self, t: usize, jl: usize, d: usize, v: F64x<W>) {
        let q = &self.q[t];
        v.store(q.view(), self.k, q.row(jl), self.il0 + d);
    }
}

/// Rows the y stencil spans (`jl − H ..= jl + H`): the wavefront's ring.
const RING: usize = 2 * H + 1;

/// The x results of the last [`RING`] rows of a wavefront tile, `n`
/// columns a row and tracer; row `jl` lives in slot `jl % RING`.
struct Ring<'a> {
    words: &'a mut [f64],
    n: usize,
}

impl Ring<'_> {
    #[inline(always)]
    fn at(&self, t: usize, jl: usize, d: usize) -> usize {
        (2 * (jl % RING) + t) * self.n + d
    }
}

impl Plane for Ring<'_> {
    #[inline(always)]
    fn load<const W: usize>(&self, t: usize, jl: usize, d: usize) -> F64x<W> {
        F64x::read(&self.words[self.at(t, jl, d)..])
    }
    #[inline(always)]
    fn store<const W: usize>(&mut self, t: usize, jl: usize, d: usize, v: F64x<W>) {
        let at = self.at(t, jl, d);
        v.write(&mut self.words[at..]);
    }
}

/// What the two horizontal passes share: both tracers `q → q1`, the
/// velocity component normal to the pass's faces, and the metrics. The
/// x pass reads the tracers and leaves the intermediate in `q1`; the y pass
/// reads the intermediate from `q` and leaves the new tracers.
pub struct AdvectFields<Q, Q1> {
    /// The tracers before the pass (valid halos).
    pub q: [Q; 2],
    /// The tracers after the pass (owned cells; land copies through).
    pub q1: [Q1; 2],
    /// `u` for the x pass, `v` for the y pass (B-grid corners).
    pub vel: View3<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dt: f64,
    pub limited: bool,
}

impl<Q, Q1> AdvectFields<Q, Q1> {
    /// The pass `q → q1` over `g`'s block, its faces moving at `vel`.
    pub fn new(
        g: &LocalGrid,
        (q, q1): ([Q; 2], [Q1; 2]),
        vel: &View3<f64>,
        dt: f64,
        limited: bool,
    ) -> Self {
        AdvectFields {
            q,
            q1,
            vel: vel.clone(),
            kmt: g.kmt.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
            dt,
            limited,
        }
    }
}

impl<Q: Rows, Q1: Rows> AdvectFields<Q, Q1> {
    /// Transports `vel · q_face · length` of both tracers through `W` faces
    /// adjacent in `i`. Face velocity, CFL and the wet mask are worked out
    /// once and serve T and S. `q(t, o)`, `o = 0..4`, loads tracer `t` at
    /// the four cells of the face's stencil along the pass axis: `o = 1`
    /// and `2` are the cells on the face's low and high side, `0` and `3`
    /// the ones behind them. Dry faces carry exactly zero.
    #[inline(always)]
    fn transports<const W: usize>(
        &self,
        vel: F64x<W>,
        wet: Mask<W>,
        spacing: f64,
        length: f64,
        q: impl Fn(usize, usize) -> F64x<W>,
    ) -> [F64x<W>; 2] {
        let zero = F64x::splat(0.0);
        if !wet.any() {
            // A block of coast or sea floor: nothing to limit.
            return [zero; 2];
        }
        let c = (vel.abs() * self.dt / spacing).min(F64x::splat(1.0));
        let along = vel.ge(zero);
        // A loop, not `[0, 1].map(..)`: inside the AVX2 clone
        // ([`lanes::Isa`]) `array::map` stayed an out-of-line call per block.
        let mut out = [zero; 2];
        for (t, out) in out.iter_mut().enumerate() {
            let (near, far) = (q(t, 1), q(t, 2));
            let qf = face_values(
                along.select(q(t, 0), q(t, 3)),
                along.select(near, far),
                along.select(far, near),
                c,
                self.limited,
            );
            *out = wet.select(vel * qf * length, zero);
        }
        out
    }

    /// `q − dt (F_hi − F_lo) / area` on the `W` cells at `(k, jl, il)` for
    /// both tracers, whose values before the pass are `q`; land keeps `q`.
    /// The quotient stays a divide: `dt · div · (1 / area)` rounds
    /// differently, and every result bit is pinned by the goldens.
    #[inline(always)]
    fn update<const W: usize>(
        &self,
        (k, jl, il): (usize, usize, usize),
        q: [F64x<W>; 2],
        lo: [F64x<W>; 2],
        hi: [F64x<W>; 2],
    ) -> [F64x<W>; 2] {
        let wet = lanes::wet::<W>(&self.kmt, k, jl, il);
        if !wet.any() {
            return q;
        }
        let area = self.dxt.at(jl) * self.dyt;
        let mut q1 = q;
        for t in 0..2 {
            q1[t] = wet.select(q[t] - self.dt * (hi[t] - lo[t]) / area, q[t]);
        }
        q1
    }
}

/// Per cell and both tracers, in words, what either horizontal pass
/// touches: each tracer's ±2 stencil along the pass, the two corner
/// velocities of its faces, `kmt` of the cell and its downstream
/// neighbour, the row metric, and the two results.
const STENCIL: u64 = 10;
const CORNERS: u64 = 2;
const KMT: u64 = 2;
const METRIC: u64 = 1;
const RESULTS: u64 = 2;
/// What a pass reads: everything but its results.
const READS: u64 = STENCIL + CORNERS + KMT + METRIC;
/// The x and y passes' flops per cell, both tracers: the two flux + apply
/// launches per tracer each replaces (2 × (25 + 6) and 2 × (27 + 6)) less
/// the second tracer's face velocity and CFL (6), and for y its `dx_face`
/// (2).
const X_FLOPS: u64 = 56;
const Y_FLOPS: u64 = 58;

/// The zonal pass of both tracers in one sweep: limited face transports
/// `F = uf · q_face · dy`, then `q1 = q − dt (Fe − Fw) / area`. A row's
/// transports live in per-thread scratch between the two — they are read
/// exactly once, by the same row, so no 3-D flux field exists. The
/// intermediate it leaves is a padded field or a [`RowBand`].
pub struct FunctorAdvectX<Q1>(pub AdvectFields<View3<f64>, Q1>);

impl<Q1: Rows> FunctorAdvectX<Q1> {
    /// Transports through the **east** faces of the cells `(jl, il..il+W)`.
    #[inline(always)]
    fn faces<const W: usize>(&self, k: usize, jl: usize, il: usize) -> [F64x<W>; 2] {
        let f = &self.0;
        let wet = lanes::wet::<W>(&f.kmt, k, jl, il).and(lanes::wet(&f.kmt, k, jl, il + 1));
        // Face velocity from the two adjacent B-grid corners.
        let uf = 0.5 * (F64x::load(&f.vel, k, jl, il) + F64x::load(&f.vel, k, jl - 1, il));
        f.transports(uf, wet, f.dxt.at(jl), f.dyt, |t, o| {
            F64x::load(&f.q[t], k, jl, il + o - 1)
        })
    }

    /// The pass over the `n` cells of row `jl` from column `il0` at level
    /// `k`, left in `out`: the row's `n + 1` transports into `flux`, which
    /// holds them for both tracers (the west face of its first cell through
    /// the east face of its last; a face shared with the neighbouring tile
    /// is computed by both, from the same inputs), then each block's
    /// update.
    #[inline(always)]
    fn row(&self, k: usize, jl: usize, il0: usize, flux: &mut [f64], out: &mut impl Plane) {
        let n = flux.len() / 2 - 1;
        let (ft, fs) = flux.split_at_mut(n + 1);
        lanes::lane_blocks!(d, W in n + 1 => {
            let [t, s] = self.faces::<W>(k, jl, il0 - 1 + d);
            t.write(&mut ft[d..]);
            s.write(&mut fs[d..]);
        });
        let q = &self.0.q;
        lanes::lane_blocks!(d, W in n => {
            let west = [F64x::<W>::read(&ft[d..]), F64x::read(&fs[d..])];
            let east = [F64x::<W>::read(&ft[d + 1..]), F64x::read(&fs[d + 1..])];
            let here = [F64x::load(&q[0], k, jl, il0 + d), F64x::load(&q[1], k, jl, il0 + d)];
            let [t, s] = self.0.update((k, jl, il0 + d), here, west, east);
            out.store(0, jl, d, t);
            out.store(1, jl, d, s);
        });
    }

    /// `operator_tile` with the ISA an argument.
    pub fn tile(&self, isa: Isa, bounds: [(usize, usize); 3]) {
        let [(k0, k1), (j0, j1), (i0, i1)] = bounds;
        let (n, il0) = (i1 - i0, i0 + H);
        isa.run_with_scratch(
            2 * (n + 1),
            self,
            #[inline(always)]
            |this, flux| {
                for k in k0..k1 {
                    let mut out = Level {
                        q: &this.0.q1,
                        k,
                        il0,
                    };
                    for jl in j0 + H..j1 + H {
                        this.row(k, jl, il0, flux, &mut out);
                    }
                }
            },
        );
    }
}

impl<Q1: Rows> Functor3D for FunctorAdvectX<Q1> {
    fn operator(&self, k: usize, j: usize, i: usize) {
        self.tile(Isa::BASELINE, [(k, k + 1), (j, j + 1), (i, i + 1)]);
    }

    fn operator_tile(&self, bounds: [(usize, usize); 3]) {
        self.tile(Isa::detect(), bounds);
    }

    /// Per cell, both tracers: [`X_FLOPS`], and the 17 distinct words a
    /// cell touches. The flux field's write and two reads per tracer, and
    /// the second tracer's `u` / `kmt` / `dxt` reads, are what the separate
    /// launches' 272 bytes had on top.
    fn cost(&self) -> IterCost {
        IterCost {
            flops: X_FLOPS,
            bytes: 8 * (READS + RESULTS),
        }
    }
}

kokkos_rs::register_for_3d!(kernel_advect_x_band, FunctorAdvectX<RowBand>);

/// The meridional pass of both tracers: `F = vf · q_face · dx_face` through
/// north faces, then `q1 = q − dt (Fn − Fs) / area`. A tile keeps one row
/// of transports per tracer in scratch: each row's north faces are the next
/// row's south faces. The intermediate it reads is a padded field or a
/// [`RowBand`].
pub struct FunctorAdvectY<Q>(pub AdvectFields<Q, View3<f64>>);

impl<Q: Rows> FunctorAdvectY<Q> {
    /// Transports through the **north** faces of the cells
    /// `(jl, il0 + d..il0 + d + W)`, the intermediate read from `src`.
    #[inline(always)]
    fn faces<const W: usize>(
        &self,
        k: usize,
        jl: usize,
        (il0, d): (usize, usize),
        src: &impl Plane,
    ) -> [F64x<W>; 2] {
        let f = &self.0;
        let il = il0 + d;
        let wet = lanes::wet::<W>(&f.kmt, k, jl, il).and(lanes::wet(&f.kmt, k, jl + 1, il));
        let vf = 0.5 * (F64x::load(&f.vel, k, jl, il) + F64x::load(&f.vel, k, jl, il - 1));
        let dx_face = 0.5 * (f.dxt.at(jl) + f.dxt.at(jl + 1));
        f.transports(vf, wet, f.dyt, dx_face, |t, o| {
            src.load::<W>(t, jl + o - 1, d)
        })
    }

    /// The south faces of row `jl`'s `n` cells from column `il0` into
    /// `rolling`, where [`Self::row`] takes them.
    #[inline(always)]
    fn prime(&self, k: usize, jl: usize, il0: usize, rolling: &mut [f64], src: &impl Plane) {
        let n = rolling.len() / 2;
        let (ft, fs) = rolling.split_at_mut(n);
        lanes::lane_blocks!(d, W in n => {
            let [t, s] = self.faces::<W>(k, jl - 1, (il0, d), src);
            t.write(&mut ft[d..]);
            s.write(&mut fs[d..]);
        });
    }

    /// The pass over row `jl`'s `n` cells from column `il0`, whose south
    /// faces `rolling` holds: each block applies its cells and leaves its
    /// north faces behind as the south faces of the row above.
    #[inline(always)]
    fn row(&self, k: usize, jl: usize, il0: usize, rolling: &mut [f64], src: &impl Plane) {
        let n = rolling.len() / 2;
        let (ft, fs) = rolling.split_at_mut(n);
        let mut out = Level {
            q: &self.0.q1,
            k,
            il0,
        };
        lanes::lane_blocks!(d, W in n => {
            let south = [F64x::<W>::read(&ft[d..]), F64x::read(&fs[d..])];
            let north = self.faces::<W>(k, jl, (il0, d), src);
            let here = [src.load(0, jl, d), src.load(1, jl, d)];
            let [t, s] = self.0.update((k, jl, il0 + d), here, south, north);
            out.store(0, jl, d, t);
            out.store(1, jl, d, s);
            north[0].write(&mut ft[d..]);
            north[1].write(&mut fs[d..]);
        });
    }

    /// `operator_tile` with the ISA an argument.
    pub fn tile(&self, isa: Isa, bounds: [(usize, usize); 3]) {
        let [(k0, k1), (j0, j1), (i0, i1)] = bounds;
        let (n, il0) = (i1 - i0, i0 + H);
        isa.run_with_scratch(
            2 * n,
            self,
            #[inline(always)]
            |this, rolling| {
                for k in k0..k1 {
                    let src = Level {
                        q: &this.0.q,
                        k,
                        il0,
                    };
                    this.prime(k, j0 + H, il0, rolling, &src);
                    for jl in j0 + H..j1 + H {
                        this.row(k, jl, il0, rolling, &src);
                    }
                }
            },
        );
    }
}

impl<Q: Rows> Functor3D for FunctorAdvectY<Q> {
    fn operator(&self, k: usize, j: usize, i: usize) {
        self.tile(Isa::BASELINE, [(k, k + 1), (j, j + 1), (i, i + 1)]);
    }

    fn operator_tile(&self, bounds: [(usize, usize); 3]) {
        self.tile(Isa::detect(), bounds);
    }

    /// As [`FunctorAdvectX`]: [`Y_FLOPS`], and the same 17 words.
    fn cost(&self) -> IterCost {
        IterCost {
            flops: Y_FLOPS,
            bytes: 8 * (READS + RESULTS),
        }
    }
}

kokkos_rs::register_for_3d!(kernel_advect_y_band, FunctorAdvectY<RowBand>);

/// Both horizontal passes of the interior rows `[H, ny − H)` as one row
/// wavefront: for each level and tile, x for row `jl + H` into a
/// [`RING`]-row ring in per-thread scratch, then y for row `jl` from that
/// ring — the y stencil reads x rows `jl − H ..= jl + H`, all owned, so no
/// intermediate row of the interior reaches memory and none waits for a
/// message. A row the band holds is the boundary launch's: the ring copies
/// it from there instead of computing it again. The members are the
/// launches on either side of it: `x` over the owned rows of the band
/// (into it) and `y` over the rims (from it). Every cell sees the members'
/// operations in their order, so its bits are theirs.
pub struct FunctorAdvectWave {
    pub x: FunctorAdvectX<RowBand>,
    pub y: FunctorAdvectY<RowBand>,
}

impl FunctorAdvectWave {
    /// The launch: the interior rows, a tile a whole interior level, so no
    /// x row is computed twice. A SwAthread launch narrows the columns to
    /// fit the ring, not the tile, in LDM ([`Functor3D::resident_rows`]).
    fn policy(&self) -> MDRangePolicy3 {
        let [nz, pj, pi] = self.y.0.q1[0].dims();
        let (rows, nx) = (pj - 4 * H, pi - 2 * H);
        MDRangePolicy3::new([nz, rows, nx])
            .with_offset([0, H, 0])
            .with_tile([1, rows, nx])
    }

    /// Leave x of row `jl` (`n` columns from `il0`, level `k`) in `ring`:
    /// copied from the band when it holds the row, computed otherwise.
    #[inline(always)]
    fn x_row(&self, k: usize, jl: usize, il0: usize, flux: &mut [f64], ring: &mut Ring) {
        let band = &self.x.0.q1;
        if !band[0].holds(jl, jl + 1) {
            self.x.row(k, jl, il0, flux, ring);
            return;
        }
        let src = Level { q: band, k, il0 };
        lanes::lane_blocks!(d, W in ring.n => {
            for t in 0..2 {
                ring.store(t, jl, d, src.load::<W>(t, jl, d));
            }
        });
    }

    /// `operator_tile` with the ISA an argument.
    pub fn tile(&self, isa: Isa, bounds: [(usize, usize); 3]) {
        let [(k0, k1), (j0, j1), (i0, i1)] = bounds;
        let (n, il0, jl0) = (i1 - i0, i0 + H, j0 + H);
        isa.run_with_scratch(
            2 * (n + 1) + 2 * n + 2 * RING * n,
            self,
            #[inline(always)]
            |this, scratch| {
                let (flux, rest) = scratch.split_at_mut(2 * (n + 1));
                let (rolling, words) = rest.split_at_mut(2 * n);
                let mut ring = Ring { words, n };
                for k in k0..k1 {
                    // The rows the first y row's south faces read.
                    for jl in jl0 - H..jl0 + H {
                        this.x_row(k, jl, il0, flux, &mut ring);
                    }
                    this.y.prime(k, jl0, il0, rolling, &ring);
                    for jl in jl0..j1 + H {
                        this.x_row(k, jl + H, il0, flux, &mut ring);
                        this.y.row(k, jl, il0, rolling, &ring);
                    }
                }
            },
        );
    }
}

impl Functor3D for FunctorAdvectWave {
    fn operator(&self, k: usize, j: usize, i: usize) {
        self.tile(Isa::BASELINE, [(k, k + 1), (j, j + 1), (i, i + 1)]);
    }

    fn operator_tile(&self, bounds: [(usize, usize); 3]) {
        self.tile(Isa::detect(), bounds);
    }

    /// The union of the members' footprints: x's reads, y's corner
    /// velocities and the `kmt` north of the cell (the cell's own `kmt` and
    /// the row metric x has read), and y's results — the intermediate is
    /// neither stored nor reloaded. The `4H` rows a level copies from the
    /// band count as x's.
    fn cost(&self) -> IterCost {
        IterCost {
            flops: X_FLOPS + Y_FLOPS,
            bytes: 8 * (READS + CORNERS + (KMT - 1) + RESULTS),
        }
    }

    /// The ring: a tile walks its rows holding [`RING`] of them.
    fn resident_rows(&self) -> Option<usize> {
        Some(RING)
    }
}

kokkos_rs::register_for_3d!(kernel_advect_wave, FunctorAdvectWave);

/// The vertical pass of both tracers: the interface vertical velocity
/// diagnosed from continuity, then limited upstream fluxes through the
/// interfaces and the divergence update, column-wise (the column loop *is*
/// the stencil, so one body does every step). `w` lives only in the
/// block's work rows, and the interface CFL `c = |w| dt / dz` — a divide —
/// serves `T` and `S`. Not a launch of its own: the first member of the
/// tracer chain of the new level's column pass
/// ([`crate::columns::TracerChain`]), which takes its result straight into
/// diffusion and the implicit solve.
pub struct AdvectZ {
    /// The current velocity level (its ghosts the previous step's
    /// filtered ones), from which `w` is diagnosed.
    pub u: View3<f64>,
    pub v: View3<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dz: View1<f64>,
    pub dt: f64,
    pub nz: usize,
    pub limited: bool,
}

impl AdvectZ {
    /// Work words per lane: the diagnosed `w`, and per tracer the staged
    /// `q` and the interface fluxes `f[k]`, `k = 0..=nz` — whose rows the
    /// continuity's four staged face sums use first.
    pub const fn scratch_words(nz: usize) -> usize {
        5 * nz + 2
    }

    /// Face-normal velocity at `W` faces adjacent in `i` from the sum of
    /// each face's two B-grid corners: their mean, zero where the
    /// shallower of the face's two T cells (`kface` levels) is dry at `k`.
    #[inline(always)]
    fn face<const W: usize>(k: usize, kface: &[i32; W], corners: [f64; W]) -> F64x<W> {
        above(k, kface).select(0.5 * F64x(corners), F64x::splat(0.0))
    }

    /// The interface vertical velocity of the columns `(jl, il..il + W)`
    /// from continuity, bottom-up: `w(k) = w(k+1) − dz_k · div_h(k)`,
    /// `w(kmt) = 0`, into `ws[k]` for `k < kmax`; `stage` holds the four
    /// faces' corner sums (`4 nz` rows). A lane shallower than the block's
    /// deepest column sees only dry faces below its bottom, so its `w`
    /// stays zero there.
    #[inline(always)]
    fn continuity<const W: usize>(
        &self,
        jl: usize,
        il: usize,
        (kmt, kmax): ([i32; W], usize),
        stage: &mut [f64],
        ws: &mut [[f64; W]],
    ) {
        // Stage the corner sums of the east/west/north/south faces first:
        // loads and one add each, so a cache miss per level stays in
        // flight. East/west faces of (jl, il) lie between corners (jl, ·)
        // and (jl-1, ·); north/south faces between (·, il) and (·, il-1).
        let (e, rest) = stage.split_at_mut(self.nz * W);
        let (w_, rest) = rest.split_at_mut(self.nz * W);
        let (n, s) = rest.split_at_mut(self.nz * W);
        let rows = |r| lanes::rows::<W>(r, kmax);
        let (e, w_, n, s) = (rows(e), rows(w_), rows(n), rows(s));
        let u = |k, jn, i_n| F64x::<W>::load(&self.u, k, jn, i_n);
        let v = |k, jn, i_n| F64x::<W>::load(&self.v, k, jn, i_n);
        for k in 0..kmax {
            e[k] = (u(k, jl, il) + u(k, jl - 1, il)).0;
            w_[k] = (u(k, jl, il - 1) + u(k, jl - 1, il - 1)).0;
            n[k] = (v(k, jl, il) + v(k, jl, il - 1)).0;
            s[k] = (v(k, jl - 1, il) + v(k, jl - 1, il - 1)).0;
        }
        // Wet depth of each face: the shallower of its two T cells.
        let face_depth = |jn: usize, i_n: usize| -> [i32; W] {
            let (nb, _) = lanes::depths::<W>(&self.kmt, jn, i_n);
            std::array::from_fn(|l| kmt[l].min(nb[l]))
        };
        let (ke, kw) = (face_depth(jl, il + 1), face_depth(jl, il - 1));
        let (kn, ks) = (face_depth(jl + 1, il), face_depth(jl - 1, il));
        let area = self.dxt.at(jl) * self.dyt;
        let dxn = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1));
        let dxs = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl - 1));
        let mut w = F64x::<W>::splat(0.0); // bottom interface of each lane's deepest wet layer
        for k in (0..kmax).rev() {
            let fe = Self::face(k, &ke, e[k]) * self.dyt;
            let fw = Self::face(k, &kw, w_[k]) * self.dyt;
            let fn_ = Self::face(k, &kn, n[k]) * dxn;
            let fs = Self::face(k, &ks, s[k]) * dxs;
            let div = (fe - fw + fn_ - fs) / area;
            w = above(k, &kmt).select(w - self.dz.at(k) * div, w);
            ws[k] = w.0;
        }
    }

    /// The pass over the columns `(jl, il..il + W)` at **padded** indices,
    /// of depths `kmt` (the deepest `kmax > 0`): reads both tracers `q` and
    /// leaves tracer `t`'s updated level `k` in row `2k + t` of `out`, for
    /// `k < kmax`. A lane's rows at and below its own depth hold its `q`
    /// unchanged (no flux crosses its bottom), and mean nothing to a caller
    /// that stores only wet rows.
    #[inline(always)]
    pub fn column<const W: usize>(
        &self,
        q: [&View3<f64>; 2],
        jl: usize,
        il: usize,
        (kmt, kmax): ([i32; W], usize),
        scratch: &mut [f64],
        out: &mut [[f64; W]],
    ) {
        // Interface fluxes f[k], k = 0..=kmt; f[kmt] (bottom) is zero.
        // w > 0 is upward: donor is the layer below the interface
        // (layer k). The surface interface carries the free-surface
        // dilution flux w(0)·q(0): without it, persistent surface
        // convergence (rising η) pumps tracer into a fixed-thickness top
        // layer with nothing to balance it, and coastal cells warm
        // secularly. With it, the fixed control volume exchanges tracer
        // with the moving surface at the surface value — bounded and
        // zero-mean under oscillating η.
        let zero = F64x::<W>::splat(0.0);
        let nz = self.nz;
        let (ws, rest) = scratch.split_at_mut(nz * W);
        let ws = lanes::rows::<W>(ws, kmax);
        self.continuity::<W>(jl, il, (kmt, kmax), rest, ws);
        let (qs, f) = rest.split_at_mut(2 * nz * W);
        // Row `2k + t` is tracer `t` at level / interface `k`.
        let (qs, f) = (
            lanes::rows::<W>(qs, 2 * kmax),
            lanes::rows::<W>(f, 2 * kmax + 2),
        );
        // Stage the block's tracers first: a bare copy loop keeps a cache
        // miss per level in flight, which the flux loop (two divides per
        // level and tracer) cannot — the vertical stride puts every level
        // on its own line and page.
        for k in 0..kmax {
            for (t, q) in q.iter().enumerate() {
                qs[2 * k + t] = F64x::<W>::load(q, k, jl, il).0;
            }
        }
        let top = above(0, &kmt);
        for t in 0..2 {
            f[t] = top.select(F64x(ws[0]) * F64x(qs[t]), zero).0;
            f[2 * kmax + t] = zero.0;
        }
        for k in 1..kmax {
            let w = F64x(ws[k]);
            let c = (w.abs() * self.dt / self.dz.at(k)).min(F64x::splat(1.0));
            let up = w.ge(zero);
            let (wet, wet_below) = (above(k, &kmt), above(k + 1, &kmt));
            for t in 0..2 {
                let q_at = |k: usize| F64x(qs[2 * k + t]);
                let (q_k, q_above) = (q_at(k), q_at(k - 1));
                // w ≥ 0: donor layer k (below interface k), upwind k+1 while
                // that is still water. Otherwise donor layer k-1 (above),
                // upwind k-2.
                let behind_up = if k + 1 < kmax {
                    wet_below.select(q_at(k + 1), q_k)
                } else {
                    q_k
                };
                let behind_down = if k >= 2 { q_at(k - 2) } else { q_above };
                let qf = face_values(
                    up.select(behind_up, behind_down),
                    up.select(q_k, q_above),
                    up.select(q_above, q_k),
                    c,
                    self.limited,
                );
                f[2 * k + t] = wet.select(w * qf, zero).0;
            }
        }
        for k in 0..kmax {
            for t in 0..2 {
                // d(q)/dt = -(f[k] - f[k+1]) / dz  (f positive upward).
                let dq = -self.dt * (F64x(f[2 * k + t]) - F64x(f[2 * k + 2 + t])) / self.dz.at(k);
                out[2 * k + t] = (F64x(qs[2 * k + t]) + dq).0;
            }
        }
    }
}

/// Tag base of the band's exchange inside [`advect_tracer`].
const TMP_TAG_BASE: u64 = 820;

/// Register this module's functors.
pub fn register() {
    kernel_advect_x_band();
    kernel_advect_y_band();
    kernel_advect_wave();
}

/// The horizontal half of the dimension-split advection of both tracers
/// `q` over `dt`, writing `q_out`; the vertical half is the first member of
/// the tracer chain of the new level's column pass
/// ([`crate::columns::TracerChain`]), which runs on `q_out` next. Requires valid halos on `q`, `u`, `v`. One
/// schedule on every rank count and block height, in three steps:
///
/// 1. **boundary x** — the x pass on the owned rows of `band` (a
///    [`RowBand`] per tracer): `[0, 2H)` and
///    `[ny − 2H, ny)`, which the rims' y stencil reads and whose outer `H`
///    are the images of the neighbours' and the fold's ghost rows; then the
///    band's exchange is posted (it runs only the routes the band holds:
///    no east/west strip, which the y stencil never reads);
/// 2. **wavefront** — x → y over the interior rows `[H, ny − H)` in one
///    launch ([`FunctorAdvectWave`]), reading no ghost row and taking the
///    x rows step 1 wrote from the band, under the exchange; `poster` says
///    whether it is in flight meanwhile;
/// 3. **rims** — the exchange finished, the y pass over rows `[0, H)` and
///    `[ny − H, ny)` from the band.
///
/// Every cell is computed from the same inputs in the same order as x over
/// all cells, a full exchange and one dense y.
#[allow(clippy::too_many_arguments)]
pub fn advect_tracer(
    space: &Space,
    g: &LocalGrid,
    q: [&View3<f64>; 2],
    q_out: [&View3<f64>; 2],
    band: [&RowBand; 2],
    u: &View3<f64>,
    v: &View3<f64>,
    dt: f64,
    limited: bool,
    halo: &Halo3D,
    poster: Poster,
) -> Result<(), HaloError> {
    let (nx, ny, nz) = (g.nx, g.ny, g.nz);
    for b in band {
        assert!(
            b.dims() == [nz, g.pj, g.pi],
            "the intermediate is a band of the padded block"
        );
    }
    let band = band.map(RowBand::clone);
    let (q, q_out) = (q.map(View3::clone), q_out.map(View3::clone));
    let wave = FunctorAdvectWave {
        x: FunctorAdvectX(AdvectFields::new(g, (q, band.clone()), u, dt, limited)),
        y: FunctorAdvectY(AdvectFields::new(g, (band.clone(), q_out), v, dt, limited)),
    };
    // Rows `[lo, hi)` of every level and column.
    let rows = |lo: usize, hi: usize| {
        (lo < hi).then(|| MDRangePolicy3::new([nz, hi - lo, nx]).with_offset([0, lo, 0]))
    };
    let edges = |depth: usize| {
        let south = depth.min(ny);
        [
            rows(0, south),
            rows(south.max(ny.saturating_sub(depth)), ny),
        ]
    };
    {
        let _r = kokkos_rs::profiling::region("adv:xpass");
        for p in edges(2 * H).into_iter().flatten() {
            parallel_for_3d(space, p, &wave.x);
        }
    }
    let mut pend = {
        let _r = kokkos_rs::profiling::region("adv:halo");
        let batch = band.each_ref().map(|b| (b, FoldKind::Scalar));
        poster.post(halo.begin_exchange_many(&batch, TMP_TAG_BASE)?)?
    };
    if ny > 2 * H {
        let _r = kokkos_rs::profiling::region("adv:wavefront");
        if let Some(p) = pend.as_mut() {
            p.poll()?;
        }
        parallel_for_3d(space, wave.policy(), &wave);
    }
    if let Some(p) = pend {
        let _r = kokkos_rs::profiling::region("adv:halo");
        p.finish()?;
    }
    let _r = kokkos_rs::profiling::region("adv:ypass");
    for p in edges(H).into_iter().flatten() {
        parallel_for_3d(space, p, &wave.y);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn van_leer(r: f64) -> f64 {
        super::van_leer(F64x([r])).0[0]
    }

    fn face_value(qu: f64, qc: f64, qd: f64, c: f64, limited: bool) -> f64 {
        face_values(F64x([qu]), F64x([qc]), F64x([qd]), F64x([c]), limited).0[0]
    }

    #[test]
    fn van_leer_limiter_properties() {
        assert_eq!(van_leer(-1.0), 0.0); // extremum → pure upstream
        assert_eq!(van_leer(0.0), 0.0);
        assert!((van_leer(1.0) - 1.0).abs() < 1e-12); // smooth → centered
        for r in [-10.0, -0.5, 0.3, 1.0, 7.0] {
            let p = van_leer(r);
            assert!((0.0..=2.0).contains(&p), "φ({r}) = {p}");
        }
    }

    #[test]
    fn face_value_reduces_to_upstream_when_unlimited_flag_off() {
        assert_eq!(face_value(1.0, 2.0, 5.0, 0.1, false), 2.0);
    }

    #[test]
    fn face_value_bounded_by_neighbors() {
        // The corrected face value stays between donor and downwind.
        for (qu, qc, qd) in [(0.0, 1.0, 2.0), (3.0, 2.0, 0.0), (1.0, 1.0, 1.0)] {
            for c in [0.0, 0.3, 0.9] {
                let f = face_value(qu, qc, qd, c, true);
                let (lo, hi) = (qc.min(qd), qc.max(qd));
                assert!(f >= lo - 1e-12 && f <= hi + 1e-12);
            }
        }
    }

    /// 1-D periodic advection with the same face logic: the update must
    /// never create values outside the initial [min, max] (shape
    /// preservation), for any velocity within CFL. `flux` is caller-owned
    /// scratch (east face of cell i), sized `q.len()` — hoisted out so
    /// repeated applications don't reallocate per call (the same
    /// steady-state discipline as the model's `Workspace`).
    fn advect_1d(q: &[f64], u: f64, c: f64, limited: bool, flux: &mut [f64]) -> Vec<f64> {
        let n = q.len();
        assert_eq!(flux.len(), n);
        let get = |i: i64| q[i.rem_euclid(n as i64) as usize];
        for i in 0..n as i64 {
            let qf = if u >= 0.0 {
                face_value(get(i - 1), get(i), get(i + 1), c, limited)
            } else {
                face_value(get(i + 2), get(i + 1), get(i), c, limited)
            };
            flux[i as usize] = u * qf;
        }
        (0..n)
            .map(|i| {
                let fw = flux[(i + n - 1) % n];
                q[i] - (c / u.abs().max(1e-30)) * (flux[i] - fw) * u.signum().abs()
            })
            .collect()
    }

    proptest! {
        #[test]
        fn prop_1d_advection_preserves_bounds(
            vals in proptest::collection::vec(-10.0f64..10.0, 8..40),
            c in 0.01f64..0.95,
            positive in proptest::bool::ANY,
            limited in proptest::bool::ANY,
        ) {
            let u = if positive { 1.0 } else { -1.0 };
            let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
            let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
            let mut q = vals.clone();
            let mut flux = vec![0.0; q.len()];
            for _ in 0..5 {
                q = advect_1d(&q, u, c, limited, &mut flux);
                for &x in &q {
                    prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9,
                        "new extremum {x} outside [{lo}, {hi}]");
                }
            }
        }

        #[test]
        fn prop_1d_advection_conserves_mass(
            vals in proptest::collection::vec(-5.0f64..5.0, 8..30),
            c in 0.05f64..0.9,
        ) {
            let total: f64 = vals.iter().sum();
            let mut flux = vec![0.0; vals.len()];
            let q = advect_1d(&vals, 1.0, c, true, &mut flux);
            let total2: f64 = q.iter().sum();
            prop_assert!((total - total2).abs() < 1e-9 * (1.0 + total.abs()));
        }
    }

    #[test]
    fn two_step_is_less_diffusive_than_upstream() {
        // Advect a smooth bump one full revolution; the limited scheme
        // must retain more of the peak than pure upstream.
        let n = 50;
        let q0: Vec<f64> = (0..n)
            .map(|i| (-((i as f64 - 12.0) / 4.0).powi(2)).exp())
            .collect();
        let c = 0.5;
        let steps = (n as f64 / c) as usize; // one revolution
        let run = |limited: bool| {
            let mut q = q0.clone();
            let mut flux = vec![0.0; n];
            for _ in 0..steps {
                q = advect_1d(&q, 1.0, c, limited, &mut flux);
            }
            q.iter().cloned().fold(f64::MIN, f64::max)
        };
        let peak_two_step = run(true);
        let peak_upstream = run(false);
        assert!(
            peak_two_step > peak_upstream + 0.05,
            "two-step peak {peak_two_step} vs upstream {peak_upstream}"
        );
        assert!(peak_two_step <= 1.0 + 1e-9, "no overshoot");
    }
}
