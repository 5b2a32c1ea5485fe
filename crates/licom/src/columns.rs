//! The column passes: the old level read once, the new level finished once.
//!
//! What a step needs of the old level before the momentum tendency is
//! column-local: density from `T` / `S`, the hydrostatic pressure integral
//! of it, and the canuto closure on its `N²` and the velocity shear. That
//! chain is one kernel whose density lives only in the block's work rows:
//!
//! * [`FunctorDensityColumns`] over `cols` (`kmt > 0`, owned), and the same
//!   body with the closure member off over `cols_halo` (the wet halo
//!   columns whose pressure the momentum stencil reads: the row north of
//!   the block and the column east of it; their `km` / `kh` nobody reads).
//!
//! Once the momentum tendency and the barotropic window are done, what is
//! left of the new velocity level is column-local: the leapfrog step, the
//! implicit vertical friction and the barotropic-mode correction. The
//! tendency is stored in the new level itself, which is dead until this
//! pass: a block loads every tendency level of its columns into its work
//! rows before it stores the first new velocity. Once the
//! horizontal advection passes are done, so is what is left of the new
//! tracer level: the vertical advection pass (on a `w` it diagnoses from
//! the current velocity level into work rows), horizontal diffusion (a
//! stencil on the *current* level, so a column of the new one needs no
//! neighbour of it), the implicit vertical mixing and the surface restore.
//! Each chain is one kernel over its owned wet columns, which keeps a
//! block's levels in its work rows from the first member to the last and
//! stores the new level once:
//!
//! * [`FunctorVelocityColumns`] over `ucols` (`kmu > 0`);
//! * [`FunctorTracerColumns`] over `cols` (`kmt > 0`).
//!
//! The physics guard's measures are taken from the stored values on the
//! way out, one maximum per column ([`crate::guard::ColumnMaxima`]), so the
//! guard reads no 3-D field on a healthy step.
//!
//! Every cell sees the IEEE operations of the chain's members in their
//! order, so a member split out as a launch of its own would leave the same
//! bits. The velocity pass stores wet cells only: the owned dry velocity
//! cells (land columns, levels `≥ kmu`) must hold `+0` in every level,
//! which they do because the state starts so, the Asselin filter of three
//! `+0` is `+0`, and a checkpoint holds what it saved
//! (`tests/dry_velocity.rs`).
//!
//! All three bodies are [`ColumnKernel`]s, generic over the number `W` of
//! adjacent columns they run together: the wet-list launch walks each run
//! of wet columns down the ladder of [`crate::lanes`] and the per-entry
//! `operator` is `W = 1`. A block's work rows are its functor's local
//! arrays (the §V-C2 "local arrays within the functor" strategy); those of
//! a full-depth column fit a quarter of a CPE's LDM.

use kokkos_rs::{FunctorList, IterCost, View1, View2, View3};
use ocean_grid::GRAVITY;

use crate::advect::AdvectZ;
use crate::canuto::CanutoFields;
use crate::eos;
use crate::forcing::SurfaceRestore;
use crate::guard;
use crate::lanes::{self, above, ColumnKernel, F64x, Isa};
use crate::vmix::{work_words, VerticalSolve};

/// The old-level chain: density from `T` / `S` into work rows, the
/// hydrostatic pressure integral of them (stored), then the canuto closure
/// on the same rows (`km` / `kh` stored).
pub struct FunctorDensityColumns {
    /// `T` and `S` at the current level.
    pub t: View3<f64>,
    pub s: View3<f64>,
    /// Written: every level of each column, held constant below its bottom.
    pub pressure: View3<f64>,
    pub dz: View1<f64>,
    pub kmt: View2<i32>,
    pub nz: usize,
    /// The closure member; `None` on the halo columns, which need pressure
    /// only.
    pub closure: Option<CanutoFields>,
}

impl FunctorDensityColumns {
    /// The census rows of its members per level — the EOS (6 flops, 24 B),
    /// the pressure integral (5, 24) and, with the closure, canuto (90,
    /// 100) — less what launches of their own pay again: the store of
    /// density and each later member's reload of it (8 B each).
    fn footprint(&self) -> IterCost {
        let nz = self.nz as u64;
        let (flops, bytes) = match self.closure {
            Some(_) => (6 + 5 + 90, 24 + 24 + 100 - 3 * 8),
            None => (6 + 5, 24 + 24 - 2 * 8),
        };
        IterCost {
            flops: flops * nz,
            bytes: bytes * nz,
        }
    }
}

impl ColumnKernel for FunctorDensityColumns {
    /// The density rows, then the closure's staged velocities.
    fn scratch_words(&self) -> usize {
        self.nz + self.closure.as_ref().map_or(0, CanutoFields::scratch_words)
    }

    /// The columns `(jl, il..il + W)` at **padded** indices: pressure is
    /// integrated down to each lane's bottom and held constant below it.
    #[inline(always)]
    fn block<const W: usize>(&self, jl: usize, il: usize, scratch: &mut [f64]) {
        let depths = lanes::depths::<W>(&self.kmt, jl, il);
        let (kb, kmax) = depths;
        let (rho, work) = scratch.split_at_mut(self.nz * W);
        let rho = lanes::rows::<W>(rho, kmax);
        let mut p = F64x::<W>::splat(0.0);
        let mut prev_rho_dz = F64x::<W>::splat(0.0);
        for (k, row) in rho.iter_mut().enumerate() {
            let r = eos::density(
                F64x::load(&self.t, k, jl, il),
                F64x::load(&self.s, k, jl, il),
            );
            *row = r.0;
            let rdz = r * self.dz.at(k);
            p = above(k, &kb).select(p + GRAVITY * 0.5 * (prev_rho_dz + rdz), p);
            p.store(&self.pressure, k, jl, il);
            prev_rho_dz = rdz;
        }
        for k in kmax..self.nz {
            p.store(&self.pressure, k, jl, il);
        }
        if let Some(closure) = &self.closure {
            closure.closure::<W>(jl, il, depths, rho, work);
        }
    }
}

/// Entry `idx` is a packed wet column `jl · pi + il` (`pi` is `kmt`'s row
/// pitch). Dry columns are not visited: their pressure stays the zero it
/// was allocated with, the integral over no water.
impl FunctorList for FunctorDensityColumns {
    fn operator(&self, _n: usize, idx: u32) {
        lanes::run_column(self, self.kmt.extent(1), idx);
    }

    /// Out of line, once a tile, so `scripts/check_isa_clone.sh` can follow
    /// the pass into its AVX2 clone.
    #[inline(never)]
    fn operator_span(&self, _n0: usize, entries: &[u32]) {
        lanes::run_span(Isa::detect(), self, self.kmt.extent(1), entries);
    }

    fn cost(&self) -> IterCost {
        self.footprint()
    }
}

kokkos_rs::register_for_list!(kernel_density_columns, FunctorDensityColumns);

/// The velocity chain: `new = old + dt2 · tend`, implicit friction on
/// `km` / `kmu` over `dt2`, then each wet column's thickness-weighted mean
/// replaced by the barotropic window average.
pub struct FunctorVelocityColumns {
    /// `[u, v]` at the old level.
    pub old: [View3<f64>; 2],
    /// `[u, v]` at the new level: their tendencies on entry (`+0` on dry
    /// cells), the new velocities on exit, written on wet cells only.
    pub new: [View3<f64>; 2],
    /// The friction solve. Its `dt` is the leapfrog interval `dt2`, which
    /// the leapfrog steps over too.
    pub solve: VerticalSolve,
    /// The barotropic window averages `[ubt, vbt]`.
    pub bt: [View2<f64>; 2],
    /// Written: each column's largest [`guard::speed`].
    pub speed: View2<f64>,
}

impl FunctorVelocityColumns {
    /// The union of the members' costs, each field once
    /// (`crates/bench/tests/census.rs` holds the sum against the census
    /// rows). Per level: the leapfrog of `u` and `v` (4 flops, 72 B), two
    /// single-field friction solves (28, 128), the mode correction (3, 48)
    /// and the guard's speed scan (4, 16), less what launches of their own
    /// pay again — the matrix the two solves share (9, 32), the new level's
    /// store that the leapfrog made and the solve re-read and re-wrote
    /// (32 B), the leapfrog's two mask reads (8 B), the correction's passes
    /// over `u` and `v` (48 B) and the guard's two reads (16 B). Per column:
    /// the window averages read and the maximum stored (32 B), the
    /// correction's two divides and two subtracts.
    fn footprint(&self) -> IterCost {
        let nz = self.solve.nz as u64;
        IterCost {
            flops: 30 * nz + 4,
            bytes: 128 * nz + 32,
        }
    }
}

impl ColumnKernel for FunctorVelocityColumns {
    /// The solve's `a`, `b`, `c` rows and the two fields' `d` rows.
    fn scratch_words(&self) -> usize {
        work_words(2, self.solve.nz)
    }

    /// The columns `(jl, il..il + W)` at **padded** indices.
    #[inline(always)]
    fn block<const W: usize>(&self, jl: usize, il: usize, scratch: &mut [f64]) {
        let s = &self.solve;
        let depths = lanes::depths::<W>(&s.mask, jl, il);
        let (kb, kmax) = depths;
        if kmax == 0 {
            return;
        }
        let (abc, d) = scratch.split_at_mut(3 * s.nz * W);
        // Row `2k + f` is field `f` at level `k`.
        let d = lanes::rows::<W>(d, 2 * kmax);
        for k in 0..kmax {
            for f in 0..2 {
                let old = F64x::<W>::load(&self.old[f], k, jl, il);
                d[2 * k + f] = (old + s.dt * F64x::load(&self.new[f], k, jl, il)).0;
            }
        }
        s.solve::<W, 2>(jl, il, depths, abc, d);
        // Mode correction, summed from the surface down as a column of its
        // own would be.
        let zero = F64x::<W>::splat(0.0);
        let (mut su, mut sv, mut h) = (zero, zero, zero);
        for k in 0..kmax {
            let (wet, dz) = (above(k, &kb), s.dz.at(k));
            su = wet.select(su + F64x(d[2 * k]) * dz, su);
            sv = wet.select(sv + F64x(d[2 * k + 1]) * dz, sv);
            h = wet.select(h + dz, h);
        }
        let du = F64x::load2(&self.bt[0], jl, il) - su / h;
        let dv = F64x::load2(&self.bt[1], jl, il) - sv / h;
        let mut fastest = zero;
        for k in 0..kmax {
            let wet = above(k, &kb);
            let (u, v) = (F64x(d[2 * k]) + du, F64x(d[2 * k + 1]) + dv);
            u.store_where(wet, &self.new[0], k, jl, il);
            v.store_where(wet, &self.new[1], k, jl, il);
            fastest = wet.select(fastest.max(guard::speed(u, v)), fastest);
        }
        fastest.store2(&self.speed, jl, il);
    }

    /// The lines the leapfrog and the solve read, down to the first
    /// column's depth.
    #[inline(always)]
    fn prefetch(&self, jl: usize, il: usize) {
        for k in 0..self.solve.mask.at(jl, il) as usize {
            lanes::prefetch3(&self.solve.kcoef, k, jl, il);
            for q in self.old.iter().chain(&self.new) {
                lanes::prefetch3(q, k, jl, il);
            }
        }
    }
}

/// The tracer chain on the horizontal passes' output `q`: the vertical
/// advection pass (its `w` diagnosed from the current velocity level into
/// work rows), `+ dt · κ ∇²` of the current level, implicit mixing on
/// `kh` / `kmt` over `dt`, the surface restore.
pub struct FunctorTracerColumns {
    /// `[T, S]` at the new level: the y pass's output on entry, finished in
    /// place on wet cells.
    pub q: [View3<f64>; 2],
    pub advect: AdvectZ,
    pub hdiff: TracerHDiff,
    /// The mixing solve; its `dt` is the tracer step.
    pub solve: VerticalSolve,
    pub restore: SurfaceRestore,
    /// The guard's `[T, S]` windows.
    pub bounds: [(f64, f64); 2],
    /// Written: each column's largest [`guard::excess`] of `T` and `S`.
    pub excess: View2<f64>,
}

impl FunctorTracerColumns {
    /// The union of the members' costs, each field once
    /// (`crates/bench/tests/census.rs` holds the sum against the census
    /// rows). Per level: the continuity diagnosis of `w` (20 flops, 120 B),
    /// two single-field vertical advection passes (60, 160), two
    /// single-field diffusions (28, 160), two single-field mixing solves
    /// (28, 128) and the guard's bounds scan (8, 16), less what launches of
    /// their own pay again — `w` between the members (the diagnosis's
    /// store, the advection's load: 16 B), the CFL and `w` the advection
    /// shares (4, 16), the metrics and masks the diffusion shares (3, 24),
    /// the matrix the solves share (9, 32), the new level between the
    /// members (the advection's store, the diffusion's load and store, the
    /// solve's load: 64 B) and the guard's two reads (16 B). Per column:
    /// the restore (16 flops, 48 B) less its load and store of the surface
    /// row (32 B), and the maximum stored (16 B).
    fn footprint(&self) -> IterCost {
        let nz = self.solve.nz as u64;
        IterCost {
            flops: 128 * nz + 16,
            bytes: 416 * nz + 32,
        }
    }
}

impl ColumnKernel for FunctorTracerColumns {
    /// The two tracers' rows, then the advection's staging rows, which the
    /// solve's `a`, `b`, `c` rows reuse.
    fn scratch_words(&self) -> usize {
        let nz = self.solve.nz;
        2 * nz + AdvectZ::scratch_words(nz).max(3 * nz)
    }

    /// The columns `(jl, il..il + W)` at **padded** indices.
    #[inline(always)]
    fn block<const W: usize>(&self, jl: usize, il: usize, scratch: &mut [f64]) {
        let solve = &self.solve;
        let depths = lanes::depths::<W>(&solve.mask, jl, il);
        let (kb, kmax) = depths;
        if kmax == 0 {
            return;
        }
        let (d, work) = scratch.split_at_mut(2 * solve.nz * W);
        // Row `2k + t` is tracer `t` at level `k`.
        let d = lanes::rows::<W>(d, 2 * kmax);
        let q = [&self.q[0], &self.q[1]];
        self.advect.column::<W>(q, jl, il, depths, work, d);
        for k in 0..kmax {
            let [t, s] = self
                .hdiff
                .add(k, jl, il, [F64x(d[2 * k]), F64x(d[2 * k + 1])]);
            (d[2 * k], d[2 * k + 1]) = (t.0, s.0);
        }
        solve.solve::<W, 2>(jl, il, depths, work, d);
        let [t, s] = (self.restore).apply(jl, above(0, &kb), [F64x(d[0]), F64x(d[1])]);
        (d[0], d[1]) = (t.0, s.0);
        let mut worst = F64x::<W>::splat(0.0);
        for k in 0..kmax {
            let wet = above(k, &kb);
            let (t, s) = (F64x(d[2 * k]), F64x(d[2 * k + 1]));
            t.store_where(wet, q[0], k, jl, il);
            s.store_where(wet, q[1], k, jl, il);
            let e = guard::excess(t, self.bounds[0]).max(guard::excess(s, self.bounds[1]));
            worst = wet.select(worst.max(e), worst);
        }
        worst.store2(&self.excess, jl, il);
    }

    /// The lines the advection, the diffusion and the solve read, down to
    /// the first column's depth: at the columns themselves (the velocity
    /// corners a row south, the previous row of blocks has touched), and the
    /// diffusion's northern neighbours, which no earlier row of blocks has
    /// touched (the southern ones it has).
    #[inline(always)]
    fn prefetch(&self, jl: usize, il: usize) {
        for k in 0..self.solve.mask.at(jl, il) as usize {
            lanes::prefetch3(&self.advect.u, k, jl, il);
            lanes::prefetch3(&self.advect.v, k, jl, il);
            lanes::prefetch3(&self.solve.kcoef, k, jl, il);
            for q in &self.q {
                lanes::prefetch3(q, k, jl, il);
            }
            for q in &self.hdiff.q_cur {
                lanes::prefetch3(q, k, jl, il);
                lanes::prefetch3(q, k, jl + 1, il);
            }
        }
    }
}

/// Explicit horizontal diffusion of both tracers, `q += dt · κ ∇² q_cur`,
/// no-flux across land — the tracer pass's second member. `T` and `S`
/// share the wet mask, the four neighbours' wetness and the metrics, which
/// are worked out once per block.
pub struct TracerHDiff {
    pub q_cur: [View3<f64>; 2],
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub kappa: f64,
    pub dt: f64,
}

impl TracerHDiff {
    /// `q` of the `W` cells `(k, jl, il..il + W)` (**padded** indices) with
    /// the diffusion added where wet; dry lanes keep theirs.
    #[inline(always)]
    pub fn add<const W: usize>(
        &self,
        k: usize,
        jl: usize,
        il: usize,
        q: [F64x<W>; 2],
    ) -> [F64x<W>; 2] {
        let wet = lanes::wet::<W>(&self.kmt, k, jl, il);
        let wet_nb = lanes::wet_around::<W>(&self.kmt, k, jl, il);
        let dx = self.dxt.at(jl);
        let mut out = q;
        for (q_cur, out) in self.q_cur.iter().zip(&mut out) {
            let c = F64x::<W>::load(q_cur, k, jl, il);
            let [e, w, n, s] = lanes::free_slip(q_cur, &wet_nb, c, k, jl, il);
            let lap = (e - 2.0 * c + w) / (dx * dx) + (n - 2.0 * c + s) / (self.dyt * self.dyt);
            *out = wet.select(*out + self.dt * self.kappa * lap, *out);
        }
        out
    }
}

/// The list launch of a column pass. A list entry is a packed owned wet
/// column `jl · pi + il` (`pi` is the mask's row pitch).
macro_rules! column_pass {
    ($F:ty, $list:ident) => {
        impl FunctorList for $F {
            fn operator(&self, _n: usize, idx: u32) {
                lanes::run_column(self, self.solve.mask.extent(1), idx);
            }

            /// Out of line, once a tile, so `scripts/check_isa_clone.sh` can
            /// follow the pass into its AVX2 clone.
            #[inline(never)]
            fn operator_span(&self, _n0: usize, entries: &[u32]) {
                lanes::run_span(Isa::detect(), self, self.solve.mask.extent(1), entries);
            }

            fn cost(&self) -> IterCost {
                self.footprint()
            }
        }

        kokkos_rs::register_for_list!($list, $F);
    };
}

column_pass!(FunctorVelocityColumns, kernel_velocity_columns);
column_pass!(FunctorTracerColumns, kernel_tracer_columns);

/// Register this module's functors.
pub fn register() {
    kernel_density_columns();
    kernel_velocity_columns();
    kernel_tracer_columns();
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_exchange::HALO as H;
    use kokkos_rs::View;

    /// One owned column of `nz` levels in a padded block, every level wet.
    fn block(nz: usize) -> ([usize; 3], View2<i32>, View1<f64>) {
        let mask: View2<i32> = View::host("mask", [1 + 2 * H, 1 + 2 * H]);
        mask.fill(nz as i32);
        let dz: View1<f64> = View::host("dz", [nz]);
        dz.fill(25.0);
        ([nz, 1 + 2 * H, 1 + 2 * H], mask, dz)
    }

    /// No friction (`K = 0`), no tendency: the pass is the mode correction
    /// alone, which moves the depth mean to the window average and keeps
    /// the shear.
    #[test]
    fn the_velocity_pass_sets_the_depth_mean_and_keeps_the_shear() {
        let nz = 4;
        let (d3, mask, dz) = block(nz);
        let d2 = [d3[1], d3[2]];
        let u: View3<f64> = View::from_fn("u", d3, |[k, _, _]| k as f64); // mean 1.5
        let ubt: View2<f64> = View::host("ubt", d2);
        ubt.fill(2.0);
        let new: [View3<f64>; 2] = [View::host("un", d3), View::host("vn", d3)];
        let f = FunctorVelocityColumns {
            old: [u, View::host("v", d3)],
            new: new.clone(),
            solve: VerticalSolve {
                kcoef: View::host("km", [nz + 1, d3[1], d3[2]]),
                mask,
                dz,
                z_t: View::from_fn("z_t", [nz], |[k]| 12.5 + 25.0 * k as f64),
                dt: 40.0,
                nz,
            },
            bt: [ubt, View::host("vbt", d2)],
            speed: View::host("speed", d2),
        };
        FunctorList::operator(&f, 0, (H * d3[2] + H) as u32);
        let un: Vec<f64> = (0..nz).map(|k| new[0].at(k, H, H)).collect();
        let mean = un.iter().sum::<f64>() / nz as f64;
        assert!((mean - 2.0).abs() < 1e-12, "depth mean now {mean}");
        assert!((un[3] - un[0] - 3.0).abs() < 1e-12, "shear lost: {un:?}");
        assert_eq!(f.speed.at(H, H), un[3], "the column's fastest cell");
    }

    /// What the guard reads of a column: its largest measure over the wet
    /// levels only, non-finite values as `+∞`.
    #[test]
    fn the_tracer_pass_leaves_the_columns_largest_excess() {
        let nz = 3;
        let (d3, mask, dz) = block(nz);
        let d2 = [d3[1], d3[2]];
        mask.set_at(H, H, 2);
        // A 50 °C cell at level 1, a NaN below the column's bottom.
        let t: View3<f64> = View::from_fn("t", d3, |[k, _, _]| if k == 1 { 50.0 } else { 10.0 });
        t.set_at(2, H, H, f64::NAN);
        let s: View3<f64> = View::from_fn("s", d3, |_| 35.0);
        let quiet = || View::from_fn("q", d3, |_| 10.0);
        let f = FunctorTracerColumns {
            q: [t.clone(), s],
            advect: AdvectZ {
                u: View::host("u", d3),
                v: View::host("v", d3),
                kmt: mask.clone(),
                dxt: View::from_fn("dxt", [d3[1]], |_| 1.0e4),
                dyt: 1.0e4,
                dz: dz.clone(),
                dt: 20.0,
                nz,
                limited: true,
            },
            hdiff: TracerHDiff {
                q_cur: [quiet(), quiet()],
                kmt: mask.clone(),
                dxt: View::from_fn("dxt", [d3[1]], |_| 1.0e4),
                dyt: 1.0e4,
                kappa: 0.0,
                dt: 20.0,
            },
            solve: VerticalSolve {
                kcoef: View::host("kh", [nz + 1, d3[1], d3[2]]),
                mask,
                dz,
                z_t: View::from_fn("z_t", [nz], |[k]| 12.5 + 25.0 * k as f64),
                dt: 20.0,
                nz,
            },
            restore: SurfaceRestore {
                lat: View::host("lat", [d3[1]]),
                dt: 0.0,
            },
            bounds: [(-5.0, 45.0), (18.0, 50.0)],
            excess: View::host("excess", d2),
        };
        FunctorList::operator(&f, 0, (H * d3[2] + H) as u32);
        assert_eq!(t.at(1, H, H), 50.0, "nothing moves a still column");
        assert_eq!(f.excess.at(H, H), 5.0, "the dry NaN is not the column's");
        t.set_at(0, H, H, f64::NAN);
        FunctorList::operator(&f, 0, (H * d3[2] + H) as u32);
        assert_eq!(f.excess.at(H, H), f64::INFINITY, "a wet NaN is +∞");
    }

    /// The old-level pass over one column of reference water (`T_REF`,
    /// `S_REF`) 10 m a level, with `kmt` wet levels and the closure member
    /// on or off; its pressure and `km`.
    fn old_level(nz: usize, kmt: i32, closure: bool) -> (View3<f64>, View3<f64>) {
        use crate::constants::{S_REF, T_REF};
        let (d3, mask, _) = block(nz);
        mask.set_at(H, H, kmt);
        let d3w = [nz + 1, d3[1], d3[2]];
        let km: View3<f64> = View::from_fn("km", d3w, |_| -1.0);
        let f = FunctorDensityColumns {
            t: View::from_fn("t", d3, |_| T_REF),
            s: View::from_fn("s", d3, |_| S_REF),
            pressure: View::host("p", d3),
            dz: View::from_fn("dz", [nz], |_| 10.0),
            kmt: mask.clone(),
            nz,
            closure: closure.then(|| CanutoFields {
                u: View::host("u", d3),
                v: View::host("v", d3),
                km: km.clone(),
                kh: View::host("kh", d3w),
                kmt: mask,
                z_t: View::from_fn("z_t", [nz], |[k]| 5.0 + 10.0 * k as f64),
                nz,
            }),
        };
        FunctorList::operator(&f, 0, (H * d3[2] + H) as u32);
        (f.pressure, km)
    }

    /// Pressure grows down the wet levels from `g ρ0 dz / 2` and is held
    /// below the bottom; the closure member writes every interface, and
    /// the halo columns' pass (closure off) leaves the same pressure.
    #[test]
    fn the_old_level_pass_integrates_pressure_and_closes_the_column() {
        use crate::constants::KM_BACKGROUND;
        use ocean_grid::RHO0;
        let (nz, kmt) = (6, 4);
        let (p, km) = old_level(nz, kmt, true);
        let want = GRAVITY * RHO0 * 5.0;
        assert!((p.at(0, H, H) - want).abs() / want < 1e-12);
        for k in 1..kmt as usize {
            assert!(p.at(k, H, H) > p.at(k - 1, H, H), "level {k}");
        }
        for k in kmt as usize..nz {
            assert_eq!(p.at(k, H, H), p.at(kmt as usize - 1, H, H), "level {k}");
        }
        // Still, unstratified water: no shear, no N², neutral closure above
        // the bottom and background on and below it.
        assert!(km.at(1, H, H) > KM_BACKGROUND);
        for k in [0, kmt as usize, nz] {
            assert_eq!(km.at(k, H, H), KM_BACKGROUND, "interface {k}");
        }
        let (halo, untouched) = old_level(nz, kmt, false);
        assert_eq!(halo.as_slice(), p.as_slice(), "the halo pass's pressure");
        assert!(untouched.as_slice().iter().all(|&k| k == -1.0));
    }

    /// The §V-C2 evidence for the list launch: a column pass keeps a
    /// block's levels in its work rows, the functor's local arrays, from
    /// its first member to its last. At the deepest supported column the
    /// work rows of all three passes at `W = 1` fit the ¼-LDM stream budget
    /// of a CPE.
    #[test]
    fn a_full_depth_column_fits_a_quarter_of_ldm() {
        let nz = lanes::MAX_NZ;
        let tracer = 2 * nz + AdvectZ::scratch_words(nz).max(3 * nz);
        let (d3, kmt, dz) = block(nz);
        let old_level = FunctorDensityColumns {
            t: View::host("t", d3),
            s: View::host("s", d3),
            pressure: View::host("p", d3),
            dz: dz.clone(),
            kmt: kmt.clone(),
            nz,
            closure: Some(CanutoFields {
                u: View::host("u", d3),
                v: View::host("v", d3),
                km: View::host("km", [1, 1, 1]),
                kh: View::host("kh", [1, 1, 1]),
                kmt,
                z_t: dz,
                nz,
            }),
        };
        assert_eq!(old_level.scratch_words(), 3 * nz);
        for words in [work_words(2, nz), tracer, old_level.scratch_words()] {
            assert!(words * 8 <= 256 * 1024 / 4, "{words} words");
        }
    }
}
