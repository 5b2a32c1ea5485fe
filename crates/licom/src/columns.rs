//! The column pass that finishes the new level.
//!
//! Once the momentum pass ([`crate::baroclinic::FunctorMomentumColumns`]),
//! the barotropic window and the horizontal advection passes are done, what
//! is left of the new level is column-local, and it is one kernel over the
//! owned wet T columns, [`FunctorNewLevelColumns`] over `cols`. A block of columns runs three
//! chains, each in its own order of operations:
//!
//! 1. the canuto closure ([`CanutoFields::closure`]) on the current level,
//!    into two work rows of interface coefficients `km` / `kh`: its density
//!    from the `T[c]` / `S[c]` the tracer chain's diffusion reads, its
//!    velocities averaged from the corners the tracer chain's `w`
//!    diagnosis reads;
//! 2. the velocity chain ([`VelocityChain`], masked by `kmu`): the leapfrog
//!    step, the implicit vertical friction on the `km` rows and the
//!    barotropic-mode correction. The tendency is stored in the new level
//!    itself, which is dead until this pass: a block loads every tendency
//!    level of its columns into its work rows before it stores the first
//!    new velocity;
//! 3. the tracer chain ([`TracerChain`], masked by `kmt`): the vertical
//!    advection pass (on a `w` it diagnoses from the current velocity
//!    level into work rows), horizontal diffusion (a stencil on the
//!    *current* level, so a column of the new one needs no neighbour of
//!    it), the implicit vertical mixing on the `kh` rows and the surface
//!    restore.
//!
//! The coefficients live only in the block's work rows, and a block keeps
//! its levels there from a chain's first member to its last and stores the
//! new level once. A velocity column is a T column (`kmu` is the least of
//! the four surrounding `kmt`, so `ucols ⊆ cols`); a T column with
//! `kmu = 0` runs no velocity lane and writes no velocity cell.
//!
//! The physics guard's measures are taken from the stored values on the
//! way out, one maximum per column ([`crate::guard::ColumnMaxima`]), so the
//! guard reads no 3-D field on a healthy step.
//!
//! Every cell sees the IEEE operations of the chain's members in their
//! order, so a chain split out as a launch of its own would leave the same
//! bits. The velocity chain stores wet cells only: the owned dry velocity
//! cells (land columns, levels `≥ kmu`) must hold `+0` in every level,
//! which they do because the state starts so, the momentum pass stores
//! `+0` on a block's dry lanes, the Asselin filter of three `+0` is `+0`,
//! and a checkpoint holds what it saved
//! (`tests/dry_velocity.rs`).
//!
//! The body is a [`ColumnKernel`], generic over the number `W` of
//! adjacent columns it runs together: the wet-list launch walks each run
//! of wet columns down the ladder of [`crate::lanes`] and the per-entry
//! `operator` is `W = 1`. A block's work rows are its functor's local
//! arrays (the §V-C2 "local arrays within the functor" strategy); those of
//! a full-depth column fit a quarter of a CPE's LDM.

use kokkos_rs::{FunctorList, IterCost, View1, View2, View3};

use crate::advect::AdvectZ;
use crate::canuto::CanutoFields;
use crate::eos;
use crate::forcing::SurfaceRestore;
use crate::guard;
use crate::lanes::{self, above, ColumnKernel, F64x, Isa};
use crate::vmix::{work_words, VerticalSolve};

/// The velocity chain: `new = old + dt2 · tend`, implicit friction on
/// `km` / `kmu` over `dt2`, then each wet column's thickness-weighted mean
/// replaced by the barotropic window average.
pub struct VelocityChain {
    /// `[u, v]` at the old level.
    pub old: [View3<f64>; 2],
    /// `[u, v]` at the new level: their tendencies on entry (`+0` on dry
    /// cells), the new velocities on exit, written on wet cells only.
    pub new: [View3<f64>; 2],
    /// The friction solve, masked by `kmu`. Its `dt` is the leapfrog
    /// interval `dt2`, which the leapfrog steps over too.
    pub solve: VerticalSolve,
    /// The barotropic window averages `[ubt, vbt]`.
    pub bt: [View2<f64>; 2],
    /// Written at `kmu > 0`: each column's largest [`guard::speed`].
    pub speed: View2<f64>,
}

impl VelocityChain {
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
    const fn footprint(nz: u64) -> IterCost {
        IterCost {
            flops: 30 * nz + 4,
            bytes: 128 * nz + 32,
        }
    }

    /// The solve's `a`, `b`, `c` rows and the two fields' `d` rows.
    fn scratch_words(&self) -> usize {
        work_words(2, self.solve.nz)
    }

    /// The columns `(jl, il..il + W)` at **padded** indices, their
    /// viscosity `km` (interfaces `0..kmax` under `kmu`) in work rows.
    #[inline(always)]
    pub fn block<const W: usize>(
        &self,
        jl: usize,
        il: usize,
        km: &[[f64; W]],
        scratch: &mut [f64],
    ) {
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
        s.solve::<W, 2>(depths, km, abc, d);
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
        fastest.store2_where(above(0, &kb), &self.speed, jl, il);
    }

    /// The lines the leapfrog reads, down to the first column's depth.
    #[inline(always)]
    fn prefetch(&self, jl: usize, il: usize) {
        for k in 0..self.solve.mask.at(jl, il) as usize {
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
pub struct TracerChain {
    /// `[T, S]` at the new level: the y pass's output on entry, finished in
    /// place on wet cells.
    pub q: [View3<f64>; 2],
    pub advect: AdvectZ,
    pub hdiff: TracerHDiff,
    /// The mixing solve, masked by `kmt`; its `dt` is the tracer step.
    pub solve: VerticalSolve,
    pub restore: SurfaceRestore,
    /// The guard's `[T, S]` windows.
    pub bounds: [(f64, f64); 2],
    /// Written: each column's largest [`guard::excess`] of `T` and `S`.
    pub excess: View2<f64>,
}

impl TracerChain {
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
    const fn footprint(nz: u64) -> IterCost {
        IterCost {
            flops: 128 * nz + 16,
            bytes: 416 * nz + 32,
        }
    }

    /// The two tracers' rows, then the advection's staging rows, which the
    /// solve's `a`, `b`, `c` rows reuse.
    fn scratch_words(&self) -> usize {
        let nz = self.solve.nz;
        2 * nz + AdvectZ::scratch_words(nz).max(3 * nz)
    }

    /// The columns `(jl, il..il + W)` at **padded** indices, their
    /// diffusivity `kh` (interfaces `0..kmax` under `kmt`) in work rows.
    #[inline(always)]
    pub fn block<const W: usize>(
        &self,
        jl: usize,
        il: usize,
        kh: &[[f64; W]],
        scratch: &mut [f64],
    ) {
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
        solve.solve::<W, 2>(depths, kh, work, d);
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

    /// The lines the advection and the diffusion read, down to the first
    /// column's depth: at the columns themselves (the velocity corners a
    /// row south, the previous row of blocks has touched), and the
    /// diffusion's northern neighbours, which no earlier row of blocks has
    /// touched (the southern ones it has).
    #[inline(always)]
    fn prefetch(&self, jl: usize, il: usize) {
        for k in 0..self.solve.mask.at(jl, il) as usize {
            lanes::prefetch3(&self.advect.u, k, jl, il);
            lanes::prefetch3(&self.advect.v, k, jl, il);
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

/// The new level in one pass over the owned wet T columns: per block, the
/// canuto closure into two coefficient rows, then the velocity chain on
/// the `km` row and the tracer chain on the `kh` row. Neither coefficient
/// is stored.
pub struct FunctorNewLevelColumns {
    /// The closure on the current level. Its density is worked out from
    /// the tracer chain's `hdiff.q_cur`, `T[c]` / `S[c]`; its `u` / `v` are
    /// the current level the tracer chain's advection reads.
    pub closure: CanutoFields,
    pub velocity: VelocityChain,
    pub tracer: TracerChain,
}

impl FunctorNewLevelColumns {
    /// The two chains' footprints ([`VelocityChain::footprint`],
    /// [`TracerChain::footprint`]) and, per level, the closure's members —
    /// the EOS (6 flops, 24 B) and canuto (90, 100: density, `u` and `v` at
    /// the four corners, `km` / `kh` stored, the mask and `z_t`) — less
    /// what launches of their own pay again: density's store and the
    /// closure's reload of it (16 B), the `T` / `S` loads and the eight
    /// corner loads the tracer chain makes anyway (16 + 64 B), and `km` /
    /// `kh`'s stores and the two solves' reloads of them (32 B).
    fn footprint(&self) -> IterCost {
        let nz = self.closure.nz as u64;
        let (uv, ts) = (VelocityChain::footprint(nz), TracerChain::footprint(nz));
        let closure = IterCost {
            flops: (6 + 90) * nz,
            bytes: (24 + 100) * nz,
        };
        let again = (16 + 16 + 64 + 32) * nz;
        IterCost {
            flops: uv.flops + ts.flops + closure.flops,
            bytes: uv.bytes + ts.bytes + closure.bytes - again,
        }
    }
}

impl ColumnKernel for FunctorNewLevelColumns {
    /// The `km` and `kh` rows (`nz + 1` interfaces each), then the rows of
    /// one chain at a time: the closure's density and staged velocities,
    /// the velocity chain's, the tracer chain's.
    fn scratch_words(&self) -> usize {
        let nz = self.closure.nz;
        let closure = nz + self.closure.scratch_words();
        let chains = self
            .velocity
            .scratch_words()
            .max(self.tracer.scratch_words());
        2 * (nz + 1) + closure.max(chains)
    }

    /// The columns `(jl, il..il + W)` at **padded** indices.
    #[inline(always)]
    fn block<const W: usize>(&self, jl: usize, il: usize, scratch: &mut [f64]) {
        let c = &self.closure;
        let depths = lanes::depths::<W>(&c.kmt, jl, il);
        let kmax = depths.1;
        if kmax == 0 {
            return;
        }
        let (km, rest) = scratch.split_at_mut((c.nz + 1) * W);
        let (kh, work) = rest.split_at_mut((c.nz + 1) * W);
        let (km, kh) = (
            lanes::rows::<W>(km, kmax + 1),
            lanes::rows::<W>(kh, kmax + 1),
        );
        let (rho, staged) = work.split_at_mut(c.nz * W);
        let rho = lanes::rows::<W>(rho, kmax);
        let [t, s] = &self.tracer.hdiff.q_cur;
        for (k, row) in rho.iter_mut().enumerate() {
            *row = eos::density(F64x::load(t, k, jl, il), F64x::load(s, k, jl, il)).0;
        }
        c.closure::<W>(jl, il, depths, rho, staged, [&mut *km, &mut *kh]);
        self.velocity.block::<W>(jl, il, km, work);
        self.tracer.block::<W>(jl, il, kh, work);
    }

    /// What both chains read first, down to the first column's depth.
    #[inline(always)]
    fn prefetch(&self, jl: usize, il: usize) {
        self.velocity.prefetch(jl, il);
        self.tracer.prefetch(jl, il);
    }
}

/// Explicit horizontal diffusion of both tracers, `q += dt · κ ∇² q_cur`,
/// no-flux across land — the tracer chain's second member. `T` and `S`
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

/// The list launch of the pass. A list entry is a packed owned wet T
/// column `jl · pi + il` (`pi` is `kmt`'s row pitch).
impl FunctorList for FunctorNewLevelColumns {
    fn operator(&self, _n: usize, idx: u32) {
        lanes::run_column(self, self.closure.kmt.extent(1), idx);
    }

    /// Out of line, once a tile, so `scripts/check_isa_clone.sh` can follow
    /// the pass into its AVX2 clone.
    #[inline(never)]
    fn operator_span(&self, _n0: usize, entries: &[u32]) {
        lanes::run_span(Isa::detect(), self, self.closure.kmt.extent(1), entries);
    }

    fn cost(&self) -> IterCost {
        self.footprint()
    }
}

kokkos_rs::register_for_list!(kernel_new_level_columns, FunctorNewLevelColumns);

/// Register this module's functors.
pub fn register() {
    kernel_new_level_columns();
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

    fn solve(mask: View2<i32>, dz: View1<f64>, dt: f64) -> VerticalSolve {
        let nz = dz.len();
        VerticalSolve {
            mask,
            dz,
            z_t: View::from_fn("z_t", [nz], |[k]| 12.5 + 25.0 * k as f64),
            dt,
            nz,
        }
    }

    /// The velocity and tracer chains, each alone at `W = 1` with every
    /// interface coefficient zero.
    fn velocity(f: &VelocityChain) {
        let nz = f.solve.nz;
        f.block::<1>(
            H,
            H,
            &vec![[0.0]; nz + 1],
            &mut vec![0.0; f.scratch_words()],
        );
    }

    fn tracer(f: &TracerChain) {
        let nz = f.solve.nz;
        f.block::<1>(
            H,
            H,
            &vec![[0.0]; nz + 1],
            &mut vec![0.0; f.scratch_words()],
        );
    }

    /// No friction (`K = 0`), no tendency: the chain is the mode correction
    /// alone, which moves the depth mean to the window average and keeps
    /// the shear.
    #[test]
    fn the_velocity_chain_sets_the_depth_mean_and_keeps_the_shear() {
        let nz = 4;
        let (d3, mask, dz) = block(nz);
        let d2 = [d3[1], d3[2]];
        let u: View3<f64> = View::from_fn("u", d3, |[k, _, _]| k as f64); // mean 1.5
        let ubt: View2<f64> = View::host("ubt", d2);
        ubt.fill(2.0);
        let new: [View3<f64>; 2] = [View::host("un", d3), View::host("vn", d3)];
        let f = VelocityChain {
            old: [u, View::host("v", d3)],
            new: new.clone(),
            solve: solve(mask.clone(), dz, 40.0),
            bt: [ubt, View::host("vbt", d2)],
            speed: View::host("speed", d2),
        };
        velocity(&f);
        let un: Vec<f64> = (0..nz).map(|k| new[0].at(k, H, H)).collect();
        let mean = un.iter().sum::<f64>() / nz as f64;
        assert!((mean - 2.0).abs() < 1e-12, "depth mean now {mean}");
        assert!((un[3] - un[0] - 3.0).abs() < 1e-12, "shear lost: {un:?}");
        assert_eq!(f.speed.at(H, H), un[3], "the column's fastest cell");
        // A T column without velocity cells writes none, nor its speed.
        mask.set_at(H, H, 0);
        f.speed.set_at(H, H, -1.0);
        new[0].fill(7.0);
        velocity(&f);
        assert!(new[0].as_slice().iter().all(|&x| x == 7.0));
        assert_eq!(f.speed.at(H, H), -1.0);
    }

    /// What the guard reads of a column: its largest measure over the wet
    /// levels only, non-finite values as `+∞`.
    #[test]
    fn the_tracer_chain_leaves_the_columns_largest_excess() {
        let nz = 3;
        let (d3, mask, dz) = block(nz);
        let d2 = [d3[1], d3[2]];
        mask.set_at(H, H, 2);
        // A 50 °C cell at level 1, a NaN below the column's bottom.
        let t: View3<f64> = View::from_fn("t", d3, |[k, _, _]| if k == 1 { 50.0 } else { 10.0 });
        t.set_at(2, H, H, f64::NAN);
        let s: View3<f64> = View::from_fn("s", d3, |_| 35.0);
        let quiet = || View::from_fn("q", d3, |_| 10.0);
        let f = TracerChain {
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
            solve: solve(mask, dz, 20.0),
            restore: SurfaceRestore {
                lat: View::host("lat", [d3[1]]),
                dt: 0.0,
            },
            bounds: [(-5.0, 45.0), (18.0, 50.0)],
            excess: View::host("excess", d2),
        };
        tracer(&f);
        assert_eq!(t.at(1, H, H), 50.0, "nothing moves a still column");
        assert_eq!(f.excess.at(H, H), 5.0, "the dry NaN is not the column's");
        t.set_at(0, H, H, f64::NAN);
        tracer(&f);
        assert_eq!(f.excess.at(H, H), f64::INFINITY, "a wet NaN is +∞");
    }

    /// Reference water (`T_REF`, `S_REF`) 10 m a level in one column of
    /// `kmt` wet levels: the closure's `km` on every interface.
    #[test]
    fn the_closure_closes_a_still_column() {
        use crate::constants::KM_BACKGROUND;
        use ocean_grid::RHO0;
        let (nz, kmt) = (6, 4);
        let (d3, mask, _) = block(nz);
        mask.set_at(H, H, kmt);
        let col = (H * d3[2] + H) as u32;
        // Still, unstratified water: no shear, no N², neutral closure above
        // the bottom and background on and below it.
        let closure = CanutoFields {
            u: View::host("u", d3),
            v: View::host("v", d3),
            kmt: mask,
            z_t: View::from_fn("z_t", [nz], |[k]| 5.0 + 10.0 * k as f64),
            nz,
        };
        let rho: View3<f64> = View::from_fn("rho", d3, |_| RHO0);
        let d3w = [nz + 1, d3[1], d3[2]];
        let (km, kh) = (View::host("km", d3w), View::host("kh", d3w));
        closure.evaluate(&rho, &[col], d3[2], [&km, &kh]);
        assert!(km.at(1, H, H) > KM_BACKGROUND);
        for k in [0, kmt as usize, nz] {
            assert_eq!(km.at(k, H, H), KM_BACKGROUND, "interface {k}");
        }
    }

    /// The §V-C2 evidence for the list launch: the column pass keeps a
    /// block's levels in its work rows, the functor's local arrays, from
    /// its first member to its last. At the deepest supported column its
    /// work rows at `W = 1` fit the ¼-LDM stream budget of a CPE.
    #[test]
    fn a_full_depth_column_fits_a_quarter_of_ldm() {
        let nz = lanes::MAX_NZ;
        let (d3, kmt, dz) = block(nz);
        let solve = || VerticalSolve {
            mask: kmt.clone(),
            dz: dz.clone(),
            z_t: dz.clone(),
            dt: 1.0,
            nz,
        };
        let advect = AdvectZ {
            u: View::host("u", d3),
            v: View::host("v", d3),
            kmt: kmt.clone(),
            dxt: dz.clone(),
            dyt: 1.0,
            dz: dz.clone(),
            dt: 1.0,
            nz,
            limited: true,
        };
        let d2 = [d3[1], d3[2]];
        let new_level = FunctorNewLevelColumns {
            closure: CanutoFields {
                u: View::host("u", d3),
                v: View::host("v", d3),
                kmt: kmt.clone(),
                z_t: dz.clone(),
                nz,
            },
            velocity: VelocityChain {
                old: [View::host("u", d3), View::host("v", d3)],
                new: [View::host("u", d3), View::host("v", d3)],
                solve: solve(),
                bt: [View::host("ubt", d2), View::host("vbt", d2)],
                speed: View::host("speed", d2),
            },
            tracer: TracerChain {
                q: [View::host("t", d3), View::host("s", d3)],
                advect,
                hdiff: TracerHDiff {
                    q_cur: [View::host("t", d3), View::host("s", d3)],
                    kmt: kmt.clone(),
                    dxt: dz.clone(),
                    dyt: 1.0,
                    kappa: 1.0,
                    dt: 1.0,
                },
                solve: solve(),
                restore: SurfaceRestore {
                    lat: dz.clone(),
                    dt: 1.0,
                },
                bounds: [(0.0, 1.0); 2],
                excess: View::host("excess", d2),
            },
        };
        // The two coefficient rows and the tracer chain's rows.
        let words = new_level.scratch_words();
        assert_eq!(words, 2 * (nz + 1) + 2 * nz + AdvectZ::scratch_words(nz));
        assert!(words * 8 <= 256 * 1024 / 4, "{words} words");
    }
}
