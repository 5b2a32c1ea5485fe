//! *canuto* vertical mixing and its load balancing (paper §V-C1).
//!
//! The canuto second-order-closure scheme assigns vertical viscosity and
//! diffusivity from the local gradient Richardson number
//! `Ri = N² / S²`. We use quasi-equilibrium stability functions with the
//! Canuto-scheme asymptotics — neutral-limit constants, convective
//! saturation for `Ri < 0`, and heat mixing shutting down faster than
//! momentum as stratification grows — in place of the full multi-term
//! closure (a fidelity simplification documented in DESIGN.md; the
//! computational *shape* — an expensive per-interface evaluation on ocean
//! columns only — is preserved, which is what the optimization targets).
//!
//! "The canuto parameterization calculation is the second most
//! computationally expensive kernel. This kernel is oriented vertically
//! in the downward direction when the Earth's surface is oceanic" — so on
//! a rectangular launch, ranks and CPEs assigned land do nothing while
//! ocean lanes grind: load imbalance. The paper's two remedies:
//!
//! 1. within a rank, the closure runs over the wet columns packed densely
//!    as a [`kokkos_rs::ListPolicy`] whose tiles are cut by cumulative wet
//!    depth — the first member of the column pass that finishes the new
//!    level ([`crate::columns::FunctorNewLevelColumns`]), which hands its
//!    two coefficient rows straight to the velocity and tracer solves, so
//!    `km` / `kh` are never stored;
//! 2. [`balanced_cross_rank`] — ranks even out their wet-column counts by
//!    shipping column inputs to under-loaded ranks and collecting the
//!    results (the full Fig. 4 scheme, the ablation's library function).
//!
//! Both produce **bitwise identical** coefficients: there is one
//! closure body, [`CanutoFields::closure`], generic over the number `W` of
//! adjacent columns it evaluates together (see [`crate::lanes`]). The
//! fixed-point iteration of the stability functions is a chain of eight
//! dependent divides per interface; a [`LANES`](crate::lanes::LANES)-wide
//! block runs eight such chains side by side, with the regime early-outs
//! (`Ri < 0`, non-finite) and the per-column depth as lane selects. The
//! cross-rank donor/receiver paths and the scalar [`stability_functions`]
//! are the `W = 1` instantiation.

use kokkos_rs::{View1, View2, View3};
use mpi_sim::Comm;
use ocean_grid::{GRAVITY, RHO0};

use crate::constants::{KH_BACKGROUND, KM_BACKGROUND, K_MAX};
use crate::lanes::{self, above, F64x};

/// Stability functions `(s_m, s_h)` of `W` gradient Richardson numbers.
///
/// Deliberately iterative/expensive in the same way the real closure is:
/// a small fixed-point refinement models the scheme's implicit
/// turbulence-level equation.
#[inline(always)]
fn stability_lanes<const W: usize>(ri: F64x<W>) -> (F64x<W>, F64x<W>) {
    // Quasi-equilibrium fixed point: x = 1 / (1 + 10 Ri x)², solved by a
    // few damped iterations (converges for all Ri ≥ 0). Every lane
    // iterates; the other regimes are selected afterwards.
    let mut x = F64x::<W>::splat(1.0);
    for _ in 0..8 {
        let y = 1.0 + 10.0 * ri * x;
        let next = 1.0 / (y * y);
        x = 0.5 * (x + next);
    }
    let (s_m, s_h) = (x, x / (1.0 + 3.0 * ri));
    // Convective regime (Ri < 0): saturated mixing. Non-finite Ri: none.
    let (zero, one) = (F64x::splat(0.0), F64x::splat(1.0));
    let convective = ri.lt(zero);
    let finite = ri.is_finite();
    (
        finite.select(convective.select(one, s_m), zero),
        finite.select(convective.select(one, s_h), zero),
    )
}

/// Mixing coefficients from `Ri`: background plus closure contribution.
#[inline(always)]
fn mixing_lanes<const W: usize>(ri: F64x<W>) -> (F64x<W>, F64x<W>) {
    let (s_m, s_h) = stability_lanes(ri);
    (KM_BACKGROUND + K_MAX * s_m, KH_BACKGROUND + K_MAX * s_h)
}

/// Stability functions: `(s_m, s_h)` from the gradient Richardson number.
pub fn stability_functions(ri: f64) -> (f64, f64) {
    let (s_m, s_h) = stability_lanes(F64x([ri]));
    (s_m.0[0], s_h.0[0])
}

/// Mixing coefficients from `Ri`: background plus closure contribution.
pub fn mixing_coefficients(ri: f64) -> (f64, f64) {
    let (km, kh) = mixing_lanes(F64x([ri]));
    (km.0[0], kh.0[0])
}

/// What the closure reads besides the density of its columns.
#[derive(Clone)]
pub struct CanutoFields {
    /// The current velocity level, averaged from the 4 corners of a T
    /// column.
    pub u: View3<f64>,
    pub v: View3<f64>,
    pub kmt: View2<i32>,
    pub z_t: View1<f64>,
    pub nz: usize,
}

impl CanutoFields {
    /// Velocity `field` at the T columns `(jl, il..il + W)` of level `k`:
    /// the average of the 4 surrounding corners.
    #[inline(always)]
    fn at_t<const W: usize>(field: &View3<f64>, k: usize, jl: usize, il: usize) -> F64x<W> {
        0.25 * (F64x::load(field, k, jl, il)
            + F64x::load(field, k, jl - 1, il)
            + F64x::load(field, k, jl, il - 1)
            + F64x::load(field, k, jl - 1, il - 1))
    }

    /// Buoyancy-frequency-squared and shear-squared at interface `k`
    /// (between layers `k-1` and `k`) from the densities and T-column
    /// velocities of the two layers (`[upper, lower]`).
    #[inline(always)]
    fn n2_s2_lanes<const W: usize>(
        &self,
        k: usize,
        rho: [F64x<W>; 2],
        uc: [F64x<W>; 2],
        vc: [F64x<W>; 2],
    ) -> (F64x<W>, F64x<W>) {
        let dzw = self.z_t.at(k) - self.z_t.at(k - 1);
        let n2 = GRAVITY / RHO0 * (rho[1] - rho[0]) / dzw;
        let du = (uc[1] - uc[0]) / dzw;
        let dv = (vc[1] - vc[0]) / dzw;
        (n2, du * du + dv * dv)
    }

    /// `(N², S²)` at interface `k` of the single column `(jl, il)` of
    /// density `rho` — the record the cross-rank scheme ships.
    fn n2_s2(&self, rho: &View3<f64>, k: usize, jl: usize, il: usize) -> (f64, f64) {
        let rho = |kk| F64x::<1>::load(rho, kk, jl, il);
        let at = |f, kk| Self::at_t::<1>(f, kk, jl, il);
        let (n2, s2) = self.n2_s2_lanes(
            k,
            [rho(k - 1), rho(k)],
            [at(&self.u, k - 1), at(&self.u, k)],
            [at(&self.v, k - 1), at(&self.v, k)],
        );
        (n2.0[0], s2.0[0])
    }

    /// Work words per lane of [`Self::closure`]: the staged T-column
    /// velocities.
    pub fn scratch_words(&self) -> usize {
        2 * self.nz
    }

    /// The closure of the columns `(jl, il..il + W)` of wet depths `depths`
    /// (from [`lanes::depths`]) on their density rows `rho` (levels
    /// `0..kmax`), into the coefficient rows `[km, kh]` (interfaces
    /// `0..=kmax`): interfaces `1..kmt` of each lane get closure values, the
    /// rest background. Down to the block's deepest column every lane
    /// evaluates the closure and lanes already below their own bottom
    /// select background, so what `rho` holds there is never read into a
    /// result.
    #[inline(always)]
    pub fn closure<const W: usize>(
        &self,
        jl: usize,
        il: usize,
        (kmt, kmax): ([i32; W], usize),
        rho: &[[f64; W]],
        scratch: &mut [f64],
        [km_out, kh_out]: [&mut [[f64; W]]; 2],
    ) {
        let (km_bg, kh_bg) = (F64x::<W>::splat(KM_BACKGROUND), F64x::splat(KH_BACKGROUND));
        (km_out[0], kh_out[0]) = (km_bg.0, kh_bg.0);
        if kmax > 1 {
            // Stage the block's velocities first: this loop is loads and
            // three adds, so a cache miss per level stays in flight; the
            // closure loop below (a dozen divides per level) would expose
            // them one at a time.
            let (uc, vc) = scratch.split_at_mut(self.nz * W);
            let (uc, vc) = (lanes::rows::<W>(uc, kmax), lanes::rows::<W>(vc, kmax));
            for k in 0..kmax {
                uc[k] = Self::at_t::<W>(&self.u, k, jl, il).0;
                vc[k] = Self::at_t::<W>(&self.v, k, jl, il).0;
            }
            for k in 1..kmax {
                let layers = |s: &[[f64; W]]| [F64x(s[k - 1]), F64x(s[k])];
                let (n2, s2) = self.n2_s2_lanes(k, layers(rho), layers(uc), layers(vc));
                let ri = n2 / s2.max(F64x::splat(1e-12));
                let (km, kh) = mixing_lanes(ri);
                let wet = above(k, &kmt);
                km_out[k] = wet.select(km, km_bg).0;
                kh_out[k] = wet.select(kh, kh_bg).0;
            }
        }
        if kmax > 0 {
            // The deepest lane's bottom.
            (km_out[kmax], kh_out[kmax]) = (km_bg.0, kh_bg.0);
        }
    }

    /// The closure of the packed wet columns `wet_cols` (`jl · pi + il`)
    /// one at a time on the density view `rho`, into every interface of
    /// `[km, kh]` at those columns: the local evaluation the cross-rank
    /// scheme must reproduce.
    pub fn evaluate(&self, rho: &View3<f64>, wet_cols: &[u32], pi: usize, out: [&View3<f64>; 2]) {
        let nz = self.nz;
        let mut scratch = vec![0.0; 3 * (nz + 1) + self.scratch_words()];
        for &col in wet_cols {
            let (jl, il) = (col as usize / pi, col as usize % pi);
            let depths = lanes::depths::<1>(&self.kmt, jl, il);
            let (rows, work) = scratch.split_at_mut(3 * (nz + 1));
            let (rho_rows, coef) = rows.split_at_mut(nz + 1);
            let (km, kh) = coef.split_at_mut(nz + 1);
            let rho_rows = lanes::rows::<1>(rho_rows, depths.1);
            for (k, row) in rho_rows.iter_mut().enumerate() {
                *row = [rho.at(k, jl, il)];
            }
            let (km, kh) = (lanes::rows::<1>(km, nz + 1), lanes::rows::<1>(kh, nz + 1));
            self.closure::<1>(jl, il, depths, rho_rows, work, [&mut *km, &mut *kh]);
            for k in 0..=nz {
                let (m, h) = if k <= depths.1 {
                    (km[k][0], kh[k][0])
                } else {
                    (KM_BACKGROUND, KH_BACKGROUND)
                };
                out[0].set_at(k, jl, il, m);
                out[1].set_at(k, jl, il, h);
            }
        }
    }
}

/// Report of one balanced cross-rank canuto evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceReport {
    pub local_columns: usize,
    pub columns_sent: usize,
    pub columns_received: usize,
    /// max/mean wet-column imbalance before balancing.
    pub imbalance_before: f64,
    /// max/mean of (local − sent + received) after balancing.
    pub imbalance_after: f64,
}

/// The full Fig. 4 scheme: gather per-rank wet-column counts, ship the
/// surplus columns' `(N², S²)` inputs from overloaded to under-loaded
/// ranks, evaluate everywhere, and return the coefficients to the owner.
/// Bitwise identical to evaluating locally.
///
/// `rho` is the density of this rank's padded block, `wet_cols` its packed
/// owned wet columns `jl · pi + il` (the model's `cols` list) and
/// `[km, kh]` (`nz + 1` interfaces) receive every interface of those
/// columns. Columns are shipped from the tail of the list.
pub fn balanced_cross_rank(
    comm: &Comm,
    fields: &CanutoFields,
    rho: &View3<f64>,
    [km, kh]: [&View3<f64>; 2],
    wet_cols: &[u32],
    pi: usize,
) -> BalanceReport {
    let _r = kokkos_rs::profiling::region("canuto:balance");
    let nz = fields.nz;
    let nranks = comm.size();
    let counts: Vec<usize> = comm
        .allgather(vec![wet_cols.len()])
        .into_iter()
        .map(|v| v[0])
        .collect();
    let total: usize = counts.iter().sum();
    let fair = total.div_ceil(nranks.max(1));
    let mean = total as f64 / nranks as f64;
    let imbalance_before = if total == 0 {
        1.0
    } else {
        *counts.iter().max().unwrap() as f64 / mean.max(1e-9)
    };

    // Deterministic donor→receiver matching, in rank order.
    let mut surplus: Vec<(usize, usize)> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > fair)
        .map(|(r, &c)| (r, c - fair))
        .collect();
    let mut deficit: Vec<(usize, usize)> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c < fair)
        .map(|(r, &c)| (r, fair - c))
        .collect();
    // transfers[(donor, receiver)] = n columns
    let mut transfers: Vec<(usize, usize, usize)> = Vec::new();
    let (mut si, mut di) = (0, 0);
    while si < surplus.len() && di < deficit.len() {
        let n = surplus[si].1.min(deficit[di].1);
        if n > 0 {
            transfers.push((surplus[si].0, deficit[di].0, n));
        }
        surplus[si].1 -= n;
        deficit[di].1 -= n;
        if surplus[si].1 == 0 {
            si += 1;
        }
        if deficit[di].1 == 0 {
            di += 1;
        }
    }

    let me = comm.rank();
    let mut sent = 0usize;
    let mut received = 0usize;

    // Donor side: evaluate the kept head locally, ship the tail inputs.
    let my_out: Vec<(usize, usize, usize)> = transfers
        .iter()
        .filter(|(d, _, _)| *d == me)
        .cloned()
        .collect();
    let total_out: usize = my_out.iter().map(|(_, _, n)| n).sum();
    let keep = wet_cols.len() - total_out;
    fields.evaluate(rho, &wet_cols[..keep], pi, [km, kh]);
    // Fixed record size: nz-1 interface pairs per column (dry interfaces
    // padded with a s2<0 sentinel). Messages go through the pooled
    // send/recv path, so repeated balanced evaluations reuse buffers.
    let rec = (nz.saturating_sub(1)) * 2;
    // Pack tail inputs per receiver (in transfer order), straight into
    // the pooled message buffer.
    let mut cursor = keep;
    for &(_, recv, n) in &my_out {
        let cols = &wet_cols[cursor..cursor + n];
        comm.send_into(recv, 9000, n * rec, |buf| {
            let mut pos = 0;
            for &col in cols {
                let p = col as usize;
                let (jl, il) = (p / pi, p % pi);
                let kmt = fields.kmt.at(jl, il) as usize;
                for k in 1..=nz.saturating_sub(1) {
                    if k < kmt {
                        let (n2, s2) = fields.n2_s2(rho, k, jl, il);
                        buf[pos] = n2;
                        buf[pos + 1] = s2;
                    } else {
                        buf[pos] = 0.0;
                        buf[pos + 1] = -1.0; // sentinel: background interface
                    }
                    pos += 2;
                }
            }
        });
        sent += n;
        cursor += n;
    }
    // Receiver side: evaluate shipped columns and send coefficients back.
    let my_in: Vec<(usize, usize, usize)> = transfers
        .iter()
        .filter(|(_, r, _)| *r == me)
        .cloned()
        .collect();
    for &(donor, _, n) in &my_in {
        comm.recv_into(donor, 9000, |buf| {
            assert_eq!(buf.len(), n * rec);
            comm.send_into(donor, 9001, buf.len(), |out| {
                for (pair, o) in buf.chunks_exact(2).zip(out.chunks_exact_mut(2)) {
                    if pair[1] < 0.0 {
                        o[0] = KM_BACKGROUND;
                        o[1] = KH_BACKGROUND;
                    } else {
                        let ri = pair[0] / pair[1].max(1e-12);
                        let (km, kh) = mixing_coefficients(ri);
                        o[0] = km;
                        o[1] = kh;
                    }
                }
            });
        });
        received += n;
    }
    // Donor collects results and writes them into km/kh.
    let mut cursor = keep;
    for &(_, recv, n) in &my_out {
        let cols = &wet_cols[cursor..cursor + n];
        comm.recv_into(recv, 9001, |out| {
            assert_eq!(out.len(), n * rec);
            for (ci, &col) in cols.iter().enumerate() {
                let p = col as usize;
                let (jl, il) = (p / pi, p % pi);
                // Surface and bottom interfaces are background, as in
                // the local evaluation.
                let kmt = fields.kmt.at(jl, il) as usize;
                for k in 0..=nz {
                    let (km_k, kh_k) = if k >= 1 && k < kmt && k < nz {
                        let off = ci * rec + (k - 1) * 2;
                        (out[off], out[off + 1])
                    } else {
                        (KM_BACKGROUND, KH_BACKGROUND)
                    };
                    km.set_at(k, jl, il, km_k);
                    kh.set_at(k, jl, il, kh_k);
                }
            }
        });
        cursor += n;
    }

    let after_local = keep + received;
    let after: Vec<usize> = comm
        .allgather(vec![after_local])
        .into_iter()
        .map(|v| v[0])
        .collect();
    let imbalance_after = if total == 0 {
        1.0
    } else {
        *after.iter().max().unwrap() as f64 / mean.max(1e-9)
    };
    BalanceReport {
        local_columns: wet_cols.len(),
        columns_sent: sent,
        columns_received: received,
        imbalance_before,
        imbalance_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_functions_asymptotics() {
        let (sm0, sh0) = stability_functions(0.0);
        assert!((sm0 - 1.0).abs() < 1e-9, "neutral momentum: {sm0}");
        assert!((sh0 - 1.0).abs() < 1e-9);
        // Convective saturation.
        assert_eq!(stability_functions(-3.0), (1.0, 1.0));
        // Strong stratification kills mixing, heat faster than momentum.
        let (sm, sh) = stability_functions(5.0);
        assert!(sm < 0.1, "s_m(5) = {sm}");
        assert!(sh < sm, "s_h must shut down faster");
        // Monotone decreasing in Ri.
        let mut prev = 2.0;
        for i in 0..40 {
            let ri = i as f64 * 0.25;
            let (sm, _) = stability_functions(ri);
            assert!(sm <= prev + 1e-12);
            prev = sm;
        }
    }

    #[test]
    fn coefficients_bounded() {
        for ri in [-10.0, -0.1, 0.0, 0.3, 2.0, 100.0] {
            let (km, kh) = mixing_coefficients(ri);
            assert!((KM_BACKGROUND..=K_MAX + KM_BACKGROUND).contains(&km));
            assert!((KH_BACKGROUND..=K_MAX + KH_BACKGROUND).contains(&kh));
        }
    }
}
