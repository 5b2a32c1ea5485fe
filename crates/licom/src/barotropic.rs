//! Split-explicit barotropic (free-surface) solver.
//!
//! The fast external gravity-wave mode is integrated with many small
//! leapfrog substeps (`dt_barotropic`, e.g. 2 s at km scale vs the 20 s
//! baroclinic step — Table III), forced by the depth-mean of the
//! baroclinic tendency. The window-averaged surface height and transport
//! feed back into the 3-D solution (mode splitting). Each substep
//! performs a 2-D halo update of η and the barotropic velocities — this
//! is why the *halo update is the model's serial bottleneck* (§V-D): a
//! window spans the leapfrog interval `2 dt_c`, so the 10 km grids run
//! 2 · 180 s / 9 s = 40 substeps a baroclinic step (20 on the first,
//! forward step), each with its own exchange.
//!
//! Near the tripolar cap the zonal spacing tightens and the explicit
//! substep would violate the gravity-wave CFL; like LICOM (and POP), a
//! zonal **polar filter** smooths the fast fields on the offending rows.

use kokkos_rs::{
    parallel_for_3d, Functor3D, FunctorTriple, IterCost, MDRangePolicy3, Space, View1, View2,
};
use ocean_grid::GRAVITY;

use halo_exchange::{FoldKind, Halo2D, HaloError, Pending, HALO as H};

use crate::constants::ASSELIN;
use crate::lanes::{self, row_functor, F64x, RowKernel};
use crate::localgrid::LocalGrid;
use crate::model::Poster;
use crate::state::State;

/// One leapfrog continuity substep:
/// `η_new = η_old − dt2 · ∇·(H u_bt) / area` on T cells.
pub struct FunctorBtEta {
    pub eta_old: View2<f64>,
    pub eta_new: View2<f64>,
    pub ub: View2<f64>,
    pub vb: View2<f64>,
    pub depth: View2<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dt2: f64,
}

impl FunctorBtEta {
    /// Zonal transports through the east faces of `(jl, il..il + W)`;
    /// zero where either side is land.
    #[inline(always)]
    fn flux_e<const W: usize>(&self, jl: usize, il: usize) -> F64x<W> {
        let open = lanes::wet::<W>(&self.kmt, 0, jl, il).and(lanes::wet(&self.kmt, 0, jl, il + 1));
        let uf = 0.5 * (F64x::load2(&self.ub, jl, il) + F64x::load2(&self.ub, jl - 1, il));
        let h = F64x::load2(&self.depth, jl, il).min(F64x::load2(&self.depth, jl, il + 1));
        open.select(uf * h * self.dyt, F64x::splat(0.0))
    }

    /// Meridional transports through the north faces of `(jl, il..il + W)`.
    #[inline(always)]
    fn flux_n<const W: usize>(&self, jl: usize, il: usize) -> F64x<W> {
        let open = lanes::wet::<W>(&self.kmt, 0, jl, il).and(lanes::wet(&self.kmt, 0, jl + 1, il));
        let vf = 0.5 * (F64x::load2(&self.vb, jl, il) + F64x::load2(&self.vb, jl, il - 1));
        let h = F64x::load2(&self.depth, jl, il).min(F64x::load2(&self.depth, jl + 1, il));
        let dx_face = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1));
        open.select(vf * h * dx_face, F64x::splat(0.0))
    }
}

impl RowKernel for FunctorBtEta {
    #[inline(always)]
    fn block<const W: usize>(&self, _k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        let area = self.dxt.at(jl) * self.dyt;
        let div = self.flux_e::<W>(jl, il) - self.flux_e(jl, il - 1) + self.flux_n(jl, il)
            - self.flux_n(jl - 1, il);
        let eta = F64x::load2(&self.eta_old, jl, il) - self.dt2 * div / area;
        lanes::wet::<W>(&self.kmt, 0, jl, il)
            .select(eta, F64x::splat(0.0))
            .store2(&self.eta_new, jl, il);
    }
}

/// One leapfrog momentum substep at B-grid corners:
/// `u_new = u_old + dt2 (−g ∂η/∂x + f v + Gu)` (and the v analogue).
pub struct FunctorBtVel {
    pub u_old: View2<f64>,
    pub v_old: View2<f64>,
    pub u_cur: View2<f64>,
    pub v_cur: View2<f64>,
    pub eta_cur: View2<f64>,
    pub u_new: View2<f64>,
    pub v_new: View2<f64>,
    pub gu: View2<f64>,
    pub gv: View2<f64>,
    pub fcor: View1<f64>,
    pub kmu: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub dt2: f64,
}

impl RowKernel for FunctorBtVel {
    #[inline(always)]
    fn block<const W: usize>(&self, _k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        let dx_c = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1));
        let e = |jn, i_n| F64x::<W>::load2(&self.eta_cur, jn, i_n);
        let (sw, se, nw, ne) = (e(jl, il), e(jl, il + 1), e(jl + 1, il), e(jl + 1, il + 1));
        let gx = 0.5 * ((se - sw) + (ne - nw)) / dx_c;
        let gy = 0.5 * ((nw - sw) + (ne - se)) / self.dyt;
        let f = self.fcor.at(jl);
        let u = F64x::load2(&self.u_cur, jl, il);
        let v = F64x::load2(&self.v_cur, jl, il);
        let u_new = F64x::load2(&self.u_old, jl, il)
            + self.dt2 * (-GRAVITY * gx + f * v + F64x::load2(&self.gu, jl, il));
        let v_new = F64x::load2(&self.v_old, jl, il)
            + self.dt2 * (-GRAVITY * gy - f * u + F64x::load2(&self.gv, jl, il));
        let wet = lanes::wet::<W>(&self.kmu, 0, jl, il);
        let zero = F64x::splat(0.0);
        wet.select(u_new, zero).store2(&self.u_new, jl, il);
        wet.select(v_new, zero).store2(&self.v_new, jl, il);
    }
}

/// One whole substep per lane block: the η and (u, v) leapfrog updates
/// (`vel` reads the `[c]` η level, never the `[n]` level `eta` writes),
/// then per field the Asselin filter `c + γ (o − 2c + n)` of the middle
/// level, stored into the **old** slot — read at its own cell only, so no
/// neighbour's stencil sees the filtered value early — and, with `sums`,
/// the unfiltered middle level added to the window sums. After the launch
/// the roles rotate `(o, c, n) → (o, n, c)`.
pub struct FunctorBtSubstep {
    pub eta: FunctorBtEta,
    pub vel: FunctorBtVel,
    /// The window sums `(η, u, v)`; `None` on the first substep, whose
    /// middle level is the window's initial state, not a substep's.
    pub sums: Option<[View2<f64>; 3]>,
}

impl RowKernel for FunctorBtSubstep {
    #[inline(always)]
    fn block<const W: usize>(&self, k: usize, j: usize, i: usize) {
        self.eta.block::<W>(k, j, i);
        self.vel.block::<W>(k, j, i);
        let (jl, il) = (j + H, i + H);
        let (e, v) = (&self.eta, &self.vel);
        let levels = [
            (&e.eta_old, &v.eta_cur, &e.eta_new),
            (&v.u_old, &v.u_cur, &v.u_new),
            (&v.v_old, &v.v_cur, &v.v_new),
        ];
        for (f, (old, cur, new)) in levels.into_iter().enumerate() {
            let c = F64x::<W>::load2(cur, jl, il);
            let (o, n) = (F64x::load2(old, jl, il), F64x::load2(new, jl, il));
            (c + ASSELIN * (o - 2.0 * c + n)).store2(old, jl, il);
            if let Some(sums) = &self.sums {
                (F64x::load2(&sums[f], jl, il) + c).store2(&sums[f], jl, il);
            }
        }
    }
}

impl Functor3D for FunctorBtSubstep {
    row_functor!();

    /// The union of what the body touches, each field once: the η and
    /// velocity updates (58 flops, 330 B), the Asselin filter (15 flops)
    /// and its three old-slot stores, and when it sums a load + store and
    /// an add on each window sum.
    fn cost(&self) -> IterCost {
        let sums = u64::from(self.sums.is_some());
        IterCost {
            flops: 73 + 3 * sums,
            bytes: 354 + 48 * sums,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_bt_substep, FunctorBtSubstep);

/// Zonal 1-2-1 filter on flagged rows (`rows[jl] != 0`), writing `dst`;
/// identity elsewhere.
pub struct FunctorZonalFilter {
    pub src: View2<f64>,
    pub dst: View2<f64>,
    pub rows: View1<i32>,
}

impl RowKernel for FunctorZonalFilter {
    #[inline(always)]
    fn block<const W: usize>(&self, _k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        let src = |i_n| F64x::<W>::load2(&self.src, jl, i_n);
        let v = if self.rows.at(jl) != 0 {
            0.25 * src(il - 1) + 0.5 * src(il) + 0.25 * src(il + 1)
        } else {
            src(il)
        };
        v.store2(&self.dst, jl, il);
    }
}

impl Functor3D for FunctorZonalFilter {
    row_functor!();

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 4,
            bytes: 40,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_zonal_filter, FunctorZonalFilter);

/// Copy owned cells of a 2-D view.
pub struct FunctorCopy2D {
    pub src: View2<f64>,
    pub dst: View2<f64>,
}

impl RowKernel for FunctorCopy2D {
    #[inline(always)]
    fn block<const W: usize>(&self, _k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        F64x::<W>::load2(&self.src, jl, il).store2(&self.dst, jl, il);
    }
}

impl Functor3D for FunctorCopy2D {
    row_functor!();

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 0,
            bytes: 16,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_copy_2d, FunctorCopy2D);

/// `acc += x` over a block's owned cells (the window sums' ghosts arrive
/// by exchange).
pub struct FunctorAccum2D {
    pub acc: View2<f64>,
    pub x: View2<f64>,
}

impl RowKernel for FunctorAccum2D {
    #[inline(always)]
    fn block<const W: usize>(&self, _k: usize, j: usize, i: usize) {
        (F64x::<W>::load2(&self.acc, j, i) + F64x::load2(&self.x, j, i)).store2(&self.acc, j, i);
    }
}

impl Functor3D for FunctorAccum2D {
    row_functor!();

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 1,
            bytes: 24,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_accum_2d, FunctorAccum2D);

/// `dst = src * scale` over the full padded block.
pub struct FunctorScaleAssign2D {
    pub src: View2<f64>,
    pub dst: View2<f64>,
    pub scale: f64,
}

impl RowKernel for FunctorScaleAssign2D {
    #[inline(always)]
    fn block<const W: usize>(&self, _k: usize, j: usize, i: usize) {
        (F64x::<W>::load2(&self.src, j, i) * self.scale).store2(&self.dst, j, i);
    }
}

impl Functor3D for FunctorScaleAssign2D {
    row_functor!();

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 1,
            bytes: 16,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_scale_assign_2d, FunctorScaleAssign2D);

// Fused launches (kernel fusion): each launch pays dispatch — registry
// lookup and CPE spin-up on the Sunway backend — and streams its fields
// through LDM again, so same-shaped updates of the three fields share one
// body. Per-cell arithmetic and per-array update order are unchanged, so
// the results are bitwise those of one launch per field. A substep is one
// launch (`FunctorBtSubstep`); these triples are the window's set-up, its
// last sum and its average.

/// The three window accumulators (η, u, v) in one launch.
type FunctorAccum3 = FunctorTriple<FunctorAccum2D, FunctorAccum2D, FunctorAccum2D>;
/// Three scaled copies (level init / window averaging) in one launch.
type FunctorScaleAssign3 =
    FunctorTriple<FunctorScaleAssign2D, FunctorScaleAssign2D, FunctorScaleAssign2D>;

kokkos_rs::register_for_3d!(kernel_accum_3, FunctorAccum3);
kokkos_rs::register_for_3d!(kernel_scale_assign_3, FunctorScaleAssign3);

fn accum3(accs: &[View2<f64>; 3], xs: [&View2<f64>; 3]) -> FunctorAccum3 {
    FunctorTriple {
        a: FunctorAccum2D {
            acc: accs[0].clone(),
            x: xs[0].clone(),
        },
        b: FunctorAccum2D {
            acc: accs[1].clone(),
            x: xs[1].clone(),
        },
        c: FunctorAccum2D {
            acc: accs[2].clone(),
            x: xs[2].clone(),
        },
    }
}

/// An `(η, u, v)` triple as one exchange batch: η is a scalar, `(u, v)` a
/// vector across the fold.
fn batch(f: [&View2<f64>; 3]) -> [(&View2<f64>, FoldKind); 3] {
    [
        (f[0], FoldKind::Scalar),
        (f[1], FoldKind::Vector),
        (f[2], FoldKind::Vector),
    ]
}

/// Register this module's functors.
pub fn register() {
    kernel_bt_substep();
    kernel_zonal_filter();
    kernel_copy_2d();
    kernel_accum_2d();
    kernel_scale_assign_2d();
    kernel_accum_3();
    kernel_scale_assign_3();
}

/// The launches of a split substep over an `ny × nx` owned block (both at
/// least 3): the interior, then the four rim strips. Both stencils have
/// radius 1, so a cell at least one row and one column inside the block
/// reads no ghost. The rim is the one-cell band around it: the first and
/// last rows whole and, between them, the first and last columns. Every
/// owned cell is in exactly one of the five.
pub fn split_substep(ny: usize, nx: usize) -> (MDRangePolicy3, [MDRangePolicy3; 4]) {
    let interior = MDRangePolicy3::new([1, ny - 2, nx - 2]).with_offset([0, 1, 1]);
    let rim = [
        MDRangePolicy3::new([1, 1, nx]),
        MDRangePolicy3::new([1, 1, nx]).with_offset([0, ny - 1, 0]),
        MDRangePolicy3::new([1, ny - 2, 1]).with_offset([0, 1, 0]),
        MDRangePolicy3::new([1, ny - 2, 1]).with_offset([0, 1, nx - 1]),
    ];
    (interior, rim)
}

/// Integrate the barotropic system over one leapfrog window (`2 dt_c`),
/// starting from `state.eta.cur()`, `state.ubt`, `state.vbt`, forced by
/// the depth-mean tendencies `gu`, `gv`. On return `state.eta.next()`,
/// `state.ubt`, `state.vbt` hold the window averages (with valid halos).
/// `Err` means a per-substep halo update stayed unrecoverable after the
/// integrity layer's retries; the barotropic work arrays are then in an
/// undefined state and the caller must roll back.
///
/// A substep is one [`FunctorBtSubstep`] launch over the owned block. When
/// the halo waits on messages the substeps form a software pipeline: the
/// `[n]`-level exchange is posted as one batched split-phase message set,
/// the *next* substep's interior cells (reading no ghost) run, the exchange
/// is finished and the boundary rim follows ([`split_substep`]). `poster`
/// says whether the
/// exchange is in flight under the interior or was finished where it was
/// posted. With self routes only (one rank) an exchange lands at its post,
/// and a block with no interior (`ny` or `nx` below 3) has nothing to
/// overlap: both run the substep whole, under either setting. The window
/// sums accumulate owned cells only; the last substep posts them in place
/// of its `[n]` level, so their ghosts arrive the way a level's do.
#[allow(clippy::too_many_arguments)]
pub fn integrate(
    space: &Space,
    g: &LocalGrid,
    state: &State,
    halo: &Halo2D,
    gu: &View2<f64>,
    gv: &View2<f64>,
    dtb: f64,
    substeps: usize,
    filter_rows: &View1<i32>,
    filter_passes: usize,
    poster: Poster,
) -> Result<(), HaloError> {
    let split = g.ny >= 3 && g.nx >= 3 && halo.awaits_messages();
    let carried = poster.carried && split;
    let policy = MDRangePolicy3::new([1, g.ny, g.nx]);
    let full = MDRangePolicy3::new([1, g.pj, g.pi]);
    // Working triple: indices into state.bt_* (old, cur, new roles). The
    // old role keeps its slot: each substep writes the filtered level there.
    let (o, mut c, mut n) = (0usize, 1usize, 2usize);
    let init_region = kokkos_rs::profiling::region("bt:init");
    for lev in 0..3 {
        parallel_for_3d(
            space,
            full,
            &FunctorTriple {
                a: FunctorScaleAssign2D {
                    src: state.eta.cur().clone(),
                    dst: state.bt_eta[lev].clone(),
                    scale: 1.0,
                },
                b: FunctorScaleAssign2D {
                    src: state.ubt.clone(),
                    dst: state.bt_u[lev].clone(),
                    scale: 1.0,
                },
                c: FunctorScaleAssign2D {
                    src: state.vbt.clone(),
                    dst: state.bt_v[lev].clone(),
                    scale: 1.0,
                },
            },
        );
    }
    // Window accumulators: persistent workspace views, zeroed at entry
    // (a fresh allocation arrived zeroed; `fill` keeps that bitwise).
    let acc_eta = state.work.acc_eta.clone();
    let acc_u = state.work.acc_u.clone();
    let acc_v = state.work.acc_v.clone();
    acc_eta.fill(0.0);
    acc_u.fill(0.0);
    acc_v.fill(0.0);
    let accs = [acc_eta.clone(), acc_u.clone(), acc_v.clone()];
    drop(init_region);

    // Pipeline state: the previous substep's exchange when it is still in
    // flight.
    let mut pend: Option<Pending<'_, View2<f64>>> = None;
    let own = MDRangePolicy3::new([1, g.ny, g.nx]).with_offset([0, H, H]);

    for step in 0..substeps {
        let _substep = kokkos_rs::profiling::region("bt:substep");
        // First substep is forward Euler (old == cur at entry).
        let dt2 = if step == 0 { dtb } else { 2.0 * dtb };
        let f_step = FunctorBtSubstep {
            eta: FunctorBtEta {
                eta_old: state.bt_eta[o].clone(),
                eta_new: state.bt_eta[n].clone(),
                ub: state.bt_u[c].clone(),
                vb: state.bt_v[c].clone(),
                depth: g.depth.clone(),
                kmt: g.kmt.clone(),
                dxt: g.dxt.clone(),
                dyt: g.dyt,
                dt2,
            },
            vel: FunctorBtVel {
                u_old: state.bt_u[o].clone(),
                v_old: state.bt_v[o].clone(),
                u_cur: state.bt_u[c].clone(),
                v_cur: state.bt_v[c].clone(),
                eta_cur: state.bt_eta[c].clone(),
                u_new: state.bt_u[n].clone(),
                v_new: state.bt_v[n].clone(),
                gu: gu.clone(),
                gv: gv.clone(),
                fcor: g.fcor.clone(),
                kmu: g.kmu.clone(),
                dxt: g.dxt.clone(),
                dyt: g.dyt,
                dt2,
            },
            // From the second substep on, `[c]` is the previous substep's
            // `[n]` level, polar-filtered when the filter is armed.
            sums: (step > 0).then(|| accs.clone()),
        };
        if step > 0 && split {
            // The exchange posted last substep covers this substep's
            // `[c]` ghosts; the interior reads none of them and runs
            // before it is finished, the rim after.
            let (interior, rim) = split_substep(g.ny, g.nx);
            parallel_for_3d(space, interior, &f_step);
            if let Some(p) = pend.take() {
                let _r = kokkos_rs::profiling::region("bt:halo");
                p.finish()?;
            }
            for rp in rim {
                parallel_for_3d(space, rp, &f_step);
            }
        } else {
            parallel_for_3d(space, policy, &f_step);
        }
        // Halo update of the new level, then per polar-filter pass the
        // filter and another update; the last goes through the poster. The
        // window's last level joins the sums here, not in a next substep,
        // and that substep posts the sums instead of its `[n]` level:
        // nothing reads that level's ghosts (the next window re-initialises
        // every level over the full block), and a ghost is an exact copy —
        // negated across the fold, which commutes with rounded addition —
        // so a summed ghost equals its owner's sum. (Bar the sign of a zero
        // `u`/`v` sum across the fold: those land in north ghost rows of
        // `ubt`/`vbt`, which only the next window's level copies read, and
        // no stencil reads a velocity level's north ghosts.)
        let fields = [&state.bt_eta[n], &state.bt_u[n], &state.bt_v[n]];
        for pass in 0..=filter_passes {
            let (region, tag_base) = [("bt:halo", 500), ("bt:filter", 530)][pass.min(1)];
            let _r = kokkos_rs::profiling::region(region);
            if pass > 0 {
                for field in fields {
                    let filter2 = &state.work.filter2;
                    let smooth = FunctorZonalFilter {
                        src: field.clone(),
                        dst: filter2.clone(),
                        rows: filter_rows.clone(),
                    };
                    let back = FunctorCopy2D {
                        src: filter2.clone(),
                        dst: field.clone(),
                    };
                    parallel_for_3d(space, policy, &smooth);
                    parallel_for_3d(space, policy, &back);
                }
            }
            if pass < filter_passes {
                halo.try_exchange_many(&batch(fields), tag_base)?;
                continue;
            }
            let posted = if step + 1 == substeps {
                parallel_for_3d(space, own, &accum3(&accs, fields));
                accs.each_ref()
            } else {
                fields
            };
            pend = Poster { carried }.post(halo.begin_exchange_many(&batch(posted), tag_base)?)?;
        }
        // The filtered middle level is the old slot's; the unfiltered one's
        // slot takes the next level.
        std::mem::swap(&mut c, &mut n);
    }
    // Drain the pipeline: the window sums' exchange.
    if let Some(p) = pend.take() {
        let _r = kokkos_rs::profiling::region("bt:halo");
        p.finish()?;
    }
    let _average = kokkos_rs::profiling::region("bt:average");
    let scale = 1.0 / substeps as f64;
    parallel_for_3d(
        space,
        full,
        &FunctorTriple {
            a: FunctorScaleAssign2D {
                src: acc_eta,
                dst: state.eta.next().clone(),
                scale,
            },
            b: FunctorScaleAssign2D {
                src: acc_u,
                dst: state.ubt.clone(),
                scale,
            },
            c: FunctorScaleAssign2D {
                src: acc_v,
                dst: state.vbt.clone(),
                scale,
            },
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_rs::View;

    fn views2(n: usize) -> (usize, usize) {
        (n + 2 * H, n + 2 * H)
    }

    #[test]
    fn bt_eta_flat_state_is_steady() {
        let (pj, pi) = views2(4);
        let f = FunctorBtEta {
            eta_old: View::host("eo", [pj, pi]),
            eta_new: View::host("en", [pj, pi]),
            ub: View::host("ub", [pj, pi]),
            vb: View::host("vb", [pj, pi]),
            depth: View::host("d", [pj, pi]),
            kmt: View::host("k", [pj, pi]),
            dxt: View::host("dx", [pj]),
            dyt: 1.0e5,
            dt2: 100.0,
        };
        f.depth.fill(4000.0);
        f.kmt.fill(5);
        f.dxt.fill(1.0e5);
        f.eta_old.fill(0.3);
        // No flow → continuity keeps eta.
        f.block::<1>(0, 1, 1);
        assert_eq!(f.eta_new.at(H + 1, H + 1), 0.3);
    }

    #[test]
    fn bt_eta_divergence_lowers_surface() {
        let (pj, pi) = views2(4);
        let f = FunctorBtEta {
            eta_old: View::host("eo", [pj, pi]),
            eta_new: View::host("en", [pj, pi]),
            ub: View::host("ub", [pj, pi]),
            vb: View::host("vb", [pj, pi]),
            depth: View::host("d", [pj, pi]),
            kmt: View::host("k", [pj, pi]),
            dxt: View::host("dx", [pj]),
            dyt: 1.0e5,
            dt2: 100.0,
        };
        f.depth.fill(4000.0);
        f.kmt.fill(5);
        f.dxt.fill(1.0e5);
        // Diverging zonal flow around the center cell: u > 0 east of it,
        // u < 0 west (corner velocities).
        for jl in 0..pj {
            for il in 0..pi {
                f.ub.set_at(jl, il, if il >= H + 2 { 0.1 } else { -0.1 });
            }
        }
        f.block::<1>(0, 2, 2); // cell (H+2, H+2): east face +, west face −
        assert!(
            f.eta_new.at(H + 2, H + 2) < 0.0,
            "divergence must lower eta: {}",
            f.eta_new.at(H + 2, H + 2)
        );
    }

    #[test]
    fn bt_vel_pressure_gradient_accelerates_downslope() {
        let (pj, pi) = views2(4);
        let f = FunctorBtVel {
            u_old: View::host("uo", [pj, pi]),
            v_old: View::host("vo", [pj, pi]),
            u_cur: View::host("uc", [pj, pi]),
            v_cur: View::host("vc", [pj, pi]),
            eta_cur: View::host("ec", [pj, pi]),
            u_new: View::host("un", [pj, pi]),
            v_new: View::host("vn", [pj, pi]),
            gu: View::host("gu", [pj, pi]),
            gv: View::host("gv", [pj, pi]),
            fcor: View::host("fc", [pj]),
            kmu: View::host("km", [pj, pi]),
            dxt: View::host("dx", [pj]),
            dyt: 1.0e5,
            dt2: 50.0,
        };
        f.kmu.fill(5);
        f.dxt.fill(1.0e5);
        // eta sloping up to the east: du/dt = -g deta/dx < 0.
        for jl in 0..pj {
            for il in 0..pi {
                f.eta_cur.set_at(jl, il, 0.01 * il as f64);
            }
        }
        f.block::<1>(0, 1, 1);
        let du = f.u_new.at(H + 1, H + 1);
        let expect = -GRAVITY * (0.01 / 1.0e5) * 50.0;
        assert!((du - expect).abs() < 1e-12, "du {du} vs analytic {expect}");
        assert_eq!(f.v_new.at(H + 1, H + 1), 0.0);
    }

    #[test]
    fn zonal_filter_damps_two_grid_wave_and_preserves_mean() {
        let (pj, pi) = views2(8);
        let src: kokkos_rs::View2<f64> = View::host("s", [pj, pi]);
        let dst: kokkos_rs::View2<f64> = View::host("d", [pj, pi]);
        let rows: View1<i32> = View::host("r", [pj]);
        rows.set_at(H + 1, 1);
        for il in 0..pi {
            // 2Δx wave on the flagged row, smooth on others.
            src.set_at(H + 1, il, if il % 2 == 0 { 1.0 } else { -1.0 });
            src.set_at(H + 2, il, 5.0);
        }
        let f = FunctorZonalFilter {
            src: src.clone(),
            dst: dst.clone(),
            rows,
        };
        for j in 0..8 {
            for i in 0..8 {
                f.operator(0, j, i);
            }
        }
        // 1-2-1 annihilates the 2Δx wave...
        for il in H..H + 8 {
            assert!(dst.at(H + 1, il).abs() < 1e-15);
        }
        // ...and leaves unflagged rows untouched.
        assert_eq!(dst.at(H + 2, H + 3), 5.0);
    }

    #[test]
    fn stability_functions_registered() {
        register();
        // Registration is idempotent and names exist.
        let names: Vec<&str> = kokkos_rs::registry::registered_kernels()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert!(names.contains(&"kernel_bt_substep"));
    }
}
