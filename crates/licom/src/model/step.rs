//! The baroclinic step, written once: [`PHASES`] lists its eight phases in
//! execution order, and [`Step::run`] is the only code that walks them.
//!
//! A row names the phase (its `Timers` entry and depth-0 profiling
//! region), the body that launches its kernels, the carried exchange it
//! posts and those that must have landed before it runs. The carried
//! exchanges are the 3-D halo refreshes whose ghosts nothing reads before
//! the next step: the new level (`u`, `v`, `T`, `S` in one exchange, posted
//! by the one column pass that finishes them) and the Asselin-filtered
//! current velocity level ([`Carry`]). Both land in `halo_drain`, before the
//! step ends: the next step's momentum pass reads the tracers' ghosts north
//! and east of the block (its corners' pressure) and the velocities'.
//! Whether a posted exchange flies under the rows that follow or is
//! finished where it was posted is the [`Poster`]'s decision alone: every
//! row launches the same kernels over the same partitions and sends the
//! same messages either way.

use halo_exchange::{FoldKind, HaloError, HaloField, Pending};
use kokkos_rs::{parallel_for_3d, parallel_for_list, MDRangePolicy3, View2, View3};
use mpi_sim::flight::FlightEventKind;
use mpi_sim::TrafficSnapshot;

use super::{Model, StepError};
use crate::advect::{self, AdvectZ};
use crate::baroclinic::{FunctorAsselin3D, FunctorMomentumColumns, MomentumTend};
use crate::barotropic;
use crate::canuto::CanutoFields;
use crate::columns::{FunctorNewLevelColumns, TracerChain, TracerHDiff, VelocityChain};
use crate::forcing::SurfaceRestore;
use crate::guard::{self, GuardConfig};
use crate::localgrid::LocalGrid;
use crate::state::State;
use crate::timers::Timers;
use crate::vmix::VerticalSolve;

/// Where a posted exchange is finished: handed on, to fly under the
/// kernels that follow (`carried`), or where it was posted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poster {
    pub carried: bool,
}

impl Poster {
    /// `Some` is the caller's to poll and finish.
    pub fn post<F: HaloField>(
        self,
        posted: Pending<'_, F>,
    ) -> Result<Option<Pending<'_, F>>, HaloError> {
        if self.carried {
            Ok(Some(posted))
        } else {
            posted.finish().map(|()| None)
        }
    }
}

/// A 3-D exchange posted in one row of [`PHASES`] and landed in a later one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carry {
    /// `u[n]`, `v[n]`, `T` and `S` at the new level.
    NewLevel,
    /// `u[c]`, `v[c]` after the Asselin filter.
    Asselin,
}

impl Carry {
    pub const fn tag_base(self) -> u64 {
        [800, 850][self as usize]
    }
}

/// One row of [`PHASES`].
pub struct Phase {
    pub name: &'static str,
    run: fn(&mut Step<'_>) -> Result<(), StepError>,
    /// The carried exchange this row posts; posting any other panics.
    pub posts: Option<Carry>,
    /// Finished, under this row's timer, before its body runs.
    pub lands: &'static [Carry],
}

/// The step. `vmix_tracer` posts the new level's exchange and `asselin`
/// the filtered current velocity level's, which flies under it;
/// `halo_drain` launches nothing: it is where both land, before the guard
/// reads the new level and the step commits.
#[rustfmt::skip]
pub const PHASES: [Phase; 8] = [
    Phase { name: "momentum",         run: momentum,         posts: None,                  lands: &[] },
    Phase { name: "barotropic",       run: barotropic,       posts: None,                  lands: &[] },
    Phase { name: "advection_tracer", run: advection_tracer, posts: None,                  lands: &[] },
    Phase { name: "vmix_tracer",      run: vmix_tracer,      posts: Some(Carry::NewLevel), lands: &[] },
    Phase { name: "asselin",          run: asselin,          posts: Some(Carry::Asselin),  lands: &[] },
    Phase { name: "halo_drain",       run: |_| Ok(()),       posts: None,                  lands: &[Carry::NewLevel, Carry::Asselin] },
    Phase { name: "guard",            run: guard,            posts: None,                  lands: &[] },
    Phase { name: "telemetry",        run: telemetry,        posts: None,                  lands: &[] },
];

/// One step in progress. A carried [`Pending`] borrows the model's halo
/// engine for as long as it flies, so the model is borrowed shared and the
/// one thing a step mutates — the timers — travels here, to be handed back
/// whether the step ends in `Ok` or `Err`.
pub(super) struct Step<'m> {
    m: &'m Model,
    pub(super) timers: Timers,
    poster: Poster,
    /// What the row being run may post.
    posts: Option<Carry>,
    /// In flight, indexed by `Carry as usize`.
    flights: [Option<Pending<'m, View3<f64>>>; 2],
    lev: (usize, usize, usize),
    dt: f64,
    /// The leapfrog interval: `dt` on the first (forward) step, else `2 dt`.
    dt2: f64,
    /// Readings at step entry, for telemetry's per-step deltas. halo2 and
    /// halo3 share one wait and one in-flight counter (halo3 wraps a clone).
    traffic0: TrafficSnapshot,
    wait0: u64,
    inflight0: u64,
}

impl<'m> Step<'m> {
    pub(super) fn begin(m: &'m Model, timers: Timers) -> Self {
        let (dt, carried) = (m.cfg.dt_baroclinic, m.opts.overlap);
        Self {
            m,
            timers,
            poster: Poster { carried },
            posts: None,
            flights: [None, None],
            lev: (m.state.old(), m.state.cur(), m.state.new_lev()),
            dt,
            dt2: if m.step_count == 0 { dt } else { 2.0 * dt },
            traffic0: m.comm.traffic(),
            wait0: m.halo2.halo_wait_ns(),
            inflight0: m.halo2.halo_inflight_ns(),
        }
    }

    /// Run one row: the only place a phase timer starts and stops. The
    /// blocking tail of what the row lands counts as its time.
    pub(super) fn run(&mut self, phase: &Phase) -> Result<(), StepError> {
        self.timers.start(phase.name);
        self.posts = phase.posts;
        let landed = phase.lands.iter().try_for_each(|&c| self.land(c));
        let res = landed.and_then(|()| (phase.run)(self));
        self.timers.stop(phase.name);
        res
    }

    /// The model, its state and grid, the leapfrog levels `(old, cur, new)`.
    fn parts(&self) -> (&'m Model, &'m State, &'m LocalGrid, (usize, usize, usize)) {
        (self.m, &self.m.state, &self.m.grid, self.lev)
    }

    fn post(&mut self, carry: Carry, fields: &[(&View3<f64>, FoldKind)]) -> Result<(), StepError> {
        assert_eq!(self.posts, Some(carry), "not this row's exchange to post");
        let halo3 = &self.m.halo3;
        let posted = halo3.begin_exchange_many(fields, carry.tag_base())?;
        self.flights[carry as usize] = self.poster.post(posted)?;
        Ok(())
    }

    fn land(&mut self, carry: Carry) -> Result<(), StepError> {
        let pending = self.flights[carry as usize].take();
        Ok(pending.map_or(Ok(()), Pending::finish)?)
    }
}

/// The momentum pass over the owned wet velocity columns: the corners'
/// hydrostatic pressure in work rows, the tendency and the wind stress into
/// the new velocity level (the new level's column pass reads it there and
/// overwrites it), its depth means into `gu` / `gv`.
fn momentum(s: &mut Step<'_>) -> Result<(), StepError> {
    let (m, st, g, (o, c, n)) = s.parts();
    let pass = FunctorMomentumColumns {
        tend: MomentumTend {
            u_cur: st.u[c].clone(),
            v_cur: st.v[c].clone(),
            u_old: st.u[o].clone(),
            v_old: st.v[o].clone(),
            kmu: g.kmu.clone(),
            fcor: g.fcor.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
            dz: g.dz.clone(),
            visc: m.visc,
        },
        ts: [st.t.cur().clone(), st.s.cur().clone()],
        kmt: g.kmt.clone(),
        lat: g.lat.clone(),
        out: [st.u[n].clone(), st.v[n].clone()],
        mean: [m.gu.clone(), m.gv.clone()],
    };
    parallel_for_list(&m.space, &m.wet.ucols, &pass);
    Ok(())
}

/// The barotropic window, forced by the depth mean of the momentum
/// tendency.
fn barotropic(s: &mut Step<'_>) -> Result<(), StepError> {
    let (m, st, g, _) = s.parts();
    let dtb = m.cfg.dt_barotropic;
    barotropic::integrate(
        &m.space,
        g,
        st,
        &m.halo2,
        &m.gu,
        &m.gv,
        dtb,
        ((s.dt2 / dtb).round() as usize).max(1),
        &m.filter_rows,
        m.filter_passes,
        s.poster,
    )?;
    Ok(())
}

/// The horizontal passes of the two-step shape-preserving advection of
/// both tracers, into the new level.
fn advection_tracer(s: &mut Step<'_>) -> Result<(), StepError> {
    let (m, st, g, (_, c, _)) = s.parts();
    let [band_t, band_s] = &st.work.adv_band;
    advect::advect_tracer(
        &m.space,
        g,
        [st.t.cur(), st.s.cur()],
        [st.t.next(), st.s.next()],
        [band_t, band_s],
        &st.u[c],
        &st.v[c],
        s.dt,
        m.opts.limiter,
        &m.halo3,
        s.poster,
    )?;
    Ok(())
}

/// The new level's column pass: the canuto closure on the current level
/// into work rows; the velocity chain (leapfrog — the tendency read from
/// the new level it overwrites —, implicit vertical friction, barotropic
/// mode correction, the guard's per-column speeds); the tracer chain
/// (vertical advection with `w` diagnosed from the current velocity level,
/// horizontal diffusion, implicit vertical mixing, surface restoring, the
/// guard's per-column excesses). Then the new level's halo update, carried
/// under the Asselin filter (which reads the new velocity level's owned
/// cells, not its ghosts) and landed in `halo_drain`.
fn vmix_tracer(s: &mut Step<'_>) -> Result<(), StepError> {
    let (m, st, g, (o, c, n)) = s.parts();
    let gcfg = GuardConfig::default();
    let solve = |mask: &View2<i32>, dt| VerticalSolve {
        mask: mask.clone(),
        dz: g.dz.clone(),
        z_t: g.z_t.clone(),
        dt,
        nz: g.nz,
    };
    let pass = FunctorNewLevelColumns {
        closure: CanutoFields {
            u: st.u[c].clone(),
            v: st.v[c].clone(),
            kmt: g.kmt.clone(),
            z_t: g.z_t.clone(),
            nz: g.nz,
        },
        velocity: VelocityChain {
            old: [st.u[o].clone(), st.v[o].clone()],
            new: [st.u[n].clone(), st.v[n].clone()],
            solve: solve(&g.kmu, s.dt2),
            bt: [st.ubt.clone(), st.vbt.clone()],
            speed: m.maxima.speed.clone(),
        },
        tracer: TracerChain {
            q: [st.t.next().clone(), st.s.next().clone()],
            advect: AdvectZ {
                u: st.u[c].clone(),
                v: st.v[c].clone(),
                kmt: g.kmt.clone(),
                dxt: g.dxt.clone(),
                dyt: g.dyt,
                dz: g.dz.clone(),
                dt: s.dt,
                nz: g.nz,
                limited: m.opts.limiter,
            },
            hdiff: TracerHDiff {
                q_cur: [st.t.cur().clone(), st.s.cur().clone()],
                kmt: g.kmt.clone(),
                dxt: g.dxt.clone(),
                dyt: g.dyt,
                kappa: m.kappa,
                dt: s.dt,
            },
            solve: solve(&g.kmt, s.dt),
            restore: SurfaceRestore {
                lat: g.lat.clone(),
                dt: s.dt,
            },
            bounds: [gcfg.t_bounds, gcfg.s_bounds],
            excess: m.maxima.excess.clone(),
        },
    };
    parallel_for_list(&m.space, &m.wet.cols, &pass);
    s.post(
        Carry::NewLevel,
        &[
            (&st.u[n], FoldKind::Vector),
            (&st.v[n], FoldKind::Vector),
            (st.t.next(), FoldKind::Scalar),
            (st.s.next(), FoldKind::Scalar),
        ],
    )
}

/// Asselin filter on the leapfrogged velocities; the filtered cur level
/// needs fresh halos for the next step.
fn asselin(s: &mut Step<'_>) -> Result<(), StepError> {
    let (m, st, g, (o, c, n)) = s.parts();
    for (old, cur, new) in [
        (&st.u[o], &st.u[c], &st.u[n]),
        (&st.v[o], &st.v[c], &st.v[n]),
    ] {
        parallel_for_3d(
            &m.space,
            MDRangePolicy3::new([g.nz, g.ny, g.nx]),
            &FunctorAsselin3D {
                old: old.clone(),
                cur: cur.clone(),
                new: new.clone(),
            },
        );
    }
    s.post(
        Carry::Asselin,
        &[(&st.u[c], FoldKind::Vector), (&st.v[c], FoldKind::Vector)],
    )
}

/// Physics guard: fold the column passes' maxima of the freshly computed
/// level — non-finite values, runaway velocities, out-of-bound tracers —
/// before the step is committed (rotated in). Local only — agreement on
/// success/failure is the caller's status vote.
fn guard(s: &mut Step<'_>) -> Result<(), StepError> {
    let (m, st, g, _) = s.parts();
    let gcfg = GuardConfig::default();
    let tracers = [st.t.next(), st.s.next()];
    let report = guard::scan(
        &m.space,
        tracers,
        &g.kmt,
        &m.maxima,
        (&m.wet.ucols, &m.wet.cols),
        &gcfg,
    );
    match report.violation(&gcfg, m.guard_limit) {
        None => Ok(()),
        Some(v) => {
            // A guard trip is a local failure edge: snapshot the black
            // box now, before the caller unwinds into the rollback vote.
            m.flight_note(FlightEventKind::GuardTrip, m.step_count, 0, 0);
            m.dump_flight("guard-trip");
            Err(StepError::Guard(v))
        }
    }
}

/// Communication/allocation accounting for this step (world-level
/// counters: exact on one rank, aggregate otherwise; in steady state
/// `pool_allocs` must stay flat — every message buffer is a pool reuse).
fn telemetry(s: &mut Step<'_>) -> Result<(), StepError> {
    let (m, sent) = (s.m, s.m.comm.traffic().delta(&s.traffic0));
    let halo_wait = m.halo2.halo_wait_ns().saturating_sub(s.wait0);
    let halo_inflight = m.halo2.halo_inflight_ns().saturating_sub(s.inflight0);
    for (name, delta) in [
        ("halo_msgs", sent.p2p_messages),
        ("halo_bytes", sent.p2p_bytes),
        ("pool_allocs", sent.pool_allocations),
        ("pool_reuses", sent.pool_reuses),
        ("pooled_bytes", sent.pooled_bytes),
        ("halo_wait_ns", halo_wait),
        ("halo_inflight_ns", halo_inflight),
    ] {
        s.timers.add_count(name, delta);
    }
    Ok(())
}
