//! One model episode: a fresh `World::run`, `Model::new` on every rank,
//! the warm-up steps, then the timed `try_step` calls — each timed from
//! outside, with the public counters read at the window's edges.

use std::path::Path;
use std::time::Instant;

use kokkos_rs::Space;
use licom::{Model, ModelOptions, StepError};
use mpi_sim::{TrafficSnapshot, World};
use sunway_sim::CgCounters;

use crate::spec::Episode;
use crate::tracer;

/// What one rank hands back.
struct RankOut {
    model_new_s: f64,
    setup_s: f64,
    step_ns: Vec<u64>,
    checksum: u64,
    error: Option<String>,
    traffic: TrafficSnapshot,
    halo_wait_ns: u64,
    halo_inflight_ns: u64,
    cg: Option<CgCounters>,
    wet_cells: u64,
    guard_trip: bool,
}

/// One finished episode, ranks merged.
#[derive(Debug, Clone)]
pub struct EpisodeOut {
    /// Episode start to the first timed step, slowest rank: world spawn,
    /// `Model::new` on every rank, warm-up.
    pub setup_s: f64,
    /// `Model::new`, slowest rank.
    pub model_new_s: f64,
    /// Wall of each timed `try_step`, slowest rank per step.
    pub step_ns: Vec<u64>,
    /// Σ over ranks and steps of the step wall (denominator of the
    /// halo wait fraction).
    pub rank_step_ns: u64,
    /// `Model::checksum()` of every rank after the last timed step.
    pub checksums: Vec<u64>,
    /// Timed steps that returned `Err`, with what they said.
    pub failed_steps: u64,
    pub errors: Vec<String>,
    /// World traffic over the timed window (barrier-delimited, so exact).
    pub traffic: TrafficSnapshot,
    /// Σ over ranks, timed window.
    pub halo_wait_ns: u64,
    pub halo_inflight_ns: u64,
    /// Simulated core-group counters over the timed window (SwAthread).
    pub cg: Option<CgCounters>,
    /// Owned wet cells, all ranks.
    pub wet_cells: u64,
    pub guard_trips: u64,
}

impl EpisodeOut {
    pub fn steps(&self) -> u64 {
        self.step_ns.len() as u64
    }

    /// Simulated years per wall-clock day over the timed steps.
    pub fn sypd(&self, dt_baroclinic: f64) -> f64 {
        let wall_s = self.step_ns.iter().sum::<u64>() as f64 * 1e-9;
        crate::stats::sypd(self.steps() as f64, dt_baroclinic, wall_s)
    }

    pub fn step_ms(&self) -> Vec<f64> {
        self.step_ns.iter().map(|ns| *ns as f64 * 1e-6).collect()
    }
}

/// Default options, except that a failing step's post-mortem bundle lands
/// in the benchmark's work directory instead of the system temp dir.
pub fn options(work_dir: &Path) -> ModelOptions {
    ModelOptions {
        flight_dir: Some(work_dir.join("flight")),
        ..ModelOptions::default()
    }
}

fn cg_of(space: &Space) -> Option<CgCounters> {
    match space {
        Space::SwAthread(sw) => Some(sw.counters()),
        _ => None,
    }
}

/// Run one episode. `t0` is where its set-up time starts counting (the
/// process start for a run's first episode).
pub fn run(ep: &Episode, work_dir: &Path, t0: Instant) -> EpisodeOut {
    let cfg = ep.grid.cfg();
    let opts = options(work_dir);
    let (warmup, steps, kind) = (ep.warmup, ep.steps, ep.space);
    let ranks: Vec<RankOut> = World::run(ep.ranks, move |comm| {
        tracer::set_rank(comm.rank() as i64);
        tracer::mute();
        let space = kind.make();
        let t_new = Instant::now();
        let mut m = Model::new(comm, cfg.clone(), space.clone(), opts.clone());
        let model_new_s = t_new.elapsed().as_secs_f64();
        let mut error = None;
        let mut guard_trip = false;
        for _ in 0..warmup {
            if let Err(e) = m.try_step() {
                guard_trip = matches!(e, StepError::Guard(_));
                error = Some(format!("warm-up step {}: {e}", m.steps_taken()));
                break;
            }
        }
        // The barriers make the traffic window exact: no rank is a step
        // ahead when the counters are read.
        comm.barrier();
        let tr0 = comm.traffic();
        let (hw0, hi0) = (m.halo_wait_ns(), m.halo_inflight_ns());
        let cg0 = cg_of(&space);
        let setup_s = t0.elapsed().as_secs_f64();
        tracer::unmute();
        let mut step_ns = Vec::with_capacity(steps as usize);
        if error.is_none() {
            for i in 0..steps {
                let t = Instant::now();
                let res = {
                    let _root = tracer::step_span(i);
                    m.try_step()
                };
                step_ns.push(t.elapsed().as_nanos() as u64);
                if let Err(e) = res {
                    guard_trip = matches!(e, StepError::Guard(_));
                    error = Some(format!("timed step {i}: {e}"));
                    break;
                }
            }
        }
        comm.barrier();
        let out = RankOut {
            model_new_s,
            setup_s,
            step_ns,
            checksum: m.checksum(),
            error,
            traffic: comm.traffic().delta(&tr0),
            halo_wait_ns: m.halo_wait_ns() - hw0,
            halo_inflight_ns: m.halo_inflight_ns() - hi0,
            cg: cg_of(&space).zip(cg0).map(|(now, then)| now.delta(&then)),
            wet_cells: m.grid.wet.cells3_own.indices.len() as u64,
            guard_trip,
        };
        tracer::flush_thread();
        out
    });

    let n_steps = ranks.iter().map(|r| r.step_ns.len()).min().unwrap_or(0);
    let step_ns = (0..n_steps)
        .map(|i| ranks.iter().map(|r| r.step_ns[i]).max().unwrap_or(0))
        .collect();
    let errors: Vec<String> = ranks
        .iter()
        .enumerate()
        .filter_map(|(rank, r)| r.error.as_ref().map(|e| format!("rank {rank}: {e}")))
        .collect();
    let slowest = |f: fn(&RankOut) -> f64| ranks.iter().map(f).fold(0.0, f64::max);
    EpisodeOut {
        setup_s: slowest(|r| r.setup_s),
        model_new_s: slowest(|r| r.model_new_s),
        step_ns,
        rank_step_ns: ranks.iter().flat_map(|r| &r.step_ns).sum(),
        checksums: ranks.iter().map(|r| r.checksum).collect(),
        // A step that failed on any rank is one failed step.
        failed_steps: u64::from(!errors.is_empty()),
        errors,
        traffic: ranks[0].traffic,
        halo_wait_ns: ranks.iter().map(|r| r.halo_wait_ns).sum(),
        halo_inflight_ns: ranks.iter().map(|r| r.halo_inflight_ns).sum(),
        cg: ranks[0].cg.clone(),
        wet_cells: ranks.iter().map(|r| r.wet_cells).sum(),
        guard_trips: ranks.iter().filter(|r| r.guard_trip).count() as u64,
    }
}
