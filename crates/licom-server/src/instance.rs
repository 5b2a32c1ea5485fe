//! One served model instance: a full [`licom::Model`] on a private
//! single-rank world, with an isolated checkpoint ring of its own.
//!
//! Instances are deliberately *not* tied to the thread that created them
//! — `Model` is a plain owned value over `Send + Sync` views, so a
//! worker can step instance A for one slice, park it, and a different
//! worker can pick it up for the next slice. The private
//! [`mpi_sim::World::solo`] communicator keeps mailboxes, buffer pools
//! and traffic counters per-instance, so two instances never alias
//! communication state no matter which threads run them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use licom::{CheckpointManager, Model};
use mpi_sim::World;

use crate::job::JobSpec;

/// What one `step_once` call did, beyond advancing the model.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepOutcome {
    /// A checkpoint ring slot was written after this step.
    pub checkpointed: bool,
    /// The instance rolled back to this step (instead of advancing).
    pub rolled_back_to: Option<u64>,
}

/// A servable model instance (see module docs).
pub struct Instance {
    /// Server-wide instance name, e.g. `"m17"` — the Prometheus
    /// `instance` label value.
    pub name: String,
    pub tenant: String,
    model: Model,
    ckpt: Option<CheckpointManager>,
    ckpt_every: u64,
    rollback_at: Option<u64>,
    ckpt_dir: Option<PathBuf>,
}

impl Instance {
    /// Build the instance: private solo world, model, and (if the spec
    /// asks for one) a checkpoint ring in its own directory under
    /// `ckpt_base`. Expensive — the server calls this lazily on a worker
    /// thread, not at submission.
    pub fn build(name: String, spec: &JobSpec, ckpt_base: &std::path::Path) -> Instance {
        let comm = World::solo();
        // Post-mortem bundles from every instance land next to the
        // checkpoint rings (one `_flight` dir per server; bundle names
        // are unique), not in the global temp fallback.
        let mut opts = spec.model_options();
        opts.flight_dir = Some(ckpt_base.join("_flight"));
        let model = Model::new(&comm, spec.cfg.clone(), spec.space.clone(), opts);
        let (ckpt, ckpt_every, rollback_at, ckpt_dir) = match &spec.checkpoint {
            None => (None, 0, None, None),
            Some(p) => {
                let dir = ckpt_base.join(&name);
                std::fs::create_dir_all(&dir).expect("create per-instance checkpoint dir");
                (
                    Some(CheckpointManager::new(&dir, p.ring)),
                    p.every_steps.max(1),
                    p.rollback_at,
                    Some(dir),
                )
            }
        };
        Instance {
            name,
            tenant: spec.tenant.clone(),
            model,
            ckpt,
            ckpt_every,
            rollback_at,
            ckpt_dir,
        }
    }

    pub fn steps_taken(&self) -> u64 {
        self.model.steps_taken()
    }

    pub fn checksum(&self) -> u64 {
        self.model.checksum()
    }

    /// Named counters of this instance's [`licom::Timers`], for labeled
    /// exposition.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.model.timers.counters()
    }

    /// Phase seconds of this instance's [`licom::Timers`].
    pub fn phase_seconds(&self) -> Vec<(&'static str, f64)> {
        self.model.timers.phase_seconds()
    }

    /// This instance's private-world traffic counters.
    pub fn traffic(&self) -> mpi_sim::TrafficSnapshot {
        self.model.comm().traffic()
    }

    /// Record a flight-recorder event into this instance's private
    /// ring (the solo world keeps black boxes per-instance).
    pub fn flight_note(&self, kind: mpi_sim::flight::FlightEventKind, a: u64, b: u64, c: u64) {
        self.model.flight_note(kind, a, b, c);
    }

    /// Snapshot this instance's black box into a post-mortem bundle
    /// (once per instance; see [`licom::Model::dump_flight`]).
    pub fn dump_flight(&self, reason: &str) -> Option<PathBuf> {
        self.model.dump_flight(reason)
    }

    /// Advance one step (or roll back, if the spec injected a rollback
    /// at the current step count). Errors are stringly
    /// typed — the server marks the job `Failed` and moves on; one bad
    /// instance must never poison the pool.
    pub fn step_once(&mut self, cancel: &AtomicBool) -> Result<StepOutcome, String> {
        let mut out = StepOutcome::default();

        if let Some(at) = self.rollback_at {
            if self.model.steps_taken() >= at {
                self.rollback_at = None; // fire once
                let ckpt = self
                    .ckpt
                    .as_ref()
                    .expect("rollback_at requires a checkpoint policy");
                let step = ckpt
                    .restore_latest_collective(&mut self.model)
                    .map_err(|e| format!("rollback failed: {e:?}"))?;
                out.rolled_back_to = Some(step);
                return Ok(out);
            }
        }

        // A cancel observed between steps keeps slices responsive even
        // when slice_steps is large.
        if cancel.load(Ordering::Relaxed) {
            return Ok(out);
        }

        self.model
            .try_step()
            .map_err(|e| format!("step failed: {e}"))?;

        if let Some(ckpt) = self.ckpt.as_mut() {
            if self.model.steps_taken().is_multiple_of(self.ckpt_every) {
                ckpt.save(&self.model)
                    .map_err(|e| format!("checkpoint failed: {e:?}"))?;
                out.checkpointed = true;
            }
        }
        Ok(out)
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        if let Some(dir) = &self.ckpt_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
