//! Job vocabulary of the serving engine: what a tenant submits, what the
//! server reports back, and why a submission can be refused.

use licom::ModelOptions;
use mpi_sim::RetryPolicy;
use ocean_grid::ModelConfig;

/// Server-assigned job identifier, unique for the server's lifetime.
pub type JobId = u64;

/// Scheduling priority. The fair-share scheduler converts priority into a
/// stride weight: a `High` job's tenant accumulates virtual time four
/// times slower than a `Low` one, so it is picked four times as often
/// under contention — but never starves anyone (stride scheduling is
/// proportional-share, not strict-priority).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    Low,
    Normal,
    High,
}

impl Priority {
    /// Stride weight (share of the pool under contention).
    pub fn weight(self) -> u64 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }
}

/// Periodic checkpointing for one instance: an isolated per-instance
/// ring (its own directory), written every `every_steps` steps.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    pub every_steps: u64,
    /// Ring depth (number of retained slots).
    pub ring: usize,
    /// Roll back to the latest checkpoint once, when `steps_taken`
    /// first reaches this count — then replay forward. Exercises the
    /// recovery path mid-serve; the deterministic model makes the final
    /// checksum bitwise identical to an undisturbed run.
    pub rollback_at: Option<u64>,
}

/// One tenant's request: step a model instance `steps` times on `space`
/// and stream progress back.
#[derive(Clone)]
pub struct JobSpec {
    pub tenant: String,
    pub priority: Priority,
    pub cfg: ModelConfig,
    pub space: kokkos_rs::Space,
    pub steps: u64,
    pub checkpoint: Option<CheckpointPolicy>,
}

impl JobSpec {
    /// A small default job: `steps` steps of a laptop-scale grid on the
    /// given space, normal priority, no checkpointing.
    pub fn small(tenant: &str, space: kokkos_rs::Space, steps: u64) -> Self {
        JobSpec {
            tenant: tenant.to_string(),
            priority: Priority::Normal,
            cfg: ocean_grid::Resolution::Coarse100km
                .config()
                .scaled_down(20, 2),
            space,
            steps,
            checkpoint: None,
        }
    }

    /// Model options used for every served instance: full physics, but
    /// fast-failing retries.
    pub fn model_options(&self) -> ModelOptions {
        ModelOptions {
            retry: RetryPolicy::test_small(),
            ..ModelOptions::default()
        }
    }
}

/// Why `submit` refused a job. All three are backpressure signals the
/// caller is expected to handle (retry later, shed load, or give up) —
/// the server never queues unboundedly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant already has `quota` jobs queued or running.
    QuotaExceeded { tenant: String, quota: usize },
    /// The global admission queue is full.
    Backpressure { capacity: usize },
    /// The server is draining and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant {tenant:?} at quota ({quota} jobs in flight)")
            }
            SubmitError::Backpressure { capacity } => {
                write!(f, "admission queue full ({capacity} jobs)")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// Lifecycle of a job as reported by `status` / the event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    Queued,
    Running { steps_done: u64 },
    Completed { checksum: u64, steps: u64 },
    Cancelled { steps_done: u64 },
    Failed { reason: String },
}

impl JobStatus {
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Completed { .. } | JobStatus::Cancelled { .. } | JobStatus::Failed { .. }
        )
    }
}

/// Streamed progress events, delivered in order on the channel returned
/// by `submit`. `Completed`/`Cancelled`/`Failed` is always the last
/// event; the channel hangs up after it.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The instance was built and took its first slice.
    Started {
        instance: String,
    },
    /// A scheduling slice finished; cumulative step count.
    Progress {
        steps_done: u64,
    },
    /// A checkpoint ring slot was written at this step.
    Checkpointed {
        at_step: u64,
    },
    /// The instance rolled back to `to_step` and is replaying.
    RolledBack {
        to_step: u64,
    },
    Completed {
        checksum: u64,
        steps: u64,
    },
    Cancelled {
        steps_done: u64,
    },
    Failed {
        reason: String,
    },
}
