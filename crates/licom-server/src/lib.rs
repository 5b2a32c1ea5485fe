//! # licom-server — multi-tenant ensemble serving over shared execution spaces
//!
//! Kilometer-scale models are run operationally as *ensembles*: many
//! perturbed instances of the same model advancing together, sharing one
//! machine. This crate is the serving engine for that mode — hundreds of
//! concurrent [`licom::Model`] instances, each on its own private
//! single-rank world ([`mpi_sim::World::solo`]), scheduled over the
//! **shared** execution-space thread pools by a fair-share + priority
//! scheduler.
//!
//! | Piece | Where |
//! |---|---|
//! | Instance table: model + checkpoint ring | [`instance`] |
//! | Stride scheduler: per-tenant virtual time, priority weights, quotas | [`scheduler`] |
//! | Job API: `submit` / `status` / `cancel` / streamed [`JobEvent`]s | [`server`] |
//! | Step-latency histogram + Prometheus exposition | [`metrics`] |
//! | `traffic-gen`: seeded bursty Poisson load generator | [`traffic`] |
//!
//! ## Contracts
//!
//! - **No lost or duplicated jobs**: every admitted job reaches exactly
//!   one terminal status (`Completed`/`Cancelled`/`Failed`), observable
//!   via both `status` and the job's event stream.
//! - **Bounded admission**: per-tenant quotas and a global queue cap
//!   turn overload into typed [`SubmitError`]s, never unbounded queues.
//! - **Isolation**: instances never alias state — concurrent serving is
//!   bitwise identical to running the same specs sequentially, on every
//!   execution space (`tests/isolation.rs` asserts this, including an
//!   instance that checkpoints and rolls back mid-run).
//! - **Fair share**: equal-priority tenants receive step counts within
//!   a few percent of each other under saturation; priorities shift the
//!   ratio proportionally without starving anyone.

pub mod instance;
pub mod job;
pub mod metrics;
pub mod scheduler;
pub mod server;
pub mod traffic;

pub use instance::{Instance, StepOutcome};
pub use job::{CheckpointPolicy, JobEvent, JobId, JobSpec, JobStatus, Priority, SubmitError};
pub use metrics::{LatencyHistogram, ServerMetrics};
pub use scheduler::Scheduler;
pub use server::{JobHandle, Server, ServerConfig, ServerMetricsSnapshot};
pub use traffic::{generate, grid_mix, Arrival, Rng, TrafficConfig};
