//! # kokkos-profiling — Kokkos-Tools-style observability
//!
//! The consumer side of the hook interface `kokkos-rs` exposes from every
//! dispatch site (`kokkos_rs::profiling`), mirroring the Kokkos Tools
//! ecosystem the paper's performance analysis leans on:
//!
//! | Kokkos Tools piece          | Here                                  |
//! |-----------------------------|---------------------------------------|
//! | `kokkosp_*` callbacks       | [`kokkos_rs::ProfilingHooks`]         |
//! | simple-kernel-timer         | [`Profiler`] kernel / region tables   |
//! | kernel-logger / Caliper     | chrome-trace export ([`trace`])       |
//! | space-time-stack regions    | [`kokkos_rs::profiling::region`]      |
//! | job-level monitoring        | [`ImbalanceReport`], [`prometheus`]   |
//! | post-mortem black box       | [`flight`] bundles                    |
//!
//! A single [`Profiler`] aggregates every rank of an `mpi-sim` job
//! (ranks are threads; see [`set_thread_rank`]), interleaves kernel spans
//! with halo-traffic instants on per-rank tracks, and writes a
//! Perfetto-loadable JSON atomically at run end. [`attach`] puts it in
//! `kokkos-rs`'s one consumer slot (the process-global tool) and makes it
//! the `mpi-sim` traffic tap. With no tool attached, the hook layer costs
//! one atomic load per dispatch — the model's zero-allocation steady state
//! is untouched. The [`flight`] recorder has no off switch: every
//! `licom::Model` owns its rank's ring.

pub mod clock;
pub mod durable;
pub mod flight;
pub mod imbalance;
pub mod json;
pub mod profiler;
pub mod prometheus;
pub mod stats;
pub mod trace;

pub use clock::now_ns;
pub use flight::{
    dump_on_failure, read_bundle, render_last_events, validate_bundle, Bundle, BundleSummary,
    FlightCtx, FlightEvent, FlightEventKind, FlightRing, FLIGHT_SCHEMA,
};
pub use imbalance::{ImbalanceReport, PhaseImbalance, PhaseProfile};
pub use json::{
    parse as parse_json, render as render_json, render_pretty as render_json_pretty,
    validate_chrome_trace, Json, TraceSummary,
};
pub use profiler::{attach, detach, set_thread_rank, KernelKey, Profiler};
pub use prometheus::{
    render_gauge, render_named_counters, render_named_gauges, render_prometheus_labeled,
};
pub use stats::{Stat, StatsTable};
pub use trace::{ArgValue, TraceEvent, COMM_TRACK, COUNTER_TRACK};

/// Re-export of the hook side so consumers need only this crate.
pub use kokkos_rs::profiling::{
    enabled, region, test_registry_lock, DeepCopyInfo, KernelId, KernelInfo, PatternKind,
    PolicyKind, ProfilingHooks,
};
