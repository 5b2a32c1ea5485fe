//! # licomkpp — a performance-portable kilometer-scale global ocean model
//!
//! Rust reproduction of *"A Performance-Portable Kilometer-Scale Global
//! Ocean Model on ORISE and New Sunway Heterogeneous Supercomputers"*
//! (SC'24 Gordon Bell finalist): **LICOMK++**, an ocean general
//! circulation model built on a Kokkos-like performance-portability
//! layer extended with a Sunway/Athread backend.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`kokkos`] (`kokkos-rs`) — Views, execution spaces
//!   (`Serial`/`Threads`/`DeviceSim`/`SwAthread`), `parallel_for/reduce`,
//!   and the functor registry that makes generic kernels launchable
//!   across the C-like Athread boundary;
//! * [`sunway`] (`sunway-sim`) — the simulated SW26010 Pro core group
//!   (MPE + 64 CPEs, LDM, DMA with double buffering);
//! * [`mpi`] (`mpi-sim`) — in-process ranks, tag-matched messaging,
//!   deterministic collectives, the tripolar Cartesian topology;
//! * [`grid`] (`ocean-grid`) — tripolar grid, synthetic planet
//!   bathymetry, vertical levels, decomposition, Table III/IV configs;
//! * [`halo`] (`halo-exchange`) — 2-D/3-D halo updates, the north fold,
//!   Fig. 5 transposes, overlap and batching;
//! * [`model`] (`licom`) — the OGCM itself: split-explicit leapfrog,
//!   two-step shape-preserving advection, canuto mixing with load
//!   balancing, diagnostics and GPTL-style timers;
//! * [`perf`] (`perf-model`) — calibrated machine models projecting the
//!   paper's full-scale results (Figs. 7–9, Table V);
//! * [`profiling`] (`kokkos-profiling`) — Kokkos-Tools-style observability:
//!   kernel/region aggregation over the `kokkos` hook registry,
//!   Perfetto-loadable chrome-trace export with a comm track per rank,
//!   per-phase cross-rank load-imbalance attribution, flight-recorder
//!   bundles and Prometheus exposition. It reports; what a
//!   change costs is timed by `licom_bench` alone, and exact counts are
//!   literals in the tests of the subsystem that produces them.
//!
//! ## Quickstart
//!
//! ```no_run
//! use licomkpp::model::{Model, ModelOptions};
//! use licomkpp::mpi::World;
//! use licomkpp::grid::Resolution;
//!
//! // A laptop-sized analogue of the paper's 100-km configuration.
//! let cfg = Resolution::Coarse100km.config().scaled_down(4, 12);
//! World::run(1, |comm| {
//!     let space = licomkpp::kokkos::Space::threads();
//!     let mut m = Model::new(comm, cfg.clone(), space, ModelOptions::default());
//!     let stats = m.run_days(1.0);
//!     println!("{:.2} simulated years per day", stats.sypd);
//! });
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/`
//! for the per-table/figure experiment harness.

pub use halo_exchange as halo;
pub use kokkos_profiling as profiling;
pub use kokkos_rs as kokkos;
pub use licom as model;
pub use mpi_sim as mpi;
pub use ocean_grid as grid;
pub use perf_model as perf;
pub use sunway_sim as sunway;

/// Workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        assert_eq!(super::kokkos::supported_backends().len(), 4);
        let cfg = super::grid::Resolution::Km1.config();
        assert!(cfg.grid_points() > 63_000_000_000);
    }
}
