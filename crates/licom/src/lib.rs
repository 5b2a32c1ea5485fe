//! # licom — LICOMK++: the performance-portable ocean general circulation model
//!
//! The paper's primary contribution, reproduced in Rust on top of the
//! `kokkos-rs` portability layer: a primitive-equation, free-surface OGCM
//! on a tripolar Arakawa-B grid with
//!
//! * a **split-explicit leapfrog** scheme with Asselin filtering
//!   (barotropic substeps inside each baroclinic step, Table III ratios),
//! * **two-step shape-preserving tracer advection** (Yu 1994): an
//!   upstream monotone predictor plus a limited anti-diffusive corrector,
//! * the ***canuto* second-order-closure vertical mixing** scheme with the
//!   paper's §V-C1 **load balancing** over ocean-only columns,
//! * implicit vertical diffusion/viscosity (tridiagonal solves),
//! * halo updates through `halo-exchange` (overlap, 3-D transposes,
//!   batched fields — §V-D),
//! * GPTL-style [`timers`] so experiments report the same per-kernel
//!   breakdown the paper measures.
//!
//! Every kernel is a registered Kokkos-style functor, so the **same model
//! code** runs on `Serial`, `Threads`, `DeviceSim` and `SwAthread`
//! execution spaces — bitwise identically (the integration tests assert
//! it). SYPD throughput is measured exactly as the paper defines it:
//! wall-clock of the daily loop, I/O and initialization excluded.

pub mod advect;
pub mod baroclinic;
pub mod barotropic;
pub mod canuto;
pub mod checkpoint;
pub mod columns;
pub mod diag;
pub mod elastic;
pub mod eos;
pub mod forcing;
pub mod guard;
pub mod history;
pub mod lanes;
pub mod localgrid;
pub mod model;
pub mod spectra;
pub mod state;
pub mod timers;
pub mod vmix;

pub use checkpoint::{
    CheckpointError, CheckpointManager, RecoveryError, RecoveryPolicy, RecoveryStats,
};
pub use elastic::{run_elastic, ElasticConfig, ElasticError, ElasticOutcome, ElasticStats};
pub use guard::{GuardConfig, GuardViolation};
pub use model::{Carry, Model, ModelOptions, Phase, Poster, StepError, StepStats, PHASES};
pub use state::State;
pub use timers::Timers;

/// Physical constants (SI) shared by the dynamics.
pub mod constants {
    /// Thermal expansion coefficient, 1/K (linearised EOS).
    pub const ALPHA_T: f64 = 2.0e-4;
    /// Haline contraction coefficient, 1/psu.
    pub const BETA_S: f64 = 8.0e-4;
    /// Reference temperature, °C.
    pub const T_REF: f64 = 10.0;
    /// Reference salinity, psu.
    pub const S_REF: f64 = 35.0;
    /// Asselin filter coefficient.
    pub const ASSELIN: f64 = 0.1;
    /// Background vertical viscosity, m²/s.
    pub const KM_BACKGROUND: f64 = 1.0e-4;
    /// Background vertical diffusivity, m²/s.
    pub const KH_BACKGROUND: f64 = 1.0e-5;
    /// Bottom drag coefficient (dimensionless, quadratic).
    pub const BOTTOM_DRAG: f64 = 1.2e-3;
    /// Maximum canuto mixing coefficient, m²/s.
    pub const K_MAX: f64 = 5.0e-2;
}

/// Register every model functor with the Kokkos registry. Must run before
/// stepping on the `SwAthread` space — the paper registers its preset
/// functions "during the initialization of Kokkos"; we do the same in
/// [`Model::new`], and expose it for tests.
pub fn register_all_kernels() {
    baroclinic::register();
    barotropic::register();
    advect::register();
    columns::register();
    diag::register();
    guard::register();
}
