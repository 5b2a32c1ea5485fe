//! # perf-model — analytic machine models for full-scale projection
//!
//! We cannot run 38,366,250 Sunway cores; the paper's full-machine
//! numbers (Fig. 7, Fig. 8/Table V, Fig. 9) are reproduced by an analytic
//! performance model in the tradition of roofline + alpha-beta analysis:
//!
//! * [`machine`] — the four Table II systems (V100 workstation, ORISE
//!   node, Sunway SW26010 Pro core group, Taishan 2280 server), each with
//!   peak FLOPS, sustained memory bandwidth, interconnect alpha-beta
//!   parameters, kernel-launch overhead and (for discrete GPUs) PCIe
//!   staging, since "our heterogeneous systems lack support for GPU-aware
//!   MPI technology";
//! * [`workload`] — the per-grid-point kernel census of LICOMK++,
//!   mirroring the `IterCost` hooks of the real `licom` kernels;
//! * [`mod@project`] — combines the two into per-step time, SYPD and
//!   parallel efficiency, including the paper's *unoptimized* Sunway
//!   variant (no halo transposes, serial pack/unpack, unbalanced canuto)
//!   whose removal yields the reported 2.7×/3.9× speedups.
//!
//! The model's free constants (sustained-bandwidth fractions, traffic
//! amplification for strided stencils, launch overheads, network alpha)
//! are **calibrated once** against the paper's published numbers and then
//! held fixed across every experiment; `EXPERIMENTS.md` records
//! paper-vs-model for each table and figure. The goal, per the
//! reproduction contract, is the *shape* — who wins, by what factor,
//! where efficiency falls off — not absolute wall-clock.

pub mod calibration;
pub mod ldm;
pub mod machine;
pub mod project;
pub mod workload;

pub use calibration::{
    cost_multiplier, predicted_imbalance, predicted_kernel_times, predicted_shares,
};
pub use ldm::CpeParams;
pub use machine::Machine;
pub use project::{project, strong_scaling, weak_scaling, Projection, SunwayVariant};
pub use workload::ProblemSpec;
