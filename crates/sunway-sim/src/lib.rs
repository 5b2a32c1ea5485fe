//! # sunway-sim — a simulated SW26010 Pro core group
//!
//! The LICOMK++ paper (SC'24) extends Kokkos with an *Athread* backend for
//! the Sunway SW26010 Pro many-core processor. This crate is the hardware
//! substrate for that backend: a behavioural + cycle-estimating simulator of
//! one **core group** (CG) — 1 management processing element (MPE) and
//! 64 computing processing elements (CPEs), each with 256 kB of local data
//! memory (LDM), connected to main memory through a DMA engine.
//!
//! The simulator deliberately reproduces the *programming-model
//! restrictions* that forced the paper's design:
//!
//! * [`athread`] exposes a C-like API: kernels crossing the MPE→CPE boundary
//!   are plain `fn` pointers plus one pointer-sized opaque argument — no
//!   generics, no closures, no trait objects. A Kokkos-style layer on top
//!   must therefore pre-register concrete trampolines (the paper's
//!   `KOKKOS_REGISTER_FOR_*` macros) and dispatch through a lookup table.
//! * [`ldm`] is an explicitly managed scratchpad: 256 kB per CPE, bump
//!   allocated, with hard failure on exhaustion.
//! * [`dma`] transfers are charged explicitly and asynchronously
//!   (double-buffered through [`pipeline::DmaPipe`]); simulated cost follows
//!   the CG's 51.2 GB/s memory bandwidth shared by all active CPEs.
//!
//! Execution is *real* (CPE kernels actually run, on a persistent worker
//! pool, so portability tests compare bitwise results across backends) and
//! *timed* (per-CPE cycle counters model compute, LDM traffic and DMA so the
//! performance model can be calibrated without Sunway hardware).

pub mod athread;
pub mod config;
pub mod counters;
pub mod dma;
pub mod ldm;
pub mod pipeline;
pub mod simd;

pub use athread::{CoreGroup, CpeCtx, CpeKernel};
pub use config::CgConfig;
pub use counters::{CgCounters, CpeCounters};
pub use dma::DmaHandle;
pub use ldm::{LdmAllocator, LdmOverflow, LdmReservation};
pub use pipeline::DmaPipe;

/// Number of CPEs per core group on SW26010 Pro (an 8 × 8 cluster).
pub const CPES_PER_CG: usize = 64;

/// LDM capacity per CPE in bytes (256 kB on SW26010 Pro; shared between the
/// software-managed scratchpad and the local data cache, we model it all as
/// scratchpad).
pub const LDM_BYTES: usize = 256 * 1024;

/// Instruction-cache size per CPE in bytes (32 kB). Only used for reporting.
pub const ICACHE_BYTES: usize = 32 * 1024;

/// Core groups per SW26010 Pro processor (6 CGs × 65 cores = 390 cores).
pub const CGS_PER_PROCESSOR: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_core_count_matches_paper() {
        // "6 interconnected CGs constitute one SW26010 Pro processor with
        // 390 cores (6 MPEs and 384 CPEs)".
        let cores = CGS_PER_PROCESSOR * (CPES_PER_CG + 1);
        assert_eq!(cores, 390);
    }

    #[test]
    fn ldm_capacity_matches_paper() {
        assert_eq!(LDM_BYTES, 262_144);
    }
}
