//! # halo-exchange — LICOM's halo update engine (paper §V-D)
//!
//! "The halo update process within the model acts as a serial bottleneck
//! according to Amdahl's law" — so the paper rewrites it in C++/Kokkos,
//! eliminates redundant pack/unpack work, overlaps communication with
//! computation, and adds transpose-based 3-D exchanges. This crate is that
//! engine, written against `mpi-sim` + `kokkos-rs` views — one engine,
//! in four layers:
//!
//! * [`halo2d`] — the per-rank **context** on the tripolar topology:
//!   block geometry (zonal periodicity, closed southern wall, **north
//!   fold** with zonal mirroring and a sign flip for vector fields),
//!   scratch for the self routes, frame sequencing, and the send/receive
//!   chokepoints. [`halo3d`] adds a level count and a buffer order on
//!   top: the naive **horizontal-major** pack (strided reads, the
//!   pre-optimization baseline) or the paper's **transpose** pipeline
//!   (Fig. 5: real halo → vertical-major → exchange → ghost halo →
//!   horizontal-major);
//! * `route` — the **route table**, built once per context: for each of
//!   the eight ghost rectangles (four edges, four `H × H` corners), the
//!   rank owning its image and where that image sits, gathered per peer;
//! * [`HaloField`] — the sealed **field trait** that makes a 2-D field the
//!   `nz = 1` case of a 3-D one and a [`RowBand`] (a 3-D field kept only on
//!   its rows near the south and north edges) one that holds fewer routes:
//!   extents, stored rows, element access, tag offset, profiling region,
//!   and which strips are worth a kernel launch;
//! * [`Pending`] — the **protocol**, once: one round, one message per
//!   peer carrying every rectangle that peer owes, corners included,
//!   batched over any number of fields (the "redundant packing"
//!   elimination), as a split-phase state machine. A blocking exchange is
//!   a `Pending` finished on the spot; an overlapped one is polled between
//!   kernel launches. The two-round allocating element-wise reference the
//!   tests hold it against lives beside it;
//! * `strip` — the one contiguous-run copy functor under every pack and
//!   unpack, launched on an execution space or run on the MPE.
//!
//! [`integrity`] frames messages with a CRC and retries them.
//!
//! Every path is *bitwise equivalent*; they differ only in access pattern
//! and message count, which the benches measure.

mod field;
pub mod halo2d;
pub mod halo3d;
pub mod integrity;
mod pending;
mod route;
mod strip;

pub use field::{HaloField, RowBand};
pub use halo2d::{FoldKind, Halo2D};
pub use halo3d::{Halo3D, Strategy3D};
pub use integrity::{FrameFault, FrameSeq, HaloError, IntegrityConfig};
pub use pending::Pending;

/// Halo width (2 ghost + 2 real layers, fixed by LICOM's stencils).
pub const HALO: usize = ocean_grid::decomp::HALO;
