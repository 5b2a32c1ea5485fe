//! # mpi-sim — an in-process message-passing substrate
//!
//! LICOMK++ distributes the globe over tens of thousands of MPI ranks
//! (98,375 Sunway nodes / 4,000 ORISE nodes at 1-km resolution). We have a
//! single machine, so this crate provides an MPI-shaped substrate whose
//! ranks are OS threads inside one process:
//!
//! * [`comm::World::run`] launches `n` ranks and gives each a [`comm::Comm`];
//! * buffered, tag-matched [`comm::Comm::send`] and bounded
//!   [`comm::Comm::recv`], plus the pooled `send_into` / `recv_into` the
//!   halo engine uses;
//! * deterministic collectives ([`collective`]): barrier, allgather and
//!   allreduce, each one rank-ordered allgather over the mailbox, so
//!   reductions are bitwise reproducible run-to-run and independent of
//!   scheduling; [`failure`] adds the deadline-bounded `try_allgather` and
//!   survivor consensus;
//! * [`cart::CartComm`] — the 2-D block decomposition used by LICOM,
//!   including zonal periodicity and the tripolar **north-fold** neighbor
//!   mapping;
//! * [`stats::Traffic`] — one world's message, byte, pool and fault
//!   counters, shared by every rank.
//!
//! The halo-exchange and model code is written against this API exactly as
//! the paper's code is written against MPI; only the transport differs.

pub mod cart;
pub mod collective;
pub mod comm;
pub mod crc;
pub mod failure;
pub mod fault;
pub mod flight;
pub(crate) mod pool;
pub mod retry;
pub mod stats;
pub mod tap;

pub use cart::{CartComm, Dir, Neighbor};
pub use collective::ReduceOp;
pub use comm::{Comm, CommError, World, WorldConfig};
pub use crc::{crc32, crc32_f64, crc32c, crc32c_f64, Crc32};
pub use fault::{FaultKind, FaultPlan, FaultRule, MatchSpec, RankFailure};
pub use flight::{
    FlightCtx, FlightEvent, FlightEventKind, FlightRing, FlightScope, LamportClock, FLIGHT_SCHEMA,
};
pub use retry::RetryPolicy;
pub use stats::{Traffic, TrafficSnapshot};
pub use tap::{clear_tap, set_tap, CommEvent, CommEventKind, CommTap};
