//! Deterministic collectives: barrier, allgather, allreduce.
//!
//! MPI leaves reduction order unspecified; reproducibility-minded climate
//! codes (LICOM included) insist on order-stable global sums so restarts
//! and different schedulings agree bitwise. Here every collective is one
//! rank-ordered allgather over the mailbox ([`Comm::gather`]): each rank
//! sends its contribution to every other rank and receives theirs in rank
//! order, so every rank folds the same table in the same order and
//! `allreduce` is exactly as reproducible as a serial loop. A one-rank
//! communicator sends nothing.
//!
//! Collective messages take the one send funnel as control traffic: they
//! tick the Lamport clocks and appear on the tap like any other message,
//! are charged to `collectives` / `collective_bytes` / `barriers` and never
//! to the point-to-point or pool counters, and the fault plan never touches
//! them.
//!
//! Every wait is bounded. The blocking collectives share one wire tag, so
//! all ranks must enter them in the same program order — the usual MPI
//! contract; non-overtaking delivery then matches each rank's k-th
//! collective with every peer's k-th. They give up after the world's
//! `recv_timeout` with a panic naming the rank that died or never arrived;
//! [`Comm::try_allgather`] returns the same failure as a typed error.

use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use crate::comm::{Comm, CommError};
use crate::stats::Traffic;

/// Wire tag of the blocking collectives, far above the model's tag space.
const COLLECTIVE_TAG: u64 = 0x7A5E_0000_0000_0000;

/// Reduction operator for [`Comm::allreduce_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    /// Apply the operator to two scalars.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// Identity element of the operator.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }
}

impl Comm {
    /// The one collective engine: send `value` to every other rank on
    /// `tag`, then receive theirs in rank order, all within `timeout`.
    /// Charges `value`'s bytes to `collective_bytes` on every rank and one
    /// `op` on rank 0.
    pub(crate) fn gather<T: Clone + Send + 'static>(
        &self,
        tag: u64,
        value: Vec<T>,
        timeout: Duration,
        op: fn(&Traffic) -> &AtomicU64,
    ) -> Result<Vec<Vec<T>>, CommError> {
        let (n, me) = (self.size(), self.rank());
        let traffic = &self.shared().traffic;
        traffic.add(
            |t| &t.collective_bytes,
            value.len() * std::mem::size_of::<T>(),
        );
        if me == 0 {
            traffic.add(op, 1);
        }
        for r in (0..n).filter(|&r| r != me) {
            self.post(r, tag, value.clone(), true);
        }
        let deadline = Instant::now() + timeout;
        let mut own = Some(value);
        (0..n)
            .map(|r| {
                if r == me {
                    Ok(own.take().expect("one slot per rank"))
                } else {
                    self.recv_deadline(r, tag, deadline.saturating_duration_since(Instant::now()))
                }
            })
            .collect()
    }

    /// [`Comm::gather`] on the blocking collectives' tag and the world's
    /// `recv_timeout`, panicking with `what` on failure.
    fn blocking<T: Clone + Send + 'static>(
        &self,
        what: &str,
        value: Vec<T>,
        op: fn(&Traffic) -> &AtomicU64,
    ) -> Vec<Vec<T>> {
        let timeout = self.shared().recv_timeout;
        self.gather(COLLECTIVE_TAG, value, timeout, op)
            .unwrap_or_else(|e| {
                let why = match e {
                    CommError::PeerDead { peer, .. } => format!("rank {peer} died"),
                    CommError::Timeout { src, waited, .. } => {
                        format!("rank {src} did not arrive within {waited:?}")
                    }
                };
                panic!("{what} aborted: {why} (use try_allgather to handle failure)")
            })
    }

    /// Block until every rank has entered the barrier.
    ///
    /// # Panics
    /// Fail-fast if a participant died or did not arrive within the
    /// world's `recv_timeout`: blocking collectives abort with a
    /// diagnostic instead of hanging. Failure-aware callers use
    /// [`Comm::try_allgather`].
    pub fn barrier(&self) {
        self.blocking("barrier", Vec::<u8>::new(), |t| &t.barriers);
    }

    /// Gather one `Vec<T>` from each rank; every rank receives all
    /// contributions indexed by rank.
    ///
    /// # Panics
    /// As [`Comm::barrier`].
    pub fn allgather<T: Clone + Send + 'static>(&self, value: Vec<T>) -> Vec<Vec<T>> {
        self.blocking("allgather", value, |t| &t.collectives)
    }

    /// Deterministic scalar allreduce: identical result on every rank,
    /// computed in rank order.
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        self.allgather(vec![value])
            .iter()
            .map(|v| v[0])
            .fold(op.identity(), |a, b| op.apply(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        World::run(8, |comm| {
            phase1.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all 8 arrivals.
            assert_eq!(phase1.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let results = World::run(4, |comm| comm.allgather(vec![comm.rank() as u32 * 10]));
        for r in results {
            assert_eq!(r, vec![vec![0], vec![10], vec![20], vec![30]]);
        }
    }

    #[test]
    fn allreduce_sum_min_max() {
        let results = World::run(5, |comm| {
            let x = comm.rank() as f64 + 1.0; // 1..=5
            (
                comm.allreduce_f64(x, ReduceOp::Sum),
                comm.allreduce_f64(x, ReduceOp::Min),
                comm.allreduce_f64(x, ReduceOp::Max),
            )
        });
        for (s, mn, mx) in results {
            assert_eq!(s, 15.0);
            assert_eq!(mn, 1.0);
            assert_eq!(mx, 5.0);
        }
    }

    #[test]
    fn allreduce_is_bitwise_identical_across_ranks_and_runs() {
        // Values chosen so naive unordered summation could differ.
        let run = || {
            World::run(7, |comm| {
                let x = 0.1 * (comm.rank() as f64 + 1.0) * 1e10 + 1e-7;
                comm.allreduce_f64(x, ReduceOp::Sum).to_bits()
            })
        };
        let a = run();
        let b = run();
        assert!(a.iter().all(|&bits| bits == a[0]), "ranks disagree");
        assert_eq!(a, b, "runs disagree");
    }

    #[test]
    fn repeated_collectives_reuse_state() {
        World::run(4, |comm| {
            for i in 0..50 {
                let s = comm.allreduce_f64(i as f64, ReduceOp::Sum);
                assert_eq!(s, 4.0 * i as f64);
                comm.barrier();
            }
        });
    }
}
