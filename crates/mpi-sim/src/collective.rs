//! Deterministic collectives: barrier, allgather, allreduce, broadcast.
//!
//! MPI leaves reduction order unspecified; reproducibility-minded climate
//! codes (LICOM included) insist on order-stable global sums so restarts
//! and different schedulings agree bitwise. Here every rank applies the
//! reduction locally **in rank order** over a fully gathered slot table, so
//! `allreduce` is exactly as reproducible as a serial loop.
//!
//! All collectives share one slot table per world and therefore must be
//! entered by all ranks in the same program order — the usual MPI contract.

use std::any::Any;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::comm::Comm;

/// Reduction operator for [`Comm::allreduce_f64`] and friends.
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

struct CollInner {
    /// Completed-collective generation; bumped once per finished op.
    generation: u64,
    arrived: usize,
    departed: usize,
    ready: bool,
    slots: Vec<Option<Box<dyn Any + Send>>>,
}

/// Shared rendezvous state for collectives over one world.
pub(crate) struct CollectiveState {
    n: usize,
    inner: Mutex<CollInner>,
    cv: Condvar,
}

impl CollectiveState {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            inner: Mutex::new(CollInner {
                generation: 0,
                arrived: 0,
                departed: 0,
                ready: false,
                slots: (0..n).map(|_| None).collect(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Wake every rank parked in the rendezvous so it re-checks liveness.
    /// Called by the death registry when a rank is marked dead.
    pub(crate) fn notify_all(&self) {
        let _guard = self.inner.lock();
        self.cv.notify_all();
    }

    /// Core exchange: deposit this rank's contribution, wait for all ranks,
    /// map the full slot table through `read`, then synchronize departure
    /// so the table can be reused. Doubles as a barrier.
    ///
    /// `dead` inspects the slot table and returns a rank that can never
    /// arrive (dead without a deposited contribution). When it fires, the
    /// waiter withdraws its own contribution — leaving the table clean for
    /// the other survivors to bail the same way — and returns the dead
    /// rank as the error. A rank that already deposited before dying does
    /// not wedge the exchange, so this only triggers on truly lost
    /// participants.
    fn exchange<T, R>(
        &self,
        rank: usize,
        value: T,
        read: impl FnOnce(&[Option<Box<dyn Any + Send>>]) -> R,
        dead: impl Fn(&[Option<Box<dyn Any + Send>>]) -> Option<usize>,
    ) -> Result<R, usize>
    where
        T: Send + 'static,
    {
        let mut inner = self.inner.lock();
        let gen = inner.generation;
        // If the previous collective is still draining, wait for it. Every
        // rank that deposited in it will depart (departure never blocks on
        // a third party), so this wait always clears.
        while inner.generation == gen && inner.departed != 0 {
            self.cv.wait(&mut inner);
        }
        assert_eq!(
            inner.generation, gen,
            "collective ordering violated between ranks"
        );
        inner.slots[rank] = Some(Box::new(value));
        inner.arrived += 1;
        if inner.arrived == self.n {
            inner.ready = true;
            self.cv.notify_all();
        } else {
            loop {
                if inner.ready && inner.generation == gen {
                    break;
                }
                if let Some(d) = dead(&inner.slots) {
                    // Withdraw and bail: the exchange can never complete.
                    inner.slots[rank] = None;
                    inner.arrived -= 1;
                    self.cv.notify_all();
                    return Err(d);
                }
                // Timed wait as a backstop: the death notification wakes
                // us promptly, but a tick bounds the window regardless.
                self.cv.wait_for(&mut inner, Duration::from_millis(50));
            }
        }
        let result = read(&inner.slots);
        inner.departed += 1;
        if inner.departed == self.n {
            for s in inner.slots.iter_mut() {
                *s = None;
            }
            inner.arrived = 0;
            inner.departed = 0;
            inner.ready = false;
            inner.generation += 1;
            self.cv.notify_all();
        } else {
            // Wait until cleanup so no rank re-enters a stale table. All n
            // ranks arrived to get here, so all n will depart.
            while inner.generation == gen {
                self.cv.wait(&mut inner);
            }
        }
        Ok(result)
    }
}

impl Comm {
    /// Slot-table death check: a world rank that died without depositing
    /// its contribution can never arrive, so the exchange is wedged.
    fn coll_dead(&self, slots: &[Option<Box<dyn Any + Send>>]) -> Option<usize> {
        let sh = self.shared();
        (0..slots.len()).find(|&r| sh.is_dead(r) && slots[r].is_none())
    }

    /// Root-staged gather + broadcast over point-to-point messages; the
    /// collective path of derived communicators ([`Comm::with_members`]),
    /// whose member set is a subset of the world and therefore cannot use
    /// the world-sized slot table. Deterministic: contributions are
    /// gathered and folded in member order, exactly like the slot table,
    /// so reductions stay bitwise identical across both paths.
    fn view_allgather<T: Clone + Send + 'static>(&self, value: Vec<T>) -> Vec<Vec<T>> {
        const GATHER: u64 = 0x5F47_0000_0000_1000;
        const BCAST: u64 = 0x5F42_0000_0000_1000;
        let n = self.size();
        if n == 1 {
            return vec![value];
        }
        if self.rank() == 0 {
            let mut all = vec![value];
            for r in 1..n {
                all.push(self.recv::<T>(r, GATHER + r as u64));
            }
            for r in 1..n {
                for (i, part) in all.iter().enumerate() {
                    self.send(r, BCAST + (i as u64) * 0x10000 + r as u64, part.clone());
                }
            }
            all
        } else {
            self.send(0, GATHER + self.rank() as u64, value);
            (0..n)
                .map(|i| self.recv::<T>(0, BCAST + (i as u64) * 0x10000 + self.rank() as u64))
                .collect()
        }
    }

    /// Block until every rank has entered the barrier.
    ///
    /// # Panics
    /// Fail-fast if a participant died: blocking collectives abort with a
    /// diagnostic instead of hanging. Failure-aware callers use
    /// [`Comm::try_barrier`].
    pub fn barrier(&self) {
        let sh = self.shared();
        if self.rank() == 0 {
            sh.traffic.add(|t| &t.barriers, 1);
        }
        if self.has_view() {
            let _ = self.view_allgather(vec![0u8]);
            return;
        }
        sh.coll
            .exchange(self.rank(), (), |_| (), |slots| self.coll_dead(slots))
            .unwrap_or_else(|d| {
                panic!("barrier aborted: rank {d} died (use try_barrier to handle failure)")
            });
    }

    /// Gather one `Vec<T>` from each rank; every rank receives all
    /// contributions indexed by rank.
    ///
    /// # Panics
    /// Fail-fast if a participant died (see [`Comm::barrier`]);
    /// failure-aware callers use [`Comm::try_allgather`].
    pub fn allgather<T: Clone + Send + 'static>(&self, value: Vec<T>) -> Vec<Vec<T>> {
        let sh = self.shared();
        sh.traffic.add(
            |t| &t.collective_bytes,
            value.len() * std::mem::size_of::<T>(),
        );
        if self.rank() == 0 {
            sh.traffic.add(|t| &t.collectives, 1);
        }
        if self.has_view() {
            return self.view_allgather(value);
        }
        sh.coll
            .exchange(
                self.rank(),
                value,
                |slots| {
                    slots
                        .iter()
                        .map(|s| {
                            s.as_ref()
                                .expect("slot missing in allgather")
                                .downcast_ref::<Vec<T>>()
                                .expect("allgather type mismatch between ranks")
                                .clone()
                        })
                        .collect()
                },
                |slots| self.coll_dead(slots),
            )
            .unwrap_or_else(|d| {
                panic!("allgather aborted: rank {d} died (use try_allgather to handle failure)")
            })
    }

    /// Deterministic scalar allreduce: identical result on every rank,
    /// computed in rank order.
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        let gathered = self.allgather(vec![value]);
        gathered
            .iter()
            .map(|v| v[0])
            .fold(op.identity(), |a, b| op.apply(a, b))
    }

    /// Deterministic element-wise vector allreduce.
    pub fn allreduce_vec_f64(&self, value: Vec<f64>, op: ReduceOp) -> Vec<f64> {
        let len = value.len();
        let gathered = self.allgather(value);
        let mut out = vec![op.identity(); len];
        for contrib in &gathered {
            assert_eq!(
                contrib.len(),
                len,
                "allreduce length mismatch between ranks"
            );
            for (o, &c) in out.iter_mut().zip(contrib) {
                *o = op.apply(*o, c);
            }
        }
        out
    }

    /// Deterministic integer sum allreduce (used for ocean-point counts in
    /// the canuto load balancer).
    pub fn allreduce_usize_sum(&self, value: usize) -> usize {
        let gathered = self.allgather(vec![value]);
        gathered.iter().map(|v| v[0]).sum()
    }

    /// Broadcast `value` from `root` to every rank.
    pub fn broadcast<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<Vec<T>>,
    ) -> Vec<T> {
        assert!(root < self.size());
        let contribution = if self.rank() == root {
            value.expect("root must provide a value to broadcast")
        } else {
            Vec::new()
        };
        let gathered = self.allgather(contribution);
        gathered[root].clone()
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
    fn vector_allreduce_elementwise() {
        let results = World::run(3, |comm| {
            let v = vec![comm.rank() as f64, 1.0, -(comm.rank() as f64)];
            comm.allreduce_vec_f64(v, ReduceOp::Sum)
        });
        for r in results {
            assert_eq!(r, vec![3.0, 3.0, -3.0]);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let results = World::run(4, |comm| {
            let payload = if comm.rank() == 2 {
                Some(vec![42i64, 43])
            } else {
                None
            };
            comm.broadcast(2, payload)
        });
        for r in results {
            assert_eq!(r, vec![42, 43]);
        }
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

    #[test]
    fn usize_sum() {
        let results = World::run(6, |comm| comm.allreduce_usize_sum(comm.rank()));
        for r in results {
            assert_eq!(r, 15);
        }
    }
}
