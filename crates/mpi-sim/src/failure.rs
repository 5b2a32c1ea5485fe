//! Failure-aware collectives and survivor consensus (the ULFM layer).
//!
//! The blocking collectives in [`crate::collective`] abort with a panic
//! when a participant died or never arrived. This module provides the
//! typed alternative a recovery layer builds on:
//!
//! * [`Comm::try_allgather`] — the same rank-ordered allgather on a
//!   caller-salted tag and the caller's deadline, returning
//!   [`CommError::PeerDead`] the moment a participant is known dead (and
//!   [`CommError::Timeout`] for a silent one) instead of hanging;
//! * [`Comm::agree_on_survivors`] — the `MPI_Comm_agree` analogue:
//!   every live rank exchanges survivor bitmaps until all hold the
//!   identical survivor set, off which elastic recovery deterministically
//!   elects spares and re-forms the compute group.
//!
//! **Tag hygiene.** Every `try_allgather` call takes a caller-supplied
//! `salt` that namespaces its wire tag. A failed collective leaves
//! stragglers in mailboxes (survivors' contributions that arrived after
//! the bail); fresh salts — step numbers, recovery rounds — keep those
//! from cross-matching with later collectives. Salts follow the same
//! program-order discipline as ordinary collectives: all participants
//! pass the same value in the same order.

use std::time::Duration;

use crate::comm::{Comm, CommError};
use crate::retry::{splitmix64, RetryPolicy};

/// Wire-tag bases for the failure-aware protocols, far above the model's
/// tag space and mixed with the caller salt.
const TRY_COLL_BASE: u64 = 0x7A5F_0000_0000_0000;
const AGREE_BASE: u64 = 0x7A60_0000_0000_0000;

fn salted(base: u64, salt: u64) -> u64 {
    base ^ (splitmix64(salt) >> 8)
}

impl Comm {
    /// Failure-aware allgather: every rank contributes `value` and
    /// receives all contributions in rank order, or a typed error if a
    /// participant died ([`CommError::PeerDead`]) or stayed silent past
    /// `timeout` ([`CommError::Timeout`]). The wait is deadline-bounded
    /// end to end: `timeout` caps the *total* wall-clock across all
    /// peers, so the collective can never hang. Charged and delivered
    /// like [`Comm::allgather`] (no root to die; the fault plan never
    /// touches it).
    pub fn try_allgather<T: Clone + Send + 'static>(
        &self,
        salt: u64,
        value: Vec<T>,
        timeout: Duration,
    ) -> Result<Vec<Vec<T>>, CommError> {
        let tag = salted(TRY_COLL_BASE, salt);
        if self.self_failed() {
            return Err(CommError::PeerDead {
                peer: self.rank(),
                tag,
            });
        }
        self.gather(tag, value, timeout, |t| &t.collectives)
    }

    /// Deterministic survivor consensus — the `MPI_Comm_agree` analogue.
    ///
    /// Every live rank (compute ranks *and* idle spares) calls this with
    /// the same `round`; all callers return the **identical** sorted
    /// survivor list. Each participant seeds its view from the death
    /// registry (the simulated RAS/heartbeat daemon), then runs two
    /// confirmation sub-rounds of bitmap exchange among the ranks it
    /// believes alive: received bitmaps are AND-folded (a death observed
    /// by anyone is adopted by everyone), and a peer that errors or
    /// times out is marked dead. Two fixed sub-rounds — no early exit —
    /// keep every participant's send/receive schedule aligned, so a
    /// straggler is never mistaken for a corpse because its peers
    /// finished early.
    ///
    /// Bitmaps travel as `Vec<u8>`, exempt from `f64` fault injection:
    /// consensus is control plane, not data plane.
    pub fn agree_on_survivors(
        &self,
        round: u64,
        policy: &RetryPolicy,
    ) -> Result<Vec<usize>, CommError> {
        let n = self.size();
        let me = self.rank();
        if self.self_failed() {
            return Err(CommError::PeerDead {
                peer: me,
                tag: AGREE_BASE,
            });
        }
        let mut view: Vec<u8> = (0..n).map(|r| u8::from(self.is_alive(r))).collect();
        view[me] = 1;
        for sub in 0..2u64 {
            let tag = salted(AGREE_BASE, round.wrapping_mul(0x9E37).wrapping_add(sub));
            for r in (0..n).filter(|&r| r != me && view[r] == 1) {
                self.send(r, tag, view.clone());
            }
            let budget = policy.budget();
            let mut next = view.clone();
            for r in (0..n).filter(|&r| r != me && view[r] == 1) {
                match self.recv_deadline::<u8>(r, tag, budget) {
                    Ok(theirs) => {
                        for (mine, their) in next.iter_mut().zip(&theirs) {
                            *mine &= *their;
                        }
                    }
                    Err(_) => next[r] = 0,
                }
            }
            next[me] = 1;
            view = next;
        }
        Ok((0..n).filter(|&r| view[r] == 1).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{World, WorldConfig};
    use crate::fault::FaultPlan;

    fn tight() -> RetryPolicy {
        RetryPolicy::test_small()
    }

    #[test]
    fn try_allgather_matches_blocking_when_all_alive() {
        World::run(4, |comm| {
            let a = comm.try_allgather(1, vec![comm.rank() as u32], Duration::from_secs(5));
            assert_eq!(
                a.unwrap(),
                (0..4).map(|r| vec![r as u32]).collect::<Vec<_>>()
            );
        });
    }

    #[test]
    fn try_allgather_reports_dead_peer() {
        let cfg = WorldConfig::new(3).faults(FaultPlan::new(0).kill(2, 1));
        World::run_cfg(cfg, |comm| {
            comm.set_epoch(1); // rank 2 dies here
            if comm.self_failed() {
                return;
            }
            let err = comm
                .try_allgather(7, vec![comm.rank() as u32], Duration::from_secs(5))
                .unwrap_err();
            assert_eq!(
                err,
                CommError::PeerDead {
                    peer: 2,
                    tag: match err {
                        CommError::PeerDead { tag, .. } => tag,
                        _ => unreachable!(),
                    }
                }
            );
        });
    }

    #[test]
    fn survivors_agree_identically_on_every_live_rank() {
        let cfg = WorldConfig::new(5).faults(FaultPlan::new(0).kill(1, 3).kill(4, 3));
        let (views, _) = World::run_cfg(cfg, |comm| {
            comm.set_epoch(3);
            if comm.self_failed() {
                return None;
            }
            Some(comm.agree_on_survivors(0, &tight()).unwrap())
        });
        let live: Vec<_> = views.into_iter().flatten().collect();
        assert_eq!(live.len(), 3);
        for v in &live {
            assert_eq!(v, &vec![0, 2, 3], "every survivor holds the same view");
        }
    }
}
