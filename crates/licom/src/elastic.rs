//! Elastic rank-death recovery: survivor consensus, spare adoption, and
//! restore from the checkpoint ring.
//!
//! The commit loop ([`crate::checkpoint`]'s `drive`) survives *message*
//! faults by rollback-and-replay and reports a fail-stop rank as a typed
//! `PeerDead`; [`crate::Model::run_steps_resilient`] hands that to its
//! caller. This module is the ULFM-style driver that recovers from it. A
//! world is launched with spare ranks ([`mpi_sim::WorldConfig::spares`]);
//! the first `size - spares` world ranks take compute **roles** and spares
//! idle in a wake-poll loop. Every wait is deadline-bounded by the one
//! [`mpi_sim::RetryPolicy`] threaded through [`ModelOptions`], so no
//! blocking path can hang on a corpse.
//!
//! On a detected death (the loop returns `PeerDead`), every live rank runs
//! the same recovery round:
//!
//! 1. survivors WAKE every idle spare (control-plane `u8` messages,
//!    exempt from `f64` fault injection);
//! 2. all live ranks — survivors *and* spares — run
//!    [`mpi_sim::Comm::agree_on_survivors`], converging on an identical
//!    survivor set;
//! 3. roles are reassigned deterministically: each dead role adopts the
//!    lowest-numbered surviving spare, so every participant computes the
//!    same mapping with no further communication;
//! 4. the role holders re-form the compute group as a derived
//!    communicator ([`mpi_sim::Comm::with_members`], salted by the
//!    recovery round so stale wire traffic cannot cross rounds). A
//!    spare's group rank *equals the dead rank's role*, so checkpoint
//!    geometry and per-role file names match unchanged;
//! 5. everyone rebuilds the model, restores the newest commonly-held
//!    image from the checkpoint ring (bounded min-vote), and re-enters the
//!    loop to replay. Replay is deterministic — group collectives fold in role
//!    order exactly like the original world's — so the completed run is
//!    bitwise identical to a failure-free one.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use kokkos_rs::Space;
use mpi_sim::Comm;
use ocean_grid::ModelConfig;

use crate::checkpoint::{drive, CheckpointManager, RecoveryError, RecoveryPolicy, RecoveryStats};
use crate::model::{Model, ModelOptions};

/// Control-plane tags on the *world* communicator, far above the model's
/// tag space and the failure-protocol bases in `mpi_sim::failure`.
const WAKE: u64 = 0x7C57_0000_0000_0000;
const DONE: u64 = 0x7C57_0000_0000_0001;

/// How an elastic run is shaped.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Total model steps to reach.
    pub target_steps: u64,
    /// Checkpoint ring directory (shared by all ranks).
    pub ckpt_dir: PathBuf,
    /// Ring depth K (slots per role).
    pub ring: usize,
    /// Message-fault rollback policy (checkpoint cadence + budget).
    pub recovery: RecoveryPolicy,
}

/// What an elastic run did. The gate counters (`rank_deaths_recovered`,
/// `run.steps_replayed`) come out identical on every role holder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticStats {
    /// What the commit loop did on this rank, summed over its rounds: own
    /// commits, message-fault rollbacks, and the steps re-executed because
    /// a death or a rollback forced a restore.
    pub run: RecoveryStats,
    /// Fail-stop deaths detected and recovered from.
    pub rank_deaths_recovered: u64,
    /// Wall-clock from entering the fatal step to the typed PeerDead
    /// observation, summed over deaths (detection latency).
    pub detection_ns: u64,
    /// Wall-clock from PeerDead to the restored, replay-ready model,
    /// summed over deaths (MTTR minus replay).
    pub recovery_wall_ns: u64,
}

/// How this rank's participation ended.
pub enum ElasticOutcome {
    /// Held a role at the end; carries the final model and stats.
    Completed {
        model: Box<Model>,
        stats: ElasticStats,
    },
    /// Served as a spare and was never elected (or was retired by DONE).
    Spared,
    /// This rank was the seeded fatality.
    Died,
}

/// An elastic run that could not reach its target.
#[derive(Debug)]
pub enum ElasticError {
    /// More deaths than available spares.
    SparesExhausted { role: usize },
    /// The commit loop, or the restore that opens a recovery round, gave
    /// up for a reason a spare cannot mend.
    Recovery(RecoveryError),
}

impl From<RecoveryError> for ElasticError {
    fn from(e: RecoveryError) -> Self {
        ElasticError::Recovery(e)
    }
}

impl std::fmt::Display for ElasticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticError::SparesExhausted { role } => {
                write!(f, "no spare left to adopt dead role {role}")
            }
            ElasticError::Recovery(e) => write!(f, "elastic recovery failed: {e}"),
        }
    }
}

impl std::error::Error for ElasticError {}

/// Deterministic role reassignment: every dead role adopts the
/// lowest-numbered survivor not already holding a role. Pure function of
/// `(roles, survivors)`, so all participants compute the identical map.
fn reassign(roles: &[usize], survivors: &[usize]) -> Result<Vec<usize>, ElasticError> {
    let live: HashSet<usize> = survivors.iter().copied().collect();
    let held: HashSet<usize> = roles.iter().copied().collect();
    let mut avail = survivors.iter().filter(|r| !held.contains(r)).copied();
    roles
        .iter()
        .enumerate()
        .map(|(role, &wr)| {
            if live.contains(&wr) {
                Ok(wr)
            } else {
                avail.next().ok_or(ElasticError::SparesExhausted { role })
            }
        })
        .collect()
}

fn wake_payload(round: u64, dead_at_step: u64) -> Vec<u8> {
    let mut p = round.to_le_bytes().to_vec();
    p.extend_from_slice(&dead_at_step.to_le_bytes());
    p
}

fn parse_wake(p: &[u8]) -> (u64, u64) {
    let r = u64::from_le_bytes(p[0..8].try_into().unwrap());
    let s = u64::from_le_bytes(p[8..16].try_into().unwrap());
    (r, s)
}

/// World ranks currently idle and believed alive (spare pool).
fn idle_spares(world: &Comm, roles: &[usize]) -> Vec<usize> {
    let held: HashSet<usize> = roles.iter().copied().collect();
    (0..world.size())
        .filter(|r| !held.contains(r) && world.is_alive(*r))
        .collect()
}

/// Run the model elastically on a world with spare ranks. **Every** world
/// rank calls this — compute ranks and spares alike; the function sorts
/// out who does what. Returns this rank's [`ElasticOutcome`]; the gate
/// counters come out identical on every rank holding a role at the end —
/// a late-elected spare learns the replay mark from the WAKE payload —
/// and are in the final model's timers too (`rank_deaths_recovered`, with
/// the loop's `steps_replayed` and `rollbacks`).
pub fn run_elastic(
    world: &Comm,
    cfg: ModelConfig,
    space: Space,
    opts: ModelOptions,
    ecfg: &ElasticConfig,
) -> Result<ElasticOutcome, ElasticError> {
    assert!(
        !world.has_view(),
        "run_elastic drives the world communicator itself"
    );
    let retry = opts.retry;
    let me = world.rank();
    let n_compute = world.size() - world.spares();
    assert!(n_compute >= 1, "need at least one compute rank");
    let mut roles: Vec<usize> = (0..n_compute).collect();
    let mut round: u64 = 0;
    let mut stats = ElasticStats::default();
    // Steps the group had attempted when the last death hit; committed
    // steps at-or-below this mark count as replay. Spares learn it from
    // the WAKE payload, survivors from the failed vote — identically.
    let mut replaying_to: u64 = 0;

    loop {
        if !roles.contains(&me) {
            // ---- spare: poll for WAKE / DONE, deadline-free by design —
            // an idle spare holds no resources a corpse could strand.
            match spare_wait(world, round) {
                SpareWake::Done => return Ok(ElasticOutcome::Spared),
                SpareWake::SelfDead => return Ok(ElasticOutcome::Died),
                SpareWake::Wake {
                    round: r,
                    dead_at_step,
                } => {
                    let t_recover = Instant::now();
                    round = r;
                    // The WAKE payload carries the step the group was
                    // attempting, so the spare's replay accounting and
                    // death counter match the survivors' exactly.
                    replaying_to = dead_at_step.saturating_sub(1);
                    stats.rank_deaths_recovered += 1;
                    let survivors = match world.agree_on_survivors(round, &retry) {
                        Ok(s) => s,
                        Err(_) => return Ok(ElasticOutcome::Died),
                    };
                    roles = reassign(&roles, &survivors)?;
                    stats.recovery_wall_ns += t_recover.elapsed().as_nanos() as u64;
                    continue; // elected → compute branch; else keep waiting
                }
            }
        }

        // ---- role holder: form the group, build or restore, drive.
        let group = world.with_members(&roles, round);
        let mut model = Model::new(&group, cfg.clone(), space.clone(), opts.clone());
        let mut mgr = CheckpointManager::new(&ecfg.ckpt_dir, ecfg.ring);
        let t_recover = Instant::now();
        if round > 0 {
            mgr.restore_latest_collective(&mut model)
                .map_err(RecoveryError::from)?;
            stats.recovery_wall_ns += t_recover.elapsed().as_nanos() as u64;
        }
        match drive(
            &mut model,
            &mut mgr,
            ecfg.target_steps,
            &ecfg.recovery,
            replaying_to,
            &mut stats.run,
        ) {
            Ok(()) => {
                // Retire the unused spares. Every role holder sends DONE
                // (duplicates are harmless; a lone sender could die).
                for s in idle_spares(world, &roles) {
                    world.send(s, DONE, vec![1u8]);
                }
                model
                    .timers
                    .add_count("rank_deaths_recovered", stats.rank_deaths_recovered);
                return Ok(ElasticOutcome::Completed {
                    model: Box::new(model),
                    stats,
                });
            }
            // This rank is the seeded fatality.
            Err(RecoveryError::PeerDead { peer, .. }) if peer == group.rank() => {
                return Ok(ElasticOutcome::Died)
            }
            Err(RecoveryError::PeerDead {
                attempted, detect, ..
            }) => {
                let t_recover = Instant::now();
                round += 1;
                stats.rank_deaths_recovered += 1;
                stats.detection_ns += detect.as_nanos() as u64;
                replaying_to = attempted - 1;
                // 1. Wake every idle spare so it joins the consensus.
                for s in idle_spares(world, &roles) {
                    world.send(s, WAKE, wake_payload(round, attempted));
                }
                // 2. Identical survivor set on every live rank.
                let survivors = match world.agree_on_survivors(round, &retry) {
                    Ok(s) => s,
                    Err(_) => return Ok(ElasticOutcome::Died),
                };
                // Black-box the death *after* consensus: the consensus
                // messages give happens-before from every survivor's
                // PeerDead observation to this snapshot, so the single
                // claimed bundle contains all of them plus the dying
                // rank's last recorded step.
                model.flight_note(
                    mpi_sim::flight::FlightEventKind::ConsensusRound,
                    round,
                    survivors.len() as u64,
                    attempted,
                );
                model.dump_flight("rank-death");
                // 3. Deterministic spare election.
                roles = reassign(&roles, &survivors)?;
                stats.recovery_wall_ns += t_recover.elapsed().as_nanos() as u64;
                // 4–5. happen at the top of the loop: re-form, restore,
                // replay. A survivor always keeps its role.
            }
            Err(e) => return Err(e.into()),
        }
    }
}

enum SpareWake {
    Wake { round: u64, dead_at_step: u64 },
    Done,
    SelfDead,
}

/// Idle-spare loop: poll the world mailboxes for control messages.
/// Duplicate WAKEs (every survivor sends one) and WAKEs for rounds this
/// spare already processed are drained and dropped.
fn spare_wait(world: &Comm, last_round: u64) -> SpareWake {
    loop {
        if world.self_failed() {
            return SpareWake::SelfDead;
        }
        for src in 0..world.size() {
            if world.has_message(src, DONE) {
                let _: Vec<u8> = world.recv(src, DONE);
                return SpareWake::Done;
            }
            if world.has_message(src, WAKE) {
                let p: Vec<u8> = world.recv(src, WAKE);
                let (round, dead_at_step) = parse_wake(&p);
                if round > last_round {
                    return SpareWake::Wake {
                        round,
                        dead_at_step,
                    };
                }
                // Duplicate from an already-processed round: drop.
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reassign_is_deterministic_and_minimal() {
        // Roles 0..3 on world ranks [0,1,2,3]; rank 1 and 3 die; spares
        // 4,5,6 survive. Dead roles adopt the lowest spares in order.
        let roles = vec![0, 1, 2, 3];
        let survivors = vec![0, 2, 4, 5, 6];
        let next = reassign(&roles, &survivors).unwrap();
        assert_eq!(next, vec![0, 4, 2, 5]);
        // Survivor roles never move.
        assert_eq!(next[0], 0);
        assert_eq!(next[2], 2);
    }

    #[test]
    fn reassign_exhaustion_is_typed() {
        let roles = vec![0, 1];
        let survivors = vec![0]; // rank 1 dead, no spare
        match reassign(&roles, &survivors) {
            Err(ElasticError::SparesExhausted { role }) => assert_eq!(role, 1),
            other => panic!("expected SparesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn wake_payload_roundtrips() {
        let p = wake_payload(7, 1234);
        assert_eq!(parse_wake(&p), (7, 1234));
    }
}
