//! Flagship rank-death acceptance: a rank seeded to die mid-step — under
//! the overlap engine, on every execution space including the SwAthread
//! CPE path — must be *detected* as a typed `PeerDead` (never a hang or
//! a burned retry budget), *replaced* by a spare rank that adopts the
//! dead rank's subdomain, *restored* collectively from the checkpoint
//! ring, and the completed run must be **bitwise identical** to a
//! failure-free run of the same world. Without a spare nothing can adopt
//! the role, and the same death under `run_steps_resilient` — the same
//! commit loop — must come back as a typed error on every rank, inside the
//! vote's deadline.
#![allow(clippy::field_reassign_with_default, clippy::type_complexity)]

use licomkpp::grid::Resolution;
use licomkpp::kokkos::Space;
use licomkpp::model::{
    run_elastic, CheckpointManager, ElasticConfig, ElasticOutcome, ElasticStats, Model,
    ModelOptions, RecoveryError, RecoveryPolicy,
};
use licomkpp::mpi::{FaultPlan, RetryPolicy, World, WorldConfig};
use std::time::{Duration, Instant};

/// 3 compute ranks + 1 spare.
const COMPUTE: usize = 3;
const WORLD: usize = 4;
const STEPS: u64 = 6;
/// The seeded fatality: world rank 1 halts at epoch 3, i.e. while
/// attempting step 4 — mid-run, after checkpoints exist (steps 0 and 2),
/// off a checkpoint boundary so recovery must recommit step 3.
const VICTIM: usize = 1;
const DEATH_EPOCH: u64 = 3;

fn cfg() -> licomkpp::grid::ModelConfig {
    // nx = 45 is divisible by 3 ranks.
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

fn opts() -> ModelOptions {
    let mut o = ModelOptions::default();
    o.overlap = true; // death must surface through the split-phase engine
    o.retry = RetryPolicy::test_small();
    o
}

fn spaces() -> Vec<(&'static str, fn() -> Space)> {
    vec![
        ("Serial", || Space::serial()),
        ("Threads", || Space::threads()),
        ("DeviceSim", || Space::device_sim()),
        ("SwAthread", || {
            Space::sw_athread_with(licomkpp::sunway::CgConfig::test_small())
        }),
    ]
}

/// Per-rank elastic outcome in a shape the harness can compare.
type Outcome = Option<(usize, u64, ElasticStats)>; // (role, checksum, stats)

fn run_world(
    space: fn() -> Space,
    plan: Option<FaultPlan>,
    dir_tag: &str,
) -> (Vec<Outcome>, licomkpp::mpi::TrafficSnapshot) {
    let dir = std::env::temp_dir().join(format!("licom_rank_death_{dir_tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wc = WorldConfig::new(WORLD).spares(WORLD - COMPUTE);
    if let Some(p) = plan {
        wc = wc.faults(p);
    }
    let ecfg = ElasticConfig {
        target_steps: STEPS,
        ckpt_dir: dir.clone(),
        ring: 3,
        recovery: RecoveryPolicy {
            checkpoint_every: 2,
            max_rollbacks: 8,
        },
    };
    let out = World::run_cfg(wc, move |comm| {
        match run_elastic(comm, cfg(), space(), opts(), &ecfg).expect("elastic run must succeed") {
            ElasticOutcome::Completed { model, stats } => {
                Some((model.comm().rank(), model.checksum(), stats))
            }
            ElasticOutcome::Spared | ElasticOutcome::Died => None,
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Checksums keyed by role (subdomain), from whichever world ranks hold
/// the roles at the end.
fn by_role(outcomes: &[Outcome]) -> Vec<u64> {
    let mut v: Vec<(usize, u64)> = outcomes
        .iter()
        .flatten()
        .map(|(role, sum, _)| (*role, *sum))
        .collect();
    v.sort_unstable();
    v.iter().map(|(_, sum)| *sum).collect()
}

#[test]
fn rank_death_recovers_bitwise_on_all_spaces() {
    for (name, space) in spaces() {
        // Failure-free reference: same world shape, spare never used.
        let (clean, _) = run_world(space, None, &format!("clean_{name}"));
        let clean_sums = by_role(&clean);
        assert_eq!(clean_sums.len(), COMPUTE, "{name}: clean run must complete");
        // Clean runs never touch the recovery machinery.
        for (_, _, stats) in clean.iter().flatten() {
            assert_eq!(stats.rank_deaths_recovered, 0, "{name}");
            assert_eq!(stats.run.steps_replayed, 0, "{name}");
        }
        // The idle spare must have been retired (Spared → None) and the
        // compute ranks must map 1:1 onto roles.
        assert!(clean[WORLD - 1].is_none(), "{name}: spare must stay idle");

        // Seeded death mid-run.
        let plan = FaultPlan::new(0xDEAD_0001).kill(VICTIM, DEATH_EPOCH);
        let (faulted, t) = run_world(space, Some(plan), &format!("death_{name}"));

        // The victim died; the spare adopted its role; three roles finished.
        assert!(faulted[VICTIM].is_none(), "{name}: victim must not finish");
        let spare = faulted[WORLD - 1]
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: spare must adopt the dead role"));
        assert_eq!(spare.0, VICTIM, "{name}: spare must hold the victim's role");

        // Detection was typed, not a hang or a timeout storm.
        assert_eq!(t.rank_deaths, 1, "{name}");
        assert!(
            t.peer_dead_errors >= 1,
            "{name}: death must surface as PeerDead"
        );

        // Every finishing rank agrees on the gate counters: exactly one
        // death recovered, and the replay bounded by the checkpoint
        // interval (death while attempting step 4, newest common
        // checkpoint at step 2, so exactly step 3 is recommitted).
        let finished: Vec<&(usize, u64, ElasticStats)> = faulted.iter().flatten().collect();
        assert_eq!(finished.len(), COMPUTE, "{name}");
        for (_, _, stats) in &finished {
            assert_eq!(stats.rank_deaths_recovered, 1, "{name}");
            assert_eq!(stats.run.steps_replayed, 1, "{name}");
            assert!(
                stats.detection_ns > 0 || stats.recovery_wall_ns > 0,
                "{name}"
            );
        }

        // The flagship claim: bitwise identity per subdomain.
        assert_eq!(
            clean_sums,
            by_role(&faulted),
            "{name}: recovered run diverged from failure-free run"
        );
    }
}

/// Two deaths, two spares: the elastic layer recruits spares in order
/// and survives repeated failures in one run (Serial to keep it quick).
#[test]
fn two_deaths_consume_two_spares() {
    let dir = std::env::temp_dir().join("licom_rank_death_double");
    let _ = std::fs::remove_dir_all(&dir);
    let ecfg = ElasticConfig {
        target_steps: STEPS,
        ckpt_dir: dir.clone(),
        ring: 3,
        recovery: RecoveryPolicy {
            checkpoint_every: 2,
            max_rollbacks: 8,
        },
    };
    let plan = FaultPlan::new(0xDEAD_0002).kill(1, 3).kill(2, 5);
    let wc = WorldConfig::new(5).spares(2).faults(plan);
    let (out, t) = World::run_cfg(wc, move |comm| {
        match run_elastic(comm, cfg(), Space::serial(), opts(), &ecfg)
            .expect("elastic run must survive two deaths")
        {
            ElasticOutcome::Completed { model, stats } => {
                Some((model.comm().rank(), model.checksum(), stats))
            }
            ElasticOutcome::Spared | ElasticOutcome::Died => None,
        }
    });
    let _ = std::fs::remove_dir_all(&dir);

    assert!(out[1].is_none() && out[2].is_none(), "both victims died");
    let roles: Vec<usize> = out.iter().flatten().map(|(r, _, _)| *r).collect();
    assert_eq!(roles.len(), COMPUTE);
    assert_eq!(t.rank_deaths, 2);
    for (_, _, stats) in out.iter().flatten() {
        assert_eq!(stats.rank_deaths_recovered, 2);
    }

    // Still bitwise identical to a failure-free world of the same shape.
    let dir2 = std::env::temp_dir().join("licom_rank_death_double_clean");
    let _ = std::fs::remove_dir_all(&dir2);
    let ecfg2 = ElasticConfig {
        target_steps: STEPS,
        ckpt_dir: dir2.clone(),
        ring: 3,
        recovery: RecoveryPolicy {
            checkpoint_every: 2,
            max_rollbacks: 8,
        },
    };
    let (clean, _) = World::run_cfg(
        WorldConfig::new(5).spares(2),
        move |comm| match run_elastic(comm, cfg(), Space::serial(), opts(), &ecfg2).unwrap() {
            ElasticOutcome::Completed { model, stats } => {
                Some((model.comm().rank(), model.checksum(), stats))
            }
            _ => None,
        },
    );
    let _ = std::fs::remove_dir_all(&dir2);
    assert_eq!(by_role(&clean), by_role(&out));
}

/// No spares: the victim's death ends the run, and it ends it with a typed
/// `PeerDead` on every rank — the survivors inside `4 × budget` (the vote's
/// deadline) plus one step — where the blocking status vote this loop
/// replaced panicked one survivor and hung the world.
#[test]
fn rank_death_under_the_resilient_driver_is_a_typed_error_on_every_rank() {
    let dir = std::env::temp_dir().join("licom_rank_death_resilient");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::new(0xDEAD_0003).kill(VICTIM, DEATH_EPOCH);
    let (out, t) = World::run_cfg(WorldConfig::new(COMPUTE).faults(plan), {
        let dir = dir.clone();
        move |comm| {
            let mut m = Model::new(comm, cfg(), Space::serial(), opts());
            let mut mgr = CheckpointManager::new(&dir, 3);
            let policy = RecoveryPolicy {
                checkpoint_every: 2,
                max_rollbacks: 8,
            };
            // Epochs 0..3 are clean, and say what a step costs here.
            let t0 = Instant::now();
            m.run_steps_resilient(DEATH_EPOCH, &mut mgr, &policy)
                .expect("steps before the death are clean");
            let one_step = t0.elapsed() / DEATH_EPOCH as u32;
            let t0 = Instant::now();
            let err = m
                .run_steps_resilient(STEPS, &mut mgr, &policy)
                .expect_err("nothing can adopt the dead role");
            (err, t0.elapsed(), one_step)
        }
    });
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(t.rank_deaths, 1);
    let deadline = RetryPolicy::test_small().budget() * 4;
    for (rank, (err, waited, one_step)) in out.iter().enumerate() {
        assert!(
            matches!(
                err,
                RecoveryError::PeerDead {
                    peer: VICTIM,
                    attempted: 4,
                    ..
                }
            ),
            "rank {rank}: {err}"
        );
        assert!(
            *waited <= deadline + *one_step + Duration::from_millis(250),
            "rank {rank}: {waited:?} against {deadline:?} + a step of {one_step:?}"
        );
    }
}
