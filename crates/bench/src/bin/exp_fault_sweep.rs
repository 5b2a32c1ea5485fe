//! Fault sweep — recovery overhead of the robustness layer (§ fault
//! injection / integrity / checkpoint-rollback).
//!
//! Runs the same 3-rank, 12-step model under a series of seeded fault
//! plans and reports what each run survived and what it cost: rollbacks,
//! steps replayed, detected corruptions, retries, escrow resends, extra
//! halo traffic versus the clean run, wall-time overhead — and whether
//! the final state stayed bitwise identical to the fault-free answer
//! (it must).
#![allow(clippy::field_reassign_with_default)]

use bench::banner;
use licom::checkpoint::{CheckpointManager, RecoveryPolicy, RecoveryStats};
use licom::model::{Model, ModelOptions};
use mpi_sim::stats::TrafficSnapshot;
use mpi_sim::RetryPolicy;
use mpi_sim::{FaultKind, FaultPlan, FaultRule, MatchSpec, World};
use ocean_grid::Resolution;

const RANKS: usize = 3;
const STEPS: u64 = 12;

fn opts() -> ModelOptions {
    let mut o = ModelOptions::default();
    o.retry = RetryPolicy::test_small();
    o
}

struct Outcome {
    wall: f64,
    checksums: Vec<u64>,
    stats: RecoveryStats,
    traffic: TrafficSnapshot,
}

fn run(plan: Option<FaultPlan>) -> Outcome {
    let cfg = Resolution::Coarse100km.config().scaled_down(8, 6);
    let dir = std::env::temp_dir().join("licom_fault_sweep");
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = std::time::Instant::now();
    let (results, traffic) = World::run_faulted(RANKS, plan.unwrap_or_default(), {
        let dir = dir.clone();
        move |comm| {
            let mut mgr = CheckpointManager::new(&dir, 3);
            let mut m = Model::new(comm, cfg.clone(), kokkos_rs::Space::serial(), opts());
            let policy = RecoveryPolicy {
                checkpoint_every: 3,
                max_rollbacks: 8,
            };
            let stats = m
                .run_steps_resilient(STEPS, &mut mgr, &policy)
                .expect("sweep plans must be survivable");
            (m.checksum(), stats)
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let checksums: Vec<u64> = results.iter().map(|r| r.0).collect();
    let stats = RecoveryStats {
        steps_completed: results.iter().map(|r| r.1.steps_completed).sum(),
        rollbacks: results.iter().map(|r| r.1.rollbacks).sum(),
        steps_replayed: results.iter().map(|r| r.1.steps_replayed).sum(),
        halo_errors: results.iter().map(|r| r.1.halo_errors).sum(),
        guard_trips: results.iter().map(|r| r.1.guard_trips).sum(),
        checkpoints_written: results.iter().map(|r| r.1.checkpoints_written).sum(),
    };
    Outcome {
        wall,
        checksums,
        stats,
        traffic,
    }
}

fn main() {
    banner("Fault sweep: recovery overhead under seeded fault plans");
    println!(
        "{RANKS} ranks x {STEPS} steps, 45x27x6 config, serial space, \
         checkpoint every 3 steps, integrity framing on\n"
    );

    let plans: Vec<(&str, Option<FaultPlan>)> = vec![
        ("clean (no faults)", None),
        (
            "bit-flip x3 (escrow heal)",
            Some(FaultPlan::new(11).rule(
                FaultRule::new(FaultKind::BitFlip, MatchSpec::any().epochs(2, 3)).max_hits(1),
            )),
        ),
        (
            "recoverable drop (escrow heal)",
            Some(
                FaultPlan::new(22).rule(
                    FaultRule::new(
                        FaultKind::Drop { recoverable: true },
                        MatchSpec::any().src(1).tags(800, 870).epochs(4, 5),
                    )
                    .max_hits(1),
                ),
            ),
        ),
        (
            "truncate x3 (escrow heal)",
            Some(
                FaultPlan::new(33).rule(
                    FaultRule::new(
                        FaultKind::Truncate { drop_words: 7 },
                        MatchSpec::any().epochs(6, 7),
                    )
                    .max_hits(1),
                ),
            ),
        ),
        (
            "unrecoverable drop (rollback)",
            Some(
                FaultPlan::new(44).rule(
                    FaultRule::new(
                        FaultKind::Drop { recoverable: false },
                        MatchSpec::any().src(0).tags(800, 870).epochs(7, 8),
                    )
                    .max_hits(1),
                ),
            ),
        ),
        (
            "flip + unrecoverable drop",
            Some(
                FaultPlan::new(0xF00D_CAFE)
                    .rule(
                        FaultRule::new(FaultKind::BitFlip, MatchSpec::any().epochs(2, 3))
                            .max_hits(1),
                    )
                    .rule(
                        FaultRule::new(
                            FaultKind::Drop { recoverable: false },
                            MatchSpec::any().src(0).tags(800, 870).epochs(5, 6),
                        )
                        .max_hits(1),
                    ),
            ),
        ),
    ];

    let clean = run(None);
    println!(
        "{:<32} {:>5} {:>7} {:>5} {:>7} {:>7} {:>8} {:>9} {:>8} {:>7}",
        "plan",
        "inj",
        "detect",
        "roll",
        "replay",
        "resend",
        "timeout",
        "+bytes%",
        "+wall%",
        "bitwise"
    );
    for (label, plan) in plans {
        let o = if plan.is_none() { run(None) } else { run(plan) };
        let extra_bytes =
            100.0 * (o.traffic.p2p_bytes as f64 / clean.traffic.p2p_bytes as f64 - 1.0);
        let extra_wall = 100.0 * (o.wall / clean.wall - 1.0);
        println!(
            "{:<32} {:>5} {:>7} {:>5} {:>7} {:>7} {:>8} {:>8.2} {:>7.0} {:>8}",
            label,
            o.traffic.faults_injected(),
            o.traffic.crc_failures,
            o.stats.rollbacks,
            o.stats.steps_replayed,
            o.traffic.resends_served,
            o.traffic.recv_timeouts,
            extra_bytes,
            extra_wall,
            if o.checksums == clean.checksums {
                "yes"
            } else {
                "NO!"
            }
        );
        assert_eq!(
            o.checksums, clean.checksums,
            "{label}: recovered state diverged from the clean run"
        );
    }
    println!(
        "\nEvery plan ends bitwise identical to the clean run; overheads\n\
         are the price of the detours (retries, rollback, replayed steps)."
    );
}
