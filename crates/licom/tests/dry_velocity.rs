//! Owned dry velocity cells — land columns and the levels at and below
//! `kmu` of wet ones — hold `+0`, bit for bit, in all three leapfrog
//! levels. Nothing writes them: the velocity column pass stores wet cells
//! only, and the Asselin filter of three `+0` is `+0`. The state starts so,
//! so this holds only while every path that rewrites a level keeps it: stepping on each execution space, a checkpoint save and
//! restore, and a rollback of the resilient driver.

use halo_exchange::HALO as H;
use licom::checkpoint::{CheckpointManager, RecoveryPolicy};
use licom::model::{Model, ModelOptions};
use mpi_sim::{FaultKind, FaultPlan, FaultRule, MatchSpec, RetryPolicy, World};
use ocean_grid::Resolution;

fn cfg() -> ocean_grid::ModelConfig {
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

type MakeSpace = fn() -> kokkos_rs::Space;

fn spaces() -> Vec<(&'static str, MakeSpace)> {
    vec![
        ("Serial", || kokkos_rs::Space::serial()),
        ("Threads", || kokkos_rs::Space::threads()),
        ("DeviceSim", || kokkos_rs::Space::device_sim()),
        ("SwAthread", || {
            kokkos_rs::Space::sw_athread_with(sunway_sim::CgConfig::test_small())
        }),
    ]
}

/// Every owned dry velocity cell of `u` and `v` in every level is `+0`;
/// returns how many there are, or the first that is not.
fn dry_cells_hold_plus_zero(m: &Model) -> Result<usize, String> {
    let g = &m.grid;
    let mut dry = 0;
    for lev in 0..licom::state::LEVELS {
        for (name, q) in [("u", &m.state.u[lev]), ("v", &m.state.v[lev])] {
            for jl in H..H + g.ny {
                for il in H..H + g.nx {
                    for k in g.kmu.at(jl, il).max(0) as usize..g.nz {
                        let x = q.at(k, jl, il);
                        if x.to_bits() != 0.0f64.to_bits() {
                            return Err(format!("{name}[{lev}]({k}, {jl}, {il}) = {x:e}"));
                        }
                        dry += 1;
                    }
                }
            }
        }
    }
    Ok(dry)
}

fn assert_dry(m: &Model, when: &str) {
    match dry_cells_hold_plus_zero(m) {
        Ok(dry) => assert!(dry > 0, "{when}: the grid has no dry velocity cell"),
        Err(cell) => panic!("{when}: owned dry velocity cell {cell}"),
    }
}

#[test]
fn dry_velocity_cells_stay_plus_zero_on_every_space() {
    for (name, mk) in spaces() {
        World::run(1, |comm| {
            let mut m = Model::new(comm, cfg(), mk(), ModelOptions::default());
            assert_dry(&m, &format!("{name}, fresh"));
            m.run_steps(20);
            assert_dry(&m, &format!("{name}, 20 steps"));
        });
    }
}

#[test]
fn dry_velocity_cells_survive_a_checkpoint_restore() {
    let dir = std::env::temp_dir().join("licom_dry_velocity_restore");
    let _ = std::fs::remove_dir_all(&dir);
    World::run(1, |comm| {
        let mut mgr = CheckpointManager::new(&dir, 2);
        let mut m = Model::new(
            comm,
            cfg(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        );
        m.run_steps(4);
        mgr.save(&m).unwrap();
        let mut restored = Model::new(
            comm,
            cfg(),
            kokkos_rs::Space::serial(),
            ModelOptions::default(),
        );
        restored.run_steps(1);
        assert_eq!(mgr.restore_latest_collective(&mut restored).unwrap(), 4);
        assert_dry(&restored, "restored");
        restored.run_steps(3);
        assert_dry(&restored, "3 steps after the restore");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dry_velocity_cells_survive_a_rollback() {
    let dir = std::env::temp_dir().join("licom_dry_velocity_rollback");
    let _ = std::fs::remove_dir_all(&dir);
    // An unrecoverable drop in step 5: every rank votes the step down,
    // restores the step-3 checkpoint and replays.
    let plan = FaultPlan::new(13).rule(
        FaultRule::new(
            FaultKind::Drop { recoverable: false },
            MatchSpec::any().src(0).tags(500, 870).epochs(5, 6),
        )
        .max_hits(1),
    );
    let (rollbacks, _) = World::run_faulted(3, plan, {
        let dir = dir.clone();
        move |comm| {
            let opts = ModelOptions {
                retry: RetryPolicy::test_small(),
                ..ModelOptions::default()
            };
            let mut mgr = CheckpointManager::new(&dir, 3);
            let mut m = Model::new(comm, cfg(), kokkos_rs::Space::serial(), opts);
            let policy = RecoveryPolicy {
                checkpoint_every: 3,
                max_rollbacks: 8,
            };
            let stats = m.run_steps_resilient(8, &mut mgr, &policy).unwrap();
            assert_dry(&m, &format!("rank {}, after the rollback", comm.rank()));
            stats.rollbacks
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        rollbacks.iter().all(|&r| r > 0),
        "the drop forced no rollback: {rollbacks:?}"
    );
}
