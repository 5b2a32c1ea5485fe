//! Cross-validation: the analytic performance model's communication
//! census versus the *actual* message traffic of the real model, measured
//! by the mpi-sim byte counters. The projection of Table V/Fig. 9 is only
//! credible if its per-step halo volumes match what the implementation
//! really sends.
#![allow(clippy::field_reassign_with_default)]

use licomkpp::grid::Resolution;
use licomkpp::kokkos::Space;
use licomkpp::model::checkpoint::CheckpointManager;
use licomkpp::model::{Model, ModelOptions, RecoveryPolicy, PHASES};
use licomkpp::mpi::{FaultKind, FaultPlan, FaultRule, MatchSpec, RetryPolicy, World};
use licomkpp::perf::workload::{HALO2D_PER_SUBSTEP, HALO3D_PER_STEP};
use licomkpp::perf::ProblemSpec;

/// 45x27x6: nx divisible by 3 ranks.
fn cfg() -> licomkpp::grid::ModelConfig {
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

/// World messages, world bytes and rank 0's checksum after `steps` steps of
/// 3 Serial ranks.
fn run(overlap: bool, steps: usize) -> (u64, u64, u64) {
    let (sums, t) = World::run_traced(3, move |comm| {
        let mut opts = ModelOptions::default();
        opts.overlap = overlap;
        let mut m = Model::new(comm, cfg(), Space::serial(), opts);
        m.run_steps(steps);
        m.checksum()
    });
    (t.p2p_messages, t.p2p_bytes, sums[0])
}

/// Per-step traffic of the whole world over steps 2-5 (init exchanges and
/// the first step subtracted), and the checksum after step 5.
fn per_step(overlap: bool) -> (u64, u64, u64) {
    let ((m1, b1, _), (m5, b5, sum)) = (run(overlap, 1), run(overlap, 5));
    ((m5 - m1) / 4, (b5 - b1) / 4, sum)
}

#[test]
fn measured_halo_traffic_matches_workload_census() {
    let (cfg, ranks) = (cfg(), 3usize);
    let (msgs_per_step, bytes_per_step, _) = per_step(true);
    let (msgs_per_step, bytes_per_step) = (msgs_per_step as f64, bytes_per_step as f64);

    // Analytic census for the same decomposition (workload counts one
    // rank; multiply by ranks; canuto cross-rank shipping excluded since
    // the default mode is List).
    let mut spec = ProblemSpec::from_config(&cfg);
    spec.substeps = 2 * cfg.barotropic_substeps();
    let analytic_bytes = ranks as f64
        * (HALO3D_PER_STEP * spec.halo3d_bytes(ranks)
            + spec.substeps as f64 * HALO2D_PER_SUBSTEP * spec.halo2d_bytes(ranks));

    let ratio = bytes_per_step / analytic_bytes;
    assert!(
        (0.4..2.5).contains(&ratio),
        "measured {bytes_per_step:.0} B/step vs analytic {analytic_bytes:.0} B/step (ratio {ratio:.2})"
    );
    // Message count: 4 directions per *exchange* (a batch of fields is one
    // message a direction), read off the step's table — the rows that post
    // a carried exchange, the advection refresh, one per substep — minus
    // the closed south and intra-rank copies; just require the right order
    // of magnitude.
    let exchanges = PHASES.iter().filter(|p| p.posts.is_some()).count() + 1 + spec.substeps;
    let analytic_msgs = (ranks * 4 * exchanges) as f64;
    let mratio = msgs_per_step / analytic_msgs;
    assert!(
        (0.3..2.0).contains(&mratio),
        "measured {msgs_per_step:.0} msgs/step vs analytic {analytic_msgs:.0} (ratio {mratio:.2})"
    );
}

/// `overlap` moves the waits and nothing else: per step, the same
/// messages, bytes and bits whether a posted exchange is carried or
/// finished at its post. And a phase that fails leaves no timer running:
/// after a seeded unrecoverable drop the aborted step is rolled back and
/// stepped again, through `Timers::start`'s "started twice" assert.
#[test]
fn both_settings_send_the_same_traffic() {
    let carried = per_step(true);
    assert_eq!(per_step(false), carried);
    // 28 exchanges a step at px = 3: one message per peer where each had
    // three strips (8 → 6 a exchange: 224 → 168), the same cells, and two
    // fewer 4-word CRC frame headers an exchange (391 168 − 28·64 B). The
    // advection intermediate is a band whose exchange moves no east/west
    // strip: 3 ranks × 2 strips × 27 rows × H × 6 levels × 2 fields × 8 B
    // fewer (389 376 − 31 104); every peer still trades fold rows or
    // corners, so no message goes. The new level's u, v, T and S go in one
    // exchange where two went: 27 exchanges a step, 6 messages and their
    // 32 B frame headers fewer (168 − 6, 358 272 − 6·32).
    assert_eq!((carried.0, carried.1), (162, 358_080));

    let plan = FaultPlan::new(21).rule(
        FaultRule::new(
            FaultKind::Drop { recoverable: false },
            MatchSpec::any().src(0).tags(800, 870).epochs(2, 3),
        )
        .max_hits(1),
    );
    let dir = std::env::temp_dir().join("licom_one_schedule_drop");
    let _ = std::fs::remove_dir_all(&dir);
    let (rollbacks, _) = World::run_faulted(3, plan, {
        let dir = dir.clone();
        move |comm| {
            let mut opts = ModelOptions::default();
            opts.retry = RetryPolicy::test_small();
            let mut m = Model::new(comm, cfg(), Space::serial(), opts);
            m.run_steps_resilient(
                4,
                &mut CheckpointManager::new(&dir, 2),
                &RecoveryPolicy::default(),
            )
            .expect("the dropped step is replayed")
            .rollbacks
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        rollbacks.iter().all(|&r| r >= 1),
        "no step failed: {rollbacks:?}"
    );
}
