//! Checkpoint serialization properties and model-level recovery:
//! encode/decode is lossless, corruption is always a typed error (never a
//! panic), and resuming from a CRC-verified checkpoint is bitwise
//! identical to an uninterrupted run on all four execution spaces.
#![allow(clippy::type_complexity)]

use licom::checkpoint::{decode, encode, CheckpointData, CheckpointError, CheckpointManager};
use licom::model::{Model, ModelOptions};
use mpi_sim::World;
use ocean_grid::Resolution;
use proptest::prelude::*;

fn cfg() -> ocean_grid::ModelConfig {
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any checkpoint image round-trips bitwise through encode/decode.
    #[test]
    fn prop_roundtrip_is_lossless(
        step in 0u64..1_000_000,
        nf in 0usize..6,
        len in 0usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let fields = (0..nf)
            .map(|f| {
                let data = (0..len)
                    .map(|i| {
                        // Deterministic but bit-diverse payloads, including
                        // negative zero and subnormals.
                        let bits = seed
                            .wrapping_mul(0x9E3779B97F4A7C15)
                            .wrapping_add((f * 1000 + i) as u64);
                        f64::from_bits(bits & 0x7FEF_FFFF_FFFF_FFFF)
                    })
                    .collect();
                (format!("field_{f}"), data)
            })
            .collect();
        let ck = CheckpointData {
            geometry: [45, 27, 6, 0, 1],
            step,
            fields,
        };
        prop_assert_eq!(decode(&encode(&ck)).unwrap(), ck);
    }

    /// Flipping any single bit of the image either surfaces a typed
    /// error or decodes to something different — and never panics.
    #[test]
    fn prop_corruption_is_typed_never_panic(
        byte_frac in 0.0f64..1.0,
        bit in 0usize..8,
        len in 1usize..24,
    ) {
        let ck = CheckpointData {
            geometry: [45, 27, 6, 1, 3],
            step: 17,
            fields: vec![
                ("u_cur".into(), vec![1.25; len]),
                ("eta_old".into(), vec![-0.5; len / 2 + 1]),
            ],
        };
        let clean = encode(&ck);
        let mut bad = clean.clone();
        let at = ((byte_frac * clean.len() as f64) as usize).min(clean.len() - 1);
        bad[at] ^= 1 << bit;
        match decode(&bad) {
            Ok(d) => prop_assert_ne!(d, ck),
            Err(
                CheckpointError::Format(_)
                | CheckpointError::Corrupt { .. }
                | CheckpointError::Mismatch(_),
            ) => {}
            Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other:?}"))),
        }
    }

    /// Any strict prefix of an image fails to decode (typed, no panic).
    #[test]
    fn prop_truncation_always_errors(cut_frac in 0.0f64..1.0) {
        let ck = CheckpointData {
            geometry: [45, 27, 6, 0, 1],
            step: 3,
            fields: vec![("t_new".into(), vec![4.0; 9])],
        };
        let bytes = encode(&ck);
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        prop_assert!(decode(&bytes[..cut]).is_err());
    }
}

/// Resume-from-checkpoint is bitwise identical to an uninterrupted run on
/// every execution space, including after `reset_transients` (the restore
/// path zeroes work arrays rather than inheriting the donor model's).
#[test]
fn checkpoint_resume_is_bitwise_on_all_spaces() {
    let spaces: Vec<(&str, fn() -> kokkos_rs::Space)> = vec![
        ("Serial", || kokkos_rs::Space::serial()),
        ("Threads", || kokkos_rs::Space::threads()),
        ("DeviceSim", || kokkos_rs::Space::device_sim()),
        ("SwAthread", || {
            kokkos_rs::Space::sw_athread_with(sunway_sim::CgConfig::test_small())
        }),
    ];
    for (name, mk) in spaces {
        let dir = std::env::temp_dir().join(format!("licom_ckpt_resume_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let reference = World::run(1, move |comm| {
            let mut m = Model::new(comm, cfg(), mk(), ModelOptions::default());
            m.run_steps(6);
            m.checksum()
        })
        .pop()
        .unwrap();
        let resumed = World::run(1, {
            let dir = dir.clone();
            move |comm| {
                let mut mgr = CheckpointManager::new(&dir, 2);
                let mut m = Model::new(comm, cfg(), mk(), ModelOptions::default());
                m.run_steps(3);
                mgr.save(&m).unwrap();
                // Dirty the donor's transients to prove restore does not
                // depend on them, then restore into a *fresh* model.
                let mut m2 = Model::new(comm, cfg(), mk(), ModelOptions::default());
                m2.run_steps(1); // desynchronize: work arrays + step count differ
                let step = mgr.restore_latest_collective(&mut m2).unwrap();
                assert_eq!(step, 3, "{name}");
                assert_eq!(m2.steps_taken(), 3, "{name}");
                m2.run_steps(3);
                m2.checksum()
            }
        })
        .pop()
        .unwrap();
        assert_eq!(reference, resumed, "resume diverged on {name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A save streams the model's arrays into the file without an owned
/// `CheckpointData` in between; the file must be byte for byte what
/// `encode` writes for the image `decode` reads back, on every rank, and
/// carry the stepped state (not a stale or partial copy of it).
#[test]
fn saved_file_is_the_canonical_encoding_of_its_image() {
    let dir = std::env::temp_dir().join("licom_ckpt_streamed");
    let _ = std::fs::remove_dir_all(&dir);
    World::run(3, {
        let dir = dir.clone();
        move |comm| {
            let mut mgr = CheckpointManager::new(&dir, 2);
            let mut m = Model::new(
                comm,
                cfg(),
                kokkos_rs::Space::serial(),
                ModelOptions::default(),
            );
            m.run_steps(2);
            mgr.save(&m).unwrap();
            let file = dir.join(licom::checkpoint::slot_file_name(0, comm.rank()));
            let bytes = std::fs::read(file).unwrap();
            let ck = decode(&bytes).unwrap();
            assert_eq!(encode(&ck), bytes, "rank {}", comm.rank());
            assert_eq!(ck.step, 2);
            assert_eq!(ck.geometry[3..], [comm.rank() as u64, 3]);
            let names: Vec<&str> = ck.fields.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names.len(), 17);
            assert_eq!(names[..5], ["u_old", "v_old", "t_old", "s_old", "eta_old"]);
            assert_eq!(names[15..], ["ubt", "vbt"]);
            let field = |name: &str| &ck.fields.iter().find(|(n, _)| n == name).unwrap().1;
            let st = &m.state;
            assert_eq!(field("t_cur"), st.t[st.cur()].as_slice());
            assert_eq!(field("eta_new"), st.eta[st.new_lev()].as_slice());
            assert_eq!(field("vbt"), st.vbt.as_slice());
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression (counter windowing): two successive `run_steps_resilient`
/// calls sharing one manager and one model must each publish only their
/// *own* window of checkpoints and traffic into the timers. Before the
/// fix, the second call re-published the manager's and transport's
/// lifetime totals, double-counting the first window.
#[test]
fn resumed_resilient_run_does_not_double_count() {
    use licom::checkpoint::RecoveryPolicy;
    let dir = std::env::temp_dir().join("licom_ckpt_resume_counters");
    let _ = std::fs::remove_dir_all(&dir);
    let (stats, counts) = World::run(3, {
        let dir = dir.clone();
        move |comm| {
            let mut mgr = CheckpointManager::new(&dir, 3);
            let mut m = Model::new(
                comm,
                cfg(),
                kokkos_rs::Space::serial(),
                ModelOptions::default(),
            );
            let policy = RecoveryPolicy {
                checkpoint_every: 2,
                max_rollbacks: 4,
            };
            let s1 = m.run_steps_resilient(4, &mut mgr, &policy).unwrap();
            let s2 = m.run_steps_resilient(8, &mut mgr, &policy).unwrap();
            (
                (s1, s2),
                (
                    m.timers.count("checkpoints_written"),
                    m.timers.count("halo_retries"),
                    m.timers.count("resends_served"),
                    mgr.checkpoints_written(),
                ),
            )
        }
    })
    .pop()
    .unwrap();
    let (s1, s2) = stats;
    let (timer_ckpts, retries, resends, mgr_total) = counts;
    // Per-window stats must describe only their own window…
    assert_eq!(s1.steps_completed, 4);
    assert_eq!(s2.steps_completed, 4);
    assert_eq!(
        s1.checkpoints_written + s2.checkpoints_written,
        mgr_total,
        "windows must partition the manager's lifetime total"
    );
    // …and the accumulated timer counter equals the sum of the windows,
    // not (window1) + (window1 + window2).
    assert_eq!(timer_ckpts, mgr_total, "timer counter double-counted");
    // Clean run: no retries/resends, and in particular not a negative
    // wrap from subtracting a stale snapshot.
    assert_eq!(retries, 0);
    assert_eq!(resends, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Multi-rank: ranks with *different* newest checkpoints (one rank's is
/// corrupt) must still agree on the newest step every rank can verify.
#[test]
fn collective_restore_agrees_on_oldest_common_good_step() {
    let dir = std::env::temp_dir().join("licom_ckpt_agree");
    let _ = std::fs::remove_dir_all(&dir);
    let results = World::run(3, {
        let dir = dir.clone();
        move |comm| {
            let mut mgr = CheckpointManager::new(&dir, 2);
            let mut m = Model::new(
                comm,
                cfg(),
                kokkos_rs::Space::serial(),
                ModelOptions::default(),
            );
            m.run_steps(2);
            mgr.save(&m).unwrap();
            m.run_steps(2);
            mgr.save(&m).unwrap();
            comm.barrier();
            // Corrupt rank 1's newest slot (slot 1 holds step 4): flip a
            // payload byte so CRC verification rejects it.
            if comm.rank() == 1 {
                let path = dir.join(licom::checkpoint::slot_file_name(1, 1));
                let mut bytes = std::fs::read(&path).unwrap();
                let n = bytes.len();
                bytes[n - 5] ^= 0x10;
                std::fs::write(&path, bytes).unwrap();
            }
            comm.barrier();
            let step = mgr.restore_latest_collective(&mut m).unwrap();
            (comm.rank(), step, m.steps_taken())
        }
    });
    for (rank, step, taken) in results {
        assert_eq!(step, 2, "rank {rank} must fall back to the common step");
        assert_eq!(taken, 2, "rank {rank}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
