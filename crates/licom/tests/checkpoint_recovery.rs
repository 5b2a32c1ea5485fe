//! Checkpoint serialization properties and model-level recovery:
//! encode/decode is lossless, any input at all — corrupted, truncated or
//! arbitrary bytes — is a typed error (never a panic, never a reservation
//! sized by the input's own length words), a restart file is the same image
//! and a failed load leaves the model untouched, and resuming from a
//! CRC-verified checkpoint is bitwise identical to an uninterrupted run on
//! all four execution spaces.
#![allow(clippy::type_complexity)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use licom::checkpoint::{decode, encode, CheckpointData, CheckpointError, CheckpointManager};
use licom::model::{Model, ModelOptions};
use mpi_sim::{RetryPolicy, World};
use ocean_grid::Resolution;
use proptest::prelude::*;

fn cfg() -> ocean_grid::ModelConfig {
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

fn model(comm: &mpi_sim::Comm) -> Model {
    Model::new(
        comm,
        cfg(),
        kokkos_rs::Space::serial(),
        ModelOptions::default(),
    )
}

/// The system allocator, noting the largest single request each thread has
/// made: what `decode` reserves is measured, not argued.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every request is handed to `System` unchanged, so its contract is
// this one's; the note taken on the way touches a `const`-initialized
// thread-local `Cell<usize>` (no allocation, no destructor, skipped once the
// thread is tearing down). `realloc` is the trait's default, which goes
// through `alloc` and so is noted too.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc(layout)` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// `decode(buf)` and the largest allocation it asked for on the way.
fn decode_watched(buf: &[u8]) -> (Result<CheckpointData, CheckpointError>, usize) {
    LARGEST.with(|l| l.set(0));
    let res = decode(buf);
    (res, LARGEST.with(Cell::get))
}

/// What every image starts with — magic, version, geometry, step — and
/// `nfields`, the header's last word: 72 bytes.
fn header(nfields: u64) -> Vec<u8> {
    let mut h = encode(&CheckpointData {
        geometry: [45, 27, 6, 0, 1],
        step: 7,
        fields: vec![],
    });
    h.truncate(64);
    h.extend_from_slice(&nfields.to_le_bytes());
    h
}

/// Structurally valid openings whose next length word is absurd: a field
/// count, a name length and two data lengths (the second overflows `× 8`)
/// no input could back.
fn absurd_lengths() -> Vec<(&'static str, Vec<u8>)> {
    let words = |nfields: u64, rest: &[u64]| {
        let mut b = header(nfields);
        for w in rest {
            b.extend_from_slice(&w.to_le_bytes());
        }
        b
    };
    // A zero-length name is legal framing, so the data length is next.
    vec![
        ("field count u64::MAX", words(u64::MAX, &[])),
        ("name length u64::MAX", words(1, &[u64::MAX])),
        ("data length u64::MAX", words(1, &[0, u64::MAX, 0])),
        (
            "data length u64::MAX / 8 + 1",
            words(1, &[0, u64::MAX / 8 + 1, 0]),
        ),
    ]
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// ROADMAP 6(c): **arbitrary** bytes — not an image with a bit flipped —
    /// decode to `Ok` or a typed error, never a panic, and `decode` never
    /// asks the allocator for more than the guards allow: the field table
    /// (48 B an entry, at most one entry per 24 B of input, plus one) or a
    /// field's data (a copy of input bytes).
    #[test]
    fn prop_arbitrary_bytes_never_panic_or_overallocate(
        bytes in proptest::collection::vec(0u8..=255, 0..4097),
    ) {
        let (res, largest) = decode_watched(&bytes);
        if let Err(e) = res {
            prop_assert!(matches!(e, CheckpointError::Format(_)), "{e:?}");
        }
        prop_assert!(largest <= 2 * bytes.len() + 256, "{largest} B for {} B", bytes.len());
    }

    /// The same with a valid header in front, so the tail is read as field
    /// framing — name lengths, data lengths, CRCs — instead of dying on the
    /// magic: arbitrary words, the ones `small` picks cut down to lengths a
    /// tail could back (so parsing gets past the first of them), then
    /// arbitrary bytes.
    #[test]
    fn prop_valid_header_arbitrary_tail_never_panics_or_overallocates(
        nfields in 0u64..u64::MAX,
        words in proptest::collection::vec(0u64..u64::MAX, 0..64),
        small in 0u64..u64::MAX,
        loose in proptest::collection::vec(0u8..=255, 0..3584),
    ) {
        let cut = |i: usize, w: u64| if small >> i & 1 == 1 { w % 40 } else { w };
        let mut bytes = header(cut(63, nfields));
        for (i, w) in words.iter().enumerate() {
            bytes.extend_from_slice(&cut(i, *w).to_le_bytes());
        }
        bytes.extend_from_slice(&loose);
        let (res, largest) = decode_watched(&bytes);
        match res {
            Ok(ck) => prop_assert_eq!(encode(&ck), bytes),
            Err(CheckpointError::Format(_) | CheckpointError::Corrupt { .. }) => {}
            Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other:?}"))),
        }
        prop_assert!(largest <= 2 * bytes.len() + 256, "{largest} B for {} B", bytes.len());
    }
}

/// Length words no input could back are refused before anything is
/// reserved for them: the largest request is the error message.
#[test]
fn absurd_length_words_are_refused_without_reserving() {
    for (what, bytes) in absurd_lengths() {
        let (res, largest) = decode_watched(&bytes);
        assert!(
            matches!(res, Err(CheckpointError::Format(_))),
            "{what}: {res:?}"
        );
        assert!(largest <= 256, "{what}: {largest} B requested");
    }
    // 64 bytes, every word after the magic at u64::MAX.
    let mut bytes = b"LICOMCKP".to_vec();
    bytes.resize(64, 0xFF);
    let (res, largest) = decode_watched(&bytes);
    assert!(matches!(res, Err(CheckpointError::Format(_))), "{res:?}");
    assert!(largest <= 256, "{largest} B requested");
    // The watch does see what decode reserves: a field's data, here.
    let image = encode(&CheckpointData {
        geometry: [45, 27, 6, 0, 1],
        step: 7,
        fields: vec![("t_cur".into(), vec![4.0; 1000])],
    });
    let (res, largest) = decode_watched(&image);
    assert!(res.is_ok() && (8000..=2 * image.len()).contains(&largest));
}

/// A restart file is the checkpoint image under a stable name: 3 steps,
/// save, resume in a fresh model, 3 more — bitwise the uninterrupted 6.
#[test]
fn restart_roundtrip_is_bitwise_exact() {
    let dir = std::env::temp_dir().join("licom_restart_test");
    let _ = std::fs::remove_dir_all(&dir);
    let reference = World::run(1, |comm| {
        let mut m = model(comm);
        m.run_steps(6);
        m.checksum()
    });
    let resumed = World::run(1, {
        let dir = dir.clone();
        move |comm| {
            let mut m = model(comm);
            m.run_steps(3);
            m.save_restart(&dir).unwrap();
            let image = decode(&std::fs::read(m.restart_path(&dir)).unwrap()).unwrap();
            assert_eq!((image.step, image.fields.len()), (3, 12));
            let mut m2 = model(comm);
            m2.load_restart(&dir).unwrap();
            assert_eq!(m2.steps_taken(), 3);
            m2.run_steps(3);
            m2.checksum()
        }
    });
    assert_eq!(reference, resumed, "restart broke bitwise reproducibility");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A model's image as an older version laid it out: today's 12 fields
/// plus the `new` role after `cur` — `u_new`, `v_new`, `eta_new` (version
/// 2, 15 fields), and with `t_new`, `s_new` between them (version 1, 17).
/// Each added field has its `cur` counterpart's length and data.
fn with_a_new_role(mut ck: CheckpointData, tracers: bool) -> CheckpointData {
    let names: &[&str] = if tracers {
        &["u", "v", "t", "s", "eta"]
    } else {
        &["u", "v", "eta"]
    };
    let at = ck.fields.iter().position(|(n, _)| n == "eta_cur").unwrap() + 1;
    for (k, q) in names.iter().enumerate() {
        let cur = ck.fields.iter().find(|(n, _)| *n == format!("{q}_cur"));
        let data = cur.unwrap().1.clone();
        ck.fields.insert(at + k, (format!("{q}_new"), data));
    }
    ck
}

/// An image of an older version is refused with a typed error, not a
/// panic, and the model asked to load it is left as it was; the same
/// fields under today's version are a mismatch, refused before any state
/// changes too.
fn an_old_image_is_refused_typed(version: u64, tracers: bool, fields: usize) {
    let dir = std::env::temp_dir().join(format!("licom_restart_v{version}"));
    let _ = std::fs::remove_dir_all(&dir);
    World::run(1, {
        let dir = dir.clone();
        move |comm| {
            let mut m = model(comm);
            m.run_steps(2);
            m.save_restart(&dir).unwrap();
            let path = m.restart_path(&dir);
            let ck = decode(&std::fs::read(&path).unwrap()).unwrap();
            let ck = with_a_new_role(ck, tracers);
            assert_eq!(ck.fields.len(), fields);
            let (before, steps) = (m.checksum(), m.steps_taken());
            let mut image = encode(&ck);
            let unsupported = format!("unsupported version {version}");
            let mismatch = format!("{fields} fields");
            for (v, refused) in [(version, unsupported), (3, mismatch)] {
                image[8..16].copy_from_slice(&v.to_le_bytes());
                std::fs::write(&path, &image).unwrap();
                let err = m.load_restart(&dir).unwrap_err();
                assert!(
                    matches!(
                        (&err, v),
                        (CheckpointError::Format(_), 1 | 2) | (CheckpointError::Mismatch(_), 3)
                    ),
                    "version {v}: {err:?}"
                );
                assert!(err.to_string().contains(&refused), "{err}");
                assert_eq!((m.checksum(), m.steps_taken()), (before, steps));
            }
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Version 1: T and S in all three leapfrog roles, 17 fields.
#[test]
fn a_version_1_image_is_refused_typed() {
    an_old_image_is_refused_typed(1, true, 17);
}

/// Version 2: u, v and η in the `new` role as well, 15 fields.
#[test]
fn a_version_2_image_is_refused_typed() {
    an_old_image_is_refused_typed(2, false, 15);
}

#[test]
fn restart_rejects_wrong_geometry() {
    let dir = std::env::temp_dir().join("licom_restart_geom");
    let _ = std::fs::remove_dir_all(&dir);
    World::run(1, {
        let dir = dir.clone();
        move |comm| {
            model(comm).save_restart(&dir).unwrap();
            let other = Resolution::Coarse100km.config().scaled_down(8, 5); // nz differs
            let mut m = Model::new(
                comm,
                other,
                kokkos_rs::Space::serial(),
                ModelOptions::default(),
            );
            let before = m.checksum();
            let err = m.load_restart(&dir).unwrap_err();
            assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
            assert!(format!("{err}").contains("mismatch"), "{err}");
            assert_eq!(m.checksum(), before);
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_multi_rank() {
    let dir = std::env::temp_dir().join("licom_restart_mr");
    let _ = std::fs::remove_dir_all(&dir);
    // nx = 45 → px = 3
    let reference = World::run(3, |comm| {
        let mut m = model(comm);
        m.run_steps(4);
        m.checksum()
    });
    let resumed = World::run(3, {
        let dir = dir.clone();
        move |comm| {
            let mut m = model(comm);
            m.run_steps(2);
            m.save_restart(&dir).unwrap();
            comm.barrier();
            let mut m2 = model(comm);
            m2.load_restart(&dir).unwrap();
            m2.run_steps(2);
            m2.checksum()
        }
    });
    assert_eq!(reference, resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart that does not verify changes nothing: cut at every eighth of
/// its length, or opening with a length word no file could back, the load
/// is a typed error and the model's state is bit for bit what it was. (The
/// format this replaced applied field after field as it read them, so a
/// file cut in half left half of its fields behind.)
#[test]
fn a_restart_that_fails_to_load_leaves_the_state_untouched() {
    let dir = std::env::temp_dir().join("licom_restart_cut");
    let _ = std::fs::remove_dir_all(&dir);
    World::run(1, {
        let dir = dir.clone();
        move |comm| {
            let mut donor = model(comm);
            donor.run_steps(2);
            donor.save_restart(&dir).unwrap();
            let path = donor.restart_path(&dir);
            let image = std::fs::read(&path).unwrap();

            let mut m = model(comm);
            m.run_steps(1);
            let before = (m.checksum(), m.steps_taken());
            for eighth in 0..8 {
                std::fs::write(&path, &image[..image.len() * eighth / 8]).unwrap();
                let err = m.load_restart(&dir).unwrap_err();
                assert!(
                    matches!(err, CheckpointError::Format(_)),
                    "cut at {eighth}/8: {err}"
                );
                assert_eq!((m.checksum(), m.steps_taken()), before, "cut at {eighth}/8");
            }
            for (what, bytes) in absurd_lengths() {
                std::fs::write(&path, bytes).unwrap();
                let err = m.load_restart(&dir).unwrap_err();
                assert!(matches!(err, CheckpointError::Format(_)), "{what}: {err}");
                assert_eq!((m.checksum(), m.steps_taken()), before, "{what}");
            }
            // One payload bit: the error names the field.
            let mut flipped = image.clone();
            let n = flipped.len();
            flipped[n - 5] ^= 0x10;
            std::fs::write(&path, flipped).unwrap();
            match m.load_restart(&dir).unwrap_err() {
                CheckpointError::Corrupt { field } => assert_eq!(field, "vbt"),
                other => panic!("expected Corrupt, got {other}"),
            }
            assert_eq!((m.checksum(), m.steps_taken()), before);
            // And the whole image still loads.
            std::fs::write(&path, &image).unwrap();
            m.load_restart(&dir).unwrap();
            assert_eq!((m.checksum(), m.steps_taken()), (donor.checksum(), 2));
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
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
            assert_eq!(names.len(), 12);
            assert_eq!(names[..5], ["u_old", "v_old", "t_old", "s_old", "eta_old"]);
            assert_eq!(
                names[5..],
                ["u_cur", "v_cur", "t_cur", "s_cur", "eta_cur", "ubt", "vbt"]
            );
            let field = |name: &str| &ck.fields.iter().find(|(n, _)| n == name).unwrap().1;
            let st = &m.state;
            assert_eq!(field("t_cur"), st.t.cur().as_slice());
            assert_eq!(field("s_old"), st.s.old().as_slice());
            assert_eq!(field("eta_old"), st.eta.old().as_slice());
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

/// The restore's agreement is the bounded vote, not a blocking collective:
/// a peer that never enters `restore_latest_collective` leaves the other
/// rank with a typed error inside `4 × retry.budget()`.
#[test]
fn a_peer_absent_from_the_restore_vote_is_a_typed_error() {
    let dir = std::env::temp_dir().join("licom_ckpt_absent_peer");
    let _ = std::fs::remove_dir_all(&dir);
    let retry = RetryPolicy::test_small();
    // nx = 60 → px = 2
    let cfg2 = Resolution::Coarse100km.config().scaled_down(6, 6);
    let waited = World::run(2, {
        let dir = dir.clone();
        move |comm| {
            let opts = ModelOptions {
                retry,
                ..Default::default()
            };
            let mut m = Model::new(comm, cfg2.clone(), kokkos_rs::Space::serial(), opts);
            let mut mgr = CheckpointManager::new(&dir, 2);
            mgr.save(&m).unwrap();
            if comm.rank() == 1 {
                return None;
            }
            let before = m.checksum();
            let t = Instant::now();
            let err = mgr.restore_latest_collective(&mut m).unwrap_err();
            assert!(matches!(err, CheckpointError::Vote(_)), "{err}");
            assert_eq!(m.checksum(), before);
            Some(t.elapsed())
        }
    })[0]
        .unwrap();
    assert!(
        waited <= retry.budget() * 4 + Duration::from_millis(500),
        "waited {waited:?} for a vote bounded by {:?}",
        retry.budget() * 4
    );
    let _ = std::fs::remove_dir_all(&dir);
}
