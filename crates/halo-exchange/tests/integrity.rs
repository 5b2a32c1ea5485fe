//! Integrity-layer integration tests: halo exchanges against a faulted
//! `mpi-sim` world. Corrupted or dropped strips must be repaired through
//! the CRC + escrow-retransmission protocol, bitwise-identically to a
//! fault-free run; unrecoverable losses must surface as typed errors on
//! every rank instead of hanging the world.

use std::time::Duration;

use halo_exchange::{FoldKind, FrameFault, Halo2D, Halo3D, HaloError, IntegrityConfig, Strategy3D};
use kokkos_rs::{View, View2, View3};
use mpi_sim::{CartComm, FaultKind, FaultPlan, FaultRule, MatchSpec, World};

const H: usize = halo_exchange::HALO;

fn g2(j: usize, i: usize) -> f64 {
    (j * 1000 + i) as f64 + 0.25
}

fn fill_owned_2d(h: &Halo2D, f: &View2<f64>) {
    for j in 0..h.ny {
        for i in 0..h.nx {
            f.set_at(H + j, H + i, g2(h.y0 + j, h.x0 + i));
        }
    }
}

fn g3(k: usize, j: usize, i: usize) -> f64 {
    (k * 1_000_000 + j * 1000 + i) as f64 + 0.125
}

fn fill_owned_3d(h: &Halo3D, f: &View3<f64>) {
    for k in 0..h.nz {
        for j in 0..h.h2.ny {
            for i in 0..h.h2.nx {
                f.set_at(k, H + j, H + i, g3(k, h.h2.y0 + j, h.h2.x0 + i));
            }
        }
    }
}

/// One integrity-checked 2-D exchange per rank; returns the final field.
fn run_2d(plan: Option<FaultPlan>) -> Vec<Vec<f64>> {
    let body = |comm: &mpi_sim::Comm| {
        let cart = CartComm::new(comm.clone(), 2, 2, true);
        let h = Halo2D::new(&cart, 12, 10).with_integrity(IntegrityConfig::default());
        h.begin_step(1);
        let f: View2<f64> = View::host("f", [h.padded().0, h.padded().1]);
        f.fill(0.0);
        fill_owned_2d(&h, &f);
        h.try_exchange(&f, FoldKind::Scalar, 0).unwrap();
        f.to_vec()
    };
    match plan {
        Some(plan) => World::run_faulted(4, plan, body).0,
        None => World::run_traced(4, body).0,
    }
}

#[test]
fn bitflipped_2d_strip_recovers_bitwise() {
    // Flip one bit in one westward strip; integrity must fetch the
    // pristine escrowed copy and end bitwise identical to the clean run.
    let plan = FaultPlan::new(0xB17F11)
        .rule(FaultRule::new(FaultKind::BitFlip, MatchSpec::any()).max_hits(1));
    let clean = run_2d(None);
    let (_, t) = {
        let plan2 = plan.clone();
        let body = |comm: &mpi_sim::Comm| {
            let cart = CartComm::new(comm.clone(), 2, 2, true);
            let h = Halo2D::new(&cart, 12, 10).with_integrity(IntegrityConfig::default());
            h.begin_step(1);
            let f: View2<f64> = View::host("f", [h.padded().0, h.padded().1]);
            f.fill(0.0);
            fill_owned_2d(&h, &f);
            h.try_exchange(&f, FoldKind::Scalar, 0).unwrap();
        };
        World::run_faulted(4, plan2, body)
    };
    assert!(t.faults_bitflipped >= 1, "the fault must actually fire");
    assert!(t.crc_failures >= 1, "the flip must be detected");
    assert!(t.resends_served >= 1, "recovery must come from escrow");
    let faulted = run_2d(Some(plan));
    assert_eq!(clean, faulted, "recovered exchange must be bitwise clean");
}

#[test]
fn dropped_2d_strip_recovers_from_escrow() {
    let plan = FaultPlan::new(0xD20B)
        .rule(FaultRule::new(FaultKind::Drop { recoverable: true }, MatchSpec::any()).max_hits(2));
    let clean = run_2d(None);
    let faulted = run_2d(Some(plan));
    assert_eq!(clean, faulted);
}

#[test]
fn truncated_3d_batched_strip_recovers_bitwise() {
    let run = |plan: Option<FaultPlan>| {
        let body = |comm: &mpi_sim::Comm| {
            let cart = CartComm::new(comm.clone(), 2, 2, true);
            let h = Halo3D::new(Halo2D::new(&cart, 12, 10), 3, Strategy3D::Transpose)
                .with_integrity(IntegrityConfig::default());
            h.begin_step(7);
            let u: View3<f64> = View::host("u", h.shape());
            let v: View3<f64> = View::host("v", h.shape());
            u.fill(0.0);
            v.fill(0.0);
            fill_owned_3d(&h, &u);
            fill_owned_3d(&h, &v);
            h.try_exchange_many(&[(&u, FoldKind::Vector), (&v, FoldKind::Scalar)], 0)
                .unwrap();
            (u.to_vec(), v.to_vec())
        };
        match plan {
            Some(plan) => World::run_faulted(4, plan, body),
            None => World::run_traced(4, body),
        }
    };
    let plan = FaultPlan::new(0x7256)
        .rule(FaultRule::new(FaultKind::Truncate { drop_words: 5 }, MatchSpec::any()).max_hits(1));
    let (clean, _) = run(None);
    let (faulted, t) = run(Some(plan));
    assert!(t.faults_truncated >= 1);
    assert_eq!(clean, faulted);
}

#[test]
fn unrecoverable_drop_surfaces_typed_error_on_every_rank() {
    // Drop *everything*, unrecoverably: no rank can finish, but with
    // integrity timeouts none may hang either — each gets a typed error.
    let plan = FaultPlan::new(0xDEAD).rule(FaultRule::new(
        FaultKind::Drop { recoverable: false },
        MatchSpec::any(),
    ));
    let cfg = IntegrityConfig {
        retry: mpi_sim::RetryPolicy {
            max_retries: 1,
            base_timeout: Duration::from_millis(20),
            jitter: 0.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let (results, t) = World::run_faulted(4, plan, |comm| {
        let cart = CartComm::new(comm.clone(), 2, 2, true);
        let h = Halo2D::new(&cart, 12, 10).with_integrity(cfg);
        h.begin_step(1);
        let f: View2<f64> = View::host("f", [h.padded().0, h.padded().1]);
        f.fill(0.0);
        fill_owned_2d(&h, &f);
        h.try_exchange(&f, FoldKind::Scalar, 0)
    });
    assert!(t.faults_dropped >= 4, "drops: {}", t.faults_dropped);
    for (rank, r) in results.iter().enumerate() {
        match r {
            Err(HaloError::RetriesExhausted { last, attempts, .. }) => {
                assert_eq!(*last, FrameFault::Timeout, "rank {rank}");
                assert_eq!(*attempts, 2, "rank {rank}");
            }
            other => panic!("rank {rank} must exhaust retries, got {other:?}"),
        }
    }
    assert!(t.recv_timeouts >= 4);
    assert!(t.halo_retries >= 4);
}

#[test]
fn integrity_framing_is_transparent_when_no_faults_fire() {
    // Same final field with framing on and off on a clean network.
    let unframed = {
        let body = |comm: &mpi_sim::Comm| {
            let cart = CartComm::new(comm.clone(), 2, 2, true);
            let h = Halo2D::new(&cart, 12, 10);
            let f: View2<f64> = View::host("f", [h.padded().0, h.padded().1]);
            f.fill(0.0);
            fill_owned_2d(&h, &f);
            h.exchange(&f, FoldKind::Scalar, 0);
            f.to_vec()
        };
        World::run_traced(4, body).0
    };
    assert_eq!(unframed, run_2d(None));
}

#[test]
fn dead_neighbour_is_a_typed_error_with_integrity_off() {
    // Raw messages have no retry loop to notice a fail-stop rank, and the
    // plain blocking receive under them panics on one. The survivor must
    // get `PeerDead` as a value all the same — from the blocking exchange
    // and from `finish()`, 2-D and 3-D — naming the one message it waits
    // on: the exchange's tag.
    let cfg = mpi_sim::WorldConfig::new(2).faults(FaultPlan::new(0xDEAD).kill(1, 1));
    World::run_cfg(cfg, |comm| {
        let cart = CartComm::new(comm.clone(), 2, 1, true);
        let h2 = Halo2D::new(&cart, 8, 6);
        let h3 = Halo3D::new(h2.clone(), 3, Strategy3D::Transpose);
        assert!(h2.integrity().is_none());
        comm.set_epoch(1); // rank 1 dies here, before it sends anything
        if comm.self_failed() {
            return;
        }
        let f2: View2<f64> = View::host("f2", [h2.padded().0, h2.padded().1]);
        let f3: View3<f64> = View::host("f3", h3.shape());
        let dead = |tag| Err(HaloError::PeerDead { src: 1, tag });
        assert_eq!(h2.try_exchange(&f2, FoldKind::Scalar, 100), dead(100));
        let p = h2.begin_exchange_many(&[(&f2, FoldKind::Vector)], 200);
        assert_eq!(p.unwrap().finish(), dead(200));
        assert_eq!(h3.try_exchange(&f3, FoldKind::Scalar, 300), dead(310));
        let p = h3.begin_exchange_many(&[(&f3, FoldKind::Vector)], 400);
        assert_eq!(p.unwrap().finish(), dead(410));
    });
}

/// px = 2, py = 1: every ghost rank 0 needs — both zonal edges and the fold
/// rows — is rank 1's, and comes in one message (the fold corners are each
/// rank's own cells). One framed 2-D and one batched 3-D exchange; returns
/// every rank's fields.
fn run_coalesced(plan: Option<FaultPlan>) -> (Vec<Vec<Vec<f64>>>, mpi_sim::TrafficSnapshot) {
    let body = |comm: &mpi_sim::Comm| {
        let cart = CartComm::new(comm.clone(), 2, 1, true);
        let h2 = Halo2D::new(&cart, 12, 6).with_integrity(IntegrityConfig::test_small());
        let h3 = Halo3D::new(h2.clone(), 3, Strategy3D::Transpose);
        h2.begin_step(1);
        let f: View2<f64> = View::host("f", [h2.padded().0, h2.padded().1]);
        let (u, v): (View3<f64>, View3<f64>) =
            (View::host("u", h3.shape()), View::host("v", h3.shape()));
        f.fill(0.0);
        u.fill(0.0);
        v.fill(0.0);
        fill_owned_2d(&h2, &f);
        fill_owned_3d(&h3, &u);
        fill_owned_3d(&h3, &v);
        h2.try_exchange(&f, FoldKind::Vector, 0).unwrap();
        h3.try_exchange_many(&[(&u, FoldKind::Vector), (&v, FoldKind::Scalar)], 100)
            .unwrap();
        vec![f.to_vec(), u.to_vec(), v.to_vec()]
    };
    match plan {
        Some(plan) => World::run_faulted(2, plan, body),
        None => World::run_traced(2, body),
    }
}

#[test]
fn every_fault_on_the_coalesced_frame_recovers_bitwise() {
    let (clean, t) = run_coalesced(None);
    assert_eq!(t.p2p_messages, 4, "one message a peer an exchange");
    // (fault, seed, repaired from escrow: the frame as delivered is
    // missing or fails its CRC / length check)
    for (kind, seed, escrow) in [
        (FaultKind::Drop { recoverable: true }, 0xC0A1, true),
        (FaultKind::Duplicate, 0xC0A2, false),
        (FaultKind::Delay { sends: 1 }, 0xC0A3, false),
        (FaultKind::BitFlip, 0xC0A4, true),
        (FaultKind::Truncate { drop_words: 3 }, 0xC0A5, true),
    ] {
        // The first message either rank sends: the whole 2-D exchange.
        let plan = FaultPlan::new(seed).rule(FaultRule::new(kind, MatchSpec::any()).max_hits(1));
        let (faulted, t) = run_coalesced(Some(plan));
        let fired = t.faults_dropped
            + t.faults_duplicated
            + t.faults_delayed
            + t.faults_bitflipped
            + t.faults_truncated;
        assert!(fired >= 1, "{kind:?} must fire");
        assert!(
            !escrow || t.resends_served >= 1,
            "{kind:?}: not from escrow"
        );
        assert_eq!(clean, faulted, "{kind:?}: recovered ghosts differ");
    }
}

#[test]
fn a_peer_killed_mid_round_is_peer_dead_inside_the_retry_deadline() {
    // Rank 1 dies at epoch 2 while rank 0, its message sent, waits on
    // rank 1's: the blocking finish must return `PeerDead` well inside the
    // first attempt's deadline, and a later poll must too, not spin.
    let cfg = IntegrityConfig::default();
    let plan = FaultPlan::new(0xDEAD).kill(1, 2);
    World::run_cfg(mpi_sim::WorldConfig::new(2).faults(plan), move |comm| {
        let cart = CartComm::new(comm.clone(), 2, 1, true);
        let h = Halo2D::new(&cart, 12, 6).with_integrity(cfg);
        let f: View2<f64> = View::host("f", [h.padded().0, h.padded().1]);
        comm.set_epoch(1);
        h.begin_step(1);
        h.try_exchange(&f, FoldKind::Scalar, 0).unwrap();
        if comm.rank() == 1 {
            std::thread::sleep(Duration::from_millis(30));
            comm.set_epoch(2);
            assert!(comm.self_failed());
            return;
        }
        let t0 = std::time::Instant::now();
        let p = h
            .begin_exchange_many(&[(&f, FoldKind::Scalar)], 100)
            .unwrap();
        assert_eq!(p.finish(), Err(HaloError::PeerDead { src: 1, tag: 100 }));
        assert!(
            t0.elapsed() < cfg.retry.base_timeout,
            "took {:?}, the first attempt's deadline is {:?}",
            t0.elapsed(),
            cfg.retry.base_timeout
        );
        let mut p = h
            .begin_exchange_many(&[(&f, FoldKind::Scalar)], 200)
            .unwrap();
        assert_eq!(p.poll(), Err(HaloError::PeerDead { src: 1, tag: 200 }));
    });
}

#[test]
fn a_truncated_raw_message_is_a_typed_error() {
    // Without framing nothing repairs a short message, but it must not
    // unpack past its end either: the receiver gets a typed `Truncated`.
    let plan = FaultPlan::new(0x5407).rule(
        FaultRule::new(
            FaultKind::Truncate { drop_words: 2 },
            MatchSpec::any().src(0),
        )
        .max_hits(1),
    );
    let (results, t) = World::run_faulted(2, plan, |comm| {
        let cart = CartComm::new(comm.clone(), 2, 1, true);
        let h = Halo2D::new(&cart, 12, 6);
        let f: View2<f64> = View::host("f", [h.padded().0, h.padded().1]);
        h.try_exchange(&f, FoldKind::Scalar, 0)
    });
    assert_eq!(t.faults_truncated, 1);
    assert_eq!(results[0], Ok(()));
    assert_eq!(
        results[1],
        Err(HaloError::RetriesExhausted {
            src: 0,
            tag: 0,
            attempts: 1,
            last: FrameFault::Truncated
        })
    );
}
