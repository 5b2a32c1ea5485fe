//! Receive-wait and in-flight attribution of an exchange finished on the
//! spot versus one carried across compute.
//!
//! The `halo_wait_ns` counter accrues at the recv chokepoint, so it sees a
//! carried exchange (`begin_exchange_many` … `finish`) even though that
//! path deliberately carries no whole-call profiling region. With a slow
//! neighbor, the blocking exchange eats the neighbor's delay inside its
//! receives while the carried one hides it under interior compute — so its
//! wait must come out at or below blocking wait, and its in-flight span
//! must cover the compute it rode across.

use std::time::Duration;

use halo_exchange::{FoldKind, Halo2D, HALO as H};
use kokkos_rs::{View, View2};
use mpi_sim::{CartComm, World};

const NXG: usize = 8;
const NYG: usize = 6;
/// Delay injected on rank 1 before it participates in each exchange.
const LAG: Duration = Duration::from_millis(40);

fn make_field(h: &Halo2D) -> View2<f64> {
    let (pj, pi) = h.padded();
    let f: View2<f64> = View::host("f", [pj, pi]);
    for j in 0..h.ny {
        for i in 0..h.nx {
            f.set_at(H + j, H + i, (h.y0 + j) as f64 * 100.0 + (h.x0 + i) as f64);
        }
    }
    f
}

#[test]
fn overlap_wait_le_blocking_wait() {
    World::run(2, |comm| {
        let cart = CartComm::new(comm.clone(), 2, 1, true);
        let h = Halo2D::new(&cart, NXG, NYG);
        let f = make_field(&h);
        let lagger = comm.rank() == 1;

        // Blocking: rank 1 shows up late, so rank 0's receives wait out
        // the whole lag.
        comm.barrier();
        if lagger {
            std::thread::sleep(LAG);
        }
        let w0 = h.halo_wait_ns();
        h.exchange(&f, FoldKind::Scalar, 100);
        let blocking_wait = h.halo_wait_ns() - w0;

        // Carried: rank 0 has a full lag's worth of interior compute, so
        // the late messages are already there when it finally receives.
        comm.barrier();
        if lagger {
            std::thread::sleep(LAG);
        }
        let compute = LAG + Duration::from_millis(10);
        let (w1, i1) = (h.halo_wait_ns(), h.halo_inflight_ns());
        let pending = h
            .begin_exchange_many(&[(&f, FoldKind::Scalar)], 200)
            .unwrap();
        if !lagger {
            std::thread::sleep(compute);
        }
        pending.finish().unwrap();
        let overlap_wait = h.halo_wait_ns() - w1;
        let overlap_inflight = h.halo_inflight_ns() - i1;

        if !lagger {
            assert!(
                blocking_wait >= LAG.as_nanos() as u64 / 2,
                "blocking exchange should have waited out the lag: {blocking_wait} ns"
            );
            assert!(
                overlap_wait <= blocking_wait,
                "overlap wait {overlap_wait} ns exceeds blocking wait {blocking_wait} ns"
            );
            assert!(
                overlap_inflight >= compute.as_nanos() as u64,
                "in-flight span {overlap_inflight} ns must cover the compute it was carried across"
            );
        }
    });
}

#[test]
fn wait_counter_shared_across_clones() {
    World::run(2, |comm| {
        let cart = CartComm::new(comm.clone(), 2, 1, true);
        let h = Halo2D::new(&cart, NXG, NYG);
        let h_clone = h.clone();
        let f = make_field(&h);
        h.exchange(&f, FoldKind::Scalar, 300);
        h_clone.exchange(&f, FoldKind::Scalar, 400);
        // Both exchanges land in one shared counter, visible from either
        // handle (Halo3D wraps a clone of the model's 2-D context).
        assert_eq!(h.halo_wait_ns(), h_clone.halo_wait_ns());
        assert!(h.halo_wait_ns() > 0, "networked recvs must accrue wait");
    });
}
