//! Every collective is one rank-ordered allgather over the mailbox: the
//! world's, a `with_members` view's and `try_allgather`'s fold the same
//! bits, are charged to the collective counters only, never meet the fault
//! plan, and give up within the world's `recv_timeout` naming the rank that
//! did not arrive.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mpi_sim::{
    Comm, FaultKind, FaultPlan, FaultRule, MatchSpec, ReduceOp, TrafficSnapshot, World, WorldConfig,
};

/// Values whose sum depends on the order it is taken in.
fn contribution(rank: usize) -> f64 {
    0.1 * (rank as f64 + 1.0) * 1e10 + 1e-7
}

/// One `barrier`, one `allgather(Vec<u64>)` and one `allreduce_f64`:
/// the gathered table and the sum's bits.
fn mix(comm: &Comm) -> (Vec<Vec<u64>>, u64) {
    comm.barrier();
    let table = comm.allgather(vec![comm.rank() as u64 * 3, 7]);
    let sum = comm.allreduce_f64(contribution(comm.rank()), ReduceOp::Sum);
    (table, sum.to_bits())
}

/// The same mix on a view over all four world ranks, in world order.
fn view_mix(comm: &Comm) -> (Vec<Vec<u64>>, u64) {
    mix(&comm.with_members(&[0, 1, 2, 3], 11))
}

/// The rank-ordered fold of a `try_allgather`.
fn try_sum(comm: &Comm) -> u64 {
    comm.try_allgather(5, vec![contribution(comm.rank())], Duration::from_secs(30))
        .expect("every rank is alive")
        .iter()
        .fold(0.0, |a, v| a + v[0])
        .to_bits()
}

/// Counters moved by the three collectives of `mix`: a barrier, and two
/// allgathers of 16 and 8 bytes a rank.
fn mix_traffic() -> TrafficSnapshot {
    TrafficSnapshot {
        collectives: 2,
        collective_bytes: 4 * 16 + 4 * 8,
        barriers: 1,
        ..Default::default()
    }
}

#[test]
fn world_view_and_try_allgather_fold_the_same_bits() {
    let serial = (0..4).map(contribution).fold(0.0, |a, b| a + b).to_bits();
    let table: Vec<Vec<u64>> = (0..4).map(|r| vec![r * 3, 7]).collect();
    for (world, view, fallible) in World::run(4, |comm| (mix(comm), view_mix(comm), try_sum(comm)))
    {
        assert_eq!(world, (table.clone(), serial));
        assert_eq!(view, world);
        assert_eq!(fallible, serial);
    }
}

#[test]
fn collectives_are_charged_to_the_collective_counters_only() {
    let (_, world) = World::run_traced(4, mix);
    assert_eq!(world, mix_traffic());
    // A view's collectives and `try_allgather` take the same path, so they
    // do not count as point-to-point traffic either.
    let (_, view) = World::run_traced(4, view_mix);
    assert_eq!(view, mix_traffic());
    let (_, fallible) = World::run_traced(4, try_sum);
    assert_eq!(
        fallible,
        TrafficSnapshot {
            collectives: 1,
            collective_bytes: 4 * 8,
            ..Default::default()
        }
    );
}

#[test]
fn the_fault_plan_never_touches_a_collective() {
    let every_f64 = || {
        FaultPlan::new(3).rule(FaultRule::new(
            FaultKind::Drop { recoverable: false },
            MatchSpec::any(),
        ))
    };
    let (clean, _) = World::run_traced(4, mix);
    let (faulted, t) = World::run_faulted(4, every_f64(), mix);
    assert_eq!(faulted, clean);
    assert_eq!(t, mix_traffic());
    let (faulted, t) = World::run_faulted(4, every_f64(), view_mix);
    assert_eq!(faulted, clean);
    assert_eq!(t, mix_traffic());
}

/// Run `op` on rank 0 of a two-rank world whose rank 1 returns at once;
/// the panic message and how long it took.
fn abandoned(op: fn(&Comm)) -> (String, Duration) {
    let cfg = WorldConfig::new(2).recv_timeout(Duration::from_millis(200));
    let (mut out, _) = World::run_cfg(cfg, |comm| {
        (comm.rank() == 0).then(|| {
            let t0 = Instant::now();
            let err = catch_unwind(AssertUnwindSafe(|| op(comm)))
                .expect_err("a collective rank 1 never enters must not complete");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            (msg, t0.elapsed())
        })
    });
    out.swap_remove(0).expect("rank 0 reports")
}

#[test]
fn a_rank_that_never_arrives_is_named_within_the_timeout() {
    let (msg, waited) = abandoned(Comm::barrier);
    assert!(msg.contains("barrier aborted: rank 1"), "{msg}");
    assert!(waited < Duration::from_secs(1), "{waited:?}");
    let (msg, waited) = abandoned(|comm| {
        comm.allreduce_f64(1.0, ReduceOp::Sum);
    });
    assert!(msg.contains("allgather aborted: rank 1"), "{msg}");
    assert!(waited < Duration::from_secs(1), "{waited:?}");
}

#[test]
fn a_dead_rank_aborts_the_blocking_collectives() {
    let cfg = WorldConfig::new(3).faults(FaultPlan::new(0).kill(2, 1));
    World::run_cfg(cfg, |comm| {
        comm.set_epoch(1); // rank 2 dies here
        if comm.self_failed() {
            return;
        }
        let err = catch_unwind(AssertUnwindSafe(|| comm.barrier()))
            .expect_err("a barrier with a dead member must not complete");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("barrier aborted: rank 2 died"), "{msg}");
    });
}
