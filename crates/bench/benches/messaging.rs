//! Message-passing substrate benchmark: barrier cost. Point-to-point
//! latency, the 64 k-word message and the allreduce — the alpha-beta inputs
//! of the performance model's network term — are `licom_bench`'s
//! `mpi-sim.pingpong_ns` / `msg_64k_ns` / `allreduce_ns`.

use criterion::{criterion_group, criterion_main, Criterion};
use mpi_sim::World;
use std::time::Duration;

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives_4ranks");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("barrier_x16", |b| {
        b.iter(|| {
            World::run(4, |comm| {
                for _ in 0..16 {
                    comm.barrier();
                }
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_collectives);
criterion_main!(benches);
