//! Hotspot option benchmarks, whole steps on Serial: tracer advection with
//! and without the two-step shape-preserving limiter (the §V-C2
//! bottleneck). The plain step is `licom_bench`'s `sypd`.
#![allow(clippy::field_reassign_with_default)]

use criterion::{criterion_group, criterion_main, Criterion};
use kokkos_rs::Space;
use licom::model::{Model, ModelOptions};
use mpi_sim::World;
use ocean_grid::Resolution;
use std::time::Duration;

/// Build a single-rank model and run `steps` of the full step loop under
/// the given options/space.
fn run_steps(space: Space, opts: ModelOptions, steps: usize) {
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 10);
    World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), space.clone(), opts.clone());
        m.run_steps(steps);
    });
}

fn bench_advection_limiters(c: &mut Criterion) {
    let mut g = c.benchmark_group("advection_60x36x10");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for limited in [false, true] {
        let mut opts = ModelOptions::default();
        opts.limiter = limited;
        let label = if limited {
            "two_step_shape_preserving"
        } else {
            "upstream_only"
        };
        g.bench_function(label, |b| {
            let opts = opts.clone();
            b.iter(|| run_steps(Space::serial(), opts.clone(), 2))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_advection_limiters);
criterion_main!(benches);
