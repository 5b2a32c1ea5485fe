//! Halo engine microbenchmarks: pooled vs allocating exchanges and
//! pack/unpack per execution space. The cost of one exchange (`nz` 6 / 30,
//! four fields batched) and of CRC framing is `licom_bench`'s
//! `halo-exchange.halo3d_*_us` / `integrity_overhead_frac`.

use criterion::{criterion_group, criterion_main, Criterion};
use halo_exchange::{FoldKind, Halo2D, Halo3D, Strategy3D};
use kokkos_rs::{View, View3};
use mpi_sim::{CartComm, World};
use std::time::Duration;

/// Pooled (default) vs freshly-allocating exchange paths on a large tile.
/// The halo is built once per iteration and then exchanged repeatedly, so
/// after the first exchange the pooled path runs entirely out of reused
/// buffers while the `_alloc` reference pays a fresh `vec![0.0; n]` per
/// message.
fn bench_pooled_vs_allocating(c: &mut Criterion) {
    const STEPS: u64 = 32;
    let mut g = c.benchmark_group("halo3d_pooled_512x512x60_2ranks_32x");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("pooled", |b| {
        b.iter(|| {
            World::run(2, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 1, true);
                let h = Halo3D::new(Halo2D::new(&cart, 512, 512), 60, Strategy3D::Transpose);
                let f: View3<f64> = View::host("f", h.shape());
                f.fill(1.0);
                for tag in 0..STEPS {
                    h.exchange(&f, FoldKind::Scalar, tag * 100);
                }
            })
        })
    });
    g.bench_function("allocating", |b| {
        b.iter(|| {
            World::run(2, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 1, true);
                let h = Halo3D::new(Halo2D::new(&cart, 512, 512), 60, Strategy3D::Transpose);
                let f: View3<f64> = View::host("f", h.shape());
                f.fill(1.0);
                for tag in 0..STEPS {
                    h.exchange_alloc(&f, FoldKind::Scalar, tag * 100);
                }
            })
        })
    });
    g.finish();
}

/// Serial vs parallel strip pack/unpack: the same single-rank exchange
/// (pack and unpack dominate — no real network) dispatched over the Serial
/// and Threads execution spaces via `Halo3D::with_space`.
fn bench_pack_spaces(c: &mut Criterion) {
    const STEPS: u64 = 16;
    let mut g = c.benchmark_group("halo3d_pack_512x512x60_1rank_16x");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for (label, space) in [
        ("serial", kokkos_rs::Space::serial()),
        ("threads", kokkos_rs::Space::threads()),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                World::run(1, |comm| {
                    let cart = CartComm::new(comm.clone(), 1, 1, true);
                    let h = Halo3D::new(Halo2D::new(&cart, 512, 512), 60, Strategy3D::Transpose)
                        .with_space(space.clone());
                    let f: View3<f64> = View::host("f", h.shape());
                    f.fill(1.0);
                    for tag in 0..STEPS {
                        h.exchange(&f, FoldKind::Scalar, tag * 100);
                    }
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pooled_vs_allocating, bench_pack_spaces);
criterion_main!(benches);
