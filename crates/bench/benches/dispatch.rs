//! Functor dispatch and registry-matching microbenchmarks.
//!
//! Measures (a) the linked-list registry lookup vs the SIMD-accelerated
//! key scan (paper §V-B: "we leveraged Sunway architecture features such
//! as LDM ... and SIMD vectorization, for accelerated kernel matching"),
//! as the registry grows, and (b) the **crossover** that places
//! `kokkos-rs`'s pool gate: launch time against iterations for the serial
//! tile loop, the pool driven directly over the same tiles (the gate is not
//! in the way: this goes past `kokkos-rs`) and `parallel_for_3d` over one
//! level on `Threads`, for three body weights, alone and beside a second submitter
//! doing the same (EXPERIMENTS.md, "Work-first dispatch").
//! The per-launch overhead of each execution space is `licom_bench`'s
//! `kokkos-rs.launch_ns.*`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kokkos_rs::{
    parallel_for_3d, registry, Functor1D, Functor3D, MDRangePolicy3, Policy, Space, View, View1,
    View2,
};
use rayon::prelude::*;

struct Axpy {
    a: f64,
    x: View1<f64>,
    y: View1<f64>,
}
impl Functor1D for Axpy {
    fn operator(&self, i: usize) {
        self.y.set_at(i, self.a * self.x.at(i) + self.y.at(i));
    }
}
kokkos_rs::register_for_1d!(bench_axpy, Axpy);

// Pad the registry with distinct functor types to measure O(n) matching.
macro_rules! pad_functor {
    ($($name:ident),*) => {
        $(
            struct $name;
            impl Functor1D for $name {
                fn operator(&self, _i: usize) {}
            }
        )*
        fn register_pad() {
            $(registry::register::<$name, kokkos_rs::RangePolicy, kokkos_rs::functor::For>(
                stringify!($name),
            );)*
        }
    };
}
pad_functor!(
    P00, P01, P02, P03, P04, P05, P06, P07, P08, P09, P10, P11, P12, P13, P14, P15, P16, P17, P18,
    P19, P20, P21, P22, P23, P24, P25, P26, P27, P28, P29, P30, P31, P32, P33, P34, P35, P36, P37,
    P38, P39, P40, P41, P42, P43, P44, P45, P46, P47, P48, P49, P50, P51, P52, P53, P54, P55, P56,
    P57, P58, P59, P60, P61, P62, P63
);

fn bench_registry_matching(c: &mut Criterion) {
    bench_axpy();
    register_pad();
    let key = registry::key_of::<Axpy>();
    let mut g = c.benchmark_group("registry_lookup");
    let (len, _, _) = registry::stats();
    g.bench_with_input(BenchmarkId::new("linked_list", len), &key, |b, &k| {
        b.iter(|| registry::lookup(k, registry::KernelKind::For1D))
    });
    g.bench_with_input(BenchmarkId::new("simd_scan", len), &key, |b, &k| {
        b.iter(|| registry::lookup_simd(k, registry::KernelKind::For1D))
    });
    g.finish();
}

struct Empty;
impl Functor3D for Empty {
    fn operator(&self, _k: usize, _j: usize, _i: usize) {}
}

struct Triad {
    a: View2<f64>,
    b: View2<f64>,
    c: View2<f64>,
}
impl Functor3D for Triad {
    fn operator(&self, _k: usize, j: usize, i: usize) {
        self.a.set_at(j, i, self.b.at(j, i) + 0.5 * self.c.at(j, i));
    }
}

/// Two five-point stencils with clamped edges over one source: the weight
/// of a barotropic substep's launches.
struct StencilPair {
    src: View2<f64>,
    dst: [View2<f64>; 2],
}
impl Functor3D for StencilPair {
    fn operator(&self, _k: usize, j: usize, i: usize) {
        let [ny, nx] = self.src.dims();
        let at = |j: usize, i: usize| self.src.at(j.min(ny - 1), i.min(nx - 1));
        for dst in &self.dst {
            let ns = at(j + 1, i) + at(j.saturating_sub(1), i);
            let ew = at(j, i + 1) + at(j, i.saturating_sub(1));
            dst.set_at(j, i, 0.2 * (at(j, i) + ns + ew));
        }
    }
}

fn triad(dims: [usize; 2]) -> Triad {
    let [a, b, c] = ["a", "b", "c"].map(|l| View::from_fn(l, dims, |[j, i]| (j + i) as f64));
    Triad { a, b, c }
}

fn stencil_pair(dims: [usize; 2]) -> StencilPair {
    let [src, q, r] = ["p", "q", "r"].map(|l| View::from_fn(l, dims, |[j, i]| (j * i) as f64));
    StencilPair { src, dst: [q, r] }
}

/// The three ways to run one launch's tiles.
const DRIVERS: [&str; 3] = ["serial_tiles", "pool_direct", "threads"];

fn drive<F: Functor3D + 'static>(driver: &str, policy: MDRangePolicy3, f: &F) {
    match driver {
        "serial_tiles" => parallel_for_3d(&Space::serial(), policy, f),
        "pool_direct" => (0..policy.total_tiles())
            .into_par_iter()
            .for_each(|t| f.operator_tile(policy.tile_bounds(t))),
        _ => parallel_for_3d(&Space::threads(), policy, f),
    }
}

/// 2^6 … 2^18 iterations as one-level `[1, 2^(p/2), 2^(p - p/2)]` grids on
/// the default `[1, 8, 64]` tiles. With `submitters == 2` a second thread launches the same
/// thing on its own views for as long as the measurement runs.
fn crossover<F: Functor3D + 'static>(
    c: &mut Criterion,
    body: &str,
    make: impl Fn([usize; 2]) -> F + Sync,
) {
    for submitters in [1, 2] {
        let mut g = c.benchmark_group(format!("crossover/{body}/{submitters}_submitters"));
        g.warm_up_time(Duration::from_millis(100))
            .measurement_time(Duration::from_millis(400));
        for p in 6..=18 {
            let dims = [1 << (p / 2), 1 << (p - p / 2)];
            let policy = MDRangePolicy3::new([1, dims[0], dims[1]]);
            let f = make(dims);
            for driver in DRIVERS {
                let stop = AtomicBool::new(false);
                std::thread::scope(|s| {
                    if submitters == 2 {
                        s.spawn(|| {
                            let rival = make(dims);
                            while !stop.load(Ordering::Relaxed) {
                                drive(driver, policy, &rival);
                            }
                        });
                    }
                    g.bench_function(BenchmarkId::new(driver, 1 << p), |b| {
                        b.iter(|| drive(driver, policy, &f))
                    });
                    stop.store(true, Ordering::Relaxed);
                });
            }
        }
        g.finish();
    }
}

fn bench_crossover(c: &mut Criterion) {
    crossover(c, "empty", |_| Empty);
    crossover(c, "triad", triad);
    crossover(c, "stencil_pair", stencil_pair);
}

criterion_group!(benches, bench_registry_matching, bench_crossover);
criterion_main!(benches);
