//! Layer probes: each times calls into one layer's public functions, in
//! isolation, from outside. They run in every traced pass after the
//! tracer is removed, so the layers are on their hooks-disabled path.
//!
//! A probe repeats its operation in batches for a fixed slice of wall
//! time and reports the median batch — host time, noisy, unbounded; the
//! exact numbers beside them are counts.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use halo_exchange::{FoldKind, Halo2D, Halo3D, IntegrityConfig, Strategy3D};
use kokkos_rs::{
    parallel_for_1d, parallel_for_3d, Functor1D, Functor3D, MDRangePolicy3, RangePolicy, Space,
    View, View2, View3,
};
use licom::{CheckpointManager, Model};
use mpi_sim::{CartComm, ReduceOp, World};
use ocean_grid::{ActiveSet, ActiveSet3, Bathymetry, GlobalGrid};

use crate::episode;
use crate::report::Record;
use crate::spec::{Episode, SpaceKind, GRID_CPE, GRID_HALO, GRID_KERNEL, HALO_EPISODE};
use crate::stats::median;

/// Wall time each probe may spend measuring.
const SLICE: Duration = Duration::from_millis(60);

/// Median seconds per call of `op`, which performs `per_call` operations:
/// batches repeat until [`SLICE`] is spent (at least five batches).
fn per_op_s(per_call: u64, mut op: impl FnMut()) -> f64 {
    op(); // warm: first-touch, lazy pools, registry
    let mut samples = Vec::new();
    let t_all = Instant::now();
    while samples.len() < 5 || t_all.elapsed() < SLICE {
        let t = Instant::now();
        op();
        samples.push(t.elapsed().as_secs_f64() / per_call as f64);
    }
    median(&samples)
}

/// Like [`per_op_s`] for an operation both ranks of a 2-rank world run in
/// lock step: a fixed batch count, so the ranks agree on when to stop.
fn per_op_2r(batches: usize, per_call: u64, mut op: impl FnMut()) -> f64 {
    op();
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_secs_f64() / per_call as f64
        })
        .collect();
    median(&samples)
}

struct Empty;
impl Functor1D for Empty {
    fn operator(&self, _i: usize) {}
}
kokkos_rs::register_for_1d!(register_probe_empty, Empty);

/// STREAM triad `a = b + s·c` over three 3-D views.
struct Triad {
    a: View3<f64>,
    b: View3<f64>,
    c: View3<f64>,
    s: f64,
}
impl Functor3D for Triad {
    fn operator(&self, k: usize, j: usize, i: usize) {
        self.a
            .set_at(k, j, i, self.b.at(k, j, i) + self.s * self.c.at(k, j, i));
    }
}

fn probe_mpi_sim(r: &mut Record) {
    // One-way latency of a message of `len` f64 between two rank threads.
    let pingpong = |len: usize, iters: u64| -> f64 {
        World::run(2, move |comm| {
            let peer = 1 - comm.rank();
            let mut tag = 0u64;
            per_op_2r(9, 2 * iters, || {
                for _ in 0..iters {
                    tag += 1;
                    if comm.rank() == 0 {
                        comm.send_into(peer, tag, len, |b| b.fill(1.0));
                        comm.recv_into(peer, tag, |b| std::hint::black_box(b[0]));
                    } else {
                        comm.recv_into(peer, tag, |b| std::hint::black_box(b[0]));
                        comm.send_into(peer, tag, len, |b| b.fill(1.0));
                    }
                }
            })
        })[0]
    };
    r.set("mpi-sim.pingpong_ns", pingpong(1, 400) * 1e9);
    r.set("mpi-sim.msg_64k_ns", pingpong(8192, 100) * 1e9);

    let allreduce = World::run(2, |comm| {
        per_op_2r(9, 400, || {
            for i in 0..400 {
                std::hint::black_box(comm.allreduce_f64(f64::from(i), ReduceOp::Sum));
            }
        })
    })[0];
    r.set("mpi-sim.allreduce_ns", allreduce * 1e9);

    let mib = vec![0xA5u8; 1 << 20];
    let crc_s = per_op_s(1, || {
        std::hint::black_box(mpi_sim::crc32c(std::hint::black_box(&mib)));
    });
    r.set("mpi-sim.crc32c_gb_s", mib.len() as f64 / crc_s * 1e-9);

    let flight = World::run(1, |comm| {
        let _armed = comm.arm_flight(mpi_sim::flight::DEFAULT_CAPACITY);
        per_op_s(10_000, || {
            for i in 0..10_000u64 {
                mpi_sim::flight::record(mpi_sim::FlightEventKind::KernelBegin, i, 0, 0);
            }
        })
    })[0];
    r.set("mpi-sim.flight_record_ns", flight * 1e9);
}

/// Per-launch cost of each space; returned for the dispatch estimate.
fn launch_ns(r: &mut Record) -> [f64; 4] {
    register_probe_empty();
    let mut out = [0.0; 4];
    for (slot, kind) in SpaceKind::ALL.into_iter().enumerate() {
        let space = kind.make();
        // One single-iteration tile per hardware thread: the launch (on
        // Threads, the pool's wake-up and join) and nothing else.
        let policy = RangePolicy::new(crate::nproc()).with_tile(1);
        let s = per_op_s(100, || {
            for _ in 0..100 {
                parallel_for_1d(&space, policy, &Empty);
            }
        });
        out[slot] = s * 1e9;
        r.set(&format!("kokkos-rs.launch_ns.{}", kind.name()), out[slot]);
    }
    out
}

fn probe_triad(r: &mut Record) {
    let c = GRID_KERNEL.cfg();
    let dims = [c.nz, c.ny, c.nx];
    let view = |label| -> View3<f64> {
        let v = View::host(label, dims);
        v.fill(1.0);
        v
    };
    let f = Triad {
        a: view("triad_a"),
        b: view("triad_b"),
        c: view("triad_c"),
        s: 3.0,
    };
    // Computed bytes: two reads and one write of 8 bytes per cell; cache
    // misses and write-allocate traffic are not counted.
    let bytes = 3.0 * 8.0 * (c.nz * c.ny * c.nx) as f64;
    for (name, space) in [("serial", Space::serial()), ("threads", Space::threads())] {
        let s = per_op_s(1, || parallel_for_3d(&space, MDRangePolicy3::new(dims), &f));
        r.set(&format!("kokkos-rs.triad_gb_s.{name}"), bytes / s * 1e-9);
    }
    std::hint::black_box(f.a.at(0, 0, 0));
}

fn probe_kokkos_profiling(r: &mut Record, work_dir: &Path) {
    assert!(
        !kokkos_rs::profiling::enabled(),
        "probes must run with every tool detached"
    );
    let s = per_op_s(100_000, || {
        for _ in 0..100_000 {
            let _region = kokkos_rs::profiling::region("probe");
        }
    });
    r.set("kokkos-profiling.disabled_hook_ns", s * 1e9);

    // The repository's own Profiler on one short halo_serial_2r episode.
    let ep = Episode {
        steps: 150,
        ..HALO_EPISODE
    };
    let p50 = |work_dir: &Path| median(&episode::run(&ep, work_dir, Instant::now()).step_ms());
    let plain = p50(work_dir);
    kokkos_profiling::attach(Arc::new(kokkos_profiling::Profiler::default()));
    let profiled = p50(work_dir);
    kokkos_profiling::detach();
    r.set(
        "kokkos-profiling.profiler_overhead_frac",
        profiled / plain - 1.0,
    );
}

fn probe_ocean_grid(r: &mut Record) {
    let c = GRID_KERNEL.cfg();
    let bathy = Bathymetry::earth_like();
    let build = || GlobalGrid::build(c.nx, c.ny, c.nz, &bathy, c.full_depth);
    r.set(
        "ocean-grid.global_build_ms",
        per_op_s(1, || {
            std::hint::black_box(build());
        }) * 1e3,
    );
    let g = build();
    let levels = |j: usize, i: usize| g.kmt[g.idx(j, i)] as u32;
    r.set(
        "ocean-grid.wetset_build_ms",
        per_op_s(1, || {
            std::hint::black_box(ActiveSet::build_columns(c.nx, 0..c.ny, 0..c.nx, levels));
            std::hint::black_box(ActiveSet3::build_cells(
                c.nz,
                c.ny,
                c.nx,
                0..c.ny,
                0..c.nx,
                levels,
            ));
        }) * 1e3,
    );
    r.set(
        "ocean-grid.wet_fraction",
        g.wet_points_3d() as f64 / (c.nx * c.ny * c.nz) as f64,
    );
}

fn probe_halo_exchange(r: &mut Record) {
    // A 2-rank world at the halo_serial_2r block shape: 60×38 split in x.
    let c = GRID_HALO.cfg();
    let (nx, ny) = (c.nx, c.ny);
    let us: Vec<[f64; 5]> = World::run(2, move |comm| {
        let cart = CartComm::new(comm.clone(), 2, 1, true);
        let h2 = Halo2D::new(&cart, nx, ny);
        let (pj, pi) = h2.padded();
        let f2: View2<f64> = View::host("probe2", [pj, pi]);
        f2.fill(1.0);
        let mut tag = 0u64;
        let mut next_tag = || {
            tag += 100;
            tag
        };
        let halo2d = per_op_2r(9, 50, || {
            for _ in 0..50 {
                h2.exchange(&f2, FoldKind::Scalar, next_tag());
            }
        });
        let field3 = |h: &Halo3D| -> View3<f64> {
            let f = View::host("probe3", h.shape());
            f.fill(1.0);
            f
        };
        let mut time3 = |h: &Halo3D, fields: usize| {
            let fs: Vec<View3<f64>> = (0..fields).map(|_| field3(h)).collect();
            let refs: Vec<(&View3<f64>, FoldKind)> =
                fs.iter().map(|f| (f, FoldKind::Scalar)).collect();
            let mut epoch = 0u64;
            per_op_2r(9, 20, || {
                for _ in 0..20 {
                    epoch += 1;
                    h.begin_step(epoch);
                    h.try_exchange_many(&refs, next_tag())
                        .expect("a clean network loses no strip");
                }
            })
        };
        let h6 = Halo3D::new(h2.clone(), 6, Strategy3D::Transpose);
        let h30 = Halo3D::new(h2.clone(), 30, Strategy3D::Transpose);
        let h6_crc = Halo3D::new(h2.clone(), 6, Strategy3D::Transpose)
            .with_integrity(IntegrityConfig::default());
        [
            halo2d,
            time3(&h6, 1),
            time3(&h30, 1),
            time3(&h6, 4),
            time3(&h6_crc, 1),
        ]
    });
    let [halo2d, nz6, nz30, many4, nz6_crc] = us[0];
    r.set("halo-exchange.halo2d_us", halo2d * 1e6);
    r.set("halo-exchange.halo3d_nz6_us", nz6 * 1e6);
    r.set("halo-exchange.halo3d_nz30_us", nz30 * 1e6);
    r.set("halo-exchange.halo3d_many4_us", many4 * 1e6);
    r.set("halo-exchange.integrity_overhead_frac", nz6_crc / nz6 - 1.0);
}

fn probe_checkpoint(r: &mut Record, work_dir: &Path) {
    let dir = work_dir.join("probe_ckpt");
    let cfg = GRID_CPE.cfg();
    let opts = episode::options(work_dir);
    let ring_dir = dir.clone();
    let (write_s, restore_s) = World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
        m.try_step().expect("120x76x30 steps clean");
        let mut ring = CheckpointManager::new(&ring_dir, 2);
        let write_s = per_op_s(1, || ring.save(&m).expect("checkpoint write"));
        let t = Instant::now();
        ring.restore_latest_collective(&mut m)
            .expect("checkpoint restore");
        (write_s, t.elapsed().as_secs_f64())
    })[0];
    // Both ring slots are full by now; one slot is one checkpoint.
    let bytes: u64 = std::fs::read_dir(&dir)
        .map(|d| {
            d.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    r.set("licom.checkpoint_write_ms", write_s * 1e3);
    r.set("licom.checkpoint_restore_ms", restore_s * 1e3);
    r.set("licom.checkpoint_mb", bytes as f64 / 2.0 * 1e-6);
}

/// Median timed step, in ms, of one short probe episode.
fn short_p50_ms(ep: &Episode, work_dir: &Path) -> f64 {
    median(&episode::run(ep, work_dir, Instant::now()).step_ms())
}

fn probe_scaling(r: &mut Record, work_dir: &Path) {
    // Serial vs Threads on the kernel grid: base Serial, ideal nproc.
    let kernel = |space| Episode {
        ranks: 1,
        space,
        grid: GRID_KERNEL,
        warmup: 1,
        steps: 4,
    };
    r.set(
        "kokkos-rs.threads_speedup",
        short_p50_ms(&kernel(SpaceKind::Serial), work_dir)
            / short_p50_ms(&kernel(SpaceKind::Threads), work_dir),
    );
    // 1 rank vs 2 ranks on 60×38×6: efficiency = t1 / (2·t2).
    let halo = |ranks| Episode {
        ranks,
        steps: 100,
        ..HALO_EPISODE
    };
    r.set(
        "halo-exchange.strong_scaling_eff_2r",
        short_p50_ms(&halo(1), work_dir) / (2.0 * short_p50_ms(&halo(2), work_dir)),
    );
}

/// Run every probe into `r`; returns the per-space launch costs (ns) in
/// [`SpaceKind::ALL`] order for the dispatch estimate.
pub fn run_all(r: &mut Record, work_dir: &Path) -> [f64; 4] {
    probe_mpi_sim(r);
    let launch = launch_ns(r);
    probe_triad(r);
    probe_kokkos_profiling(r, work_dir);
    probe_ocean_grid(r);
    probe_halo_exchange(r);
    probe_checkpoint(r, work_dir);
    probe_scaling(r, work_dir);
    launch
}
