//! Consistency guard: the performance model's kernel census
//! (`perf_model::workload::PASSES_3D`) must match the `IterCost` hooks of
//! the actual `licom` functors — otherwise the projection describes a
//! different model than the one we run.
//!
//! The census describes the paper's code, which runs the implicit solve,
//! the tracer diffusion and the vertical advection pass once **per field**,
//! and every step of the old level's and the new level's chains as a launch
//! of its own. This repository runs each over a pair of fields and counts
//! what the pair shares (coefficients, masks, `w`) once, computes the
//! momentum tendency in one pass over the velocity columns that keeps
//! density and pressure in work rows and adds the wind stress and the depth
//! mean on the way, and finishes the new level in one column pass that
//! keeps the canuto coefficients in work rows and counts a field two
//! members touch once. The checks
//! below relate the two explicitly: a census row is the paired cost plus
//! the shared part a second time, and a column pass is the sum of the rows
//! it runs less what a launch of their own pays again.

use kokkos_rs::{View, View1, View2, View3};
use perf_model::workload::{PASSES_2D_SUBSTEP, PASSES_3D};

fn census(name: &str) -> (f64, f64) {
    let k = PASSES_3D
        .iter()
        .chain(PASSES_2D_SUBSTEP)
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("census entry '{name}' missing"));
    (k.flops_per_pt, k.bytes_per_pt)
}

fn v3(nz: usize) -> View3<f64> {
    View::host("v", [nz, 8, 8])
}

fn v2() -> View2<f64> {
    View::host("f", [8, 8])
}

fn v2i(v: i32) -> View2<i32> {
    let x: View2<i32> = View::host("m", [8, 8]);
    x.fill(v);
    x
}

fn v1(n: usize) -> View1<f64> {
    View::host("d", [n])
}

fn v1i() -> View1<i32> {
    View::host("r", [8])
}

/// The wind stress as a launch of its own, per velocity column (the
/// functor's declared cost before the momentum pass took it in): the corner
/// latitude, the two stresses and the top level's read-modify-write.
const WIND: (f64, f64) = (20.0, 48.0);

#[test]
fn the_momentum_pass_is_its_census_rows_less_what_it_pays_once() {
    use kokkos_rs::FunctorList;
    let nz = 4;
    let f = licom::baroclinic::FunctorMomentumColumns {
        tend: licom::baroclinic::MomentumTend {
            u_cur: v3(nz),
            v_cur: v3(nz),
            u_old: v3(nz),
            v_old: v3(nz),
            kmu: v2i(nz as i32),
            fcor: v1(8),
            dxt: v1(8),
            dyt: 1.0e5,
            dz: v1(nz),
            visc: 1.0e3,
        },
        ts: [v3(nz), v3(nz)],
        kmt: v2i(nz as i32),
        lat: v1(8),
        out: [v3(nz), v3(nz)],
        mean: [v2(), v2()],
    }
    .cost();
    let rows = |names: &[&str]| sum(&names.iter().map(|n| census(n)).collect::<Vec<_>>());
    let less = |a: (f64, f64), b: (f64, f64)| (a.0 - b.0, a.1 - b.1);
    // Per level: the tendency less the four pressure loads it takes from
    // work rows; the EOS and the pressure integral for each of the two T
    // rows a run of corners integrates, less density's store and reload and
    // the pressure's store; the depth mean, which as a launch of its own
    // makes two products and three sums over the two tendencies it reloads
    // and `dz` (5 flops, 24 B), on the tendency in register and the `dz`
    // the tendency's drag reads.
    let tend = less(rows(&["momentum_tend"]), (0.0, 32.0));
    let old_level = less(rows(&["eos", "pressure"]), (0.0, 8.0 + 8.0 + 8.0));
    const DEPTH_MEAN: (f64, f64) = (5.0, 24.0);
    let per_level = sum(&[tend, old_level, old_level, less(DEPTH_MEAN, (0.0, 24.0))]);
    // Per column: the wind less the top level's load and store (32 B), the
    // means' two divides and their two stores.
    let per_column = sum(&[less(WIND, (0.0, 32.0)), (2.0, 16.0)]);
    assert_eq!(
        (f.flops as f64, f.bytes as f64),
        (
            nz as f64 * per_level.0 + per_column.0,
            nz as f64 * per_level.1 + per_column.1
        )
    );
}

/// The advection wavefront per interior cell, both tracers, and the x and
/// y passes it is made of, each per cell for both tracers (the boundary x
/// launch and the rim y launches).
fn horizontal_advection() -> [(u64, u64); 3] {
    use kokkos_rs::Functor3D;
    let nz = 4;
    fn fields<Q, Q1>(nz: usize, q: [Q; 2], q1: [Q1; 2]) -> licom::advect::AdvectFields<Q, Q1> {
        licom::advect::AdvectFields {
            q,
            q1,
            vel: v3(nz),
            kmt: v2i(nz as i32),
            dxt: v1(8),
            dyt: 1.0e5,
            dt: 20.0,
            limited: true,
        }
    }
    let band = || {
        let b = halo_exchange::RowBand::new("b", [nz, 8, 8]);
        [b.clone(), b]
    };
    let x = licom::advect::FunctorAdvectX(fields(nz, [v3(nz), v3(nz)], band()));
    let y = licom::advect::FunctorAdvectY(fields(nz, band(), [v3(nz), v3(nz)]));
    let cost = |c: kokkos_rs::IterCost| (c.flops, c.bytes);
    let (xc, yc) = (cost(x.cost()), cost(y.cost()));
    let wave = licom::advect::FunctorAdvectWave { x, y };
    [cost(wave.cost()), xc, yc]
}

/// What separate x and y launches pay per cell that the wavefront does
/// not: the intermediate's store (2 words) and its reload through the y
/// stencil (10), and a second read of the cell's `kmt` and the row metric
/// (2). The flops are the same.
const SEPARATE_AGAIN: (u64, u64) = (0, 8 * (2 + 10 + 2));

#[test]
fn advection_census_is_the_horizontal_passes_and_a_vertical_pass_per_field() {
    // Census entry "advection_tracer" = the paper's separate x and y
    // passes (each per cell for both tracers) + 2 tracers x a per-field z
    // pass, which runs as the first member of the new level's tracer
    // chain. The wavefront is the two passes less what their separate
    // launches pay again.
    let [(w_flops, w_bytes), x, y] = horizontal_advection();
    assert_eq!(
        (w_flops + SEPARATE_AGAIN.0, w_bytes + SEPARATE_AGAIN.1),
        (x.0 + y.0, x.1 + y.1)
    );
    assert_eq!(
        census("advection_tracer"),
        (
            (w_flops + SEPARATE_AGAIN.0) as f64 + Z_PER_FIELD.0,
            (w_bytes + SEPARATE_AGAIN.1) as f64 + Z_PER_FIELD.1
        )
    );
}

/// Two single-field vertical advection passes, per level: the limiter and
/// update per tracer, the interface CFL each (30 flops); `q` in, `q1` out,
/// the staged rows, `w` and the metrics each (80 bytes).
const Z_PER_FIELD: (f64, f64) = (60.0, 160.0);

#[test]
fn vmix_census_is_two_single_field_solves() {
    let nz = 4;
    let cost = |n| licom::vmix::solve_cost(n, nz);
    let (pair, single) = (cost(2), cost(1));
    // Per mask the census solves twice — (u, v) and (T, S) field by field.
    for name in ["vmix_momentum", "vmix_tracer"] {
        let (flops, bytes) = census(name);
        assert_eq!(2.0 * single.flops as f64, flops * nz as f64, "{name}");
        assert_eq!(2.0 * single.bytes as f64, bytes * nz as f64, "{name}");
    }
    // The model's one paired launch per mask shares the matrix.
    assert!(pair.flops < 2 * single.flops && pair.bytes < 2 * single.bytes);
}

fn solve(nz: usize) -> licom::vmix::VerticalSolve {
    licom::vmix::VerticalSolve {
        mask: v2i(nz as i32),
        dz: v1(nz),
        z_t: v1(nz),
        dt: 20.0,
        nz,
    }
}

/// The component-wise sum of `(flops, bytes)` pairs.
fn sum(parts: &[(f64, f64)]) -> (f64, f64) {
    parts
        .iter()
        .fold((0.0, 0.0), |(f, b), p| (f + p.0, b + p.1))
}

#[test]
fn column_passes_are_their_census_rows_less_what_they_count_once() {
    use kokkos_rs::FunctorList;
    let nz = 4;
    let new_level = licom::columns::FunctorNewLevelColumns {
        closure: licom::canuto::CanutoFields {
            u: v3(nz),
            v: v3(nz),
            kmt: v2i(nz as i32),
            z_t: v1(nz),
            nz,
        },
        velocity: licom::columns::VelocityChain {
            old: [v3(nz), v3(nz)],
            new: [v3(nz), v3(nz)],
            solve: solve(nz),
            bt: [v2(), v2()],
            speed: v2(),
        },
        tracer: licom::columns::TracerChain {
            q: [v3(nz), v3(nz)],
            advect: licom::advect::AdvectZ {
                u: v3(nz),
                v: v3(nz),
                kmt: v2i(nz as i32),
                dxt: v1(8),
                dyt: 1.0e5,
                dz: v1(nz),
                dt: 20.0,
                nz,
                limited: true,
            },
            hdiff: licom::columns::TracerHDiff {
                q_cur: [v3(nz), v3(nz)],
                kmt: v2i(nz as i32),
                dxt: v1(8),
                dyt: 1.0e5,
                kappa: 1.0e2,
                dt: 20.0,
            },
            solve: solve(nz),
            restore: licom::forcing::SurfaceRestore {
                lat: v1(8),
                dt: 20.0,
            },
            bounds: [(-5.0, 45.0), (18.0, 50.0)],
            excess: v2(),
        },
    }
    .cost();
    // What the guard's scans cost per cell as launches of their own:
    // |u|, |v| and the T, S bounds.
    const GUARD_SPEED: (f64, f64) = (4.0, 16.0);
    const GUARD_BOUNDS: (f64, f64) = (8.0, 16.0);
    // Per level, counted once by the velocity chain: the matrix the two
    // solves share; the new level's store, which the leapfrog made and the
    // solve re-read and re-wrote; the leapfrog's two mask reads; the mode
    // correction's passes over u and v; the guard's two reads.
    let uv_once = sum(&[
        (9.0, 32.0),
        (0.0, 32.0),
        (0.0, 8.0),
        (0.0, 48.0),
        (0.0, 16.0),
    ]);
    // Per level, counted once by the tracer chain: `w` between the
    // continuity diagnosis and the vertical passes (its store and its
    // load), the CFL and `w` the two vertical passes share, the metrics and
    // masks the two diffusions share, the matrix the two solves share, the
    // new level between the members (the advection's store, the diffusion's
    // load and store, the solve's load), the guard's two reads.
    let ts_once = sum(&[
        (0.0, 16.0),
        (4.0, 16.0),
        (3.0, 24.0),
        (9.0, 32.0),
        (0.0, 64.0),
        (0.0, 16.0),
    ]);
    // Per level, counted once by the closure: density between the EOS and
    // canuto (its store and its load); the `T` / `S` loads and the eight
    // velocity-corner loads, which the tracer chain's diffusion and `w`
    // diagnosis make too; `km` / `kh` between canuto and the solves (their
    // stores, and the two solves' loads).
    let closure_once = sum(&[(0.0, 16.0), (0.0, 16.0), (0.0, 64.0), (0.0, 32.0)]);
    // Per column: the velocity chain reads the window averages and stores
    // its maximum (32 B) and divides and subtracts twice; the tracer chain
    // restores the surface (16 flops, 48 B, less its load and store of the
    // surface row: 32 B) and stores its maximum (16 B).
    const UV_COLUMN: (f64, f64) = (4.0, 32.0);
    const TS_COLUMN: (f64, f64) = (16.0, 32.0);
    let rows = |names: &[&str]| sum(&names.iter().map(|n| census(n)).collect::<Vec<_>>());
    let less = |a: (f64, f64), b: (f64, f64)| (a.0 - b.0, a.1 - b.1);
    let per_level = sum(&[
        less(
            sum(&[
                rows(&["leapfrog_uv", "vmix_momentum", "bt_correct"]),
                GUARD_SPEED,
            ]),
            uv_once,
        ),
        less(
            sum(&[
                Z_PER_FIELD,
                rows(&["diagnose_w", "tracer_hdiff", "vmix_tracer"]),
                GUARD_BOUNDS,
            ]),
            ts_once,
        ),
        less(rows(&["eos", "canuto"]), closure_once),
    ]);
    let per_column = sum(&[UV_COLUMN, TS_COLUMN]);
    assert_eq!(
        (new_level.flops as f64, new_level.bytes as f64),
        (
            nz as f64 * per_level.0 + per_column.0,
            nz as f64 * per_level.1 + per_column.1
        )
    );
}

#[test]
fn barotropic_census_is_the_substep_kernel_split_back_into_passes() {
    use kokkos_rs::Functor3D;
    // The Asselin filter inside `FunctorBtSubstep`: 5 flops on each of η,
    // u and v, and the three old-slot stores.
    const ASSELIN: (f64, f64) = (15.0, 24.0);
    // What the census' separate `bt_asselin+filter` pass counts beyond that
    // part and `FunctorZonalFilter`: a launch of its own loads the three
    // levels of each field again, which the substep kernel takes from its
    // η / velocity updates.
    const SEPARATE_PASS: (f64, f64) = (1.0, 136.0);
    let eta = licom::barotropic::FunctorBtEta {
        eta_old: v2(),
        eta_new: v2(),
        ub: v2(),
        vb: v2(),
        depth: v2(),
        kmt: v2i(1),
        dxt: v1(8),
        dyt: 1.0e5,
        dt2: 40.0,
    };
    let vel = licom::barotropic::FunctorBtVel {
        u_old: v2(),
        v_old: v2(),
        u_cur: v2(),
        v_cur: v2(),
        eta_cur: v2(),
        u_new: v2(),
        v_new: v2(),
        gu: v2(),
        gv: v2(),
        fcor: v1(8),
        kmu: v2i(1),
        dxt: v1(8),
        dyt: 1.0e5,
        dt2: 40.0,
    };
    let substep = licom::barotropic::FunctorBtSubstep {
        eta,
        vel,
        sums: None,
    }
    .cost();
    let ((eta_flops, eta_bytes), (vel_flops, vel_bytes)) = (census("bt_eta"), census("bt_vel"));
    assert_eq!(
        (eta_flops + vel_flops, eta_bytes + vel_bytes),
        (
            substep.flops as f64 - ASSELIN.0,
            substep.bytes as f64 - ASSELIN.1
        )
    );
    let filter = licom::barotropic::FunctorZonalFilter {
        src: v2(),
        dst: v2(),
        rows: v1i(),
    }
    .cost();
    assert_eq!(
        census("bt_asselin+filter"),
        (
            ASSELIN.0 + filter.flops as f64 + SEPARATE_PASS.0,
            ASSELIN.1 + filter.bytes as f64 + SEPARATE_PASS.1
        )
    );
}
