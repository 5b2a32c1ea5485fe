//! Consistency guard: the performance model's kernel census
//! (`perf_model::workload::PASSES_3D`) must match the `IterCost` hooks of
//! the actual `licom` functors — otherwise the projection describes a
//! different model than the one we run.
//!
//! The census describes the paper's code, which runs the implicit solve,
//! the tracer diffusion and the vertical advection pass once **per field**.
//! This repository's functors run each once over a pair of fields and count
//! what the pair shares (coefficients, masks, `w`) once. The checks below
//! relate the two explicitly: a census row is the paired cost plus the
//! shared part a second time — for the solve, exactly twice its `N = 1` cost.

use kokkos_rs::{IterCost, View, View1, View2, View3};
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

#[test]
fn eos_census_matches_functor_cost() {
    let f = licom::eos::FunctorEos {
        t: v3(4),
        s: v3(4),
        rho: v3(4),
    };
    use kokkos_rs::FunctorList;
    let c = f.cost();
    let (flops, bytes) = census("eos");
    assert_eq!((c.flops as f64, c.bytes as f64), (flops, bytes));
}

#[test]
fn momentum_census_matches_functor_cost() {
    let f = licom::baroclinic::FunctorMomentumTend {
        u_cur: v3(4),
        v_cur: v3(4),
        u_old: v3(4),
        v_old: v3(4),
        pressure: v3(4),
        ut: v3(4),
        vt: v3(4),
        kmu: v2i(4),
        fcor: v1(8),
        dxt: v1(8),
        dyt: 1.0e5,
        dz: v1(4),
        visc: 1.0e3,
    };
    use kokkos_rs::FunctorList;
    let c = f.cost();
    let (flops, bytes) = census("momentum_tend");
    assert_eq!((c.flops as f64, c.bytes as f64), (flops, bytes));
}

#[test]
fn advection_census_matches_summed_pass_costs() {
    use kokkos_rs::Functor3D;
    // Census entry "advection_tracer" = the fused x pass + the fused y
    // pass (each per cell for both tracers) + 2 tracers x a per-field z
    // pass. The z functor is paired: per level it counts the interface CFL
    // (4 flops) and `w` + the metrics (16 bytes) once, a per-field pass
    // counts them for each tracer.
    const Z_SHARED: (f64, f64) = (4.0, 16.0);
    let nz = 4;
    let fields = || licom::advect::AdvectFields {
        q: [v3(nz), v3(nz)],
        q1: [v3(nz), v3(nz)],
        vel: v3(nz),
        kmt: v2i(nz as i32),
        dxt: v1(8),
        dyt: 1.0e5,
        dt: 20.0,
        limited: true,
    };
    let ax = licom::advect::FunctorAdvectX(fields());
    let ay = licom::advect::FunctorAdvectY(fields());
    // z-pass is a column functor: per-point share = cost / nz.
    let az = licom::advect::FunctorAdvectZ {
        q: [v3(nz), v3(nz)],
        q1: [v3(nz), v3(nz)],
        w: v3(nz + 1),
        kmt: v2i(nz as i32),
        dz: v1(nz),
        dt: 20.0,
        nz,
        limited: true,
    };
    use kokkos_rs::FunctorList;
    let horizontal =
        |x: IterCost, y: IterCost| ((x.flops + y.flops) as f64, (x.bytes + y.bytes) as f64);
    let (h_flops, h_bytes) = horizontal(ax.cost(), ay.cost());
    let (flops, bytes) = census("advection_tracer");
    assert_eq!(
        flops,
        h_flops + az.cost().flops as f64 / nz as f64 + Z_SHARED.0,
        "flops census drifted"
    );
    assert_eq!(
        bytes,
        h_bytes + az.cost().bytes as f64 / nz as f64 + Z_SHARED.1,
        "bytes census drifted"
    );
}

#[test]
fn canuto_census_matches_column_share() {
    use kokkos_rs::FunctorList;
    let nz = 4;
    let f = licom::canuto::FunctorCanutoCols {
        pi: 8,
        f: licom::canuto::CanutoFields {
            rho: v3(nz),
            u: v3(nz),
            v: v3(nz),
            km: v3(nz + 1),
            kh: v3(nz + 1),
            kmt: v2i(nz as i32),
            z_t: v1(nz),
            nz,
        },
    };
    let c = f.cost();
    let (flops, bytes) = census("canuto");
    // Column cost is nz x the per-point census entry.
    assert_eq!(c.flops as f64, flops * nz as f64);
    assert_eq!(c.bytes as f64, bytes * nz as f64);
}

fn vmix_cost<const N: usize>(nz: usize) -> IterCost {
    use kokkos_rs::FunctorList;
    licom::vmix::FunctorVmixImplicit {
        q: [(); N].map(|()| v3(nz)),
        kcoef: v3(nz + 1),
        mask: v2i(nz as i32),
        dz: v1(nz),
        z_t: v1(nz),
        dt: 20.0,
        nz,
    }
    .cost()
}

#[test]
fn vmix_census_is_two_single_field_solves() {
    let nz = 4;
    let (pair, single) = (vmix_cost::<2>(nz), vmix_cost::<1>(nz));
    // Per mask the census solves twice — (u, v) and (T, S) field by field.
    for name in ["vmix_momentum", "vmix_tracer"] {
        let (flops, bytes) = census(name);
        assert_eq!(2.0 * single.flops as f64, flops * nz as f64, "{name}");
        assert_eq!(2.0 * single.bytes as f64, bytes * nz as f64, "{name}");
    }
    // The model's one paired launch per mask shares the matrix.
    assert!(pair.flops < 2 * single.flops && pair.bytes < 2 * single.bytes);
}

#[test]
fn hdiff_census_is_the_paired_cost_plus_the_shared_part() {
    use kokkos_rs::FunctorList;
    let f = licom::model::FunctorTracerHDiff {
        q_cur: [v3(4), v3(4)],
        q_new: [v3(4), v3(4)],
        kmt: v2i(4),
        dxt: v1(8),
        dyt: 1.0e5,
        kappa: 1.0e2,
        dt: 20.0,
    };
    // Census entry "tracer_hdiff" = 2 tracers x a per-field pass; the
    // paired functor works out the metric products (3 flops) and reads the
    // five `kmt` and the row metric (24 bytes) once for both.
    const SHARED: (f64, f64) = (3.0, 24.0);
    let c = f.cost();
    let (flops, bytes) = census("tracer_hdiff");
    assert_eq!(
        (c.flops as f64 + SHARED.0, c.bytes as f64 + SHARED.1),
        (flops, bytes)
    );
}

#[test]
fn barotropic_census_is_the_substep_kernel_split_back_into_passes() {
    use kokkos_rs::Functor2D;
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
