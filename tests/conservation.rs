//! Physics invariants across crates: tracer conservation and shape
//! preservation of the two-step advection inside the assembled model,
//! and stability of long-ish runs.
#![allow(clippy::field_reassign_with_default)]

use licomkpp::grid::{Bathymetry, ModelConfig};
use licomkpp::halo::FoldKind;
use licomkpp::kokkos::Space;
use licomkpp::kokkos::View3;
use licomkpp::model::advect::{advect_tracer, AdvectZ};
use licomkpp::model::{Model, ModelOptions};
use licomkpp::mpi::World;

fn basin_cfg(nx: usize, ny: usize, nz: usize) -> (ModelConfig, ModelOptions) {
    let cfg = ModelConfig {
        name: "basin".into(),
        nx,
        ny,
        nz,
        dt_barotropic: 2.0,
        dt_baroclinic: 20.0,
        dt_tracer: 20.0,
        full_depth: false,
    };
    let mut opts = ModelOptions::default();
    opts.bathymetry = Bathymetry::Basin {
        lon0: 60.0,
        lon1: 300.0,
        lat0: -45.0,
        lat1: 45.0,
        depth: 3000.0,
    };
    (cfg, opts)
}

/// The vertical advection pass of both tracers `q`, in place, over the
/// packed wet columns `cols` of row pitch `pi`: the first member of the
/// tracer chain of the model's new-level column pass, one column at a time,
/// its wet rows stored.
fn vertical_pass(az: &AdvectZ, q: [&View3<f64>; 2], cols: &[u32], pi: usize) {
    let mut scratch = vec![0.0; AdvectZ::scratch_words(az.nz)];
    let mut rows = vec![[0.0f64; 1]; 2 * az.nz];
    for &col in cols {
        let (jl, il) = (col as usize / pi, col as usize % pi);
        let kmt = az.kmt.at(jl, il);
        az.column::<1>(q, jl, il, ([kmt], kmt as usize), &mut scratch, &mut rows);
        for k in 0..kmt as usize {
            for (t, q) in q.iter().enumerate() {
                q.set_at(k, jl, il, rows[2 * k + t][0]);
            }
        }
    }
}

/// Advect a tracer blob with the model's own machinery in a closed basin
/// and verify exact conservation and bound preservation.
#[test]
fn advection_conserves_and_preserves_bounds_in_closed_basin() {
    let (cfg, opts) = basin_cfg(36, 20, 6);
    World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
        // Spin up a flow first so velocities are nontrivial.
        m.run_steps(20);
        let g = &m.grid;
        let c = m.state.cur();
        // Paint a bounded blob into the tracer field (values in [0, 1]).
        let q: licomkpp::kokkos::View3<f64> =
            licomkpp::kokkos::View::host("blob", [g.nz, g.pj, g.pi]);
        for k in 0..g.nz {
            for jl in 0..g.pj {
                for il in 0..g.pi {
                    // Blob below the surface layer: interface 0 carries
                    // the free-surface dilution flux, so only interior
                    // interfaces (which telescope exactly) see the blob.
                    let v =
                        if (8..14).contains(&jl) && (10..18).contains(&il) && (2..5).contains(&k) {
                            1.0
                        } else {
                            0.0
                        };
                    q.set_at(k, jl, il, v);
                }
            }
        }
        let total = |f: &licomkpp::kokkos::View3<f64>| -> f64 {
            let mut s = 0.0;
            for k in 0..g.nz {
                for jl in 2..2 + g.ny {
                    for il in 2..2 + g.nx {
                        if g.kmt.at(jl, il) as usize > k {
                            s += f.at(k, jl, il) * g.dz.at(k) * g.dxt.at(jl) * g.dyt;
                        }
                    }
                }
            }
            s
        };
        let before = total(&q);
        // Advect several steps in the spun-up flow; the vertical pass
        // diagnoses w from it.
        let wet_cols = licomkpp::kokkos::ListPolicy::new(g.wet.cols_own.indices.clone());
        // The pass advects a pair of tracers with one face velocity and
        // one wet mask; the blob's mirror image rides as the second. Every
        // operation of the scheme is odd in q, so it must stay the mirror.
        let mirror: licomkpp::kokkos::View3<f64> =
            licomkpp::kokkos::View::host("mirror", [g.nz, g.pj, g.pi]);
        mirror.copy_from_slice(&q.as_slice().iter().map(|x| -x).collect::<Vec<_>>());
        let out = [(); 2]
            .map(|()| licomkpp::kokkos::View::<f64, 3>::host("blob_out", [g.nz, g.pj, g.pi]));
        let [band0, band1] = &m.state.work.adv_band;
        for _ in 0..5 {
            // Exchange blob halos with the model's halo engine.
            m.halo3().exchange(&q, FoldKind::Scalar, 900);
            m.halo3().exchange(&mirror, FoldKind::Scalar, 900);
            advect_tracer(
                &m.space,
                &m.grid,
                [&q, &mirror],
                [&out[0], &out[1]],
                [band0, band1],
                &m.state.u[c],
                &m.state.v[c],
                cfg.dt_tracer,
                true,
                m.halo3(),
                licomkpp::model::Poster { carried: true },
            )
            .unwrap();
            let az = AdvectZ {
                u: m.state.u[c].clone(),
                v: m.state.v[c].clone(),
                kmt: g.kmt.clone(),
                dxt: g.dxt.clone(),
                dyt: g.dyt,
                dz: g.dz.clone(),
                dt: cfg.dt_tracer,
                nz: g.nz,
                limited: true,
            };
            vertical_pass(&az, [&out[0], &out[1]], wet_cols.indices(), g.pi);
            // Copy back.
            q.copy_from_slice(out[0].as_slice());
            mirror.copy_from_slice(out[1].as_slice());
        }
        assert!(
            q.as_slice()
                .iter()
                .zip(mirror.as_slice())
                .all(|(a, b)| *a == -*b),
            "the two tracers of a pass are advected independently"
        );
        let after = total(&q);
        assert!(
            ((after - before) / before).abs() < 1e-6,
            "closed-basin advection must conserve: {before} -> {after}"
        );
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for k in 0..g.nz {
            for jl in 2..2 + g.ny {
                for il in 2..2 + g.nx {
                    if g.kmt.at(jl, il) as usize > k {
                        let v = q.at(k, jl, il);
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
            }
        }
        // Dimension splitting makes each 1-D pass see a (slightly)
        // divergent velocity, so bounds are preserved only up to the
        // per-pass compressibility O(dt * |du/dx|) — a few 1e-5 here.
        // A genuinely unlimited scheme overshoots by O(0.1).
        assert!(lo >= -1e-4, "undershoot {lo}");
        assert!(hi <= 1.0 + 1e-3, "overshoot {hi}");
    });
}

/// A longer basin run stays finite and energetically sane.
#[test]
fn hundred_step_basin_run_is_stable() {
    let (cfg, opts) = basin_cfg(30, 16, 5);
    World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
        m.run_steps(100);
        assert!(!m.state.has_nan());
        let d = m.diagnostics();
        assert!(d.max_speed < 5.0, "runaway speed {}", d.max_speed);
        assert!(d.mean_sst > -2.0 && d.mean_sst < 35.0);
    });
}

/// Salt content drifts only through the (intentional) surface restoring,
/// not through numerics: with a basin at the restoring target, drift is
/// tiny over many steps.
#[test]
fn salt_inventory_drift_is_bounded() {
    let (cfg, opts) = basin_cfg(30, 16, 5);
    World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
        let before = m.diagnostics().salt_content;
        m.run_steps(50);
        let after = m.diagnostics().salt_content;
        let rel = ((after - before) / before).abs();
        assert!(rel < 1e-3, "salt inventory drifted {rel:.2e} in 50 steps");
    });
}
