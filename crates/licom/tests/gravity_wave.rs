//! Quantitative dynamics validation: the barotropic solver must
//! propagate external gravity waves at `c = √(gH)` — the wave physics
//! whose CFL constraint dictates the paper's 2 s barotropic substep.

#![allow(clippy::field_reassign_with_default)]

use licom::model::{Model, ModelOptions};
use mpi_sim::World;
use ocean_grid::{Bathymetry, ModelConfig, GRAVITY};

#[test]
fn barotropic_gravity_wave_speed_matches_theory() {
    // Aquaplanet, uniform depth H: drop a Gaussian η bump on the equator
    // and time the wavefront's zonal arrival at a probe.
    let depth = 1000.0; // c = √(9.806·1000) ≈ 99 m/s
    let cfg = ModelConfig {
        name: "gravity-wave".into(),
        nx: 90,
        ny: 40,
        nz: 3,
        dt_barotropic: 120.0,
        dt_baroclinic: 1200.0,
        dt_tracer: 1200.0,
        full_depth: false,
    };
    let mut opts = ModelOptions::default();
    opts.bathymetry = Bathymetry::Flat(depth);
    World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), kokkos_rs::Space::threads(), opts.clone());
        let g = &m.grid;
        // Equatorial row and a bump at il0.
        let (mut j_eq, mut best) = (0usize, f64::MAX);
        for jl in 2..2 + g.ny {
            if g.lat.at(jl).abs() < best {
                best = g.lat.at(jl).abs();
                j_eq = jl;
            }
        }
        let il0 = 2 + g.nx / 4;
        for eta in m.state.eta.levels() {
            for jl in 0..g.pj {
                for il in 0..g.pi {
                    let dj = jl as f64 - j_eq as f64;
                    let di = il as f64 - il0 as f64;
                    eta.set_at(jl, il, 0.5 * (-(dj * dj + di * di) / 4.0).exp());
                }
            }
        }
        let dx = g.dxt.at(j_eq);
        let _ = g;
        let c_theory = (GRAVITY * depth).sqrt();
        // Track the eastward-travelling crest (argmax of η east of the
        // bump) and fit its speed while it crosses 4..16 cells — robust
        // against threshold and dispersion effects.
        let mut samples: Vec<(f64, f64)> = Vec::new(); // (t, crest distance m)
        let mut t = 0.0;
        for _ in 0..120 {
            m.run_steps(1);
            t += cfg.dt_baroclinic;
            let eta = &m.state.eta.cur();
            let mut best_d = 0usize;
            let mut best_v = f64::MIN;
            for d in 1..22 {
                let v = eta.at(j_eq, il0 + d);
                if v > best_v {
                    best_v = v;
                    best_d = d;
                }
            }
            if (4..=16).contains(&best_d) && best_v > 0.01 {
                samples.push((t, best_d as f64 * dx));
            }
        }
        assert!(samples.len() >= 5, "crest never tracked: {samples:?}");
        // Least-squares slope of distance vs time.
        let n = samples.len() as f64;
        let (st, sd): (f64, f64) = samples
            .iter()
            .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
        let (mt, md) = (st / n, sd / n);
        let num: f64 = samples.iter().map(|(x, y)| (x - mt) * (y - md)).sum();
        let den: f64 = samples.iter().map(|(x, _)| (x - mt) * (x - mt)).sum();
        let c_measured = num / den;
        let ratio = c_measured / c_theory;
        assert!(
            (0.6..1.5).contains(&ratio),
            "gravity wave speed {c_measured:.1} m/s vs theory {c_theory:.1} m/s (ratio {ratio:.2})"
        );
    });
}

#[test]
fn deeper_ocean_carries_faster_waves() {
    // c ∝ √H: the 4000 m wave must clearly outrun the 250 m wave.
    let run = |depth: f64| -> f64 {
        let cfg = ModelConfig {
            name: format!("gw-{depth}"),
            nx: 90,
            ny: 40,
            nz: 3,
            dt_barotropic: 60.0,
            dt_baroclinic: 600.0,
            dt_tracer: 600.0,
            full_depth: false,
        };
        let mut opts = ModelOptions::default();
        opts.bathymetry = Bathymetry::Flat(depth);
        World::run(1, move |comm| {
            let mut m = Model::new(comm, cfg.clone(), kokkos_rs::Space::threads(), opts.clone());
            let g = &m.grid;
            let j_eq = 2 + g.ny / 2;
            let il0 = 2 + g.nx / 4;
            for eta in m.state.eta.levels() {
                for jl in 0..g.pj {
                    for il in 0..g.pi {
                        let dj = jl as f64 - j_eq as f64;
                        let di = il as f64 - il0 as f64;
                        eta.set_at(jl, il, 0.5 * (-(dj * dj + di * di) / 4.0).exp());
                    }
                }
            }
            let nx = g.nx;
            // Fixed horizon; measure how far the front travelled.
            m.run_steps(30);
            let eta = &m.state.eta.cur();
            let mut reach = 0usize;
            for d in 1..(nx / 2) {
                if eta.at(j_eq, il0 + d).abs() > 0.04 {
                    reach = d;
                }
            }
            reach as f64
        })
        .pop()
        .unwrap()
    };
    let slow = run(250.0);
    let fast = run(4000.0);
    assert!(
        fast > slow * 1.5,
        "deep wave reach {fast} vs shallow {slow} cells"
    );
}
