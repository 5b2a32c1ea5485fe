//! Workspace-level integration tests: the whole stack through the
//! `licomkpp` facade — portability, determinism, decomposition
//! invariance, and the paper-headline numbers.
#![allow(clippy::field_reassign_with_default)]

use licomkpp::grid::{Bathymetry, Resolution};
use licomkpp::kokkos::Space;
use licomkpp::model::{Model, ModelOptions};
use licomkpp::mpi::World;

fn small_cfg() -> licomkpp::grid::ModelConfig {
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

#[test]
fn facade_full_pipeline_runs() {
    let cfg = small_cfg();
    World::run(1, |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::threads(), ModelOptions::default());
        let stats = m.run_days(0.1);
        assert!(stats.sypd > 0.0);
        assert!(!m.state.has_nan());
    });
}

#[test]
fn two_fresh_models_are_deterministic() {
    let cfg = small_cfg();
    let run = || {
        World::run(1, |comm| {
            let mut m = Model::new(comm, cfg.clone(), Space::serial(), ModelOptions::default());
            m.run_steps(4);
            m.checksum()
        })
        .pop()
        .unwrap()
    };
    assert_eq!(run(), run(), "same config must reproduce bitwise");
}

#[test]
fn all_four_backends_bitwise_identical_through_facade() {
    let cfg = small_cfg();
    let mut sums = Vec::new();
    for name in ["Serial", "Threads", "DeviceSim"] {
        let cfg = cfg.clone();
        let space = Space::from_name(name).unwrap();
        sums.push(
            World::run(1, move |comm| {
                let mut m = Model::new(comm, cfg.clone(), space.clone(), ModelOptions::default());
                m.run_steps(3);
                m.checksum()
            })
            .pop()
            .unwrap(),
        );
    }
    // SwAthread with a small simulated CG.
    {
        let cfg = cfg.clone();
        let space = Space::sw_athread_with(licomkpp::sunway::CgConfig::test_small());
        sums.push(
            World::run(1, move |comm| {
                let mut m = Model::new(comm, cfg.clone(), space.clone(), ModelOptions::default());
                m.run_steps(3);
                m.checksum()
            })
            .pop()
            .unwrap(),
        );
    }
    assert!(
        sums.iter().all(|&s| s == sums[0]),
        "backends diverged: {sums:x?}"
    );
}

#[test]
fn ranks_without_a_wet_column_step_bitwise_on_all_backends() {
    // A basin narrower than one of three 120°-wide rank blocks: the other
    // two ranks launch every wet-list kernel over an empty list, exchange
    // halos and guard their (empty) state like anyone else.
    let mut opts = ModelOptions::default();
    opts.bathymetry = Bathymetry::Basin {
        lon0: 10.0,
        lon1: 100.0,
        lat0: -50.0,
        lat1: 60.0,
        depth: 3000.0,
    };
    let run = |space: Space| {
        let (cfg, opts) = (small_cfg(), opts.clone());
        World::run(3, move |comm| {
            let mut m = Model::new(comm, cfg.clone(), space.clone(), opts.clone());
            m.run_steps(3);
            assert!(!m.state.has_nan());
            (m.grid.wet_count(), m.checksum())
        })
    };
    let want = run(Space::serial());
    let wet: Vec<usize> = want.iter().map(|r| r.0).collect();
    assert!(
        wet[0] > 0 && wet[1..] == [0, 0],
        "wet columns per rank: {wet:?}"
    );
    for space in [
        Space::threads(),
        Space::device_sim(),
        Space::sw_athread_with(licomkpp::sunway::CgConfig::test_small()),
    ] {
        assert_eq!(run(space.clone()), want, "diverged on {space:?}");
    }
}

#[test]
fn decomposition_does_not_change_global_physics() {
    // 1-rank vs 3-rank global heat content after identical steps.
    let cfg = small_cfg();
    let heat = |ranks: usize| {
        let cfg = cfg.clone();
        World::run(ranks, move |comm| {
            let mut m = Model::new(comm, cfg.clone(), Space::serial(), ModelOptions::default());
            m.run_steps(3);
            m.global_heat_content()
        })
        .pop()
        .unwrap()
    };
    let h1 = heat(1);
    let h3 = heat(3);
    assert!(
        ((h1 - h3) / h1).abs() < 1e-12,
        "decomposition changed heat content: {h1} vs {h3}"
    );
}

#[test]
fn aquaplanet_and_basin_worlds_run() {
    for bathy in [
        Bathymetry::Flat(4000.0),
        Bathymetry::Basin {
            lon0: 40.0,
            lon1: 320.0,
            lat0: -50.0,
            lat1: 60.0,
            depth: 3000.0,
        },
    ] {
        let mut opts = ModelOptions::default();
        opts.bathymetry = bathy;
        let cfg = small_cfg();
        World::run(1, move |comm| {
            let mut m = Model::new(comm, cfg.clone(), Space::serial(), opts.clone());
            m.run_steps(4);
            assert!(!m.state.has_nan());
        });
    }
}

#[test]
fn paper_headline_claims_hold_in_projection() {
    use licomkpp::perf::{project, Machine, ProblemSpec, SunwayVariant};
    let km1 = ProblemSpec::from_config(&Resolution::Km1.config());
    // >1 SYPD at 1 km on both machines — the Gordon Bell headline.
    let orise = project(&km1, &Machine::orise(), 16_000, SunwayVariant::Optimized);
    let sunway = project(
        &km1,
        &Machine::sunway_cg(),
        590_250,
        SunwayVariant::Optimized,
    );
    assert!(orise.sypd > 1.0, "ORISE {}", orise.sypd);
    assert!(sunway.sypd > 1.0, "Sunway {}", sunway.sypd);
    assert!(orise.sypd > sunway.sypd, "ORISE must win (paper §VII-D)");
}

#[test]
fn timers_capture_the_papers_kernel_profile() {
    // The halo-update-heavy barotropic phase must be a dominant cost and
    // advection_tracer must lead the 3-D kernels (§V-C2).
    let cfg = small_cfg();
    World::run(1, |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), ModelOptions::default());
        m.run_steps(10);
        let barotropic = m.timers.seconds("barotropic");
        let advection = m.timers.seconds("advection_tracer");
        // The momentum pass: EOS, pressure and the tendency.
        let momentum = m.timers.seconds("momentum");
        assert!(barotropic > 0.0 && advection > 0.0 && momentum > 0.0);
        assert!(
            barotropic > momentum,
            "barotropic (the halo bottleneck) should outweigh the momentum pass"
        );
        assert_eq!(m.timers.calls("advection_tracer"), 10);
    });
}
