//! Land-fraction sensitivity of cross-rank load imbalance.
//!
//! The paper's §V-C load-balancing discussion hinges on how unevenly
//! ocean points land on ranks. This experiment runs the same 4-rank
//! configuration on two bathymetries — the Earth-like planet (≈30%
//! land) and a mid-latitude basin (≈68% land) — and prints the
//! per-phase imbalance attribution plus the census-predicted wet-point
//! floor for each. More land → more rank-to-rank variation in wet
//! points → larger max/mean ratios, exactly what the imbalance report
//! is built to attribute.

use bench::banner;

/// Per-rank gathered phase profiles plus the rank's wet-cell count.
type RankProfiles = (Vec<PhaseProfile>, u64);
use kokkos_profiling::{ImbalanceReport, PhaseProfile};
use licom::model::{Model, ModelOptions};
use licom::PHASES;
use mpi_sim::World;
use ocean_grid::{Bathymetry, Resolution};
use perf_model::predicted_imbalance;

const RANKS: usize = 4;
const STEPS: usize = 8;

fn main() {
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 6);
    let days = STEPS as f64 * cfg.dt_baroclinic / 86_400.0;
    banner("per-phase imbalance vs land fraction (4 ranks, Serial)");

    let cases: Vec<(&str, Bathymetry)> = vec![
        ("earth-like", Bathymetry::earth_like()),
        (
            "basin",
            // 150° of longitude x ±66° latitude of ocean — discretizes to
            // ≈68% land on the 60x36 grid (the Earth-like ratio inverted).
            Bathymetry::Basin {
                lon0: 145.0,
                lon1: 295.0,
                lat0: -66.0,
                lat1: 66.0,
                depth: 4000.0,
            },
        ),
    ];

    for (name, bathy) in cases {
        let land = 1.0 - bathy.ocean_fraction(cfg.nx, cfg.ny);
        banner(&format!("{name}: {:.0}% land", 100.0 * land));
        let run_cfg = cfg.clone();
        let opts = ModelOptions {
            bathymetry: bathy,
            ..ModelOptions::default()
        };
        let results: Vec<RankProfiles> = World::run(RANKS, move |comm| {
            let mut m = Model::new(
                comm,
                run_cfg.clone(),
                kokkos_rs::Space::serial(),
                opts.clone(),
            );
            m.run_days(days);
            // The step's phases only: `daily_loop` encloses them all.
            let phases: PhaseProfile = m
                .timers
                .phase_seconds()
                .into_iter()
                .filter(|(n, _)| PHASES.iter().any(|p| p.name == *n))
                .map(|(n, s)| (n.to_string(), s))
                .collect();
            (
                m.comm().allgather(phases),
                // Wet cells: Σ kmt over the owned wet columns.
                m.grid.wet.cols_own.total_cost(),
            )
        });
        let report = ImbalanceReport::from_profiles(&results[0].0);
        print!("{}", report.render());
        let wet: Vec<u64> = results.iter().map(|r| r.1).collect();
        println!(
            "wet cells per rank: {:?} — census imbalance floor {:.3}",
            wet,
            predicted_imbalance(&wet)
        );
    }
}
