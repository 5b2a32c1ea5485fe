//! Full-depth Mariana-trench study — the Fig. 1f–g capability: a 244-η
//! full-depth configuration whose topography reaches below 10,900 m.
//!
//! Builds the full-depth grid, finds the Challenger-Deep analogue, runs
//! the model briefly in the surrounding region and prints the abyssal
//! temperature profile of the trench column (stratified to the bottom —
//! the paper's "three-dimensional structure of temperature field below
//! 6000 m").
//!
//! ```text
//! cargo run --release --example trench_full_depth
//! ```

use licomkpp::grid::{bathymetry::TRENCH_DEPTH_M, Bathymetry, GlobalGrid, ModelConfig};
use licomkpp::kokkos::Space;
use licomkpp::model::{Model, ModelOptions};
use licomkpp::mpi::World;

fn main() {
    // Full vertical fidelity (244 levels), horizontal scaled for a laptop.
    let nz = 244;
    let grid = GlobalGrid::build(240, 140, nz, &Bathymetry::earth_like(), true);
    let mut deepest = (0usize, 0usize, 0.0f64);
    for j in 0..grid.ny() {
        for i in 0..grid.nx() {
            let d = grid.depth[grid.idx(j, i)];
            if d > deepest.2 {
                deepest = (j, i, d);
            }
        }
    }
    let (j, i, depth) = deepest;
    println!(
        "deepest model column: ({:.2} E, {:.2} N), {depth:.0} m, {} of {nz} levels",
        grid.horiz.lon_t(i),
        grid.horiz.lat_t(j),
        grid.kmt[grid.idx(j, i)]
    );
    assert!(depth > 10_800.0, "full-depth grid must resolve the trench");
    println!("trench cap (Challenger Deep analogue): {TRENCH_DEPTH_M} m  (paper: 10,905 m)\n");

    // Run a western-Pacific box containing the trench, full depth.
    let cfg = ModelConfig {
        name: "trench-box".into(),
        nx: 72,
        ny: 40,
        nz: 64, // full-depth levels, laptop-sized count
        dt_barotropic: 2.0,
        dt_baroclinic: 20.0,
        dt_tracer: 20.0,
        full_depth: true,
    };
    let profile = World::run(1, move |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::threads(), ModelOptions::default());
        m.run_steps(30);
        assert!(!m.state.has_nan());
        // The wet column nearest the Challenger-Deep analogue.
        let g = &m.grid;
        let mut best = (2usize, 2usize, f64::MAX);
        for jl in 2..2 + g.ny {
            for il in 2..2 + g.nx {
                if g.kmt.at(jl, il) == 0 {
                    continue;
                }
                let d = (g.lon.at(il) - 142.2).abs() + (g.lat.at(jl) - 11.35).abs();
                if d < best.2 {
                    best = (jl, il, d);
                }
            }
        }
        let (jl, il, _) = best;
        let kmt = g.kmt.at(jl, il);
        println!(
            "simulated trench column at ({:.1} E, {:.1} N): {:.0} m, {} levels",
            g.lon.at(il),
            g.lat.at(jl),
            g.depth.at(jl, il),
            kmt
        );
        (0..kmt as usize)
            .map(|k| (g.z_t.at(k), m.state.t.cur().at(k, jl, il)))
            .collect::<Vec<_>>()
    })
    .pop()
    .unwrap();

    println!("temperature profile of the deepest simulated column:");
    println!("{:>10} {:>10}", "depth (m)", "T (C)");
    let mut last_t = f64::MAX;
    for (z, t) in profile.iter().step_by((profile.len() / 20).max(1)) {
        println!("{z:>10.0} {t:>10.3}");
        assert!(
            *t <= last_t + 0.3,
            "column must stay (near-)stably stratified"
        );
        last_t = *t;
    }
    let (z_bot, t_bot) = profile.last().unwrap();
    println!(
        "\nabyssal water at {z_bot:.0} m holds {t_bot:.2} C — cold, stratified to the\nbottom of the trench, as in Fig. 1f–g."
    );
}
