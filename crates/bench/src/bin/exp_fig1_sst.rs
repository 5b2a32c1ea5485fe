//! Fig. 1 — SST structure and the full-depth Mariana-trench column.
//!
//! (a–e): run the global model on the synthetic planet, print SST
//! statistics globally and in the Northwest-Pacific box of Fig. 1b, plus
//! an ASCII SST map and a zonal-gradient census (fine-structure metric).
//!
//! (f–g): build the full-depth 2-km-analogue grid and extract the
//! temperature/depth profile along 142.5° E through the trench — the
//! model topography must reach below 10,900 m (paper: 10,905 m, red
//! arrow in Fig. 1f) and the column must keep stratification to the
//! bottom.

use bench::banner;
use licom::model::{Model, ModelOptions};
use mpi_sim::World;
use ocean_grid::{bathymetry::TRENCH_DEPTH_M, Bathymetry, GlobalGrid, Resolution};

fn main() {
    banner("Fig. 1a-e: global SST from the scaled global run");
    let cfg = Resolution::Coarse100km.config().scaled_down(4, 12);
    let (sst_stats, map) = World::run(1, {
        let cfg = cfg.clone();
        move |comm| {
            let mut m = Model::new(
                comm,
                cfg.clone(),
                kokkos_rs::Space::threads(),
                ModelOptions::default(),
            );
            m.run_days(1.0);
            assert!(!m.state.has_nan());
            let g = &m.grid;
            let t = m.state.t.cur();
            // Global stats + NW Pacific box (120E-180E, 20N-45N).
            let mut all = Vec::new();
            let mut nwp = Vec::new();
            let mut grad = Vec::new();
            for jl in 2..2 + g.ny {
                for il in 2..2 + g.nx {
                    if g.kmt.at(jl, il) == 0 {
                        continue;
                    }
                    let sst = t.at(0, jl, il);
                    all.push(sst);
                    let (lon, lat) = (g.lon.at(il), g.lat.at(jl));
                    if (120.0..180.0).contains(&lon) && (20.0..45.0).contains(&lat) {
                        nwp.push(sst);
                    }
                    if g.kmt.at(jl, il + 1) > 0 {
                        grad.push(((t.at(0, jl, il + 1) - sst) / (g.dxt.at(jl) / 1000.0)).abs());
                    }
                }
            }
            let stat = |v: &mut Vec<f64>| {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                (v[0], mean, v[v.len() - 1])
            };
            // ASCII SST map (every Nth cell).
            let mut map = String::new();
            let shades = b" .:-=+*#%@";
            for jl in (2..2 + g.ny).rev().step_by(g.ny / 24 + 1) {
                for il in (2..2 + g.nx).step_by(g.nx / 72 + 1) {
                    if g.kmt.at(jl, il) == 0 {
                        map.push(' ');
                    } else {
                        let sst = t.at(0, jl, il).clamp(-2.0, 30.0);
                        let idx = ((sst + 2.0) / 32.0 * 9.0) as usize;
                        map.push(shades[idx.min(9)] as char);
                    }
                }
                map.push('\n');
            }
            let g_all = stat(&mut all);
            let g_nwp = stat(&mut nwp);
            let g_grad = stat(&mut grad);
            ((g_all, g_nwp, g_grad), map)
        }
    })
    .pop()
    .unwrap();
    let (all, nwp, grad) = sst_stats;
    println!(
        "global SST    min {:6.2} C   mean {:6.2} C   max {:6.2} C",
        all.0, all.1, all.2
    );
    println!(
        "NW Pacific    min {:6.2} C   mean {:6.2} C   max {:6.2} C  (Fig. 1b box)",
        nwp.0, nwp.1, nwp.2
    );
    println!(
        "zonal |dSST/dx|  median-ish mean {:.4} C/km, max {:.4} C/km (frontal sharpness)",
        grad.1, grad.2
    );
    assert!(
        all.2 > 20.0 && all.0 < 5.0,
        "SST range must span tropics to poles"
    );
    println!("\nASCII SST map (warm = dense glyphs, land = blank):");
    println!("{map}");

    banner("Fig. 1d-e: fine-scale SST structure vs resolution (zonal spectra)");
    // The paper's zoom panels show the 1-km run holding variance at
    // scales the observation/coarse product cannot. Objective version:
    // the fraction of zonal SST variance above a fixed wavenumber grows
    // as the grid refines.
    println!(
        "{:>10} {:>14} {:>22}",
        "grid", "resolved k", "variance above k=8"
    );
    let mut fracs = Vec::new();
    for div in [8usize, 4] {
        let cfg = Resolution::Coarse100km.config().scaled_down(div, 10);
        let frac = World::run(1, {
            let cfg = cfg.clone();
            move |comm| {
                let mut m = Model::new(
                    comm,
                    cfg.clone(),
                    kokkos_rs::Space::threads(),
                    ModelOptions::default(),
                );
                m.run_days(1.0);
                let sst = m.state.t.cur().level(0);
                let (_, power) =
                    licom::spectra::zonal_spectrum(&sst, &m.grid.kmt, m.grid.ny, m.grid.nx, 2);
                licom::spectra::fine_scale_fraction(&power, 8)
            }
        })
        .pop()
        .unwrap();
        println!(
            "{:>10} {:>14} {:>21.4}%",
            format!("{}x{}", cfg.nx, cfg.ny),
            cfg.nx / 2,
            100.0 * frac
        );
        fracs.push(frac);
    }
    assert!(
        fracs[1] > fracs[0],
        "finer grid must hold more fine-scale SST variance: {fracs:?}"
    );
    println!("(the finer grid carries more variance beyond wavenumber 8 — the\n Fig. 1d vs 1e contrast, quantified)");

    banner("Fig. 1f-g: full-depth trench column along 142.5 E (2-km analogue)");
    // The 2-km full-depth grid, scaled 20x horizontally, full 244 levels.
    let cfg2 = Resolution::Km2FullDepth.config().scaled_down(20, 244);
    let grid = GlobalGrid::build(cfg2.nx, cfg2.ny, cfg2.nz, &Bathymetry::earth_like(), true);
    // Column closest to (142.5 E, 11.35 N).
    let mut best = (0usize, 0usize, f64::MAX);
    for j in 0..grid.ny() {
        for i in 0..grid.nx() {
            let d = (grid.horiz.lon_t(i) - 142.5).abs() + (grid.horiz.lat_t(j) - 11.35).abs();
            if d < best.2 {
                best = (j, i, d);
            }
        }
    }
    let (j, i, _) = best;
    let depth = grid.depth[grid.idx(j, i)];
    let kmt = grid.kmt[grid.idx(j, i)];
    println!(
        "trench column at ({:.2} E, {:.2} N): depth {:.0} m, {} of {} levels active",
        grid.horiz.lon_t(i),
        grid.horiz.lat_t(j),
        depth,
        kmt,
        grid.nz()
    );
    assert!(
        depth > 10_800.0,
        "trench analog must resolve the Challenger Deep ({depth} m)"
    );
    println!("maximum model topography depth: {TRENCH_DEPTH_M} m (paper: 10,905 m)");
    // Meridional depth profile along 142.5 E (Fig. 1f).
    println!("\ndepth profile along 142.5 E:");
    let i_sec = (0..grid.nx())
        .min_by(|&a, &b| {
            (grid.horiz.lon_t(a) - 142.5)
                .abs()
                .partial_cmp(&(grid.horiz.lon_t(b) - 142.5).abs())
                .unwrap()
        })
        .unwrap();
    for j in (0..grid.ny()).step_by((grid.ny() / 24).max(1)) {
        let d = grid.depth[grid.idx(j, i_sec)];
        let bar = "#".repeat((d / 250.0) as usize);
        println!("{:>6.1}N |{bar:<46}| {:6.0} m", grid.horiz.lat_t(j), d);
    }
}
