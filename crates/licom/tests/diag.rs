//! The rank-local diagnostics against a host loop over the owned wet cells.
//!
//! `diag::local_diagnostics` reduces over the packed owned wet columns, each
//! walked down to its `kmu` (velocity) or `kmt` (tracers). On a basin with
//! land and columns shallower than the grid, on one rank and on 2×2 ranks,
//! it must give the same bits on all four execution spaces, and agree with
//! a dense host loop that masks every owned cell: the sums to 1e-12
//! relative (the two fold in different orders), the maximum speed bit for
//! bit. Every field is non-zero at every cell, land and sub-bottom levels
//! included, so a reduction that strays off the wet cells shows.

use halo_exchange::{Halo2D, HALO as H};
use kokkos_rs::{Space, View, View3};
use licom::diag::{local_diagnostics, Diagnostics};
use licom::localgrid::LocalGrid;
use mpi_sim::{CartComm, World};
use ocean_grid::{Bathymetry, GlobalGrid};
use sunway_sim::CgConfig;

const NZ: usize = 8;

fn spaces() -> [Space; 4] {
    [
        Space::serial(),
        Space::threads(),
        Space::device_sim(),
        Space::sw_athread_with(CgConfig::test_small()),
    ]
}

/// A field that is a pure function of its cell, `lo + span · [0, 1)`.
fn field(g: &LocalGrid, seed: usize, lo: f64, span: f64) -> View3<f64> {
    View::from_fn("q", [NZ, g.pj, g.pi], |[k, j, i]| {
        let n = ((k * 7919 + j) * 104_729 + i) * 31 + seed;
        lo + span * ((n as f64 * 0.618_033_988_75).fract())
    })
}

/// The diagnostics as a dense loop over the owned cells, each masked by its
/// column's `kmu` / `kmt`.
fn by_hand(g: &LocalGrid, [u, v, t, s]: [&View3<f64>; 4]) -> Diagnostics {
    let (mut ke, mut heat, mut salt, mut speed) = (0.0, 0.0, 0.0, 0.0f64);
    let (mut sst, mut area) = (0.0, 0.0);
    for jl in H..H + g.ny {
        let cell = g.dxt.at(jl) * g.dyt;
        let corner = 0.5 * (g.dxt.at(jl) + g.dxt.at(jl + 1)) * g.dyt;
        for il in H..H + g.nx {
            for k in 0..NZ {
                let (uu, vv, dz) = (u.at(k, jl, il), v.at(k, jl, il), g.dz.at(k));
                if (k as i32) < g.kmu.at(jl, il) {
                    ke += 0.5 * (uu * uu + vv * vv) * dz * corner;
                    speed = speed.max(uu.abs()).max(vv.abs());
                }
                if (k as i32) < g.kmt.at(jl, il) {
                    heat += t.at(k, jl, il) * dz * cell;
                    salt += s.at(k, jl, il) * dz * cell;
                }
            }
            if g.kmt.at(jl, il) > 0 {
                sst += t.at(0, jl, il) * cell;
                area += cell;
            }
        }
    }
    Diagnostics {
        kinetic_energy: ke,
        heat_content: heat,
        salt_content: salt,
        max_speed: speed,
        mean_sst: sst / area,
    }
}

fn bits(d: &Diagnostics) -> [u64; 5] {
    [
        d.kinetic_energy,
        d.heat_content,
        d.salt_content,
        d.max_speed,
        d.mean_sst,
    ]
    .map(f64::to_bits)
}

fn check(px: usize, py: usize) {
    licom::register_all_kernels();
    let (nx, ny) = (24, 16);
    let basin = Bathymetry::Basin {
        lon0: 60.0,
        lon1: 300.0,
        lat0: -50.0,
        lat1: 50.0,
        depth: 1500.0,
    };
    let global = GlobalGrid::build(nx, ny, NZ, &basin, false);
    World::run(px * py, move |comm| {
        let cart = CartComm::new(comm.clone(), px, py, true);
        let g = LocalGrid::build(&global, &Halo2D::new(&cart, nx, ny));
        let owned = || (H..H + g.ny).flat_map(|jl| (H..H + g.nx).map(move |il| (jl, il)));
        let depths: Vec<i32> = owned().map(|(jl, il)| g.kmt.at(jl, il)).collect();
        assert!(depths.contains(&0), "rank {}: no land", comm.rank());
        assert!(
            depths.iter().any(|&d| 0 < d && d < NZ as i32),
            "rank {}: no column shallower than the grid",
            comm.rank()
        );
        let [u, v] = [1, 2].map(|seed| field(&g, seed, -1.5, 3.0));
        let (t, s) = (field(&g, 3, 2.0, 25.0), field(&g, 4, 33.0, 3.0));
        let want = by_hand(&g, [&u, &v, &t, &s]);
        let got = spaces().map(|space| local_diagnostics(&space, &g, &u, &v, &t, &s));
        for (space, d) in spaces().iter().zip(&got) {
            assert_eq!(
                bits(d),
                bits(&got[0]),
                "rank {}: {}",
                comm.rank(),
                space.name()
            );
        }
        let d = got[0];
        for (name, got, want) in [
            ("kinetic energy", d.kinetic_energy, want.kinetic_energy),
            ("heat", d.heat_content, want.heat_content),
            ("salt", d.salt_content, want.salt_content),
            ("mean SST", d.mean_sst, want.mean_sst),
        ] {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "rank {}: {name} {got:e}, by hand {want:e}",
                comm.rank()
            );
        }
        assert_eq!(d.max_speed.to_bits(), want.max_speed.to_bits(), "max speed");
    });
}

#[test]
fn diagnostics_on_one_rank_are_the_wet_cells() {
    check(1, 1);
}

#[test]
fn diagnostics_on_two_by_two_ranks_are_each_ranks_wet_cells() {
    check(2, 2);
}
