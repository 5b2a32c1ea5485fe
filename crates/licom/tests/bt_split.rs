//! The split barotropic substep: on two or more ranks every substep but a
//! window's first runs as five launches — the interior while the previous
//! substep's exchange is in flight, then the four rim strips of
//! `barotropic::split_substep` once it has landed.
//!
//! For every owned block of `3..=2·LANES+3` by `3..=2·LANES+3` cells, on two
//! ranks side by side and on 2×2: the five launches cover every owned cell
//! exactly once, and a window integrated on those ranks leaves, in every
//! owned cell, the bits of the same window on one rank, where each substep
//! is one dense launch.

use std::cell::RefCell;
use std::collections::HashMap;

use halo_exchange::{FoldKind, Halo2D, HALO as H};
use kokkos_rs::{Policy, Space, View, View1, View2};
use licom::barotropic::{integrate, split_substep};
use licom::lanes::{self, Isa, RowKernel, LANES};
use licom::localgrid::LocalGrid;
use licom::{Poster, State};
use mpi_sim::{CartComm, World};
use ocean_grid::{Bathymetry, GlobalGrid};

/// Owned block extents, per rank and per dimension.
const SIZES: std::ops::RangeInclusive<usize> = 3..=2 * LANES + 3;

/// Counts how often each cell of a `_ × nx` block is updated.
struct Visits {
    nx: usize,
    count: RefCell<Vec<u32>>,
}

impl RowKernel for Visits {
    fn block<const W: usize>(&self, _k: usize, j: usize, i: usize) {
        let mut count = self.count.borrow_mut();
        for l in 0..W {
            count[j * self.nx + i + l] += 1;
        }
    }
}

#[test]
fn the_five_launches_cover_every_owned_cell_once() {
    for ny in SIZES {
        for nx in SIZES {
            let visits = Visits {
                nx,
                count: RefCell::new(vec![0; ny * nx]),
            };
            let (interior, rim) = split_substep(ny, nx);
            for p in std::iter::once(interior).chain(rim) {
                for t in 0..p.total_tiles() {
                    lanes::run_tile(Isa::detect(), &visits, p.tile_bounds(t));
                }
            }
            let count = visits.count.into_inner();
            assert!(count.iter().all(|&c| c == 1), "{ny}x{nx}: {count:?}");
        }
    }
}

/// A value in `[-1, 1)` that depends only on `salt` and the global
/// position, halo positions past the grid edge included.
fn value(salt: u64, j: isize, i: isize) -> f64 {
    let mut z = salt ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((i as u64) << 32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// One window of `integrate` on `px × py` ranks over `global`, with
/// `passes` polar-filter passes on every third global row: the bits of the
/// averaged `(η, u, v)` at every owned cell, by global position.
fn window(
    global: &GlobalGrid,
    [px, py]: [usize; 2],
    passes: usize,
    carried: bool,
) -> HashMap<[usize; 2], [u64; 3]> {
    let (nxg, nyg) = (global.nx(), global.ny());
    let ranks = World::run(px * py, |comm| {
        let cart = CartComm::new(comm.clone(), px, py, true);
        let halo = Halo2D::new(&cart, nxg, nyg);
        let g = LocalGrid::build(global, &halo);
        let at = |jl: usize, il: usize| {
            let (j, i) = (g.y0 + jl, g.x0 + il);
            (j as isize - H as isize, i as isize - H as isize)
        };
        let field = |salt: u64, scale: f64| -> View2<f64> {
            View::from_fn("field", [g.pj, g.pi], |[jl, il]| {
                let (j, i) = at(jl, il);
                scale * value(salt, j, i)
            })
        };
        let state = State::new(&g);
        let start = [
            (state.eta.cur(), field(1, 0.5), FoldKind::Scalar),
            (&state.ubt, field(2, 1.0), FoldKind::Vector),
            (&state.vbt, field(3, 1.0), FoldKind::Vector),
        ];
        for (n, (dst, src, kind)) in start.into_iter().enumerate() {
            dst.copy_from_slice(src.as_slice());
            halo.exchange(dst, kind, 100 + 10 * n as u64);
        }
        let (gu, gv) = (field(4, 1.0e-5), field(5, 1.0e-5));
        let rows: View1<i32> = View::from_fn("rows", [g.pj], |[jl]| {
            i32::from((g.y0 + jl).is_multiple_of(3))
        });
        let space = Space::serial();
        let poster = Poster { carried };
        integrate(
            &space, &g, &state, &halo, &gu, &gv, 3.0, 5, &rows, passes, poster,
        )
        .unwrap();
        let mut owned = Vec::new();
        for jl in H..H + g.ny {
            for il in H..H + g.nx {
                let out = [state.eta.next(), &state.ubt, &state.vbt];
                owned.push((
                    [g.y0 + jl - H, g.x0 + il - H],
                    out.map(|v| v.at(jl, il).to_bits()),
                ));
            }
        }
        owned
    });
    ranks.into_iter().flatten().collect()
}

#[test]
fn the_split_window_leaves_the_dense_windows_bits() {
    licom::register_all_kernels();
    for (px, py) in [(2, 1), (2, 2)] {
        // The tripolar grid needs four rows.
        for ny in SIZES.filter(|ny| py * ny >= 4) {
            for nx in SIZES {
                let global =
                    GlobalGrid::build(px * nx, py * ny, 2, &Bathymetry::earth_like(), false);
                // Half the shapes run the polar filter.
                let passes = (nx + ny) % 2;
                let dense = window(&global, [1, 1], passes, true);
                assert_eq!(dense.len(), px * nx * py * ny);
                for carried in [true, false] {
                    assert!(
                        window(&global, [px, py], passes, carried) == dense,
                        "{nx}x{ny} blocks on {px}x{py} ranks, carried {carried}"
                    );
                }
            }
        }
    }
}
