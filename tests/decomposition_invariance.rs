//! Decomposition invariance: the prognostic state after a run on P ranks is
//! the one-rank state, bit for bit.
//!
//! Every owned cell of `u` and `v` at the old and the current level, `T`
//! and `S` at both levels, both levels of η and the barotropic transports
//! `ubt` / `vbt` is gathered by global index and compared with the bits the
//! one-rank run leaves there. The momentum pass integrates the pressure of
//! the row north of a block and the column east of it from the `T` / `S`
//! ghosts, the barotropic window and the tracer passes read their own
//! ghosts, and the north fold mirrors rows between ranks: any of them
//! reading a ghost the exchange did not fill, or summing in an order that
//! depends on the block, shows here.
//!
//! Serial runs every `choose_dims` decomposition of 2, 3, 4 and 6 ranks of
//! the 60×38×6 halo grid (2×1, 3×1, 2×2, 3×2: the fold inside a rank and
//! between two, and rows of ranks); Threads and SwAthread run one each.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use licomkpp::grid::{ModelConfig, Resolution};
use licomkpp::kokkos::{Space, View2, View3};
use licomkpp::model::model::choose_dims;
use licomkpp::model::{Model, ModelOptions};
use licomkpp::mpi::World;
use licomkpp::sunway::CgConfig;

const STEPS: usize = 6;
const H: usize = licomkpp::halo::HALO;

fn cfg() -> ModelConfig {
    Resolution::Eddy10km.config().scaled_down(60, 6)
}

/// One field's owned cells on the global grid: `(global index, bits)`.
type Cells = Vec<(usize, u64)>;

/// Every compared field of this rank, by name.
fn owned(m: &Model) -> BTreeMap<String, Cells> {
    let (g, st) = (&m.grid, &m.state);
    let (nxg, nyg) = (g.nxg, g.nyg);
    let at = |jl: usize, il: usize| (g.y0 + jl - H) * nxg + g.x0 + il - H;
    let owned3 = |v: &View3<f64>| -> Cells {
        let mut cells = Cells::new();
        for k in 0..g.nz {
            for jl in H..H + g.ny {
                for il in H..H + g.nx {
                    cells.push((k * nyg * nxg + at(jl, il), v.at(k, jl, il).to_bits()));
                }
            }
        }
        cells
    };
    let owned2 = |v: &View2<f64>| -> Cells {
        let mut cells = Cells::new();
        for jl in H..H + g.ny {
            for il in H..H + g.nx {
                cells.push((at(jl, il), v.at(jl, il).to_bits()));
            }
        }
        cells
    };
    let (o, c) = (st.old(), st.cur());
    let mut fields = BTreeMap::new();
    for (name, v) in [
        ("u_old", &st.u[o]),
        ("u_cur", &st.u[c]),
        ("v_old", &st.v[o]),
        ("v_cur", &st.v[c]),
        ("t_old", st.t.old()),
        ("t_cur", st.t.cur()),
        ("s_old", st.s.old()),
        ("s_cur", st.s.cur()),
    ] {
        fields.insert(name.to_string(), owned3(v));
    }
    for (name, v) in [
        ("eta_old", st.eta.old()),
        ("eta_cur", st.eta.cur()),
        ("ubt", &st.ubt),
        ("vbt", &st.vbt),
    ] {
        fields.insert(name.to_string(), owned2(v));
    }
    fields
}

/// The gathered state of a run on `ranks` ranks of `space`: per field, the
/// bits of every global cell, each owned by exactly one rank.
fn gathered(ranks: usize, space: fn() -> Space) -> BTreeMap<String, Vec<u64>> {
    let cfg = cfg();
    let per_rank = World::run(ranks, |comm| {
        let mut m = Model::new(comm, cfg.clone(), space(), ModelOptions::default());
        m.run_steps(STEPS);
        owned(&m)
    });
    let mut whole: BTreeMap<String, Vec<Option<u64>>> = BTreeMap::new();
    for fields in per_rank {
        for (name, cells) in fields {
            let len = if name.ends_with("bt") || name.starts_with("eta") {
                cfg.nx * cfg.ny
            } else {
                cfg.nz * cfg.nx * cfg.ny
            };
            let global = whole.entry(name.clone()).or_insert_with(|| vec![None; len]);
            for (n, bits) in cells {
                assert!(
                    global[n].replace(bits).is_none(),
                    "{name}: cell {n} owned twice"
                );
            }
        }
    }
    (whole.into_iter())
        .map(|(name, cells)| {
            let bits = (cells.iter().enumerate())
                .map(|(n, b)| b.unwrap_or_else(|| panic!("{name}: cell {n} owned by no rank")))
                .collect();
            (name, bits)
        })
        .collect()
}

/// The fields of `got` against `want`, naming the first cell that differs.
fn assert_same(got: &BTreeMap<String, Vec<u64>>, want: &BTreeMap<String, Vec<u64>>, run: &str) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>()
    );
    for (name, bits) in got {
        if let Some(n) = (0..bits.len()).find(|&n| bits[n] != want[name][n]) {
            panic!(
                "{run}: {name} differs from the one-rank run at global cell {n}: {} vs {}",
                f64::from_bits(bits[n]),
                f64::from_bits(want[name][n])
            );
        }
    }
}

/// The one-rank run every decomposition is held to, stepped once for all
/// the tests of this file (they run side by side).
fn one_rank() -> &'static BTreeMap<String, Vec<u64>> {
    static ONE: OnceLock<BTreeMap<String, Vec<u64>>> = OnceLock::new();
    ONE.get_or_init(|| gathered(1, Space::serial))
}

/// `ranks` ranks of `space` against the one-rank run.
fn holds(ranks: usize, space: fn() -> Space, name: &str) {
    let (px, py) = choose_dims(ranks, cfg().nx);
    assert_same(
        &gathered(ranks, space),
        one_rank(),
        &format!("{name} on {px}×{py}"),
    );
}

/// 2×1 and 3×1: one row of ranks; the fold pairs ranks across the row, and
/// on 3×1 mirrors the middle rank onto itself.
#[test]
fn serial_on_one_row_of_ranks() {
    for ranks in [2, 3] {
        holds(ranks, Space::serial, "Serial");
    }
}

/// 2×2 and 3×2: rows of ranks, the north and south neighbours' ghosts, the
/// fold between the top row's ranks and corners from a diagonal neighbour.
#[test]
fn serial_on_two_rows_of_ranks() {
    for ranks in [4, 6] {
        assert_eq!(
            choose_dims(ranks, cfg().nx).1,
            2,
            "{ranks} ranks in two rows"
        );
        holds(ranks, Space::serial, "Serial");
    }
}

#[test]
fn threads_and_swathread_on_one_decomposition_each() {
    holds(4, Space::threads, "Threads");
    holds(3, || Space::sw_athread_with(CgConfig::bench()), "SwAthread");
}
