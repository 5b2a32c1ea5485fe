//! A [`RowBand`] exchange against a full padded field's: every ghost row
//! the band keeps, corners included, bit for bit, and on the wire exactly
//! the full exchange's traffic less its east/west strips.

use halo_exchange::{FoldKind, Halo2D, Halo3D, RowBand, Strategy3D, HALO as H};
use kokkos_rs::{View, View3};
use mpi_sim::{CartComm, World};

/// What no exchange writes.
const POISON: f64 = -7.5;
const NZ: usize = 3;
/// Every block is taller than two depths, so the band keeps rows apart.
const NXG: usize = 12;
const NYG: usize = 20;

fn g(k: usize, j: usize, i: usize) -> f64 {
    (k * 1_000_000 + j * 1000 + i) as f64 + 0.125
}

/// The owned value at padded `(k, jl, il)` of this rank's block, if owned.
fn owned(h: &Halo2D, k: usize, jl: usize, il: usize) -> Option<f64> {
    let inside = (H..H + h.ny).contains(&jl) && (H..H + h.nx).contains(&il);
    inside.then(|| g(k, h.y0 + jl - H, h.x0 + il - H))
}

fn context(comm: &mpi_sim::Comm, px: usize, py: usize) -> Halo3D {
    let cart = CartComm::new(comm.clone(), px, py, true);
    Halo3D::new(Halo2D::new(&cart, NXG, NYG), NZ, Strategy3D::Transpose)
}

fn full(h: &Halo3D) -> View3<f64> {
    View::from_fn("full", h.shape(), |[k, jl, il]| {
        owned(&h.h2, k, jl, il).unwrap_or(POISON)
    })
}

fn band(h: &Halo3D) -> RowBand {
    let b = RowBand::new("band", h.shape());
    let [nz, pj, pi] = h.shape();
    assert!(pj > 2 * RowBand::DEPTH, "the band keeps rows apart");
    for k in 0..nz {
        for jl in (0..pj).filter(|&jl| b.holds(jl, jl + 1)) {
            for il in 0..pi {
                let v = owned(&h.h2, k, jl, il).unwrap_or(POISON);
                b.data().set_at(k, b.row(jl), il, v);
            }
        }
    }
    b
}

/// On `px × py` ranks: the band's ghost rows equal the full field's after
/// `exchange_many`, every column; its owned rows are untouched, and the
/// ghost columns beside them keep the poison — no east/west strip ran.
fn ghost_rows_match(px: usize, py: usize) {
    World::run(px * py, |comm| {
        let h = context(comm, px, py);
        let [_, pj, pi] = h.shape();
        let (f, b) = (full(&h), band(&h));
        h.exchange_many(&[(&f, FoldKind::Scalar)], 0);
        h.exchange_many(&[(&b, FoldKind::Scalar)], 20);
        for k in 0..NZ {
            for jl in (0..pj).filter(|&jl| b.holds(jl, jl + 1)) {
                let ghost_row = jl < H || jl >= pj - H;
                for il in 0..pi {
                    let want = match owned(&h.h2, k, jl, il) {
                        _ if ghost_row => f.at(k, jl, il),
                        Some(v) => v,
                        None => POISON,
                    };
                    let got = b.data().at(k, b.row(jl), il);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{px}x{py} rank {} k={k} jl={jl} il={il}",
                        comm.rank()
                    );
                }
            }
        }
    });
}

/// The world's (p2p messages, p2p bytes) of one exchange of a band
/// (`band`) or of the full field.
fn traffic(px: usize, py: usize, band_only: bool) -> (u64, u64) {
    let (_, t) = World::run_traced(px * py, move |comm| {
        let h = context(comm, px, py);
        if band_only {
            h.exchange_many(&[(&band(&h), FoldKind::Scalar)], 0);
        } else {
            h.exchange_many(&[(&full(&h), FoldKind::Scalar)], 0);
        }
    });
    (t.p2p_messages, t.p2p_bytes)
}

#[test]
fn band_ghost_rows_equal_the_full_exchange() {
    for (px, py) in [(1, 1), (2, 1), (2, 2)] {
        ghost_rows_match(px, py);
    }
}

/// East/west strips are `ny` rows by `H` columns a level, and every rank
/// sends two of them to a remote peer once `px ≥ 2`: `2 · px·py · ny · H ·
/// NZ · 8` bytes = 3 840 on 2 × 1 (ny = 20) and on 2 × 2 (ny = 10). On
/// 1 × 1 every route is the rank's own. On 2 × 1 the two ranks still trade
/// their fold rows, one message each way; on 2 × 2 a bottom rank's only
/// message from its east/west neighbour held nothing else, so two messages
/// go as well.
#[test]
fn band_traffic_is_the_full_exchange_less_its_east_west_strips() {
    for (px, py, full_traffic, band_traffic) in [
        (1, 1, (0, 0), (0, 0)),
        (2, 1, (2, 4_416), (2, 576)),
        (2, 2, (12, 6_336), (10, 2_496)),
    ] {
        assert_eq!(
            (traffic(px, py, false), traffic(px, py, true)),
            (full_traffic, band_traffic),
            "{px}x{py}: (full, band) (messages, bytes)"
        );
        let strips = if px > 1 {
            2 * (px * py) as u64 * (NYG / py) as u64 * (H * NZ * 8) as u64
        } else {
            0
        };
        assert_eq!(full_traffic.1 - band_traffic.1, strips, "{px}x{py}");
    }
}
