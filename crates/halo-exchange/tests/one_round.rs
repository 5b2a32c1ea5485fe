//! The one-round engine against the two-round allocating reference: every
//! ghost cell, the four corners included, bit for bit, over the
//! decompositions, boundaries, field shapes, buffer orders and framings the
//! model can meet — and the messages one exchange puts on the wire.

use halo_exchange::{FoldKind, Halo2D, Halo3D, IntegrityConfig, Strategy3D, HALO as H};
use kokkos_rs::{View, View2, View3};
use mpi_sim::{CartComm, World};

/// What no exchange writes: a ghost beyond a closed wall keeps it.
const POISON: f64 = -7.5;

fn g(k: usize, j: usize, i: usize) -> f64 {
    (k * 1_000_000 + j * 1000 + i) as f64 + 0.125
}

/// A block with its owned cells from `g` (offset by `salt`), ghosts
/// poisoned.
fn field(h: &Halo3D, salt: f64) -> View3<f64> {
    let f: View3<f64> = View::host("f", h.shape());
    f.fill(POISON);
    for k in 0..h.nz {
        for j in 0..h.h2.ny {
            for i in 0..h.h2.nx {
                f.set_at(k, H + j, H + i, g(k, h.h2.y0 + j, h.h2.x0 + i) + salt);
            }
        }
    }
    f
}

/// Ghost cells beyond a closed wall: the south ghost rows of the bottom
/// row of ranks, and the north ghost rows of the top row without a fold.
fn walled(h: &Halo2D, fold: bool) -> usize {
    let pi = h.padded().1;
    let south = usize::from(h.y0 == 0);
    let north = usize::from(h.y0 + h.ny == h.nyg && !fold);
    (south + north) * H * pi
}

/// px ∈ 1..=4 × py ∈ 1..=3 (prime counts included, an uneven row split),
/// fold and closed north, always a closed south; nz = 1 and 6, a Scalar
/// and a Vector field in one batch, both buffer orders, integrity on and
/// off. Every cell of both fields must equal the reference's, and every
/// ghost not behind a wall must have been written.
#[test]
fn every_ghost_matches_the_two_round_reference() {
    for px in 1..=4 {
        for py in 1..=3 {
            for fold in [true, false] {
                // Five columns a block; 3·py + 1 rows, so one block is taller.
                let (nxg, nyg) = (5 * px, 3 * py + 1);
                World::run(px * py, move |comm| {
                    let cart = CartComm::new(comm.clone(), px, py, fold);
                    let plain = Halo2D::new(&cart, nxg, nyg);
                    let framed = plain.clone().with_integrity(IntegrityConfig::default());
                    let mut tag = 0;
                    for h2 in [plain, framed] {
                        for nz in [1, 6] {
                            for order in [Strategy3D::HorizontalMajor, Strategy3D::Transpose] {
                                let case = format!(
                                    "{px}x{py} fold={fold} nz={nz} {order:?} crc={}",
                                    h2.integrity().is_some()
                                );
                                let h = Halo3D::new(h2.clone(), nz, order);
                                let (a, b) = (field(&h, 0.0), field(&h, 0.5));
                                let (ra, rb) = (field(&h, 0.0), field(&h, 0.5));
                                let batch = [(&a, FoldKind::Scalar), (&b, FoldKind::Vector)];
                                h.try_exchange_many(&batch, tag).unwrap();
                                let reference = [(&ra, FoldKind::Scalar), (&rb, FoldKind::Vector)];
                                h.exchange_many_alloc(&reference, tag + 20);
                                tag += 40;
                                for (got, want) in [(&a, &ra), (&b, &rb)] {
                                    let (got, want) = (got.to_vec(), want.to_vec());
                                    assert!(
                                        got.iter()
                                            .zip(&want)
                                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                                        "{case}: rank {} differs from the reference",
                                        comm.rank()
                                    );
                                    let untouched = got.iter().filter(|&&x| x == POISON).count();
                                    assert_eq!(untouched, nz * walled(&h2, fold), "{case}");
                                }
                            }
                        }
                        // The 2-D face: one level, its own reference.
                        let (pj, pi) = h2.padded();
                        let f2: View2<f64> = View::host("f2", [pj, pi]);
                        let r2: View2<f64> = View::host("r2", [pj, pi]);
                        for f in [&f2, &r2] {
                            f.fill(POISON);
                            for j in 0..h2.ny {
                                for i in 0..h2.nx {
                                    f.set_at(H + j, H + i, g(0, h2.y0 + j, h2.x0 + i));
                                }
                            }
                        }
                        h2.try_exchange(&f2, FoldKind::Vector, tag).unwrap();
                        h2.exchange_alloc(&r2, FoldKind::Vector, tag + 20);
                        tag += 40;
                        assert_eq!(f2.to_vec(), r2.to_vec(), "{px}x{py} fold={fold} 2-D");
                    }
                });
            }
        }
    }
}

/// World messages one exchange sends, per `(px, py)` on the tripolar
/// topology: `(px, py, one round, two-round reference)`. A route added or
/// lost moves a literal. The trade-off is in the py ≥ 2 rows: an interior
/// rank sends up to 8 smaller messages in one round (its four edges and
/// four corners may all be different peers) where the reference sent 4 in
/// two rounds, the corners riding in the full-width rows of the second.
/// At px ≤ 2 the zonal neighbors, the fold partner and the corners'
/// owners coincide, and one round needs fewer messages.
const MESSAGES: [(usize, usize, u64, u64); 12] = [
    (1, 1, 0, 0),
    (1, 2, 2, 2),
    (1, 3, 4, 4),
    (2, 1, 2, 6),
    (2, 2, 12, 14),
    (2, 3, 22, 22),
    (3, 1, 6, 8),
    (3, 2, 30, 20),
    (3, 3, 54, 32),
    (4, 1, 12, 12),
    (4, 2, 44, 28),
    (4, 3, 76, 44),
];

#[test]
fn messages_per_exchange_are_literal() {
    for (px, py, one_round, two_rounds) in MESSAGES {
        let (nxg, nyg) = (5 * px, 3 * py + 1);
        let count = |reference: bool| {
            let (_, t) = World::run_traced(px * py, move |comm| {
                let cart = CartComm::new(comm.clone(), px, py, true);
                let h = Halo2D::new(&cart, nxg, nyg);
                let (pj, pi) = h.padded();
                let f: View2<f64> = View::host("f", [pj, pi]);
                if reference {
                    h.exchange_alloc(&f, FoldKind::Scalar, 0);
                } else {
                    h.exchange(&f, FoldKind::Scalar, 0);
                }
            });
            t.p2p_messages
        };
        assert_eq!(
            (count(false), count(true)),
            (one_round, two_rounds),
            "{px}x{py}: (one round, two rounds)"
        );
    }
}
