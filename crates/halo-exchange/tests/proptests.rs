//! Property-based halo-exchange correctness over random geometries.

use halo_exchange::{FoldKind, Halo2D, Halo3D, Strategy3D, HALO as H};
use kokkos_rs::{View, View2, View3};
use mpi_sim::{CartComm, World};
use proptest::prelude::*;

fn g2(j: usize, i: usize) -> f64 {
    (j * 1000 + i) as f64 + 0.5
}

/// Expected padded-cell value after a scalar exchange (None = unspecified).
fn expected2(h: &Halo2D, jl: usize, il: usize) -> Option<f64> {
    let (nxg, nyg) = (h.nxg as i64, h.nyg as i64);
    let jg = h.y0 as i64 + jl as i64 - H as i64;
    let ig = h.x0 as i64 + il as i64 - H as i64;
    let iw = ig.rem_euclid(nxg) as usize;
    if jg < 0 {
        None
    } else if jg < nyg {
        Some(g2(jg as usize, iw))
    } else {
        let d = jg - nyg;
        if d >= H as i64 {
            None
        } else {
            Some(g2(
                (nyg - 1 - d) as usize,
                (nxg - 1 - ig).rem_euclid(nxg) as usize,
            ))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 2-D exchange is correct for any block geometry and rank layout
    /// (fold constraint respected by construction): prime rank counts in
    /// either direction, odd widths, blocks down to exactly HALO × HALO.
    #[test]
    fn prop_halo2d_any_geometry(px in 1usize..8, py in 1usize..4, bx in 2usize..8, by in 2usize..6) {
        let nxg = px * bx; // equal widths → fold-mirrorable
        let nyg = py * by;
        World::run(px * py, move |comm| {
            let cart = CartComm::new(comm.clone(), px, py, true);
            let h = Halo2D::new(&cart, nxg, nyg);
            let (pj, pi) = h.padded();
            let f: View2<f64> = View::host("f", [pj, pi]);
            f.fill(f64::NAN);
            for j in 0..h.ny {
                for i in 0..h.nx {
                    f.set_at(H + j, H + i, g2(h.y0 + j, h.x0 + i));
                }
            }
            h.exchange(&f, FoldKind::Scalar, 0);
            for jl in 0..pj {
                for il in 0..pi {
                    if let Some(want) = expected2(&h, jl, il) {
                        assert_eq!(f.at(jl, il), want, "({jl},{il})");
                    }
                }
            }
        });
    }

    /// 3-D exchange strategies agree bitwise for any geometry and nz.
    #[test]
    fn prop_halo3d_strategies_agree(px in 1usize..4, bx in 2usize..8, by in 2usize..6, nz in 1usize..7) {
        let nxg = px * bx;
        let nyg = by * 2;
        let run = move |strategy| {
            World::run(px * 2, move |comm| {
                let cart = CartComm::new(comm.clone(), px, 2, true);
                let h = Halo3D::new(Halo2D::new(&cart, nxg, nyg), nz, strategy);
                let f: View3<f64> = View::host("f", h.shape());
                f.fill(0.0);
                for k in 0..nz {
                    for j in 0..h.h2.ny {
                        for i in 0..h.h2.nx {
                            f.set_at(k, H + j, H + i, (k * 7) as f64 + g2(h.h2.y0 + j, h.h2.x0 + i));
                        }
                    }
                }
                h.exchange(&f, FoldKind::Vector, 0);
                f.to_vec()
            })
        };
        prop_assert_eq!(run(Strategy3D::HorizontalMajor), run(Strategy3D::Transpose));
    }

    /// Pooled single and batched 3-D exchanges are bitwise-identical to the
    /// freshly-allocating reference for any geometry, strategy, and fold kind.
    #[test]
    fn prop_pooled_matches_allocating(
        px in 1usize..4,
        bx in 2usize..8,
        by in 2usize..6,
        nz in 1usize..6,
        transpose in 0usize..2,
        vector in 0usize..2,
    ) {
        let nxg = px * bx;
        let nyg = by * 2;
        let strategy = if transpose == 1 { Strategy3D::Transpose } else { Strategy3D::HorizontalMajor };
        let fold = if vector == 1 { FoldKind::Vector } else { FoldKind::Scalar };
        World::run(px * 2, move |comm| {
            let cart = CartComm::new(comm.clone(), px, 2, true);
            let h = Halo3D::new(Halo2D::new(&cart, nxg, nyg), nz, strategy)
                .with_space(kokkos_rs::Space::threads());
            let mk = |name: &'static str, salt: usize| {
                let f: View3<f64> = View::host(name, h.shape());
                f.fill(0.0);
                for k in 0..nz {
                    for j in 0..h.h2.ny {
                        for i in 0..h.h2.nx {
                            let v = (k * 7 + salt * 13) as f64
                                + g2(h.h2.y0 + j, h.h2.x0 + i);
                            f.set_at(k, H + j, H + i, v);
                        }
                    }
                }
                f
            };
            // Single-field: pooled vs allocating.
            let a = mk("a", 0);
            let b = mk("b", 0);
            h.exchange(&a, fold, 0);
            h.exchange_alloc(&b, fold, 0);
            assert_eq!(a.to_vec(), b.to_vec(), "exchange vs exchange_alloc");
            // Batched: pooled vs allocating, mixed fold kinds.
            let p0 = mk("p0", 1);
            let p1 = mk("p1", 2);
            let q0 = mk("q0", 1);
            let q1 = mk("q1", 2);
            h.exchange_many(&[(&p0, fold), (&p1, FoldKind::Scalar)], 20);
            h.exchange_many_alloc(&[(&q0, fold), (&q1, FoldKind::Scalar)], 20);
            assert_eq!(p0.to_vec(), q0.to_vec(), "exchange_many field 0");
            assert_eq!(p1.to_vec(), q1.to_vec(), "exchange_many field 1");
        });
    }

    /// A 2-D field is the `nz = 1` case: a one-level `Halo3D`, in either
    /// buffer order, fills every ghost bit for bit as `Halo2D` does on the
    /// same data, in as many messages of as many bytes.
    #[test]
    fn prop_one_level_3d_is_the_2d_exchange(
        px in 1usize..4,
        py in 1usize..3,
        bx in 2usize..7,
        by in 2usize..6,
        vector in 0usize..2,
    ) {
        let (nxg, nyg) = (px * bx, py * by);
        let fold = if vector == 1 { FoldKind::Vector } else { FoldKind::Scalar };
        let run = move |strategy: Option<Strategy3D>| {
            World::run_traced(px * py, move |comm| {
                let cart = CartComm::new(comm.clone(), px, py, true);
                let h2 = Halo2D::new(&cart, nxg, nyg);
                let (pj, pi) = h2.padded();
                let f2: View2<f64> = View::host("f2", [pj, pi]);
                f2.fill(-7.0);
                for j in 0..h2.ny {
                    for i in 0..h2.nx {
                        f2.set_at(H + j, H + i, g2(h2.y0 + j, h2.x0 + i));
                    }
                }
                match strategy {
                    None => h2.exchange(&f2, fold, 0),
                    Some(strategy) => {
                        let h3 = Halo3D::new(h2, 1, strategy);
                        let f3: View3<f64> = View::host("f3", h3.shape());
                        f3.copy_from_slice(&f2.to_vec());
                        h3.exchange(&f3, fold, 0);
                        f2.copy_from_slice(&f3.to_vec());
                    }
                }
                f2.to_vec()
            })
        };
        let (flat, t2) = run(None);
        for strategy in [Strategy3D::HorizontalMajor, Strategy3D::Transpose] {
            let (one_level, t3) = run(Some(strategy));
            prop_assert_eq!(&flat, &one_level, "{:?}", strategy);
            prop_assert_eq!(t2.p2p_messages, t3.p2p_messages);
            prop_assert_eq!(t2.p2p_bytes, t3.p2p_bytes);
        }
    }

    /// Exchange twice = exchange once (fixpoint) for any scalar field.
    #[test]
    fn prop_exchange_fixpoint(bx in 3usize..8, by in 3usize..8, seed in 0u64..50) {
        let (nxg, nyg) = (bx * 2, by);
        World::run(2, move |comm| {
            let cart = CartComm::new(comm.clone(), 2, 1, true);
            let h = Halo2D::new(&cart, nxg, nyg);
            let (pj, pi) = h.padded();
            let f: View2<f64> = View::host("f", [pj, pi]);
            for j in 0..h.ny {
                for i in 0..h.nx {
                    let v = (((h.y0 + j) * 31 + (h.x0 + i) * 17) as u64)
                        .wrapping_mul(seed + 1) as f64;
                    f.set_at(H + j, H + i, v);
                }
            }
            h.exchange(&f, FoldKind::Scalar, 0);
            let once = f.to_vec();
            h.exchange(&f, FoldKind::Scalar, 7);
            assert_eq!(f.to_vec(), once);
        });
    }
}
