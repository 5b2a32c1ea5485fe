//! 3-D halo update — "extending 2D halo updates point-wise in the
//! vertical direction" (§V-D): the engine of [`crate::Pending`] run over
//! `nz` levels, in two interchangeable buffer orders:
//!
//! * [`Strategy3D::HorizontalMajor`] — the pre-optimization baseline: halo
//!   strips are gathered level-by-level straight out of the
//!   horizontal-major array. For east/west strips this walks memory with
//!   stride `nx_pad` (each element its own cache line / DMA transaction —
//!   the "substantial data access discontinuity" the paper measured).
//! * [`Strategy3D::Transpose`] — the paper's optimized pipeline (Fig. 5):
//!   the real-halo strip is transposed to vertical-major order during the
//!   pack, the exchange moves vertical-major buffers, and the unpack
//!   transposes ghost strips back. Same bytes, contiguous access.
//!
//! Both strategies produce **bitwise identical** fields; the benches and
//! the simulated-Sunway DMA counters quantify the difference. All levels
//! travel in one message per peer per field, and
//! [`Halo3D::exchange_many`] batches several fields into one message per
//! peer total (the "redundant packing/unpacking" elimination).
//!
//! [`Halo3D`] itself is only a level count and a strategy over its
//! [`Halo2D`] context, which owns the space, the scratch and the frame
//! sequence.

use kokkos_rs::{Space, View3};

use crate::field::HaloField;
use crate::halo2d::{FoldKind, Halo2D};
use crate::integrity::{HaloError, IntegrityConfig};
use crate::pending::{self, Pending};
use crate::strip;

/// Buffer ordering strategy for the 3-D exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy3D {
    /// Level-by-level strided gather (baseline).
    HorizontalMajor,
    /// Transpose real/ghost halos to vertical-major around the exchange
    /// (paper Fig. 5).
    Transpose,
}

/// Per-rank 3-D halo context.
#[derive(Clone)]
pub struct Halo3D {
    pub h2: Halo2D,
    pub nz: usize,
    pub strategy: Strategy3D,
}

impl Halo3D {
    pub fn new(h2: Halo2D, nz: usize, strategy: Strategy3D) -> Self {
        assert!(nz >= 1);
        // Idempotent; makes the strip kernel launchable on SwAthread.
        strip::register_strip_copy();
        Self { h2, nz, strategy }
    }

    /// Dispatch pack/unpack kernels on `space` (default: serial).
    pub fn with_space(mut self, space: Space) -> Self {
        self.h2 = self.h2.with_space(space);
        self
    }

    /// Enable CRC32 frame integrity + bounded retry on every networked
    /// message (see [`crate::integrity`]).
    pub fn with_integrity(mut self, cfg: IntegrityConfig) -> Self {
        self.h2 = self.h2.with_integrity(cfg);
        self
    }

    /// Start a new epoch (model step); see [`Halo2D::begin_step`].
    pub fn begin_step(&self, epoch: u64) {
        self.h2.begin_step(epoch);
    }

    /// Required field shape `(nz, ny_pad, nx_pad)`.
    pub fn shape(&self) -> [usize; 3] {
        let (pj, pi) = self.h2.padded();
        [self.nz, pj, pi]
    }

    /// Blocking 3-D halo update of one field. Allocation-free in steady
    /// state; bitwise identical to [`Halo3D::exchange_alloc`].
    ///
    /// # Panics
    /// If a message is unrecoverable; use [`Halo3D::try_exchange`] to
    /// handle that as a value.
    pub fn exchange(&self, field: &View3<f64>, kind: FoldKind, tag_base: u64) {
        self.exchange_many(&[(field, kind)], tag_base);
    }

    /// Fallible exchange; see [`Halo2D::try_exchange`].
    pub fn try_exchange(
        &self,
        field: &View3<f64>,
        kind: FoldKind,
        tag_base: u64,
    ) -> Result<(), HaloError> {
        self.try_exchange_many(&[(field, kind)], tag_base)
    }

    /// Batched update: all `fields` share one message per peer (each
    /// ghost rectangle's segments in field order) — the pack/unpack redundancy
    /// elimination. Each field packs straight into its segment of the
    /// pooled message, so batching adds no gather copy. Bitwise identical
    /// to updating each field separately. The fields are [`View3`]s or
    /// [`crate::RowBand`]s of `nz` levels.
    ///
    /// # Panics
    /// If a message is unrecoverable; use [`Halo3D::try_exchange_many`] to
    /// handle that as a value.
    pub fn exchange_many<F: HaloField>(&self, fields: &[(&F, FoldKind)], tag_base: u64) {
        self.try_exchange_many(fields, tag_base)
            .unwrap_or_else(|e| panic!("halo exchange failed: {e}"));
    }

    /// Fallible batched exchange: begin + finish of the split-phase path.
    pub fn try_exchange_many<F: HaloField>(
        &self,
        fields: &[(&F, FoldKind)],
        tag_base: u64,
    ) -> Result<(), HaloError> {
        pending::exchange_many(&self.h2, self.nz, self.strategy, fields, tag_base)
    }

    /// Split-phase batched update; see [`Halo2D::begin_exchange_many`].
    pub fn begin_exchange_many<F: HaloField>(
        &self,
        fields: &[(&F, FoldKind)],
        tag_base: u64,
    ) -> Result<Pending<'_, F>, HaloError> {
        Ok(Pending::begin(
            &self.h2,
            self.nz,
            self.strategy,
            fields,
            tag_base,
        ))
    }

    /// The original implementation: serial element-wise pack/unpack into
    /// freshly allocated message vectors. Kept as the bitwise-identity
    /// reference for the engine (property tests) and as the baseline in
    /// the pooled-vs-allocating benches.
    pub fn exchange_alloc(&self, field: &View3<f64>, kind: FoldKind, tag_base: u64) {
        self.exchange_many_alloc(&[(field, kind)], tag_base);
    }

    /// Allocating batched update (reference for [`Halo3D::exchange_many`]):
    /// per-field vectors concatenated into one message per direction and
    /// round of the two-round protocol.
    pub fn exchange_many_alloc(&self, fields: &[(&View3<f64>, FoldKind)], tag_base: u64) {
        pending::exchange_many_alloc(&self.h2, self.nz, self.strategy, fields, tag_base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HALO as H;
    use kokkos_rs::{View, View3};
    use mpi_sim::{CartComm, World};

    fn g3(k: usize, j: usize, i: usize) -> f64 {
        (k * 1_000_000 + j * 1000 + i) as f64 + 0.125
    }

    fn fill_owned(h: &Halo3D, f: &View3<f64>) {
        for k in 0..h.nz {
            for j in 0..h.h2.ny {
                for i in 0..h.h2.nx {
                    f.set_at(k, H + j, H + i, g3(k, h.h2.y0 + j, h.h2.x0 + i));
                }
            }
        }
    }

    fn check_all(h: &Halo3D, f: &View3<f64>, kind: FoldKind) {
        let nxg = h.h2.nxg as i64;
        let nyg = h.h2.nyg as i64;
        let (pj, pi) = h.h2.padded();
        let sign = kind.sign();
        for k in 0..h.nz {
            for jl in 0..pj {
                for il in 0..pi {
                    let jg = h.h2.y0 as i64 + jl as i64 - H as i64;
                    let ig = h.h2.x0 as i64 + il as i64 - H as i64;
                    let iw = ig.rem_euclid(nxg) as usize;
                    let want = if jg < 0 {
                        continue;
                    } else if jg < nyg {
                        g3(k, jg as usize, iw)
                    } else {
                        let d = jg - nyg;
                        if d >= H as i64 {
                            continue;
                        }
                        sign * g3(
                            k,
                            (nyg - 1 - d) as usize,
                            (nxg - 1 - ig).rem_euclid(nxg) as usize,
                        )
                    };
                    assert_eq!(f.at(k, jl, il), want, "k={k} jl={jl} il={il}");
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_case(
        nranks: usize,
        px: usize,
        py: usize,
        nxg: usize,
        nyg: usize,
        nz: usize,
        strategy: Strategy3D,
        kind: FoldKind,
    ) {
        World::run(nranks, |comm| {
            let cart = CartComm::new(comm.clone(), px, py, true);
            let h = Halo3D::new(Halo2D::new(&cart, nxg, nyg), nz, strategy);
            let f: View3<f64> = View::host("f", h.shape());
            f.fill(-9e9);
            fill_owned(&h, &f);
            h.exchange(&f, kind, 0);
            check_all(&h, &f, kind);
        });
    }

    #[test]
    fn horizontal_major_multi_rank() {
        run_case(
            4,
            2,
            2,
            12,
            10,
            5,
            Strategy3D::HorizontalMajor,
            FoldKind::Scalar,
        );
    }

    #[test]
    fn transpose_multi_rank() {
        run_case(4, 2, 2, 12, 10, 5, Strategy3D::Transpose, FoldKind::Scalar);
    }

    #[test]
    fn transpose_vector_fold() {
        run_case(6, 2, 3, 16, 12, 4, Strategy3D::Transpose, FoldKind::Vector);
    }

    #[test]
    fn single_rank_both_strategies() {
        run_case(
            1,
            1,
            1,
            10,
            8,
            3,
            Strategy3D::HorizontalMajor,
            FoldKind::Scalar,
        );
        run_case(1, 1, 1, 10, 8, 3, Strategy3D::Transpose, FoldKind::Scalar);
    }

    #[test]
    fn geometries_the_friendly_cases_avoid() {
        // (px, py, nxg, nyg, nz): prime rank counts, a cross-rank fold
        // under py > 1, blocks exactly HALO wide and tall, and nz = 1.
        for (px, py, nxg, nyg, nz) in [
            (3, 1, 9, 5, 4),
            (5, 1, 10, 4, 2),
            (1, 3, 6, 9, 3),
            (7, 1, 14, 3, 1),
            (3, 2, 12, 7, 1),
            (2, 2, 2 * H, 2 * H, 3),
            (1, 1, H, H, 1),
        ] {
            for strategy in [Strategy3D::HorizontalMajor, Strategy3D::Transpose] {
                run_case(px * py, px, py, nxg, nyg, nz, strategy, FoldKind::Vector);
            }
        }
    }

    #[test]
    fn strategies_are_bitwise_identical() {
        let run = |strategy| {
            World::run(4, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 2, true);
                let h = Halo3D::new(Halo2D::new(&cart, 12, 10), 6, strategy);
                let f: View3<f64> = View::host("f", h.shape());
                f.fill(0.0);
                fill_owned(&h, &f);
                h.exchange(&f, FoldKind::Vector, 0);
                f.to_vec()
            })
        };
        assert_eq!(run(Strategy3D::HorizontalMajor), run(Strategy3D::Transpose));
    }

    #[test]
    fn pooled_matches_allocating_reference() {
        for strategy in [Strategy3D::HorizontalMajor, Strategy3D::Transpose] {
            for kind in [FoldKind::Scalar, FoldKind::Vector] {
                World::run(4, |comm| {
                    let cart = CartComm::new(comm.clone(), 2, 2, true);
                    let h = Halo3D::new(Halo2D::new(&cart, 12, 10), 5, strategy)
                        .with_space(kokkos_rs::Space::threads());
                    let a: View3<f64> = View::host("a", h.shape());
                    let b: View3<f64> = View::host("b", h.shape());
                    a.fill(0.0);
                    b.fill(0.0);
                    fill_owned(&h, &a);
                    fill_owned(&h, &b);
                    h.exchange(&a, kind, 0);
                    h.exchange_alloc(&b, kind, 40);
                    assert_eq!(
                        a.to_vec(),
                        b.to_vec(),
                        "pooled vs allocating, {strategy:?} {kind:?}"
                    );
                });
            }
        }
    }

    #[test]
    fn steady_state_exchanges_do_not_allocate() {
        // Per-rank pools make miss counts deterministic: more iterations
        // must not add a single allocation beyond the warm-up.
        let allocs = |iters: u64| {
            let (_, t) = World::run_traced(4, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 2, true);
                let h = Halo3D::new(Halo2D::new(&cart, 12, 10), 4, Strategy3D::Transpose);
                let f: View3<f64> = View::host("f", h.shape());
                f.fill(0.0);
                fill_owned(&h, &f);
                for it in 0..iters {
                    h.exchange(&f, FoldKind::Scalar, it * 100);
                }
            });
            t
        };
        let warm = allocs(3);
        let long = allocs(20);
        assert_eq!(
            warm.pool_allocations, long.pool_allocations,
            "steady-state exchanges must reuse pooled buffers"
        );
        assert!(long.pool_reuses > warm.pool_reuses);
    }

    #[test]
    fn carried_exchange_fills_ghosts_like_the_reference() {
        World::run(4, |comm| {
            let cart = CartComm::new(comm.clone(), 2, 2, true);
            let h = Halo3D::new(Halo2D::new(&cart, 12, 10), 4, Strategy3D::Transpose);
            let a: View3<f64> = View::host("a", h.shape());
            let b: View3<f64> = View::host("b", h.shape());
            a.fill(0.0);
            b.fill(0.0);
            fill_owned(&h, &a);
            fill_owned(&h, &b);
            h.exchange_alloc(&a, FoldKind::Scalar, 0);
            let p = h
                .begin_exchange_many(&[(&b, FoldKind::Scalar)], 50)
                .unwrap();
            // An interior cell no strip covers: written while in flight.
            let (jc, ic) = (H + h.h2.ny / 2, H + 2);
            b.set_at(1, jc, ic, b.at(1, jc, ic));
            p.finish().unwrap();
            check_all(&h, &b, FoldKind::Scalar);
            assert_eq!(a.to_vec(), b.to_vec());
        });
    }

    #[test]
    fn batched_matches_separate_and_saves_messages() {
        let (separate, t_sep) = {
            let (fields, t) = World::run_traced(4, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 2, true);
                let h = Halo3D::new(Halo2D::new(&cart, 12, 10), 3, Strategy3D::Transpose);
                let u: View3<f64> = View::host("u", h.shape());
                let v: View3<f64> = View::host("v", h.shape());
                u.fill(0.0);
                v.fill(0.0);
                fill_owned(&h, &u);
                fill_owned(&h, &v);
                h.exchange(&u, FoldKind::Vector, 0);
                h.exchange(&v, FoldKind::Scalar, 20);
                (u.to_vec(), v.to_vec())
            });
            (fields, t)
        };
        let (batched, t_bat) = {
            let (fields, t) = World::run_traced(4, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 2, true);
                let h = Halo3D::new(Halo2D::new(&cart, 12, 10), 3, Strategy3D::Transpose);
                let u: View3<f64> = View::host("u", h.shape());
                let v: View3<f64> = View::host("v", h.shape());
                u.fill(0.0);
                v.fill(0.0);
                fill_owned(&h, &u);
                fill_owned(&h, &v);
                h.exchange_many(&[(&u, FoldKind::Vector), (&v, FoldKind::Scalar)], 0);
                (u.to_vec(), v.to_vec())
            });
            (fields, t)
        };
        assert_eq!(separate, batched, "batched update must be bitwise equal");
        assert!(
            t_bat.p2p_messages < t_sep.p2p_messages,
            "batching must reduce messages: {} vs {}",
            t_bat.p2p_messages,
            t_sep.p2p_messages
        );
        assert_eq!(t_bat.p2p_bytes, t_sep.p2p_bytes, "same payload bytes");
    }

    #[test]
    fn split_phase_batch_matches_oracle_and_batched_reference() {
        for strategy in [Strategy3D::HorizontalMajor, Strategy3D::Transpose] {
            World::run(4, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 2, true);
                let h = Halo3D::new(Halo2D::new(&cart, 12, 10), 4, strategy);
                let mk = |name: &str, salt: f64| {
                    let f: View3<f64> = View::host(name, h.shape());
                    f.fill(0.0);
                    fill_owned(&h, &f);
                    for k in 0..h.nz {
                        for j in 0..h.h2.ny {
                            for i in 0..h.h2.nx {
                                f.set_at(k, H + j, H + i, f.at(k, H + j, H + i) + salt);
                            }
                        }
                    }
                    f
                };
                // `u` is the unsalted oracle field; `v` proves the batch
                // keeps its segments (and fold kinds) apart.
                let (au, av) = (mk("au", 0.0), mk("av", 3.5));
                let (bu, bv) = (mk("bu", 0.0), mk("bv", 3.5));
                h.exchange_many_alloc(&[(&au, FoldKind::Vector), (&av, FoldKind::Scalar)], 0);
                let mut p = h
                    .begin_exchange_many(&[(&bu, FoldKind::Vector), (&bv, FoldKind::Scalar)], 60)
                    .unwrap();
                for _ in 0..3 {
                    let _ = p.poll().unwrap();
                }
                p.finish().unwrap();
                check_all(&h, &bu, FoldKind::Vector);
                assert_eq!(au.to_vec(), bu.to_vec(), "{strategy:?} u");
                assert_eq!(av.to_vec(), bv.to_vec(), "{strategy:?} v");
            });
        }
    }

    #[test]
    fn batched_matches_batched_alloc_reference() {
        let run = |pooled: bool| {
            World::run(4, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 2, true);
                let h = Halo3D::new(Halo2D::new(&cart, 12, 10), 3, Strategy3D::HorizontalMajor);
                let u: View3<f64> = View::host("u", h.shape());
                let v: View3<f64> = View::host("v", h.shape());
                u.fill(0.0);
                v.fill(0.0);
                fill_owned(&h, &u);
                fill_owned(&h, &v);
                let fields = [(&u, FoldKind::Vector), (&v, FoldKind::Scalar)];
                if pooled {
                    h.exchange_many(&fields, 0);
                } else {
                    h.exchange_many_alloc(&fields, 0);
                }
                (u.to_vec(), v.to_vec())
            })
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn repeated_3d_exchange_is_fixpoint() {
        World::run(2, |comm| {
            let cart = CartComm::new(comm.clone(), 2, 1, true);
            let h = Halo3D::new(Halo2D::new(&cart, 8, 6), 3, Strategy3D::HorizontalMajor);
            let f: View3<f64> = View::host("f", h.shape());
            f.fill(0.0);
            fill_owned(&h, &f);
            h.exchange(&f, FoldKind::Scalar, 0);
            let once = f.to_vec();
            h.exchange(&f, FoldKind::Scalar, 30);
            assert_eq!(f.to_vec(), once);
        });
    }
}
