//! Implicit vertical mixing: tridiagonal solves per column.
//!
//! Vertical diffusion with canuto coefficients is far stiffer than the
//! time step allows explicitly (K ~ 5·10⁻² m²/s over dz ~ 5 m), so — like
//! LICOM — it is applied backward-Euler implicitly:
//!
//! `(I − dt ∂z K ∂z) q' = q`,
//!
//! one tridiagonal system per wet column, solved with the Thomas
//! algorithm. The solver is not a launch of its own: it is the middle of
//! the velocity and the tracer chain of the column pass that finishes the
//! new level ([`crate::columns`]), which hands it the right-hand sides it
//! has just computed and the coefficients the canuto closure has just left
//! in work rows, and takes the solution back in the same rows, so neither
//! the new level nor a coefficient is stored between the step before the
//! solve and the one after it. There is one solver body,
//! [`VerticalSolve::solve`], generic over the number `W` of adjacent
//! columns it eliminates together (see [`crate::lanes`]) **and** the number
//! `N` of fields it solves against the same matrix: `u` and `v` share
//! `km`/`kmu`, `T` and `S` share `kh`/`kmt`, so the two coefficient divides
//! per level and the elimination divide are worked out once per block and
//! each field carries only its right-hand side and its back-substitution
//! divide (10 divides per column-level over the four fields where four
//! separate solves spend 16). Work arrays are `(3 + N) · nz` rows of `W`
//! words, of which a block touches only the rows down to its deepest
//! column; ragged depths inside a block are lane masks.

use kokkos_rs::{IterCost, View1, View2};

use crate::lanes::{self, above, F64x, Mask};

/// The matrix `I − dt ∂z K ∂z` of the wet columns under `mask`, on
/// interface coefficients `K` a block hands [`Self::solve`] in work rows
/// (interfaces `0` and `kmt` act as zero-flux boundaries). `mask` is `kmt`
/// for tracers or `kmu` for momentum.
pub struct VerticalSolve {
    pub mask: View2<i32>,
    pub dz: View1<f64>,
    pub z_t: View1<f64>,
    pub dt: f64,
    pub nz: usize,
}

/// Work words per lane of an `N`-field solve over `nz` levels: `a`, `b`,
/// `c` and one `d` per field.
pub(crate) const fn work_words(n_fields: usize, nz: usize) -> usize {
    (3 + n_fields) * nz
}

/// Per column, as a launch of its own would count it: the matrix
/// (coefficients, elimination of `b`) once, the right-hand side update and
/// back substitution per field. Bytes likewise: `K` and the `a`/`b`/`c`
/// rows are shared, `q` in and out and the `d` row are per field. `N = 1`
/// is the single-field solve's 14 flops and 64 bytes per level.
pub const fn solve_cost(n_fields: usize, nz: usize) -> IterCost {
    IterCost {
        flops: ((9 + 5 * n_fields) * nz) as u64,
        bytes: ((32 + 32 * n_fields) * nz) as u64,
    }
}

impl VerticalSolve {
    /// The tridiagonal solve of a block of `W` adjacent columns for `N`
    /// fields, in place on their right-hand sides — the one arithmetic body
    /// behind both chains of the column pass.
    ///
    /// `kb` and `kmax` are the block's column depths under `mask` and the
    /// deepest ([`lanes::depths`]), `kmax > 0`. `kcoef` holds the columns'
    /// interface coefficients (rows `1..kmax` are read). `abc` holds the `a`, `b`,
    /// `c` work rows (`≥ 3 · kmax` rows of `W`); row `k · N + f` of `d` is
    /// field `f`'s right-hand side at level `k` on entry and its solution on
    /// return. The matrix — the coefficient divides and the elimination
    /// multiplier `m` with its divide — does not depend on the field and is
    /// worked out once; a field carries its `m · d` update and its
    /// back-substitution divide. Lane `l` is the column of depth `kb[l]`:
    /// its last row has no lower neighbour (`c = 0`) and starts its
    /// back-substitution, and its rows below that are computed with the
    /// block but mean nothing — a caller stores only rows `k < kb[l]`.
    #[inline(always)]
    pub fn solve<const W: usize, const N: usize>(
        &self,
        (kb, kmax): ([i32; W], usize),
        kcoef: &[[f64; W]],
        abc: &mut [f64],
        d: &mut [[f64; W]],
    ) {
        let (a, rest) = abc.split_at_mut(kmax * W);
        let (b, c) = rest.split_at_mut(kmax * W);
        let rows = |s| lanes::rows::<W>(s, kmax);
        let (a, b, c) = (rows(a), rows(b), rows(c));
        let (dz, z_t, dt) = (&self.dz, &self.z_t, self.dt);

        let zero = F64x::<W>::splat(0.0);
        for k in 0..kmax {
            let dzk = dz.at(k);
            let au = if k > 0 {
                let dzw = z_t.at(k) - z_t.at(k - 1);
                -dt * F64x(kcoef[k]) / (dzk * dzw)
            } else {
                zero
            };
            let cl = if k + 1 < kmax {
                let dzw = z_t.at(k + 1) - z_t.at(k);
                let below = -dt * F64x(kcoef[k + 1]) / (dzk * dzw);
                above(k + 1, &kb).select(below, zero)
            } else {
                zero
            };
            a[k] = au.0;
            c[k] = cl.0;
            b[k] = (1.0 - au - cl).0;
        }
        for k in 1..kmax {
            let m = F64x(a[k]) / F64x(b[k - 1]);
            b[k] = (F64x(b[k]) - m * F64x(c[k - 1])).0;
            for f in 0..N {
                d[k * N + f] = (F64x(d[k * N + f]) - m * F64x(d[(k - 1) * N + f])).0;
            }
        }
        let mut prev = [zero; N];
        for k in (0..kmax).rev() {
            // A lane's deepest row starts its recurrence: `d / b`, no `c` term.
            let bottom = Mask::from_fn(|l| (k + 1) as i32 == kb[l]);
            for (f, prev) in prev.iter_mut().enumerate() {
                let dk = F64x(d[k * N + f]);
                *prev = bottom.select(dk, dk - F64x(c[k]) * *prev) / F64x(b[k]);
                d[k * N + f] = prev.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_exchange::HALO as H;
    use kokkos_rs::View;

    /// A solve of `nz` levels 10 m apart, every interface coefficient `k`.
    fn setup(nz: usize, k: f64) -> (VerticalSolve, Vec<[f64; 1]>) {
        let (pj, pi) = (1 + 2 * H, 1 + 2 * H);
        let mask: View2<i32> = View::host("mask", [pj, pi]);
        let dz: View1<f64> = View::host("dz", [nz]);
        let z_t: View1<f64> = View::host("z_t", [nz]);
        mask.fill(nz as i32);
        dz.fill(10.0);
        for kk in 0..nz {
            z_t.set_at(kk, 5.0 + 10.0 * kk as f64);
        }
        let f = VerticalSolve {
            mask,
            dz,
            z_t,
            dt: 1800.0,
            nz,
        };
        (f, vec![[k]; nz + 1])
    }

    /// Solve the block's one owned column in place on `q` (its wet levels).
    fn solve_column((f, kcoef): &(VerticalSolve, Vec<[f64; 1]>), q: &mut [f64]) {
        let (kb, kmax) = lanes::depths::<1>(&f.mask, H, H);
        if kmax == 0 {
            return;
        }
        let mut abc = vec![0.0; 3 * f.nz];
        let mut d: Vec<[f64; 1]> = q[..kmax].iter().map(|&x| [x]).collect();
        f.solve::<1, 1>((kb, kmax), kcoef, &mut abc, &mut d);
        for (q, d) in q.iter_mut().zip(&d) {
            *q = d[0];
        }
    }

    #[test]
    fn uniform_profile_is_fixed_point() {
        let f = setup(10, 1e-2);
        let mut q = [3.5; 10];
        solve_column(&f, &mut q);
        for (k, q) in q.iter().enumerate() {
            assert!((q - 3.5).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn mixing_conserves_column_integral() {
        let f = setup(12, 5e-2);
        let mut q: Vec<f64> = (0..12).map(|k| if k < 6 { 10.0 } else { 0.0 }).collect();
        let before: f64 = q.iter().sum();
        solve_column(&f, &mut q);
        let after: f64 = q.iter().sum();
        assert!(
            (before - after).abs() < 1e-9 * before.abs(),
            "{before} → {after}"
        );
    }

    #[test]
    fn mixing_smooths_toward_uniform_and_stays_bounded() {
        let f = setup(8, 5e-2);
        let mut q: Vec<f64> = (0..8).map(|k| if k == 3 { 100.0 } else { 0.0 }).collect();
        for _ in 0..200 {
            solve_column(&f, &mut q);
        }
        let mean = 100.0 / 8.0;
        for (k, &v) in q.iter().enumerate() {
            assert!((-1e-9..=100.0).contains(&v), "k={k} v={v}");
            assert!((v - mean).abs() < 2.0, "should approach uniform: {v}");
        }
    }

    #[test]
    fn implicit_solve_is_unconditionally_stable() {
        // Monster diffusivity, thin layers: explicit would explode.
        let f = setup(20, 10.0);
        let mut q: Vec<f64> = (0..20).map(|k| (k as f64 * 1.7).sin() * 50.0).collect();
        solve_column(&f, &mut q);
        assert!(q.iter().all(|q| q.abs() <= 50.0 + 1e-9));
    }

    #[test]
    fn partial_column_respects_kmt() {
        let f = setup(10, 5e-2);
        f.0.mask.set_at(H, H, 4);
        let mut q: Vec<f64> = (0..10)
            .map(|k| if k < 4 { k as f64 } else { -99.0 })
            .collect();
        solve_column(&f, &mut q);
        // Below kmt untouched; above: mixed but conservative over 0..4.
        assert!(q[4..].iter().all(|&q| q == -99.0));
        let sum: f64 = q[..4].iter().sum();
        assert!((sum - 6.0).abs() < 1e-9);
    }

    /// The paired solve leaves in each field the bits of that field's own
    /// single-field solve, at every block width and over ragged depths.
    #[test]
    fn a_pair_solves_each_field_as_alone() {
        fn run<const W: usize>() {
            let nz = 9;
            let (pj, pi) = (1 + 2 * H, W + 2 * H);
            let field = |salt: usize| -> Vec<[f64; W]> {
                (0..nz)
                    .map(|k| std::array::from_fn(|l| ((k * 31 + l * 7 + salt) as f64).sin() * 9.0))
                    .collect()
            };
            let kcoef: Vec<[f64; W]> = (0..=nz)
                .map(|k| std::array::from_fn(|l| 1.0e-3 + 4.0e-3 * ((k * 5 + H + l) % 7) as f64))
                .collect();
            let f = VerticalSolve {
                mask: View::from_fn("mask", [pj, pi], |[_, i]| 1 + ((i * 5) % nz) as i32),
                dz: View::from_fn("dz", [nz], |[k]| 5.0 + 3.0 * k as f64),
                z_t: View::from_fn("z_t", [nz], |[k]| 2.5 + 6.5 * k as f64),
                dt: 1800.0,
                nz,
            };
            let depths = lanes::depths::<W>(&f.mask, H, H);
            let mut abc = vec![0.0; 3 * nz * W];
            let (t, s) = (field(1), field(2));
            let mut alone = [t.clone(), s.clone()];
            for d in &mut alone {
                f.solve::<W, 1>(depths, &kcoef, &mut abc, d);
            }
            let mut pair: Vec<[f64; W]> = t.iter().zip(&s).flat_map(|(t, s)| [*t, *s]).collect();
            f.solve::<W, 2>(depths, &kcoef, &mut abc, &mut pair);
            for k in 0..nz {
                for l in 0..W {
                    if (k as i32) < depths.0[l] {
                        for (n, alone) in alone.iter().enumerate() {
                            assert_eq!(
                                pair[2 * k + n][l].to_bits(),
                                alone[k][l].to_bits(),
                                "W = {W}, field {n}, level {k}, lane {l}"
                            );
                        }
                    }
                }
            }
        }
        run::<1>();
        run::<2>();
        run::<4>();
        run::<{ lanes::LANES }>();
    }
}
