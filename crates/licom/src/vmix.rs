//! Implicit vertical mixing: tridiagonal solves per column.
//!
//! Vertical diffusion with canuto coefficients is far stiffer than the
//! time step allows explicitly (K ~ 5·10⁻² m²/s over dz ~ 5 m), so — like
//! LICOM — it is applied backward-Euler implicitly:
//!
//! `(I − dt ∂z K ∂z) q' = q`,
//!
//! one tridiagonal system per wet column, solved with the Thomas
//! algorithm. There is one solver body, `solve_block`, generic over the
//! number `W` of adjacent columns it eliminates together (see
//! [`crate::lanes`]) **and** the number `N` of fields it solves against the
//! same matrix: `u` and `v` share `km`/`kmu`, `T` and `S` share `kh`/`kmt`,
//! so the two coefficient divides per level and the elimination divide are
//! worked out once per block and each field carries only its right-hand
//! side and its back-substitution divide (10 divides per column-level over
//! the four fields where four separate solves spend 16). The wet-list
//! launch walks each run of wet columns in
//! [`LANES`](crate::lanes::LANES)-wide blocks, its remainder in blocks of
//! 4, 2 and 1; the team variant is `W = 1`, the team variant and the unit
//! tests `N = 1`. Work
//! arrays are `(3 + N) · nz` rows of `W` words, of
//! which a block touches only the rows down to its deepest column; ragged
//! depths inside a block are lane masks.

use kokkos_rs::{FunctorList, IterCost, View1, View2, View3};

use halo_exchange::HALO as H;

use crate::lanes::{self, above, ColumnKernel, F64x, Isa, Mask};

/// Solve `(I − dt ∂z K ∂z) q' = q` in place for `N` fields that share
/// their coefficients, column-wise.
///
/// `kcoef` holds interface coefficients (`nz+1` levels; interfaces `0`
/// and `kmt` act as zero-flux boundaries). `mask` is `kmt` for tracers or
/// `kmu` for momentum.
pub struct FunctorVmixImplicit<const N: usize> {
    pub q: [View3<f64>; N],
    pub kcoef: View3<f64>,
    pub mask: View2<i32>,
    pub dz: View1<f64>,
    pub z_t: View1<f64>,
    pub dt: f64,
    pub nz: usize,
}

/// Work words per lane of an `N`-field solve over `nz` levels: `a`, `b`,
/// `c` and one `d` per field.
const fn work_words(n_fields: usize, nz: usize) -> usize {
    (3 + n_fields) * nz
}

/// Per column: the matrix (coefficients, elimination of `b`) once, the
/// right-hand side update and back substitution per field. Bytes likewise:
/// `kcoef` and the `a`/`b`/`c` rows are shared, `q` in and out and the `d`
/// row are per field. `N = 1` is the single-field solve's 14 flops and
/// 64 bytes per level.
fn solve_cost(n_fields: usize, nz: usize) -> IterCost {
    IterCost {
        flops: ((9 + 5 * n_fields) * nz) as u64,
        bytes: ((32 + 32 * n_fields) * nz) as u64,
    }
}

impl<const N: usize> ColumnKernel for FunctorVmixImplicit<N> {
    fn scratch_words(&self) -> usize {
        work_words(N, self.nz)
    }

    #[inline(always)]
    fn block<const W: usize>(&self, jl: usize, il: usize, scratch: &mut [f64]) {
        solve_block::<W, N>(
            self.q.each_ref(),
            &self.kcoef,
            &self.mask,
            &self.dz,
            &self.z_t,
            self.dt,
            jl,
            il,
            scratch,
        );
    }

    /// The lines a block starting at `(jl, il)` reads, down to its first
    /// column's depth (a hint: the deeper rows of a ragged block just miss).
    #[inline(always)]
    fn prefetch(&self, jl: usize, il: usize) {
        for k in 0..self.mask.at(jl, il) as usize {
            lanes::prefetch3(&self.kcoef, k, jl, il);
            for q in &self.q {
                lanes::prefetch3(q, k, jl, il);
            }
        }
    }
}

/// Entry `idx` is a packed owned wet column `jl·pi + il` against the same
/// `mask` the solver uses (`pi` is its row pitch).
impl<const N: usize> FunctorList for FunctorVmixImplicit<N> {
    fn operator(&self, _n: usize, idx: u32) {
        lanes::run_column(self, self.mask.extent(1), idx);
    }

    fn operator_span(&self, _n0: usize, entries: &[u32]) {
        lanes::run_span(Isa::detect(), self, self.mask.extent(1), entries);
    }

    fn cost(&self) -> IterCost {
        solve_cost(N, self.nz)
    }
}

// The model launches pairs only; a test that runs `N = 1` on a registry
// space registers that instantiation itself.
kokkos_rs::register_for_list!(kernel_vmix_implicit_pair, FunctorVmixImplicit<2>);

/// Register this module's functors.
pub fn register() {
    kernel_vmix_implicit_pair();
    kernel_vmix_team();
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_rs::View;

    /// Packed index of the block's one owned column.
    const COL: u32 = (H * (1 + 2 * H) + H) as u32;

    fn setup(nz: usize, k: f64) -> FunctorVmixImplicit<1> {
        let (pj, pi) = (1 + 2 * H, 1 + 2 * H);
        let q: View3<f64> = View::host("q", [nz, pj, pi]);
        let kc: View3<f64> = View::host("kc", [nz + 1, pj, pi]);
        let mask: View2<i32> = View::host("mask", [pj, pi]);
        let dz: View1<f64> = View::host("dz", [nz]);
        let z_t: View1<f64> = View::host("z_t", [nz]);
        kc.fill(k);
        mask.fill(nz as i32);
        dz.fill(10.0);
        for kk in 0..nz {
            z_t.set_at(kk, 5.0 + 10.0 * kk as f64);
        }
        FunctorVmixImplicit {
            q: [q],
            kcoef: kc,
            mask,
            dz,
            z_t,
            dt: 1800.0,
            nz,
        }
    }

    #[test]
    fn uniform_profile_is_fixed_point() {
        let f = setup(10, 1e-2);
        f.q[0].fill(3.5);
        f.operator(0, COL);
        for k in 0..10 {
            assert!((f.q[0].at(k, H, H) - 3.5).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn mixing_conserves_column_integral() {
        let f = setup(12, 5e-2);
        for k in 0..12 {
            f.q[0].set_at(k, H, H, if k < 6 { 10.0 } else { 0.0 });
        }
        let before: f64 = (0..12).map(|k| f.q[0].at(k, H, H)).sum();
        f.operator(0, COL);
        let after: f64 = (0..12).map(|k| f.q[0].at(k, H, H)).sum();
        assert!(
            (before - after).abs() < 1e-9 * before.abs(),
            "{before} → {after}"
        );
    }

    #[test]
    fn mixing_smooths_toward_uniform_and_stays_bounded() {
        let f = setup(8, 5e-2);
        for k in 0..8 {
            f.q[0].set_at(k, H, H, if k == 3 { 100.0 } else { 0.0 });
        }
        for _ in 0..200 {
            f.operator(0, COL);
        }
        let mean = 100.0 / 8.0;
        for k in 0..8 {
            let v = f.q[0].at(k, H, H);
            assert!((-1e-9..=100.0).contains(&v), "k={k} v={v}");
            assert!((v - mean).abs() < 2.0, "should approach uniform: {v}");
        }
    }

    #[test]
    fn implicit_solve_is_unconditionally_stable() {
        // Monster diffusivity, thin layers: explicit would explode.
        let f = setup(20, 10.0);
        for k in 0..20 {
            f.q[0].set_at(k, H, H, (k as f64 * 1.7).sin() * 50.0);
        }
        f.operator(0, COL);
        for k in 0..20 {
            assert!(f.q[0].at(k, H, H).abs() <= 50.0 + 1e-9);
        }
    }

    #[test]
    fn land_columns_untouched() {
        let f = setup(5, 1e-2);
        f.q[0].fill(7.0);
        f.mask.set_at(H, H, 0);
        f.operator(0, COL);
        assert_eq!(f.q[0].at(0, H, H), 7.0);
    }

    #[test]
    fn partial_column_respects_kmt() {
        let f = setup(10, 5e-2);
        f.mask.set_at(H, H, 4);
        for k in 0..10 {
            f.q[0].set_at(k, H, H, if k < 4 { k as f64 } else { -99.0 });
        }
        f.operator(0, COL);
        // Below kmt untouched; above: mixed but conservative over 0..4.
        for k in 4..10 {
            assert_eq!(f.q[0].at(k, H, H), -99.0);
        }
        let sum: f64 = (0..4).map(|k| f.q[0].at(k, H, H)).sum();
        assert!((sum - 6.0).abs() < 1e-9);
    }
}

/// The tridiagonal solve of the `W` columns `(jl, il..il + W)`, in place
/// on each of the `N` fields `q` — the one arithmetic body behind every
/// launch shape, so wet-list and team launches, paired or not, are bitwise
/// identical.
///
/// `scratch` supplies the work arrays (`a`, `b`, `c` and `N` right-hand
/// sides `d`, each `≥ kmax` rows of `W`). The matrix — the coefficient
/// divides and the elimination multiplier `m` with its divide — does not
/// depend on the field and is worked out once; a field carries its `d`
/// row, its `m · d` update and its back-substitution divide. Lane `l` is
/// the column of depth `kb[l]`: its last row has no lower neighbour
/// (`c = 0`), its back-substitution starts there, and rows below it are
/// computed with the block but never stored.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn solve_block<const W: usize, const N: usize>(
    q: [&View3<f64>; N],
    kcoef: &View3<f64>,
    mask: &View2<i32>,
    dz: &View1<f64>,
    z_t: &View1<f64>,
    dt: f64,
    jl: usize,
    il: usize,
    scratch: &mut [f64],
) {
    let (kb, kmax) = lanes::depths::<W>(mask, jl, il);
    if kmax == 0 {
        return;
    }
    let n = scratch.len() / (3 + N);
    let (a, rest) = scratch.split_at_mut(n);
    let (b, rest) = rest.split_at_mut(n);
    let (c, d) = rest.split_at_mut(n);
    let rows = |s| lanes::rows::<W>(s, kmax);
    let (a, b, c) = (rows(a), rows(b), rows(c));
    // Row `k · N + f` is field `f` at level `k`.
    let d = lanes::rows::<W>(d, kmax * N);

    let zero = F64x::<W>::splat(0.0);
    for k in 0..kmax {
        let dzk = dz.at(k);
        let au = if k > 0 {
            let dzw = z_t.at(k) - z_t.at(k - 1);
            -dt * F64x::load(kcoef, k, jl, il) / (dzk * dzw)
        } else {
            zero
        };
        let cl = if k + 1 < kmax {
            let dzw = z_t.at(k + 1) - z_t.at(k);
            let below = -dt * F64x::load(kcoef, k + 1, jl, il) / (dzk * dzw);
            above(k + 1, &kb).select(below, zero)
        } else {
            zero
        };
        a[k] = au.0;
        c[k] = cl.0;
        b[k] = (1.0 - au - cl).0;
        for (f, q) in q.iter().enumerate() {
            d[k * N + f] = F64x::<W>::load(q, k, jl, il).0;
        }
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
        let wet = above(k, &kb);
        for (f, (q, prev)) in q.iter().zip(&mut prev).enumerate() {
            let dk = F64x(d[k * N + f]);
            *prev = bottom.select(dk, dk - F64x(c[k]) * *prev) / F64x(b[k]);
            prev.store_where(wet, q, k, jl, il);
        }
    }
}

/// Team-policy variant of the implicit solve (`N = 1`): the four tridiagonal
/// work arrays live in **team scratch**, which the `SwAthread` backend
/// allocates from the CPE's LDM — the paper's §V-C2 "defining and using
/// local arrays within the functor" strategy. Bitwise identical to
/// [`FunctorVmixImplicit`] field by field; league rank `r` owns column
/// `(r / nx, r % nx)` of the owned block.
pub struct FunctorVmixTeam {
    pub q: View3<f64>,
    pub kcoef: View3<f64>,
    pub mask: View2<i32>,
    pub dz: View1<f64>,
    pub z_t: View1<f64>,
    pub dt: f64,
    pub nz: usize,
    /// Owned interior width (columns per row).
    pub nx: usize,
}

impl FunctorVmixTeam {
    /// Scratch length the policy must request: 4 work arrays of `nz`.
    pub fn scratch_len(nz: usize) -> usize {
        work_words(1, nz)
    }
}

impl kokkos_rs::FunctorTeam for FunctorVmixTeam {
    fn operator(&self, league: usize, scratch: &mut [f64]) {
        let (j, i) = (league / self.nx, league % self.nx);
        solve_block::<1, 1>(
            [&self.q],
            &self.kcoef,
            &self.mask,
            &self.dz,
            &self.z_t,
            self.dt,
            j + H,
            i + H,
            scratch,
        );
    }

    fn cost(&self) -> IterCost {
        solve_cost(1, self.nz)
    }
}

kokkos_rs::register_team!(kernel_vmix_team, FunctorVmixTeam);

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod team_tests {
    use super::*;
    use kokkos_rs::{parallel_for_list, parallel_for_team, ListPolicy, Space, TeamPolicy, View};

    fn fields(nz: usize, n: usize) -> (View3<f64>, View3<f64>, View2<i32>, View1<f64>, View1<f64>) {
        let (pj, pi) = (n + 2 * H, n + 2 * H);
        let q: View3<f64> = View::from_fn("q", [nz, pj, pi], |[k, j, i]| {
            ((k * 31 + j * 7 + i * 3) as f64).sin() * 10.0
        });
        let kc: View3<f64> = View::host("kc", [nz + 1, pj, pi]);
        kc.fill(2.0e-2);
        let mask: View2<i32> = View::host("m", [pj, pi]);
        mask.fill(nz as i32);
        mask.set_at(H + 1, H + 1, 0); // one land column
        let dz: View1<f64> = View::host("dz", [nz]);
        dz.fill(25.0);
        let z_t: View1<f64> = View::from_fn("zt", [nz], |[k]| 12.5 + 25.0 * k as f64);
        (q, kc, mask, dz, z_t)
    }

    #[test]
    fn team_solve_bitwise_matches_flat_solve() {
        kernel_vmix_team();
        let (nz, n) = (12, 9);
        let (q1, kc, mask, dz, z_t) = fields(nz, n);
        let q2: View3<f64> = View::host("q2", q1.dims());
        q2.copy_from_slice(q1.as_slice());
        // Flat launch over the owned wet columns.
        let pi = n + 2 * H;
        let wet = ocean_grid::ActiveSet::build_columns(pi, H..H + n, H..H + n, |j, i| {
            mask.at(j, i) as u32
        });
        parallel_for_list(
            &Space::serial(),
            &ListPolicy::new(wet.indices),
            &FunctorVmixImplicit {
                q: [q1.clone()],
                kcoef: kc.clone(),
                mask: mask.clone(),
                dz: dz.clone(),
                z_t: z_t.clone(),
                dt: 1800.0,
                nz,
            },
        );
        // Team launch on every backend, including simulated LDM scratch.
        for space in [
            Space::serial(),
            Space::threads(),
            Space::sw_athread_with(sunway_sim::CgConfig::test_small()),
        ] {
            let q3: View3<f64> = View::host("q3", q2.dims());
            q3.copy_from_slice(q2.as_slice());
            parallel_for_team(
                &space,
                TeamPolicy::new(n * n, FunctorVmixTeam::scratch_len(nz)),
                &FunctorVmixTeam {
                    q: q3.clone(),
                    kcoef: kc.clone(),
                    mask: mask.clone(),
                    dz: dz.clone(),
                    z_t: z_t.clone(),
                    dt: 1800.0,
                    nz,
                    nx: n,
                },
            );
            let a: Vec<u64> = q1.as_slice().iter().map(|x| x.to_bits()).collect();
            let b: Vec<u64> = q3.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "team variant diverged on {}", space.name());
        }
    }

    #[test]
    fn full_depth_column_fits_ldm() {
        // 244 levels × 4 arrays × 8 B = 7.6 kB — comfortably inside the
        // 256 kB LDM (the paper's full-depth configuration works).
        assert!(FunctorVmixTeam::scratch_len(244) * 8 < 256 * 1024);
    }
}
