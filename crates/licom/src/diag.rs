//! Diagnostics: energy, tracer inventories, and the Rossby number field
//! used for the paper's submesoscale analysis (Fig. 6).

use kokkos_rs::{
    parallel_for_3d, parallel_reduce_3d, Functor3D, IterCost, MDRangePolicy3, ReduceFunctor3D,
    Reducer, Space, View1, View2, View3,
};

use halo_exchange::HALO as H;

use crate::localgrid::LocalGrid;

/// Σ ½(u²+v²)·dz·area over wet corners (J/kg·m³ ~ per unit density).
pub struct ReduceKineticEnergy {
    pub u: View3<f64>,
    pub v: View3<f64>,
    pub kmu: View2<i32>,
    pub dz: View1<f64>,
    pub dxt: View1<f64>,
    pub dyt: f64,
}

impl ReduceFunctor3D for ReduceKineticEnergy {
    fn contribute(&self, k: usize, j: usize, i: usize, acc: &mut f64) {
        let (jl, il) = (j + H, i + H);
        if self.kmu.at(jl, il) <= k as i32 {
            return;
        }
        let u = self.u.at(k, jl, il);
        let v = self.v.at(k, jl, il);
        let area = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1)) * self.dyt;
        *acc += 0.5 * (u * u + v * v) * self.dz.at(k) * area;
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 9,
            bytes: 50,
        }
    }
}

kokkos_rs::register_reduce_3d!(kernel_reduce_ke, ReduceKineticEnergy);

/// Σ q·dz·area over wet cells (tracer inventory; conservation tests).
pub struct ReduceTracerTotal {
    pub q: View3<f64>,
    pub kmt: View2<i32>,
    pub dz: View1<f64>,
    pub dxt: View1<f64>,
    pub dyt: f64,
}

impl ReduceFunctor3D for ReduceTracerTotal {
    fn contribute(&self, k: usize, j: usize, i: usize, acc: &mut f64) {
        let (jl, il) = (j + H, i + H);
        if self.kmt.at(jl, il) <= k as i32 {
            return;
        }
        *acc += self.q.at(k, jl, il) * self.dz.at(k) * self.dxt.at(jl) * self.dyt;
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 4,
            bytes: 40,
        }
    }
}

kokkos_rs::register_reduce_3d!(kernel_reduce_tracer, ReduceTracerTotal);

/// max |q| over wet cells (CFL / blow-up sentinel).
pub struct ReduceMaxAbs {
    pub q: View3<f64>,
    pub kmt: View2<i32>,
}

impl ReduceFunctor3D for ReduceMaxAbs {
    fn contribute(&self, k: usize, j: usize, i: usize, acc: &mut f64) {
        let (jl, il) = (j + H, i + H);
        if self.kmt.at(jl, il) <= k as i32 {
            return;
        }
        *acc = acc.max(self.q.at(k, jl, il).abs());
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 2,
            bytes: 16,
        }
    }
}

kokkos_rs::register_reduce_3d!(kernel_reduce_max_abs, ReduceMaxAbs);

/// Mean SST over wet surface cells: returns Σ sst·area (divide by Σ area).
pub struct ReduceSstArea {
    pub t: View3<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    /// false → accumulate area only; true → accumulate sst·area.
    pub weighted: bool,
}

impl ReduceFunctor3D for ReduceSstArea {
    fn contribute(&self, _k: usize, j: usize, i: usize, acc: &mut f64) {
        let (jl, il) = (j + H, i + H);
        if self.kmt.at(jl, il) == 0 {
            return;
        }
        let area = self.dxt.at(jl) * self.dyt;
        *acc += if self.weighted {
            self.t.at(0, jl, il) * area
        } else {
            area
        };
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 3,
            bytes: 30,
        }
    }
}

kokkos_rs::register_reduce_3d!(kernel_reduce_sst, ReduceSstArea);

/// Surface Rossby number `Ro = ζ/f` at T cells: the submesoscale
/// activity metric of Fig. 6 (`|Ro| ~ O(1)` marks active submesoscales).
pub struct FunctorRossby {
    pub u: View3<f64>,
    pub v: View3<f64>,
    pub out: View2<f64>,
    pub kmt: View2<i32>,
    pub fcor: View1<f64>,
    pub dxt: View1<f64>,
    pub dyt: f64,
}

impl Functor3D for FunctorRossby {
    fn operator(&self, _k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        if self.kmt.at(jl, il) == 0 {
            self.out.set_at(jl, il, 0.0);
            return;
        }
        // ζ at the T center from the 4 surrounding corners.
        let ve = 0.5 * (self.v.at(0, jl, il) + self.v.at(0, jl - 1, il));
        let vw = 0.5 * (self.v.at(0, jl, il - 1) + self.v.at(0, jl - 1, il - 1));
        let un = 0.5 * (self.u.at(0, jl, il) + self.u.at(0, jl, il - 1));
        let us = 0.5 * (self.u.at(0, jl - 1, il) + self.u.at(0, jl - 1, il - 1));
        let zeta = (ve - vw) / self.dxt.at(jl) - (un - us) / self.dyt;
        let f = self.fcor.at(jl);
        let ro = if f.abs() < 1e-9 { 0.0 } else { zeta / f };
        self.out.set_at(jl, il, ro);
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 14,
            bytes: 90,
        }
    }
}

kokkos_rs::register_for_3d!(kernel_rossby, FunctorRossby);

/// Register this module's functors.
pub fn register() {
    kernel_reduce_ke();
    kernel_reduce_tracer();
    kernel_reduce_max_abs();
    kernel_reduce_sst();
    kernel_rossby();
}

/// Scalar diagnostics of one rank's state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diagnostics {
    pub kinetic_energy: f64,
    pub heat_content: f64,
    pub salt_content: f64,
    pub max_speed: f64,
    pub mean_sst: f64,
}

/// Compute local (per-rank) diagnostics. Summation is tile-ordered and
/// deterministic; combine across ranks with `allreduce` as needed.
pub fn local_diagnostics(
    space: &Space,
    g: &LocalGrid,
    u: &View3<f64>,
    v: &View3<f64>,
    t: &View3<f64>,
    s: &View3<f64>,
) -> Diagnostics {
    let p3 = MDRangePolicy3::new([g.nz, g.ny, g.nx]);
    let surface = MDRangePolicy3::new([1, g.ny, g.nx]);
    let ke = parallel_reduce_3d(
        space,
        p3,
        &ReduceKineticEnergy {
            u: u.clone(),
            v: v.clone(),
            kmu: g.kmu.clone(),
            dz: g.dz.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
        },
        Reducer::Sum,
    );
    let heat = parallel_reduce_3d(
        space,
        p3,
        &ReduceTracerTotal {
            q: t.clone(),
            kmt: g.kmt.clone(),
            dz: g.dz.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
        },
        Reducer::Sum,
    );
    let salt = parallel_reduce_3d(
        space,
        p3,
        &ReduceTracerTotal {
            q: s.clone(),
            kmt: g.kmt.clone(),
            dz: g.dz.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
        },
        Reducer::Sum,
    );
    let max_u = parallel_reduce_3d(
        space,
        p3,
        &ReduceMaxAbs {
            q: u.clone(),
            kmt: g.kmu_as_kmt(),
        },
        Reducer::Max,
    );
    let max_v = parallel_reduce_3d(
        space,
        p3,
        &ReduceMaxAbs {
            q: v.clone(),
            kmt: g.kmu_as_kmt(),
        },
        Reducer::Max,
    );
    let sst_sum = parallel_reduce_3d(
        space,
        surface,
        &ReduceSstArea {
            t: t.clone(),
            kmt: g.kmt.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
            weighted: true,
        },
        Reducer::Sum,
    );
    let area = parallel_reduce_3d(
        space,
        surface,
        &ReduceSstArea {
            t: t.clone(),
            kmt: g.kmt.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
            weighted: false,
        },
        Reducer::Sum,
    );
    Diagnostics {
        kinetic_energy: ke,
        heat_content: heat,
        salt_content: salt,
        max_speed: max_u.max(max_v).max(0.0),
        mean_sst: if area > 0.0 { sst_sum / area } else { 0.0 },
    }
}

impl LocalGrid {
    /// The `kmu` view plays `kmt`'s role for corner-based reductions.
    pub fn kmu_as_kmt(&self) -> View2<i32> {
        self.kmu.clone()
    }
}

/// Compute the surface Rossby-number field into `out` and return the
/// owned-cell quantiles `(q50, q90, q99, max)` of `|Ro|` — the Fig. 6
/// submesoscale-richness metric.
pub fn rossby_quantiles(
    space: &Space,
    g: &LocalGrid,
    u: &View3<f64>,
    v: &View3<f64>,
    out: &View2<f64>,
) -> (f64, f64, f64, f64) {
    parallel_for_3d(
        space,
        MDRangePolicy3::new([1, g.ny, g.nx]),
        &FunctorRossby {
            u: u.clone(),
            v: v.clone(),
            out: out.clone(),
            kmt: g.kmt.clone(),
            fcor: g.fcor.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
        },
    );
    let mut vals: Vec<f64> = Vec::new();
    for jl in H..H + g.ny {
        for il in H..H + g.nx {
            if g.kmt.at(jl, il) > 0 {
                vals.push(out.at(jl, il).abs());
            }
        }
    }
    if vals.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| vals[((vals.len() - 1) as f64 * p) as usize];
    (q(0.5), q(0.9), q(0.99), *vals.last().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_rs::View;

    #[test]
    fn rossby_of_solid_body_rotation() {
        // u = -Ω y, v = Ω x → ζ = 2Ω everywhere.
        let (n, nz) = (8, 1);
        let (pj, pi) = (n + 2 * H, n + 2 * H);
        let u: View3<f64> = View::host("u", [nz, pj, pi]);
        let v: View3<f64> = View::host("v", [nz, pj, pi]);
        let out: View2<f64> = View::host("out", [pj, pi]);
        let kmt: View2<i32> = View::host("kmt", [pj, pi]);
        let fcor: View1<f64> = View::host("f", [pj]);
        let dxt: View1<f64> = View::host("dx", [pj]);
        kmt.fill(1);
        fcor.fill(1e-4);
        dxt.fill(1000.0);
        let omega = 1e-5;
        for jl in 0..pj {
            for il in 0..pi {
                u.set_at(0, jl, il, -omega * (jl as f64) * 1000.0);
                v.set_at(0, jl, il, omega * (il as f64) * 1000.0);
            }
        }
        let f = FunctorRossby {
            u,
            v,
            out: out.clone(),
            kmt,
            fcor,
            dxt,
            dyt: 1000.0,
        };
        for j in 0..n {
            for i in 0..n {
                f.operator(0, j, i);
            }
        }
        // Ro = 2Ω / f = 2e-5 / 1e-4 = 0.2.
        for j in 0..n {
            for i in 0..n {
                let ro = out.at(H + j, H + i);
                assert!((ro - 0.2).abs() < 1e-9, "Ro = {ro}");
            }
        }
    }
}

/// Meridional overturning streamfunction ψ(j, k) in Sverdrups (10⁶ m³/s):
/// the zonally-integrated meridional transport accumulated from the
/// bottom, `ψ(j, k) = Σ_{k' ≥ k} Σ_i v_face · dx_face · dz_{k'}` — the
/// classic MOC diagnostic of large-scale ocean circulation (returns a
/// `ny × (nz+1)` matrix over owned rows; combine across zonal ranks by
/// summation).
#[allow(clippy::needless_range_loop)] // j indexes both psi and the grid rows
pub fn overturning_streamfunction(g: &LocalGrid, v: &View3<f64>) -> Vec<Vec<f64>> {
    let mut psi = vec![vec![0.0; g.nz + 1]; g.ny];
    for j in 0..g.ny {
        let jl = j + H;
        // Transport through the north face of row jl, per level.
        let mut per_level = vec![0.0; g.nz];
        for i in 0..g.nx {
            let il = i + H;
            for (k, t) in per_level.iter_mut().enumerate() {
                if g.kmt.at(jl, il) as usize > k && g.kmt.at(jl + 1, il) as usize > k {
                    let vf = 0.5 * (v.at(k, jl, il) + v.at(k, jl, il - 1));
                    let dx_face = 0.5 * (g.dxt.at(jl) + g.dxt.at(jl + 1));
                    *t += vf * dx_face * g.dz.at(k);
                }
            }
        }
        // Accumulate from the bottom (ψ = 0 at the floor).
        let mut acc = 0.0;
        for k in (0..g.nz).rev() {
            acc += per_level[k];
            psi[j][k] = acc / 1.0e6; // Sv
        }
    }
    psi
}

#[cfg(test)]
mod moc_tests {
    use super::*;
    use halo_exchange::Halo2D;
    use kokkos_rs::View;
    use mpi_sim::{CartComm, World};
    use ocean_grid::{Bathymetry, GlobalGrid};

    fn local(nx: usize, ny: usize, nz: usize) -> LocalGrid {
        let global = GlobalGrid::build(nx, ny, nz, &Bathymetry::Flat(4000.0), false);
        World::run(1, move |comm| {
            let cart = CartComm::new(comm.clone(), 1, 1, true);
            let halo = Halo2D::new(&cart, nx, ny);
            LocalGrid::build(&global, &halo)
        })
        .pop()
        .unwrap()
    }

    #[test]
    fn resting_ocean_has_zero_overturning() {
        let g = local(12, 8, 5);
        let v: View3<f64> = View::host("v", [g.nz, g.pj, g.pi]);
        let psi = overturning_streamfunction(&g, &v);
        assert!(psi.iter().flatten().all(|&x| x == 0.0));
    }

    #[test]
    fn uniform_northward_flow_gives_monotone_psi() {
        let g = local(12, 8, 5);
        let v: View3<f64> = View::host("v", [g.nz, g.pj, g.pi]);
        v.fill(0.1);
        let psi = overturning_streamfunction(&g, &v);
        // ψ grows monotonically from bottom (0) to surface.
        for row in &psi {
            for k in 1..g.nz {
                assert!(row[k - 1] >= row[k], "ψ must accumulate upward");
            }
            assert!(row[0] > 0.0);
        }
        // Magnitude check against the same face metric the function uses.
        let dx_face = 0.5 * (g.dxt.at(H) + g.dxt.at(H + 1));
        let depth: f64 = (0..g.nz).map(|k| g.dz.at(k)).sum();
        let expect_sv = 0.1 * 12.0 * dx_face * depth / 1e6;
        assert!(
            (psi[0][0] - expect_sv).abs() / expect_sv < 1e-9,
            "{} vs {expect_sv}",
            psi[0][0]
        );
    }

    #[test]
    fn sheared_flow_produces_overturning_cell() {
        // Northward at the top, southward below: a classic cell with an
        // interior ψ extremum.
        let g = local(10, 6, 6);
        let v: View3<f64> = View::host("v", [g.nz, g.pj, g.pi]);
        // Zero-net column transport: northward in the top two layers,
        // exactly compensated below → ψ(surface) = 0, interior cell.
        let top: f64 = (0..2).map(|k| g.dz.at(k)).sum();
        let deep: f64 = (2..g.nz).map(|k| g.dz.at(k)).sum();
        let v_deep = -0.2 * top / deep;
        for k in 0..g.nz {
            let val = if k < 2 { 0.2 } else { v_deep };
            for jl in 0..g.pj {
                for il in 0..g.pi {
                    v.set_at(k, jl, il, val);
                }
            }
        }
        let psi = overturning_streamfunction(&g, &v);
        let row = &psi[2];
        let interior_max = row.iter().map(|x| x.abs()).fold(0.0f64, f64::max);
        let surface = row[0].abs();
        assert!(
            surface < 1e-9 * interior_max.max(1.0),
            "net transport should cancel: {surface}"
        );
        assert!(interior_max > 0.0, "interior overturning cell expected");
    }
}
