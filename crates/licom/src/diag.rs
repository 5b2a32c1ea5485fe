//! Diagnostics: energy, tracer inventories, and the Rossby number field
//! used for the paper's submesoscale analysis (Fig. 6).

use kokkos_rs::{
    parallel_for_3d, parallel_reduce_list, Functor3D, IterCost, ListPolicy, MDRangePolicy3,
    ReduceFunctorList, Reducer, Space, View1, View2, View3,
};
use ocean_grid::ActiveSet;

use halo_exchange::HALO as H;

use crate::localgrid::LocalGrid;

/// What a [`ReduceColumns`] launch folds over a wet column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    /// Σ ½(u²+v²)·dz·area over the velocity cells `k < kmu`.
    KineticEnergy,
    /// max(|u|, |v|) over the velocity cells.
    Speed,
    /// Σ q·dz·area over the tracer cells `k < kmt` (an inventory).
    Inventory,
    /// sst·area of the surface cell.
    SstArea,
    /// The surface cell's area.
    Area,
}

/// One diagnostic over a packed list of owned wet columns (`jl · pi + il`),
/// each walked down to its `depth` (`kmu` or `kmt`): `a`, `b` are `u`, `v`
/// for a velocity column and the tracer (twice) for a tracer column.
struct ReduceColumns {
    of: Column,
    a: View3<f64>,
    b: View3<f64>,
    depth: View2<i32>,
    dz: View1<f64>,
    dxt: View1<f64>,
    dyt: f64,
}

impl ReduceFunctorList for ReduceColumns {
    fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
        let pi = self.depth.extent(1);
        let (jl, il) = (idx as usize / pi, idx as usize % pi);
        let area = self.dxt.at(jl) * self.dyt;
        let wet = 0..self.depth.at(jl, il).max(0) as usize;
        let (a, b) = (|k| self.a.at(k, jl, il), |k| self.b.at(k, jl, il));
        match self.of {
            Column::KineticEnergy => {
                let area = 0.5 * (self.dxt.at(jl) + self.dxt.at(jl + 1)) * self.dyt;
                for k in wet {
                    *acc += 0.5 * (a(k) * a(k) + b(k) * b(k)) * self.dz.at(k) * area;
                }
            }
            Column::Speed => *acc = wet.fold(*acc, |m, k| m.max(a(k).abs()).max(b(k).abs())),
            Column::Inventory => *acc = wet.fold(*acc, |s, k| s + a(k) * self.dz.at(k) * area),
            Column::SstArea => *acc += a(0) * area,
            Column::Area => *acc += area,
        }
    }

    /// A column: its depth and metrics once, each level's two values.
    fn cost(&self) -> IterCost {
        let nz = self.a.extent(0) as u64;
        IterCost {
            flops: 9 * nz,
            bytes: 24 * nz + 20,
        }
    }
}

kokkos_rs::register_reduce_list!(kernel_reduce_columns, ReduceColumns);

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
    kernel_reduce_columns();
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

/// Compute local (per-rank) diagnostics: column reductions over the owned
/// wet velocity (`kmu > 0`) and tracer (`kmt > 0`) columns. Summation is
/// tile-ordered and deterministic; combine across ranks with `allreduce` as
/// needed.
pub fn local_diagnostics(
    space: &Space,
    g: &LocalGrid,
    u: &View3<f64>,
    v: &View3<f64>,
    t: &View3<f64>,
    s: &View3<f64>,
) -> Diagnostics {
    let list = |set: &ActiveSet| {
        ListPolicy::new(set.indices.clone()).with_cost_prefix(set.cost_prefix.clone())
    };
    let (ucols, cols) = (list(&g.wet.ucols_own), list(&g.wet.cols_own));
    let reduce = |of: Column, [a, b]: [&View3<f64>; 2]| {
        let velocity = matches!(of, Column::KineticEnergy | Column::Speed);
        let (list, depth) = if velocity {
            (&ucols, &g.kmu)
        } else {
            (&cols, &g.kmt)
        };
        let op = if of == Column::Speed {
            Reducer::Max
        } else {
            Reducer::Sum
        };
        let f = ReduceColumns {
            of,
            a: a.clone(),
            b: b.clone(),
            depth: depth.clone(),
            dz: g.dz.clone(),
            dxt: g.dxt.clone(),
            dyt: g.dyt,
        };
        parallel_reduce_list(space, list, &f, op)
    };
    let sst = reduce(Column::SstArea, [t, t]);
    let area = reduce(Column::Area, [t, t]);
    Diagnostics {
        kinetic_energy: reduce(Column::KineticEnergy, [u, v]),
        heat_content: reduce(Column::Inventory, [t, t]),
        salt_content: reduce(Column::Inventory, [s, s]),
        max_speed: reduce(Column::Speed, [u, v]).max(0.0),
        mean_sst: if area > 0.0 { sst / area } else { 0.0 },
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
