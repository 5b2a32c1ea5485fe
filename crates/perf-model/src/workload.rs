//! The LICOMK++ per-step workload census.
//!
//! Mirrors the `IterCost` hooks of the actual `licom` kernels, so the
//! analytic model and the simulated-Sunway cycle accounting describe the
//! same computation. All 3-D costs are *per wet grid point per
//! baroclinic step*; 2-D costs are *per wet column per barotropic
//! substep*. Where `licom` runs one kernel over a pair of fields and counts
//! what they share once (implicit solve, tracer diffusion, vertical
//! advection), the census keeps the per-field cost of the paper's code;
//! `crates/bench/tests/census.rs` states the relation row by row.

use ocean_grid::ModelConfig;

/// One kernel pass in the census.
#[derive(Debug, Clone, Copy)]
pub struct KernelPass {
    pub name: &'static str,
    pub flops_per_pt: f64,
    pub bytes_per_pt: f64,
}

/// The 3-D (per wet point per step) kernel list — names match the
/// `licom` functor registrations.
pub const PASSES_3D: &[KernelPass] = &[
    KernelPass {
        name: "eos",
        flops_per_pt: 6.0,
        bytes_per_pt: 24.0,
    },
    KernelPass {
        name: "pressure",
        flops_per_pt: 5.0,
        bytes_per_pt: 24.0,
    },
    KernelPass {
        name: "canuto",
        flops_per_pt: 90.0,
        bytes_per_pt: 100.0,
    },
    KernelPass {
        name: "momentum_tend",
        flops_per_pt: 80.0,
        bytes_per_pt: 220.0,
    },
    KernelPass {
        name: "leapfrog_uv",
        flops_per_pt: 4.0,
        bytes_per_pt: 72.0,
    },
    KernelPass {
        name: "vmix_momentum",
        flops_per_pt: 28.0,
        bytes_per_pt: 128.0,
    },
    KernelPass {
        name: "bt_correct",
        flops_per_pt: 3.0,
        bytes_per_pt: 48.0,
    },
    KernelPass {
        name: "diagnose_w",
        flops_per_pt: 20.0,
        bytes_per_pt: 120.0,
    },
    KernelPass {
        name: "advection_tracer",
        flops_per_pt: 174.0,
        bytes_per_pt: 432.0,
    },
    KernelPass {
        name: "tracer_hdiff",
        flops_per_pt: 28.0,
        bytes_per_pt: 160.0,
    },
    KernelPass {
        name: "vmix_tracer",
        flops_per_pt: 28.0,
        bytes_per_pt: 128.0,
    },
    KernelPass {
        name: "asselin",
        flops_per_pt: 10.0,
        bytes_per_pt: 80.0,
    },
];

/// The 2-D (per wet column per substep) barotropic kernel list.
pub const PASSES_2D_SUBSTEP: &[KernelPass] = &[
    KernelPass {
        name: "bt_eta",
        flops_per_pt: 30.0,
        bytes_per_pt: 180.0,
    },
    KernelPass {
        name: "bt_vel",
        flops_per_pt: 28.0,
        bytes_per_pt: 150.0,
    },
    KernelPass {
        name: "bt_asselin+filter",
        flops_per_pt: 20.0,
        bytes_per_pt: 200.0,
    },
];

/// 3-D halo exchanges per baroclinic step (u, v new; t, s intermediate;
/// t, s new; u, v Asselin-filtered).
pub const HALO3D_PER_STEP: f64 = 8.0;

/// 2-D halo exchanges per barotropic substep (η, u_bt, v_bt).
pub const HALO2D_PER_SUBSTEP: f64 = 3.0;

/// Point-to-point messages per halo exchange (W/E/S/N).
pub const MSGS_PER_EXCHANGE: f64 = 4.0;

/// A problem size for projection.
#[derive(Debug, Clone)]
pub struct ProblemSpec {
    pub name: String,
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Wet fraction of surface cells (~0.67 on Earth).
    pub ocean_frac: f64,
    /// Barotropic substeps per baroclinic step (dt_c / dt_b ... leapfrog
    /// window uses 2× this).
    pub substeps: usize,
    pub steps_per_day: usize,
    /// Calibrated per-configuration cost multiplier (see
    /// [`crate::calibration`]); scales compute traffic to absorb
    /// per-configuration effects the census cannot see (driver overhead
    /// on tiny per-rank grids, fuller physics suites in the production
    /// eddy-resolving setup). Default 1.0.
    pub cost_multiplier: f64,
}

impl ProblemSpec {
    /// Build from a Table III configuration.
    pub fn from_config(cfg: &ModelConfig) -> Self {
        Self {
            name: cfg.name.clone(),
            nx: cfg.nx,
            ny: cfg.ny,
            nz: cfg.nz,
            ocean_frac: 0.67,
            substeps: 2 * cfg.barotropic_substeps(),
            steps_per_day: cfg.steps_per_day(),
            cost_multiplier: 1.0,
        }
    }

    /// Apply a calibrated cost multiplier (builder style).
    pub fn with_multiplier(mut self, m: f64) -> Self {
        self.cost_multiplier = m;
        self
    }

    /// Total wet 3-D points.
    pub fn wet_points(&self) -> f64 {
        self.nx as f64 * self.ny as f64 * self.ocean_frac * self.nz as f64
    }

    /// Total wet columns.
    pub fn wet_columns(&self) -> f64 {
        self.nx as f64 * self.ny as f64 * self.ocean_frac
    }

    /// Aggregate 3-D (flops, bytes) per wet point per step.
    pub fn per_point_cost(&self) -> (f64, f64) {
        PASSES_3D.iter().fold((0.0, 0.0), |(f, b), k| {
            (f + k.flops_per_pt, b + k.bytes_per_pt)
        })
    }

    /// Aggregate 2-D (flops, bytes) per wet column per substep.
    pub fn per_column_substep_cost(&self) -> (f64, f64) {
        PASSES_2D_SUBSTEP.iter().fold((0.0, 0.0), |(f, b), k| {
            (f + k.flops_per_pt, b + k.bytes_per_pt)
        })
    }

    /// Ideal local block edge lengths for `ranks` ranks (fractional).
    pub fn block_dims(&self, ranks: usize) -> (f64, f64) {
        let area = self.nx as f64 * self.ny as f64 / ranks as f64;
        let aspect = self.nx as f64 / self.ny as f64;
        let nxl = (area * aspect).sqrt().min(self.nx as f64);
        (nxl, area / nxl)
    }

    /// Bytes of one 3-D halo exchange for one rank (2-wide, 4 edges, f64).
    pub fn halo3d_bytes(&self, ranks: usize) -> f64 {
        let (nxl, nyl) = self.block_dims(ranks);
        2.0 * 2.0 * (nxl + nyl) * self.nz as f64 * 8.0
    }

    /// Bytes of one 2-D halo exchange for one rank.
    pub fn halo2d_bytes(&self, ranks: usize) -> f64 {
        let (nxl, nyl) = self.block_dims(ranks);
        2.0 * 2.0 * (nxl + nyl) * 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocean_grid::Resolution;

    #[test]
    fn census_totals_are_low_intensity() {
        let spec = ProblemSpec::from_config(&Resolution::Km1.config());
        let (f, b) = spec.per_point_cost();
        // "very low computation-to-memory access ratio": < 0.5 flop/byte.
        assert!(f / b < 0.5, "intensity {}", f / b);
        assert!(f > 400.0 && b > 1500.0, "census magnitude f={f} b={b}");
    }

    #[test]
    fn km1_spec_matches_table3() {
        let spec = ProblemSpec::from_config(&Resolution::Km1.config());
        assert_eq!(spec.substeps, 20); // 2 × (20 s / 2 s)
        assert_eq!(spec.steps_per_day, 4320);
        assert!(spec.wet_points() > 4.0e10);
    }

    #[test]
    fn block_dims_conserve_area_and_scale() {
        let spec = ProblemSpec::from_config(&Resolution::Eddy10km.config());
        for ranks in [40usize, 160, 1000] {
            let (nxl, nyl) = spec.block_dims(ranks);
            let area = nxl * nyl;
            let want = spec.nx as f64 * spec.ny as f64 / ranks as f64;
            assert!((area - want).abs() / want < 1e-9);
        }
        let (a, _) = spec.block_dims(40);
        let (b, _) = spec.block_dims(160);
        assert!(b < a, "blocks shrink with more ranks");
    }

    #[test]
    fn halo_bytes_shrink_slower_than_area() {
        // Surface-to-volume: 4x ranks → halo per rank shrinks only ~2x.
        let spec = ProblemSpec::from_config(&Resolution::Km1.config());
        let h1 = spec.halo3d_bytes(4000);
        let h4 = spec.halo3d_bytes(16000);
        assert!(h4 > h1 / 4.0 && h4 < h1 / 1.5);
    }
}
