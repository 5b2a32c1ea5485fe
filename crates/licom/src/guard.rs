//! Per-step physics guards: cheap state-health reductions that catch a
//! corrupted or blown-up integration *before* it contaminates a
//! checkpoint.
//!
//! At the paper's machine scale a silent fault (memory corruption, a
//! mangled halo strip that slipped past CRC, an unstable time step) shows
//! up first as non-finite values, runaway velocities, or tracers outside
//! physical bounds. The guard scans the **owned wet sets** every step with
//! [`kokkos_rs::parallel_reduce_list`] — the same active-set machinery the
//! dynamics use, so it runs on all four execution spaces and costs one
//! max-reduction per field.
//!
//! Non-finite values are mapped to `+∞` before the max-join (a plain
//! `f64::max` drops NaN, so a NaN cell would otherwise *pass* the guard).
//!
//! The scan is **local** — no collectives — so a rank can abort a step on
//! a guard trip without stranding its peers in a rendezvous; collective
//! agreement happens at the end-of-step status vote in
//! [`crate::Model::run_steps_resilient`].

use kokkos_rs::{parallel_reduce_list, ReduceFunctorList, Reducer, Space, View3};

use crate::lanes::{Isa, LANES};
use crate::state::State;

/// Guard thresholds. All ranks must use identical values.
#[derive(Debug, Clone, Copy)]
pub struct GuardConfig {
    /// Hard cap on |u|, |v| in m/s (ocean currents peak near 3 m/s;
    /// anything past this is numerical).
    pub max_speed: f64,
    /// Advective CFL cap: the effective speed limit is
    /// `min(max_speed, max_cfl · Δx_min / Δt)`.
    pub max_cfl: f64,
    /// Physical temperature window, °C.
    pub t_bounds: (f64, f64),
    /// Physical salinity window, psu.
    pub s_bounds: (f64, f64),
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            max_speed: 25.0,
            max_cfl: 0.9,
            t_bounds: (-5.0, 45.0),
            s_bounds: (18.0, 50.0),
        }
    }
}

impl GuardConfig {
    /// Effective velocity bound for a grid with smallest spacing `dx_min`
    /// stepped at `dt`.
    pub fn speed_limit(&self, dx_min: f64, dt: f64) -> f64 {
        self.max_speed.min(self.max_cfl * dx_min / dt)
    }
}

/// What the per-step scan observed (all values are rank-local maxima;
/// non-finite cells appear as `+∞`).
#[derive(Debug, Clone, Copy, Default)]
pub struct GuardReport {
    /// max(|u|, |v|) over owned wet velocity cells.
    pub max_speed: f64,
    /// Largest excursion of T outside `t_bounds` (0 = all in bounds).
    pub t_excess: f64,
    /// Largest excursion of S outside `s_bounds` (0 = all in bounds).
    pub s_excess: f64,
}

impl GuardReport {
    /// The violation this report represents under `cfg`, if any.
    pub fn violation(&self, cfg: &GuardConfig, speed_limit: f64) -> Option<GuardViolation> {
        let _ = cfg;
        if self.max_speed > speed_limit || self.t_excess > 0.0 || self.s_excess > 0.0 {
            Some(GuardViolation {
                max_speed: self.max_speed,
                speed_limit,
                t_excess: self.t_excess,
                s_excess: self.s_excess,
            })
        } else {
            None
        }
    }
}

/// Typed guard failure: which invariant broke and by how much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardViolation {
    pub max_speed: f64,
    pub speed_limit: f64,
    pub t_excess: f64,
    pub s_excess: f64,
}

impl std::fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "state guard tripped: max|u,v| {:.3e} (limit {:.3e}), T excess {:.3e}, S excess {:.3e}",
            self.max_speed, self.speed_limit, self.t_excess, self.s_excess
        )
    }
}

impl std::error::Error for GuardViolation {}

/// Max over a list tile of `measure(idx)`, which is never NaN: [`LANES`]
/// independent running maxima over the tile, folded at the end, instead of
/// one `acc.max(..)` dependency chain. `max` is exact, so the order the
/// entries are folded in cannot change a bit of the result.
#[inline(always)]
fn max_span(isa: Isa, entries: &[u32], acc: &mut f64, measure: impl Fn(usize) -> f64) {
    *acc = isa.run(
        &measure,
        #[inline(always)]
        |measure| {
            let mut lane = [*acc; LANES];
            let blocks = entries.chunks_exact(LANES);
            let tail = blocks.remainder();
            for block in blocks {
                for (m, &idx) in lane.iter_mut().zip(block) {
                    *m = m.max(measure(idx as usize));
                }
            }
            for (m, &idx) in lane.iter_mut().zip(tail) {
                *m = m.max(measure(idx as usize));
            }
            lane.into_iter().fold(*acc, f64::max)
        },
    );
}

/// Max of |u|, |v| over a packed wet-cell list; non-finite → `+∞` so the
/// NaN-dropping max-join cannot hide it. `idx` is the storage offset
/// (wet sets pack `(k·pj + jl)·pi + il`, row-major `[nz, pj, pi]`).
pub struct FunctorGuardMaxAbs {
    pub u: View3<f64>,
    pub v: View3<f64>,
}

impl FunctorGuardMaxAbs {
    #[inline(always)]
    fn measure(&self, idx: usize) -> f64 {
        let abs = |x: f64| {
            if x.is_finite() {
                x.abs()
            } else {
                f64::INFINITY
            }
        };
        abs(self.u.get_linear(idx)).max(abs(self.v.get_linear(idx)))
    }
}

impl ReduceFunctorList for FunctorGuardMaxAbs {
    fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
        *acc = acc.max(self.measure(idx as usize));
    }

    fn contribute_span(&self, _n0: usize, entries: &[u32], acc: &mut f64) {
        max_span(Isa::detect(), entries, acc, |idx| self.measure(idx));
    }

    fn cost(&self) -> kokkos_rs::IterCost {
        kokkos_rs::IterCost {
            flops: 4,
            bytes: 16,
        }
    }
}

kokkos_rs::register_reduce_list!(kernel_guard_max_abs, FunctorGuardMaxAbs);

/// Max excursion of two fields outside their `(lo, hi)` windows over a
/// packed wet-cell list; non-finite → `+∞`.
pub struct FunctorGuardBounds {
    pub q: [View3<f64>; 2],
    pub bounds: [(f64, f64); 2],
}

impl FunctorGuardBounds {
    #[inline(always)]
    fn measure(&self, idx: usize) -> f64 {
        let excess = |t: usize| {
            let (x, (lo, hi)) = (self.q[t].get_linear(idx), self.bounds[t]);
            if x.is_finite() {
                (x - hi).max(lo - x).max(0.0)
            } else {
                f64::INFINITY
            }
        };
        excess(0).max(excess(1))
    }
}

impl ReduceFunctorList for FunctorGuardBounds {
    fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
        *acc = acc.max(self.measure(idx as usize));
    }

    fn contribute_span(&self, _n0: usize, entries: &[u32], acc: &mut f64) {
        max_span(Isa::detect(), entries, acc, |idx| self.measure(idx));
    }

    fn cost(&self) -> kokkos_rs::IterCost {
        kokkos_rs::IterCost {
            flops: 8,
            bytes: 16,
        }
    }
}

kokkos_rs::register_reduce_list!(kernel_guard_bounds, FunctorGuardBounds);

/// Scan leapfrog level `lev` of `state` over the owned wet sets.
/// Local only — see the module docs for why there is no collective here.
pub fn scan(
    space: &Space,
    state: &State,
    lev: usize,
    wet_ucells: &kokkos_rs::ListPolicy,
    wet_cells: &kokkos_rs::ListPolicy,
    cfg: &GuardConfig,
) -> GuardReport {
    let c = lev;
    let max_speed = parallel_reduce_list(
        space,
        wet_ucells,
        &FunctorGuardMaxAbs {
            u: state.u[c].clone(),
            v: state.v[c].clone(),
        },
        Reducer::Max,
    );
    let excess = |q: [&View3<f64>; 2], bounds: [(f64, f64); 2]| {
        parallel_reduce_list(
            space,
            wet_cells,
            &FunctorGuardBounds {
                q: q.map(View3::clone),
                bounds,
            },
            Reducer::Max,
        )
        .max(0.0)
    };
    // T and S in one pass over the list. Excesses are ≥ 0 and `max` is
    // exact, so a zero joint excess is two zero excesses; only a trip pays
    // for the two scans that say whose it is.
    let (t, s) = (&state.t[c], &state.s[c]);
    let (t_excess, s_excess) = if excess([t, s], [cfg.t_bounds, cfg.s_bounds]) == 0.0 {
        (0.0, 0.0)
    } else {
        (
            excess([t, t], [cfg.t_bounds; 2]),
            excess([s, s], [cfg.s_bounds; 2]),
        )
    };
    GuardReport {
        max_speed: max_speed.max(0.0),
        t_excess,
        s_excess,
    }
}

/// Register the guard reduction functors (SwAthread trampoline table).
pub fn register() {
    kernel_guard_max_abs();
    kernel_guard_bounds();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localgrid::LocalGrid;
    use halo_exchange::Halo2D;
    use kokkos_rs::ListPolicy;
    use mpi_sim::{CartComm, World};
    use ocean_grid::{Bathymetry, GlobalGrid};

    fn setup() -> (LocalGrid, State) {
        let global = GlobalGrid::build(16, 10, 5, &Bathymetry::Flat(4000.0), false);
        World::run(1, |comm| {
            let cart = CartComm::new(comm.clone(), 1, 1, true);
            let halo = Halo2D::new(&cart, 16, 10);
            let g = LocalGrid::build(&global, &halo);
            let mut s = State::new(&g);
            s.init_stratified(&g);
            (g, s)
        })
        .pop()
        .unwrap()
    }

    fn policies(g: &LocalGrid) -> (ListPolicy, ListPolicy) {
        (
            ListPolicy::new(g.wet.ucells3_own.indices.clone()),
            ListPolicy::new(g.wet.cells3_own.indices.clone()),
        )
    }

    #[test]
    fn healthy_state_passes() {
        crate::register_all_kernels();
        let (g, s) = setup();
        let (ucells, cells) = policies(&g);
        let cfg = GuardConfig::default();
        let rep = scan(&Space::serial(), &s, s.cur(), &ucells, &cells, &cfg);
        assert!(rep.violation(&cfg, cfg.max_speed).is_none(), "{rep:?}");
        assert_eq!(rep.t_excess, 0.0);
        assert_eq!(rep.s_excess, 0.0);
    }

    #[test]
    fn nan_in_wet_cell_maps_to_infinity() {
        crate::register_all_kernels();
        let (g, s) = setup();
        let (ucells, cells) = policies(&g);
        let c = s.cur();
        // First wet velocity cell: owned interior corner.
        let idx = g.wet.ucells3_own.indices[0] as usize;
        let mut data = s.u[c].to_vec();
        data[idx] = f64::NAN;
        s.u[c].copy_from_slice(&data);
        let cfg = GuardConfig::default();
        let rep = scan(&Space::serial(), &s, s.cur(), &ucells, &cells, &cfg);
        assert_eq!(rep.max_speed, f64::INFINITY, "NaN must not be dropped");
        assert!(rep.violation(&cfg, cfg.max_speed).is_some());
    }

    #[test]
    fn tracer_out_of_bounds_is_flagged_with_magnitude() {
        crate::register_all_kernels();
        let (g, s) = setup();
        let (ucells, cells) = policies(&g);
        let c = s.cur();
        let idx = g.wet.cells3_own.indices[3] as usize;
        let mut data = s.t[c].to_vec();
        data[idx] = 145.0; // 100 above the 45 °C ceiling
        s.t[c].copy_from_slice(&data);
        let cfg = GuardConfig::default();
        let rep = scan(&Space::serial(), &s, s.cur(), &ucells, &cells, &cfg);
        assert!((rep.t_excess - 100.0).abs() < 1e-12, "{}", rep.t_excess);
        let v = rep.violation(&cfg, cfg.max_speed).unwrap();
        assert!(v.t_excess > 0.0 && v.s_excess == 0.0);
    }

    #[test]
    fn span_scan_reports_the_per_entry_bits_on_all_spaces() {
        crate::register_all_kernels();
        let (g, s) = setup();
        let (ucells, cells) = policies(&g);
        let c = s.cur();
        // Ragged magnitudes, then one excursion per field; S trips too, so
        // the joint tracer scan has to be attributed.
        for (n, &idx) in g.wet.ucells3_own.indices.iter().enumerate() {
            s.u[c].set_linear(idx as usize, 1.0e-3 * (n % 97) as f64 - 0.04);
            s.v[c].set_linear(idx as usize, 0.03 - 7.0e-4 * (n % 89) as f64);
        }
        s.v[c].set_linear(g.wet.ucells3_own.indices[11] as usize, -3.25);
        s.t[c].set_linear(g.wet.cells3_own.indices[5] as usize, 47.5);
        s.s[c].set_linear(g.wet.cells3_own.indices[LANES + 1] as usize, 17.0);
        let cfg = GuardConfig::default();
        // What `contribute` alone finds, entry by entry.
        let by_entry = |f: &dyn ReduceFunctorList, list: &ListPolicy| {
            let mut acc = 0.0;
            for n in list.start..list.end {
                f.contribute(n, list.entry(n), &mut acc);
            }
            acc
        };
        let bounds = |q: &View3<f64>, b| FunctorGuardBounds {
            q: [q.clone(), q.clone()],
            bounds: [b; 2],
        };
        let want = [
            by_entry(
                &FunctorGuardMaxAbs {
                    u: s.u[c].clone(),
                    v: s.v[c].clone(),
                },
                &ucells,
            ),
            by_entry(&bounds(&s.t[c], cfg.t_bounds), &cells),
            by_entry(&bounds(&s.s[c], cfg.s_bounds), &cells),
        ];
        assert_eq!(want, [3.25, 2.5, 1.0]);
        // The span fold pinned to the baseline ISA (the launches below fold
        // under `Isa::detect()`).
        let max_abs = FunctorGuardMaxAbs {
            u: s.u[c].clone(),
            v: s.v[c].clone(),
        };
        let mut acc = 0.0;
        max_span(Isa::BASELINE, ucells.indices(), &mut acc, |idx| {
            max_abs.measure(idx)
        });
        assert_eq!(acc.to_bits(), want[0].to_bits());
        for space in [
            Space::serial(),
            Space::threads(),
            Space::device_sim(),
            Space::sw_athread_with(sunway_sim::CgConfig::test_small()),
        ] {
            // Tiles shorter than, equal to and longer than a lane block.
            for tile in [3, LANES, 256] {
                let rep = scan(
                    &space,
                    &s,
                    c,
                    &ucells.clone().with_tile(tile),
                    &cells.clone().with_tile(tile),
                    &cfg,
                );
                assert_eq!(
                    [rep.max_speed, rep.t_excess, rep.s_excess].map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{} tile {tile}",
                    space.name()
                );
            }
        }
    }

    #[test]
    fn dry_cells_are_ignored() {
        crate::register_all_kernels();
        // Basin bathymetry has land; poison a land cell — guard must pass.
        let global = GlobalGrid::build(
            16,
            10,
            5,
            &Bathymetry::Basin {
                lon0: 60.0,
                lon1: 300.0,
                lat0: -50.0,
                lat1: 50.0,
                depth: 4000.0,
            },
            false,
        );
        let (g, s) = World::run(1, |comm| {
            let cart = CartComm::new(comm.clone(), 1, 1, true);
            let halo = Halo2D::new(&cart, 16, 10);
            let g = LocalGrid::build(&global, &halo);
            let mut s = State::new(&g);
            s.init_stratified(&g);
            (g, s)
        })
        .pop()
        .unwrap();
        let (ucells, cells) = policies(&g);
        let c = s.cur();
        // Find a dry tracer cell in the owned interior.
        let mut dry = None;
        'outer: for k in 0..g.nz {
            for jl in 2..2 + g.ny {
                for il in 2..2 + g.nx {
                    if g.kmt.at(jl, il) as usize <= k {
                        dry = Some((k, jl, il));
                        break 'outer;
                    }
                }
            }
        }
        let (k, jl, il) = dry.expect("basin must have land");
        s.t[c].set_at(k, jl, il, f64::NAN);
        let cfg = GuardConfig::default();
        let rep = scan(&Space::serial(), &s, s.cur(), &ucells, &cells, &cfg);
        assert!(rep.violation(&cfg, cfg.max_speed).is_none(), "{rep:?}");
    }

    #[test]
    fn speed_limit_respects_cfl() {
        let cfg = GuardConfig {
            max_speed: 25.0,
            max_cfl: 0.5,
            ..Default::default()
        };
        // Tight grid: CFL binds. Loose grid: hard cap binds.
        assert_eq!(cfg.speed_limit(1000.0, 100.0), 5.0);
        assert_eq!(cfg.speed_limit(1.0e6, 100.0), 25.0);
    }
}
