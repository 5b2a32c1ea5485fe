//! Per-step physics guards: cheap state-health reductions that catch a
//! corrupted or blown-up integration *before* it contaminates a
//! checkpoint.
//!
//! At the paper's machine scale a silent fault (memory corruption, a
//! mangled halo strip that slipped past CRC, an unstable time step) shows
//! up first as non-finite values, runaway velocities, or tracers outside
//! physical bounds. The guard reads no 3-D field on a healthy step: the two
//! column passes that finish the new level ([`crate::columns`]) leave each
//! owned wet column's maximum in a 2-D view as they store it
//! ([`ColumnMaxima`]), and [`scan`] folds those. Only a trip re-scans the
//! **owned wet columns** of `T` and `S` down to `kmt`, one max-reduction
//! each ([`kokkos_rs::parallel_reduce_list`]), to say whose excess it is.
//!
//! Non-finite values are mapped to `+∞` before the max-join (a plain
//! `f64::max` drops NaN, so a NaN cell would otherwise *pass* the guard).
//!
//! The scan is **local** — no collectives — so a rank can abort a step on
//! a guard trip without stranding its peers in a rendezvous; collective
//! agreement happens at the end-of-step status vote in
//! [`crate::Model::run_steps_resilient`].

use kokkos_rs::{
    parallel_reduce_list, ListPolicy, ReduceFunctorList, Reducer, Space, View, View2, View3,
};

use crate::lanes::{F64x, Isa, LANES};

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

/// `|x|`, or `+∞` where `x` is not finite.
#[inline(always)]
fn magnitude<const W: usize>(x: F64x<W>) -> F64x<W> {
    x.is_finite().select(x.abs(), F64x::splat(f64::INFINITY))
}

/// What the guard measures at a velocity cell: `max(|u|, |v|)`, non-finite
/// → `+∞`. Never NaN and never `-0`, so a max over any number of them,
/// folded in any order, has one set of bits.
#[inline(always)]
pub fn speed<const W: usize>(u: F64x<W>, v: F64x<W>) -> F64x<W> {
    magnitude(u).max(magnitude(v))
}

/// What the guard measures at a tracer cell: how far `x` lies outside
/// `(lo, hi)` (`+0` inside), non-finite → `+∞`. Like [`speed`], never NaN
/// and never `-0`.
#[inline(always)]
pub fn excess<const W: usize>(x: F64x<W>, (lo, hi): (f64, f64)) -> F64x<W> {
    let zero = F64x::splat(0.0);
    x.is_finite()
        .select((x - hi).max(lo - x).max(zero), F64x::splat(f64::INFINITY))
}

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

/// Max excursion of a field outside its `(lo, hi)` window over a packed
/// wet-column list, each column down to its `kmt`; non-finite → `+∞`.
/// Launched only on a trip, once for `T` and once for `S`, to attribute the
/// joint excess to each.
pub struct FunctorGuardBounds {
    pub q: View3<f64>,
    pub kmt: View2<i32>,
    pub bounds: (f64, f64),
}

impl FunctorGuardBounds {
    /// The largest excess over the wet cells of column `idx` (`jl · pi +
    /// il`), and `+0` over none.
    #[inline(always)]
    fn measure(&self, idx: usize) -> f64 {
        let level = self.kmt.len();
        let wet = 0..self.kmt.get_linear(idx).max(0) as usize;
        wet.map(|k| excess(F64x([self.q.get_linear(k * level + idx)]), self.bounds).0[0])
            .fold(0.0, f64::max)
    }
}

impl ReduceFunctorList for FunctorGuardBounds {
    fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
        *acc = acc.max(self.measure(idx as usize));
    }

    fn contribute_span(&self, _n0: usize, entries: &[u32], acc: &mut f64) {
        max_span(Isa::detect(), entries, acc, |idx| self.measure(idx));
    }

    /// A column: `kmt` once, each level's value and its four flops.
    fn cost(&self) -> kokkos_rs::IterCost {
        let nz = self.q.extent(0) as u64;
        kokkos_rs::IterCost {
            flops: 4 * nz,
            bytes: 8 * nz + 4,
        }
    }
}

kokkos_rs::register_reduce_list!(kernel_guard_bounds, FunctorGuardBounds);

/// Per-column maxima of the guard's measures over the levels the two column
/// passes store, one entry per owned wet column (its packed `jl · pi + il`;
/// the other entries mean nothing).
pub struct ColumnMaxima {
    /// [`speed`] over the column's velocity cells (`k < kmu`).
    pub speed: View2<f64>,
    /// [`excess`] of `T` and of `S` over the column's tracer cells
    /// (`k < kmt`), jointly.
    pub excess: View2<f64>,
}

impl ColumnMaxima {
    pub fn new(pj: usize, pi: usize) -> Self {
        Self {
            speed: View::host("guard_speed", [pj, pi]),
            excess: View::host("guard_excess", [pj, pi]),
        }
    }
}

/// The largest entry of `view` over the packed columns `cols`, and `+0`
/// over none: a fold on the host, no launch — a 2-D field the size of one
/// level, which the passes wrote as they finished each column.
fn fold(view: &View2<f64>, cols: &ListPolicy) -> f64 {
    (cols.indices().iter()).fold(0.0, |m: f64, &idx| m.max(view.get_linear(idx as usize)))
}

/// The guard's report on the level whose owned wet columns `ucols` / `cols`
/// the column passes have just finished into `maxima`. That level's
/// `[T, S]` (`tracers`, wet down to `kmt`) are re-scanned over `cols` only
/// on a tracer trip. Local only — see the module docs for why there is no
/// collective here.
pub fn scan(
    space: &Space,
    tracers: [&View3<f64>; 2],
    kmt: &View2<i32>,
    maxima: &ColumnMaxima,
    (ucols, cols): (&ListPolicy, &ListPolicy),
    cfg: &GuardConfig,
) -> GuardReport {
    let excess = |q: &View3<f64>, bounds: (f64, f64)| {
        let f = FunctorGuardBounds {
            q: q.clone(),
            kmt: kmt.clone(),
            bounds,
        };
        parallel_reduce_list(space, cols, &f, Reducer::Max).max(0.0)
    };
    // Excesses are ≥ 0 and `max` is exact, so a zero joint excess is two
    // zero excesses; only a trip pays for the two scans that say whose it
    // is.
    let (t_excess, s_excess) = if fold(&maxima.excess, cols) == 0.0 {
        (0.0, 0.0)
    } else {
        (
            excess(tracers[0], cfg.t_bounds),
            excess(tracers[1], cfg.s_bounds),
        )
    };
    GuardReport {
        max_speed: fold(&maxima.speed, ucols),
        t_excess,
        s_excess,
    }
}

/// Register the guard reduction functors (SwAthread trampoline table).
pub fn register() {
    kernel_guard_bounds();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localgrid::LocalGrid;
    use crate::state::State;
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

    /// The owned wet velocity and T column lists.
    fn policies(g: &LocalGrid) -> [ListPolicy; 2] {
        [&g.wet.ucols_own.indices, &g.wet.cols_own.indices]
            .map(|list| ListPolicy::new(list.clone()))
    }

    /// The owned wet T cells `k < kmt`, as storage offsets, level by level.
    fn tcells(g: &LocalGrid) -> Vec<usize> {
        let (cols, level) = (&g.wet.cols_own.indices, g.pj * g.pi);
        let at = |k: usize| {
            let wet = cols
                .iter()
                .filter(move |&&idx| k < g.kmt.get_linear(idx as usize) as usize);
            wet.map(move |&idx| k * level + idx as usize)
        };
        (0..g.nz).flat_map(at).collect()
    }

    /// The owned wet velocity cells `k < kmu`, as storage offsets.
    fn ucells(g: &LocalGrid) -> Vec<usize> {
        let (cols, level) = (g.wet.ucols_own.indices.iter(), g.pj * g.pi);
        let cells = |&idx: &u32| {
            (0..g.kmu.get_linear(idx as usize) as usize).map(move |k| k * level + idx as usize)
        };
        cols.flat_map(cells).collect()
    }

    /// What the column passes leave behind for the current level of `s`:
    /// each owned wet column's maximum measure over its wet levels.
    fn maxima(g: &LocalGrid, s: &State) -> ColumnMaxima {
        let lev = s.cur();
        let (m, cfg) = (ColumnMaxima::new(g.pj, g.pi), GuardConfig::default());
        let at = |q: &View3<f64>, k, idx: usize| F64x([q.at(k, idx / g.pi, idx % g.pi)]);
        for &idx in g.wet.ucols_own.indices.iter() {
            let idx = idx as usize;
            let levels = 0..g.kmu.get_linear(idx) as usize;
            let col = levels.map(|k| speed(at(&s.u[lev], k, idx), at(&s.v[lev], k, idx)).0[0]);
            m.speed.set_linear(idx, col.fold(0.0, f64::max));
        }
        for &idx in g.wet.cols_own.indices.iter() {
            let idx = idx as usize;
            let levels = 0..g.kmt.get_linear(idx) as usize;
            let col = levels.map(|k| {
                let t = excess(at(s.t.cur(), k, idx), cfg.t_bounds);
                t.max(excess(at(s.s.cur(), k, idx), cfg.s_bounds)).0[0]
            });
            m.excess.set_linear(idx, col.fold(0.0, f64::max));
        }
        m
    }

    fn scan_of(space: &Space, s: &State, g: &LocalGrid, lists: &[ListPolicy; 2]) -> GuardReport {
        let [ucols, cols] = lists;
        let tracers = [s.t.cur(), s.s.cur()];
        let cfg = GuardConfig::default();
        scan(space, tracers, &g.kmt, &maxima(g, s), (ucols, cols), &cfg)
    }

    #[test]
    fn healthy_state_passes() {
        crate::register_all_kernels();
        let (g, s) = setup();
        let cfg = GuardConfig::default();
        let rep = scan_of(&Space::serial(), &s, &g, &policies(&g));
        assert!(rep.violation(&cfg, cfg.max_speed).is_none(), "{rep:?}");
        assert_eq!(rep.t_excess, 0.0);
        assert_eq!(rep.s_excess, 0.0);
    }

    #[test]
    fn non_finite_values_measure_infinite() {
        let cfg = GuardConfig::default();
        let odd = F64x([f64::NAN, f64::NEG_INFINITY, -0.0, -2.0]);
        let inf = f64::INFINITY;
        assert_eq!(speed(odd, F64x::splat(0.0)).0, [inf, inf, 0.0, 2.0]);
        assert_eq!(speed(F64x::splat(0.0), odd).0, [inf, inf, 0.0, 2.0]);
        assert_eq!(excess(odd, cfg.t_bounds).0, [inf, inf, 0.0, 0.0]);
        // Never `-0`: a max over measures has one set of bits.
        assert_eq!(speed(odd, odd).0[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(
            excess(F64x([-5.0]), cfg.t_bounds).0[0].to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn nan_in_wet_cell_maps_to_infinity() {
        crate::register_all_kernels();
        let (g, s) = setup();
        let c = s.cur();
        // First wet velocity cell: owned interior corner.
        s.u[c].set_linear(ucells(&g)[0], f64::NAN);
        let cfg = GuardConfig::default();
        let rep = scan_of(&Space::serial(), &s, &g, &policies(&g));
        assert_eq!(rep.max_speed, f64::INFINITY, "NaN must not be dropped");
        assert!(rep.violation(&cfg, cfg.max_speed).is_some());
    }

    #[test]
    fn tracer_out_of_bounds_is_flagged_with_magnitude() {
        crate::register_all_kernels();
        let (g, s) = setup();
        s.t.cur().set_linear(tcells(&g)[3], 145.0); // 100 above the 45 °C ceiling
        let cfg = GuardConfig::default();
        let rep = scan_of(&Space::serial(), &s, &g, &policies(&g));
        assert!((rep.t_excess - 100.0).abs() < 1e-12, "{}", rep.t_excess);
        let v = rep.violation(&cfg, cfg.max_speed).unwrap();
        assert!(v.t_excess > 0.0 && v.s_excess == 0.0);
    }

    #[test]
    fn a_trip_reports_the_per_entry_bits_on_all_spaces() {
        crate::register_all_kernels();
        let (g, s) = setup();
        let lists = policies(&g);
        let c = s.cur();
        // Ragged magnitudes, then one excursion per field; S trips too, so
        // the joint tracer excess has to be attributed.
        let ucells = ucells(&g);
        for (n, &idx) in ucells.iter().enumerate() {
            s.u[c].set_linear(idx, 1.0e-3 * (n % 97) as f64 - 0.04);
            s.v[c].set_linear(idx, 0.03 - 7.0e-4 * (n % 89) as f64);
        }
        s.v[c].set_linear(ucells[11], -3.25);
        let tcells = tcells(&g);
        s.t.cur().set_linear(tcells[5], 47.5);
        s.s.cur().set_linear(tcells[LANES + 1], 17.0);
        // A second excursion further down a column, smaller than the first.
        s.t.cur().set_linear(tcells[tcells.len() - 2], 46.0);
        let cfg = GuardConfig::default();
        // What `contribute` alone finds, column by column.
        let cols = &lists[1];
        let by_entry = |f: &dyn ReduceFunctorList| {
            let mut acc = 0.0;
            for n in cols.start..cols.end {
                f.contribute(n, cols.entry(n), &mut acc);
            }
            acc
        };
        let bounds = |q: &View3<f64>, bounds| FunctorGuardBounds {
            q: q.clone(),
            kmt: g.kmt.clone(),
            bounds,
        };
        let want = [
            3.25,
            by_entry(&bounds(s.t.cur(), cfg.t_bounds)),
            by_entry(&bounds(s.s.cur(), cfg.s_bounds)),
        ];
        assert_eq!(want, [3.25, 2.5, 1.0]);
        // The span fold pinned to the baseline ISA (the launches below fold
        // under `Isa::detect()`).
        let t = bounds(s.t.cur(), cfg.t_bounds);
        let mut acc = 0.0;
        max_span(Isa::BASELINE, cols.indices(), &mut acc, |idx| {
            t.measure(idx)
        });
        assert_eq!(acc.to_bits(), want[1].to_bits());
        for space in [
            Space::serial(),
            Space::threads(),
            Space::device_sim(),
            Space::sw_athread_with(sunway_sim::CgConfig::test_small()),
        ] {
            // Tiles shorter than, equal to and longer than a lane block.
            for tile in [3, LANES, 256] {
                let lists = lists.clone().map(|l| l.with_tile(tile));
                let rep = scan_of(&space, &s, &g, &lists);
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
