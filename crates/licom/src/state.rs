//! Prognostic and diagnostic model state.
//!
//! The velocities are leapfrogged, so they have three time levels (`old`,
//! `cur`, `new`); [`State::rotate`] cycles the roles without copying (Views
//! are shallow handles). The tracers and the surface height are read at
//! `cur` and written at `new` — the barotropic window starts from `η[cur]`
//! and leaves its average in `η[new]` — and nothing reads their `old`, so
//! they have two levels ([`TwoLevel`]), whose handles `rotate` swaps. The
//! momentum tendency is no field either: it is computed into the new
//! velocity level, which the new level's column pass reads it from and
//! overwrites ([`crate::columns::VelocityChain`]). No diagnostic is a
//! field: the momentum pass keeps pressure and density in work rows
//! ([`crate::baroclinic::FunctorMomentumColumns`]), and the column pass the
//! vertical velocity and the mixing coefficients. All step-transient scratch lives in [`Workspace`], allocated once
//! at construction so [`crate::Model::step`] never touches the heap in
//! steady state.

use halo_exchange::RowBand;
use kokkos_rs::{View, View2, View3};

use crate::constants;
use crate::localgrid::LocalGrid;

/// Number of leapfrog time levels.
pub const LEVELS: usize = 3;

/// A field of rank `R` stepped forward in time: the current level a step
/// reads and the new level it writes. [`State::rotate`] swaps the two
/// handles, so between steps the new level holds the previous current
/// level — the `old` role of [`State::checksum`] and of the checkpoint
/// image. There is no leapfrog index into it: a step names the level it
/// means.
pub struct TwoLevel<const R: usize = 3> {
    cur: View<f64, R>,
    new: View<f64, R>,
}

impl<const R: usize> TwoLevel<R> {
    fn new(label: &str, dims: [usize; R]) -> Self {
        Self {
            cur: View::host(&format!("{label}_cur"), dims),
            new: View::host(&format!("{label}_new"), dims),
        }
    }

    /// The level a step reads.
    pub fn cur(&self) -> &View<f64, R> {
        &self.cur
    }

    /// The level a step writes.
    pub fn next(&self) -> &View<f64, R> {
        &self.new
    }

    /// Between steps, the previous current level: the buffer the next step
    /// writes, so it means nothing once a step has begun.
    pub fn old(&self) -> &View<f64, R> {
        &self.new
    }

    /// Both buffers.
    pub fn levels(&self) -> [&View<f64, R>; 2] {
        [&self.cur, &self.new]
    }

    fn swap(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.new);
    }
}

/// Preallocated per-step scratch. Everything a step needs transiently is
/// sized once from the grid here; kernels and solvers borrow it instead
/// of allocating (the zero-allocation steady-state guarantee — the halo
/// message side of the same guarantee lives in `mpi-sim`'s buffer pools).
pub struct Workspace {
    /// Advection: the two tracers' intermediate between the x and y
    /// passes, on the rows the rims read and the exchange moves only
    /// (the interior's lives in the wavefront's per-thread ring).
    pub adv_band: [RowBand; 2],
    /// Polar filter: 2-D destination buffer.
    pub filter2: View2<f64>,
    /// Barotropic window accumulators (η, u, v), zeroed at window entry.
    pub acc_eta: View2<f64>,
    pub acc_u: View2<f64>,
    pub acc_v: View2<f64>,
}

impl Workspace {
    pub fn new(g: &LocalGrid) -> Self {
        let d3 = [g.nz, g.pj, g.pi];
        let d2 = [g.pj, g.pi];
        Self {
            adv_band: [RowBand::new("adv_band0", d3), RowBand::new("adv_band1", d3)],
            filter2: View::host("filter2", d2),
            acc_eta: View::host("acc_eta", d2),
            acc_u: View::host("acc_u", d2),
            acc_v: View::host("acc_v", d2),
        }
    }
}

/// Full model state on one rank (padded local arrays).
pub struct State {
    // Leapfrogged prognostics, three time levels each.
    pub u: [View3<f64>; LEVELS],
    pub v: [View3<f64>; LEVELS],
    // Surface height and tracers, stepped forward: two levels each.
    pub eta: TwoLevel<2>,
    pub t: TwoLevel,
    pub s: TwoLevel,
    // Barotropic transports (window-averaged, current).
    pub ubt: View2<f64>,
    pub vbt: View2<f64>,
    /// Preallocated per-step scratch (the advection band, the filter
    /// buffer, the barotropic window accumulators).
    pub work: Workspace,
    // Barotropic solver work arrays (three leapfrog levels each).
    pub bt_eta: [View2<f64>; LEVELS],
    pub bt_u: [View2<f64>; LEVELS],
    pub bt_v: [View2<f64>; LEVELS],
    // Time-level roles: indices into the arrays above.
    old: usize,
    cur: usize,
    new: usize,
}

impl State {
    /// Allocate a zeroed state for the given local grid.
    pub fn new(g: &LocalGrid) -> Self {
        let d3 = [g.nz, g.pj, g.pi];
        let d2 = [g.pj, g.pi];
        let v3 = |label: &str| -> [View3<f64>; LEVELS] {
            [
                View::host(&format!("{label}0"), d3),
                View::host(&format!("{label}1"), d3),
                View::host(&format!("{label}2"), d3),
            ]
        };
        Self {
            u: v3("u"),
            v: v3("v"),
            t: TwoLevel::new("t", d3),
            s: TwoLevel::new("s", d3),
            eta: TwoLevel::new("eta", d2),
            ubt: View::host("ubt", d2),
            vbt: View::host("vbt", d2),
            work: Workspace::new(g),
            bt_eta: [
                View::host("bt_eta0", d2),
                View::host("bt_eta1", d2),
                View::host("bt_eta2", d2),
            ],
            bt_u: [
                View::host("bt_u0", d2),
                View::host("bt_u1", d2),
                View::host("bt_u2", d2),
            ],
            bt_v: [
                View::host("bt_v0", d2),
                View::host("bt_v1", d2),
                View::host("bt_v2", d2),
            ],
            old: 0,
            cur: 1,
            new: 2,
        }
    }

    pub fn old(&self) -> usize {
        self.old
    }

    pub fn cur(&self) -> usize {
        self.cur
    }

    pub fn new_lev(&self) -> usize {
        self.new
    }

    /// Advance the leapfrog roles: new → cur, cur → old, old recycled;
    /// swap the current and new levels of η and the tracers.
    pub fn rotate(&mut self) {
        let o = self.old;
        self.old = self.cur;
        self.cur = self.new;
        self.new = o;
        self.eta.swap();
        self.t.swap();
        self.s.swap();
    }

    /// Every array the state holds — prognostics and scratch — the 3-D
    /// ones and the 2-D ones.
    fn arrays(
        &self,
    ) -> (
        impl Iterator<Item = &View3<f64>>,
        impl Iterator<Item = &View2<f64>>,
    ) {
        let w = &self.work;
        let tracers = self.t.levels().into_iter().chain(self.s.levels());
        let level3 = [&self.u, &self.v].into_iter().flatten().chain(tracers);
        let band = w.adv_band.iter().map(RowBand::data);
        let single2 = [
            &self.ubt, &self.vbt, &w.filter2, &w.acc_eta, &w.acc_u, &w.acc_v,
        ];
        let level2 = [&self.bt_eta, &self.bt_u, &self.bt_v]
            .into_iter()
            .flatten()
            .chain(self.eta.levels());
        (band.chain(level3), single2.into_iter().chain(level2))
    }

    /// Bytes of every array the state holds (the padded block, scratch
    /// included): what a rank keeps resident for its model state.
    pub fn resident_bytes(&self) -> usize {
        let (v3, v2) = self.arrays();
        8 * (v3.map(View3::len).sum::<usize>() + v2.map(View2::len).sum::<usize>())
    }

    /// Initialise a stratified, resting ocean: latitude-dependent SST
    /// decaying exponentially with depth, uniform salinity with a small
    /// deterministic perturbation (seeds baroclinic eddies), zero flow.
    /// Land cells hold reference values (masked out of the dynamics).
    ///
    /// Every transcendental factor depends on one index, so it is computed
    /// once per level, row or column; each cell then combines the factors
    /// in the closed form's own association (the tests hold the result to
    /// that form bit for bit). The tracers' current level is written once,
    /// their new level is a copy of it.
    pub fn init_stratified(&mut self, g: &LocalGrid) {
        let per_level: Vec<[f64; 2]> = (g.z_t.as_slice().iter())
            .map(|&z| [(-z / 800.0).exp(), (-z / 1000.0).exp()])
            .collect();
        let per_row: Vec<[f64; 3]> = (g.lat.as_slice().iter())
            .map(|&lat| {
                // Surface temperature: warm tropics, cold poles.
                let sst = 28.0 * (lat.to_radians().cos()).powi(2) - 1.0;
                let c7 = (lat.to_radians() * 7.0).cos();
                [sst, c7, 0.02 * (lat / 30.0).tanh()]
            })
            .collect();
        let per_col: Vec<f64> = (g.lon.as_slice().iter())
            .map(|&lon| (lon.to_radians() * 6.0).sin())
            .collect();
        for (k, &[e800, e1000]) in per_level.iter().enumerate() {
            for (jl, &[sst, c7, tl]) in per_row.iter().enumerate() {
                let tz = 2.0 + (sst - 2.0) * e800;
                let salt = constants::S_REF + 0.5 * e1000 - tl;
                for (il, &s6) in per_col.iter().enumerate() {
                    // Deterministic mesoscale-seed perturbation.
                    let pert = 0.05 * (s6 * c7);
                    self.t.cur.set_at(k, jl, il, tz + pert);
                    self.s.cur.set_at(k, jl, il, salt);
                }
            }
        }
        for q in [&self.t, &self.s] {
            q.new.copy_from_slice(q.cur.as_slice());
        }
        for lev in 0..LEVELS {
            self.u[lev].fill(0.0);
            self.v[lev].fill(0.0);
        }
        for eta in self.eta.levels() {
            eta.fill(0.0);
        }
        self.ubt.fill(0.0);
        self.vbt.fill(0.0);
    }

    /// A 64-bit FNV hash over the bit patterns of all prognostic fields —
    /// the cross-backend / restart reproducibility fingerprint.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bits: u64| {
            h ^= bits;
            h = h.wrapping_mul(0x100000001b3);
        };
        let roles = [
            (self.old, self.t.old(), self.s.old(), self.eta.old()),
            (self.cur, self.t.cur(), self.s.cur(), self.eta.cur()),
        ];
        for (lev, t, s, eta) in roles {
            for f in [&self.u[lev], &self.v[lev], t, s] {
                for &x in f.as_slice() {
                    eat(x.to_bits());
                }
            }
            for &x in eta.as_slice() {
                eat(x.to_bits());
            }
        }
        h
    }

    /// True if any prognostic value is non-finite.
    pub fn has_nan(&self) -> bool {
        let check = |v: &View3<f64>| v.as_slice().iter().any(|x| !x.is_finite());
        let check2 = |v: &View2<f64>| v.as_slice().iter().any(|x| !x.is_finite());
        let tracers = self.t.levels().into_iter().chain(self.s.levels());
        (0..LEVELS).any(|l| check(&self.u[l]) || check(&self.v[l]))
            || self.eta.levels().into_iter().any(check2)
            || tracers.into_iter().any(check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_exchange::Halo2D;
    use mpi_sim::{CartComm, World};
    use ocean_grid::{Bathymetry, GlobalGrid, ModelConfig, Resolution};

    /// Every rank's padded block of `global`, decomposed as `Model::new`
    /// decomposes it.
    fn locals(global: &GlobalGrid, ranks: usize) -> Vec<LocalGrid> {
        let (px, py) = crate::model::choose_dims(ranks, global.nx());
        World::run(ranks, |comm| {
            let cart = CartComm::new(comm.clone(), px, py, true);
            let halo = Halo2D::new(&cart, global.nx(), global.ny());
            LocalGrid::build(global, &halo)
        })
    }

    fn local() -> LocalGrid {
        let global = GlobalGrid::build(16, 10, 5, &Bathymetry::Flat(4000.0), false);
        locals(&global, 1).pop().unwrap()
    }

    impl State {
        /// The per-cell closed form — six libm calls a cell, every level
        /// written on its own — that `init_stratified` is held to.
        fn init_stratified_reference(&mut self, g: &LocalGrid) {
            for lev in 0..LEVELS {
                let tracers = [self.t.levels()[lev % 2], self.s.levels()[lev % 2]];
                for k in 0..g.nz {
                    let z = g.z_t.at(k);
                    for jl in 0..g.pj {
                        let lat = g.lat.at(jl);
                        let sst = 28.0 * (lat.to_radians().cos()).powi(2) - 1.0;
                        for il in 0..g.pi {
                            let lon = g.lon.at(il);
                            let tz = 2.0 + (sst - 2.0) * (-z / 800.0).exp();
                            let pert = 0.05
                                * ((lon.to_radians() * 6.0).sin() * (lat.to_radians() * 7.0).cos());
                            tracers[0].set_at(k, jl, il, tz + pert);
                            tracers[1].set_at(
                                k,
                                jl,
                                il,
                                constants::S_REF + 0.5 * (-z / 1000.0).exp()
                                    - 0.02 * (lat / 30.0).tanh(),
                            );
                            self.u[lev].set_at(k, jl, il, 0.0);
                            self.v[lev].set_at(k, jl, il, 0.0);
                        }
                    }
                }
                self.eta.levels()[lev % 2].fill(0.0);
            }
            self.ubt.fill(0.0);
            self.vbt.fill(0.0);
        }

        /// The fields an init owns, in a fixed order.
        fn initialised(&self) -> Vec<&[f64]> {
            let mut f = vec![self.ubt.as_slice(), self.vbt.as_slice()];
            for l in 0..LEVELS {
                f.extend([&self.u[l], &self.v[l]].map(|v| v.as_slice()));
            }
            f.extend(self.eta.levels().map(|v| v.as_slice()));
            let tracers = self.t.levels().into_iter().chain(self.s.levels());
            f.extend(tracers.map(|v| v.as_slice()));
            f
        }

        /// NaN in every field, diagnostics and scratch included.
        fn scribble(&self) {
            let (v3, v2) = self.arrays();
            v3.for_each(|v| v.fill(f64::NAN));
            v2.for_each(|v| v.fill(f64::NAN));
        }
    }

    fn assert_same_bits(got: &State, want: &State, what: &str) {
        for (n, (a, b)) in got.initialised().iter().zip(want.initialised()).enumerate() {
            let same =
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{what}: initialised field #{n} differs");
        }
    }

    #[test]
    fn rotate_cycles_roles() {
        let g = local();
        let mut s = State::new(&g);
        let (o, c, n) = (s.old(), s.cur(), s.new_lev());
        s.rotate();
        assert_eq!(s.old(), c);
        assert_eq!(s.cur(), n);
        assert_eq!(s.new_lev(), o);
        s.rotate();
        s.rotate();
        assert_eq!((s.old(), s.cur(), s.new_lev()), (o, c, n));
    }

    /// The tracers' two handles trade places on every rotate — the new
    /// level becomes current and the current one is the next step's to
    /// write — and never name one buffer.
    #[test]
    fn rotate_alternates_the_tracer_levels() {
        let g = local();
        let mut s = State::new(&g);
        let ptr = |v: &View3<f64>| v.as_slice().as_ptr();
        for q in [&s.t, &s.s] {
            q.cur().fill(1.0);
            q.next().fill(2.0);
        }
        let (t0, s0) = (s.t.levels().map(ptr), s.s.levels().map(ptr));
        for step in 0..4 {
            s.rotate();
            let want = |[cur, new]: [*const f64; 2]| {
                if step % 2 == 0 {
                    [new, cur]
                } else {
                    [cur, new]
                }
            };
            assert_eq!(s.t.levels().map(ptr), want(t0), "after rotate {step}");
            assert_eq!(s.s.levels().map(ptr), want(s0), "after rotate {step}");
            for q in [&s.t, &s.s] {
                assert_ne!(ptr(q.cur()), ptr(q.next()), "cur aliases new");
                assert_eq!(ptr(q.old()), ptr(q.next()));
            }
            let all = [t0, s0].concat();
            assert!((0..4).all(|a| (0..a).all(|b| all[a] != all[b])));
            let cur = if step % 2 == 0 { 2.0 } else { 1.0 };
            assert!(s.t.cur().as_slice().iter().all(|&x| x == cur));
            assert!(s.s.old().as_slice().iter().all(|&x| x == 3.0 - cur));
        }
    }

    #[test]
    fn init_is_stratified_and_finite() {
        let g = local();
        let mut s = State::new(&g);
        s.init_stratified(&g);
        assert!(!s.has_nan());
        let c = s.cur();
        // Temperature decreases with depth at a tropical column.
        let jl = g.pj / 2;
        let il = g.pi / 2;
        for k in 1..g.nz {
            assert!(s.t.cur().at(k, jl, il) < s.t.cur().at(k - 1, jl, il) + 0.2);
        }
        // Ocean at rest.
        assert!(s.u[c].as_slice().iter().all(|&x| x == 0.0));
    }

    /// The table-driven init against the closed form, bit for bit, on the
    /// two serving grids and a basin — on one rank and on three, whose
    /// padded `lat`/`lon` run across the periodic seam and the north fold.
    #[test]
    fn init_matches_the_closed_form_bit_for_bit() {
        let basin = Bathymetry::Basin {
            lon0: 60.0,
            lon1: 300.0,
            lat0: -50.0,
            lat1: 50.0,
            depth: 4000.0,
        };
        let eddy = |div, nz| Resolution::Eddy10km.config().scaled_down(div, nz);
        let cases: [(ModelConfig, Bathymetry); 3] = [
            (eddy(120, 4), Bathymetry::earth_like()),
            (eddy(60, 6), Bathymetry::earth_like()),
            (eddy(120, 4), basin),
        ];
        for (cfg, bathy) in &cases {
            let global = GlobalGrid::build(cfg.nx, cfg.ny, cfg.nz, bathy, cfg.full_depth);
            for ranks in [1, 3] {
                for (rank, g) in locals(&global, ranks).iter().enumerate() {
                    let (mut got, mut want) = (State::new(g), State::new(g));
                    got.init_stratified(g);
                    want.init_stratified_reference(g);
                    let what = format!("{} {bathy:?}, rank {rank} of {ranks}", cfg.name);
                    assert_same_bits(&got, &want, &what);
                    assert_eq!(got.checksum(), want.checksum(), "{what}");
                }
            }
        }
    }

    /// `init_stratified` is public and is called on states that have been
    /// stepped: it must write everything it owns, not lean on the zeroes
    /// of a fresh allocation.
    #[test]
    fn init_overwrites_a_scribbled_state() {
        let g = local();
        let (mut fresh, mut used) = (State::new(&g), State::new(&g));
        fresh.init_stratified(&g);
        used.scribble();
        assert!(used
            .initialised()
            .iter()
            .all(|f| f.iter().all(|x| x.is_nan())));
        used.init_stratified(&g);
        assert_same_bits(&used, &fresh, "scribbled");
        assert!(!used.has_nan());
    }

    /// The resident count is the sum of the arrays, each counted once.
    #[test]
    fn resident_bytes_count_every_array_once() {
        let g = local();
        let s = State::new(&g);
        let (c3, c2) = (g.nz * g.pj * g.pi, g.pj * g.pi);
        let band: usize = s.work.adv_band.iter().map(|b| b.data().len()).sum();
        // u, v: 3 levels; t, s: 2; eta: 2 levels; the three barotropic
        // work triples; ubt, vbt and the four window buffers.
        let words = (6 + 4) * c3 + band + (2 + 3 * 3 + 6) * c2;
        assert_eq!(s.resident_bytes(), 8 * words);
    }

    /// One rank's state on the `kernel_serial_1r` grid, 180×115×30, as a
    /// literal that may only fall: 10 padded 3-D fields, the two advection
    /// bands and 17 2-D fields (53.97 MiB). `examples/cold_start.rs`
    /// prints the same figure in its `State MiB` column.
    #[test]
    fn resident_bytes_at_the_benchmark_grid() {
        let global = GlobalGrid::build(180, 115, 30, &Bathymetry::Flat(4000.0), false);
        let g = locals(&global, 1).pop().unwrap();
        assert_eq!(State::new(&g).resident_bytes(), 56_588_096);
    }

    /// Every array of a fresh state starts on a 64-byte line and reads
    /// `+0`, whatever the heap held before: on a worker thread, a model is
    /// built, its state scribbled with NaN and the model dropped, and then
    /// a state of the same grid is allocated from the chunks it gave back —
    /// in a loop, so later rounds reuse what earlier ones freed.
    #[test]
    fn fresh_arrays_are_aligned_and_zero_after_a_dirty_heap() {
        use crate::model::{Model, ModelOptions};
        let cfg = Resolution::Eddy10km.config().scaled_down(120, 4);
        let opts = ModelOptions::default();
        let global = GlobalGrid::build(cfg.nx, cfg.ny, cfg.nz, &opts.bathymetry, cfg.full_depth);
        let g = locals(&global, 1).pop().unwrap();
        let worker = std::thread::spawn(move || {
            let comm = World::solo();
            for round in 0..4 {
                let m = Model::new(&comm, cfg.clone(), kokkos_rs::Space::serial(), opts.clone());
                m.state.scribble();
                drop(m);
                let fresh = State::new(&g);
                let (v3, v2) = fresh.arrays();
                let lines = v3.map(|v| (v.data_ptr() as usize, v.as_slice()));
                let lines = lines.chain(v2.map(|v| (v.data_ptr() as usize, v.as_slice())));
                for (n, (addr, data)) in lines.enumerate() {
                    assert_eq!(
                        addr % kokkos_rs::view::ALIGN,
                        0,
                        "round {round}, array #{n}"
                    );
                    assert!(
                        data.iter().all(|x| x.to_bits() == 0),
                        "round {round}, array #{n} is not +0"
                    );
                }
            }
        });
        worker.join().unwrap();
    }

    #[test]
    fn checksum_distinguishes_states() {
        let g = local();
        let mut a = State::new(&g);
        a.init_stratified(&g);
        let ha = a.checksum();
        let mut b = State::new(&g);
        b.init_stratified(&g);
        assert_eq!(ha, b.checksum(), "identical init → identical checksum");
        b.t.cur().set_at(0, 3, 3, 99.0);
        assert_ne!(ha, b.checksum(), "perturbation must change checksum");
    }

    #[test]
    fn nan_detection() {
        let g = local();
        let mut s = State::new(&g);
        s.init_stratified(&g);
        assert!(!s.has_nan());
        s.v[0].set_at(0, 0, 0, f64::NAN);
        assert!(s.has_nan());
    }
}
