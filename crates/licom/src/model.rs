//! The LICOMK++ model driver: one object per rank, stepping the full
//! split-explicit system on a runtime-selected execution space.
//!
//! The per-step sequence — [`PHASES`], the eight rows [`Model::try_step`]
//! walks — mirrors LICOM:
//!
//! 1. the momentum pass (`momentum`): per owned wet velocity column, the
//!    baroclinic hydrostatic pressure of its corners integrated level by
//!    level from `T` / `S` into work rows, the 3-D momentum tendency and the
//!    wind stress on it, and the tendency's depth mean;
//! 2. split-explicit barotropic window forced by that mean, with
//!    per-substep 2-D halo updates and polar filtering (`barotropic`);
//! 3. the horizontal passes of the two-step shape-preserving tracer
//!    advection with a mid-pass halo update (`advection_tracer`);
//! 4. the new level's column pass (`vmix_tracer`): the *canuto* mixing
//!    coefficients into work rows, the velocity chain (leapfrog momentum
//!    update, implicit vertical friction, barotropic mode correction) and
//!    the tracer chain (vertical advection, horizontal diffusion, implicit
//!    vertical mixing, surface restoring), then one 3-D halo update of the
//!    new velocities and tracers;
//! 5. the Asselin filter and its halo update (`asselin`), both exchanges
//!    landed (`halo_drain`), then the physics guard and the step's
//!    accounting (`guard`, `telemetry`).
//!
//! Every masked kernel iterates a packed wet list ([`WetPolicies`]); the
//! momentum pass reads the old level's columns once and the column pass
//! ([`crate::columns`]) finishes the new level in one launch, leaving the
//! physics guard its per-column maxima. The
//! kernels that stay dense do so because their land writes are semantic:
//! the Asselin stream, the advection x/y passes, the barotropic substep
//! kernels and the polar filter.
//!
//! SYPD is measured as the paper measures it: wall-clock of the daily
//! loop, initialization and I/O excluded (§VI-C).

use kokkos_rs::{ListPolicy, Space, View, View1, View2};
use mpi_sim::{CartComm, Comm, ReduceOp, RetryPolicy};
use ocean_grid::{Bathymetry, GlobalGrid, ModelConfig, GRAVITY};

use halo_exchange::{FoldKind, Halo2D, Halo3D, HaloError, IntegrityConfig, Strategy3D};

use crate::baroclinic::FunctorMomentumColumns;
use crate::diag::{self, Diagnostics};
use crate::guard::{ColumnMaxima, GuardConfig, GuardViolation};
use crate::localgrid::LocalGrid;
use crate::state::State;
use crate::timers::Timers;

mod step;
pub use step::{Carry, Phase, Poster, PHASES};

/// Model configuration: the planet, the knobs of the paper's optimizations
/// (`limiter`, `overlap`), the wait schedule
/// and where post-mortem bundles land. The physics guard ([`crate::guard`],
/// default [`crate::GuardConfig`] bounds), the CRC framing of every halo
/// message and the flight recorder are always on.
#[derive(Clone)]
pub struct ModelOptions {
    pub bathymetry: Bathymetry,
    /// Two-step shape-preserving advection (false = diffusive upstream).
    pub limiter: bool,
    /// Where a posted halo exchange is finished. The step has one
    /// schedule ([`PHASES`]): every exchange is one batched split-phase
    /// message set, and tracer advection launches its interior and then its
    /// rims around the one it posts mid-phase. `true` keeps an exchange in
    /// flight under the kernels between its post and the first read of its
    /// ghosts; `false` finishes it where it is posted — same kernels, same
    /// messages, same bits, only the waits move.
    pub overlap: bool,
    /// The one timeout/backoff/jitter schedule for every deadline-bounded
    /// wait in the model: the escrow retries of the CRC-framed halo messages,
    /// step-status votes, and the elastic-recovery consensus all derive
    /// their deadlines from it.
    /// Tests shrink it ([`RetryPolicy::test_small`]) so unrecoverable
    /// paths fail fast.
    pub retry: RetryPolicy,
    /// Where the always-on flight recorder's post-mortem bundles land;
    /// `None` uses `std::env::temp_dir()/licom_flight`. Every model owns
    /// its rank's lock-free event ring (a Lamport clock piggybacks on every
    /// message), snapshotted into one bundle on any failure edge.
    pub flight_dir: Option<std::path::PathBuf>,
}

impl Default for ModelOptions {
    fn default() -> Self {
        Self {
            bathymetry: Bathymetry::earth_like(),
            limiter: true,
            overlap: true,
            retry: RetryPolicy::default(),
            flight_dir: None,
        }
    }
}

/// Why a step could not be completed. The failing rank's state is
/// whatever the partial step left behind — recover by rolling back to a
/// checkpoint ([`Model::run_steps_resilient`]), not by retrying the step
/// in place.
#[derive(Debug)]
pub enum StepError {
    /// A halo message stayed unrecoverable after the integrity layer's
    /// bounded retry.
    Halo(HaloError),
    /// The physics guard found non-finite or out-of-bound state.
    Guard(GuardViolation),
}

impl From<HaloError> for StepError {
    fn from(e: HaloError) -> Self {
        StepError::Halo(e)
    }
}

impl From<GuardViolation> for StepError {
    fn from(e: GuardViolation) -> Self {
        StepError::Guard(e)
    }
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Halo(e) => write!(f, "{e}"),
            StepError::Guard(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StepError {}

/// Prebuilt [`ListPolicy`] instances over the grid's wet sets, constructed
/// once so the steady-state step stays allocation-free. Column policies
/// carry per-column wet depth as the scheduling cost.
struct WetPolicies {
    /// Owned wet T columns — the new level's column pass, the guard's fold
    /// and its re-scan on a trip.
    cols: ListPolicy,
    /// Owned wet velocity columns (`kmu > 0`) — the momentum pass, in its
    /// tiles ([`FunctorMomentumColumns::TILE`]), and the guard's fold.
    ucols: ListPolicy,
}

impl WetPolicies {
    fn build(g: &LocalGrid) -> Self {
        let w = &g.wet;
        Self {
            cols: ListPolicy::new(w.cols_own.indices.clone())
                .with_cost_prefix(w.cols_own.cost_prefix.clone()),
            ucols: ListPolicy::new(w.ucols_own.indices.clone())
                .with_cost_prefix(w.ucols_own.cost_prefix.clone())
                .with_tile(FunctorMomentumColumns::TILE),
        }
    }
}

/// Wall-clock statistics of a timed run.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    pub steps: u64,
    pub simulated_days: f64,
    pub wall_seconds: f64,
    /// Simulated years per wall-clock day — the paper's headline metric.
    pub sypd: f64,
}

/// One rank's model instance.
pub struct Model {
    pub cfg: ModelConfig,
    pub space: Space,
    pub opts: ModelOptions,
    pub grid: LocalGrid,
    pub state: State,
    pub timers: Timers,
    comm: Comm,
    halo2: Halo2D,
    halo3: Halo3D,
    gu: View2<f64>,
    gv: View2<f64>,
    wet: WetPolicies,
    /// What the column passes leave the guard.
    maxima: ColumnMaxima,
    filter_rows: View1<i32>,
    filter_passes: usize,
    visc: f64,
    kappa: f64,
    /// Effective |u| bound for the guard: `min(max_speed, CFL·Δx/Δt)`
    /// over the *global* minimum spacing, so every rank enforces the
    /// same limit.
    guard_limit: f64,
    step_count: u64,
    flight: mpi_sim::flight::FlightCtx,
    flight_dir: std::path::PathBuf,
}

/// Pick `px × py = n` with `px ≥ py` and `nxg % px == 0` (required by the
/// north-fold exchange).
pub fn choose_dims(nranks: usize, nxg: usize) -> (usize, usize) {
    let mut py = (nranks as f64).sqrt().floor() as usize;
    while py >= 1 {
        if nranks.is_multiple_of(py) {
            let px = nranks / py;
            if nxg.is_multiple_of(px) {
                return (px, py);
            }
        }
        py -= 1;
    }
    panic!("no decomposition of {nranks} ranks divides nx={nxg}");
}

impl Model {
    /// Build a model on this rank. Collective: every rank of `comm` must
    /// call it with identical arguments.
    pub fn new(comm: &Comm, cfg: ModelConfig, space: Space, opts: ModelOptions) -> Self {
        crate::register_all_kernels();
        // Rank threads tag themselves so an attached profiler lands this
        // rank's kernel spans and regions on its own chrome-trace track.
        kokkos_profiling::set_thread_rank(comm.rank() as i64);
        let (px, py) = choose_dims(comm.size(), cfg.nx);
        let cart = CartComm::new(comm.clone(), px, py, true);
        // Both halo contexts stage strips on the model's execution space
        // (wide strips pack on CPEs instead of round-tripping the MPE).
        let halo2 = Halo2D::new(&cart, cfg.nx, cfg.ny)
            .with_space(space.clone())
            .with_integrity(IntegrityConfig::with_retry(opts.retry));
        let global = GlobalGrid::build(cfg.nx, cfg.ny, cfg.nz, &opts.bathymetry, cfg.full_depth);
        let grid = LocalGrid::build(&global, &halo2);
        // Pack/unpack kernels of the 3-D exchange dispatch on the model's
        // execution space (serial rows would throttle wide strips).
        let halo3 =
            Halo3D::new(halo2.clone(), cfg.nz, Strategy3D::Transpose).with_space(space.clone());
        let mut state = State::new(&grid);
        state.init_stratified(&grid);

        // Resolution-adaptive mixing: stable for any scaled grid.
        let dx_min = comm.allreduce_f64(grid.min_dx(), ReduceOp::Min);
        let dt = cfg.dt_baroclinic;
        let visc = (0.02 * dx_min * dx_min / dt).min(dx_min * dx_min / (16.0 * dt));
        let kappa = 0.25 * visc;
        let guard_limit = GuardConfig::default().speed_limit(dx_min, dt);

        // Polar filter rows: where the barotropic leapfrog CFL is tight.
        let c_wave = (GRAVITY * global.vert.max_depth()).sqrt();
        let dx_need = std::f64::consts::SQRT_2 * c_wave * cfg.dt_barotropic;
        let filter_rows: View1<i32> = View::host("filter_rows", [grid.pj]);
        let mut any = false;
        for jl in 0..grid.pj {
            let flag = grid.dxt.at(jl) < 1.5 * dx_need;
            filter_rows.set_at(jl, i32::from(flag));
            any |= flag;
        }
        // Agree globally on the pass count: filtering drives per-substep
        // exchanges, and a rank that filters while its neighbour doesn't
        // would deadlock on mismatched message ordinals.
        let any_global = comm.allreduce_f64(f64::from(u8::from(any)), ReduceOp::Max);
        let filter_passes = usize::from(any_global > 0.5);

        let gu: View2<f64> = View::host("gu", [grid.pj, grid.pi]);
        let gv: View2<f64> = View::host("gv", [grid.pj, grid.pi]);
        let wet = WetPolicies::build(&grid);
        let maxima = ColumnMaxima::new(grid.pj, grid.pi);

        kokkos_profiling::flight::init_bridge();
        let flight = comm.flight_ctx(mpi_sim::flight::DEFAULT_CAPACITY);
        let flight_dir = opts
            .flight_dir
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join("licom_flight"));
        let mut model = Self {
            cfg,
            space,
            opts,
            grid,
            state,
            timers: Timers::new(),
            comm: comm.clone(),
            halo2,
            halo3,
            gu,
            gv,
            wet,
            maxima,
            filter_rows,
            filter_passes,
            visc,
            kappa,
            guard_limit,
            step_count: 0,
            flight,
            flight_dir,
        };
        model.exchange_all_initial();
        model
    }

    /// Arm the flight recorder on this thread: comm-layer events (message
    /// sends/recvs, halo frames, retries) and kernel spans record into
    /// this rank's ring for the lifetime of the returned scope.
    pub fn flight_scope(&self) -> mpi_sim::flight::FlightScope {
        mpi_sim::flight::enter(self.flight.clone())
    }

    /// Record one event into this rank's flight ring, bypassing the
    /// thread-local scope (safe from any thread that holds the model).
    pub fn flight_note(&self, kind: mpi_sim::flight::FlightEventKind, a: u64, b: u64, c: u64) {
        self.flight.ring.record(&self.flight.clock, kind, a, b, c);
    }

    /// Snapshot every reachable rank ring into an atomic post-mortem
    /// bundle. At most one bundle is written per world per incident; the
    /// path of the written bundle is returned to the claiming rank.
    pub fn dump_flight(&self, reason: &str) -> Option<std::path::PathBuf> {
        kokkos_profiling::flight::dump_on_failure(&self.flight_dir, reason, &self.comm)
    }

    /// Where this model's post-mortem bundles land.
    pub fn flight_dir(&self) -> &std::path::Path {
        &self.flight_dir
    }

    /// Every level of every prognostic field: the three leapfrog levels of
    /// u and v, the two levels of η, T and S (12 exchanges).
    fn exchange_all_initial(&mut self) {
        let st = &self.state;
        for lev in 0..crate::state::LEVELS {
            self.halo3.exchange(&st.u[lev], FoldKind::Vector, 700);
            self.halo3.exchange(&st.v[lev], FoldKind::Vector, 710);
        }
        for eta in st.eta.levels() {
            self.halo2.exchange(eta, FoldKind::Scalar, 740);
        }
        for (t, s) in st.t.levels().into_iter().zip(st.s.levels()) {
            self.halo3.exchange(t, FoldKind::Scalar, 720);
            self.halo3.exchange(s, FoldKind::Scalar, 730);
        }
    }

    /// Horizontal viscosity actually in use (resolution-adaptive).
    pub fn viscosity(&self) -> f64 {
        self.visc
    }

    /// The communicator this model runs on.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The model's 3-D halo engine (for external tracer experiments).
    pub fn halo3(&self) -> &Halo3D {
        &self.halo3
    }

    /// The model's 2-D halo engine.
    pub fn halo2(&self) -> &Halo2D {
        &self.halo2
    }

    /// Simulated Sunway hardware counters, when running on the
    /// `SwAthread` space (the analogue of the paper's "job-level
    /// performance monitoring and analysis toolchain", §VI-C).
    pub fn sunway_counters(&self) -> Option<sunway_sim::CgCounters> {
        match &self.space {
            Space::SwAthread(sw) => Some(sw.counters()),
            _ => None,
        }
    }

    /// Number of polar-filter passes per barotropic substep (0 = off).
    pub fn polar_filter_passes(&self) -> usize {
        self.filter_passes
    }

    /// Advance one baroclinic step, panicking on failure. Production
    /// drivers should prefer [`Model::try_step`] (or
    /// [`Model::run_steps_resilient`]) so halo corruption and guard trips
    /// are recoverable instead of fatal.
    pub fn step(&mut self) {
        let at = self.step_count;
        self.try_step()
            .unwrap_or_else(|e| panic!("model step {at} failed: {e}"));
    }

    /// Advance one baroclinic step, surfacing halo-integrity failures and
    /// physics-guard trips as typed errors.
    ///
    /// On `Err` the prognostic state is whatever the aborted step left
    /// behind — not a usable model state. Recovery is rollback: restore a
    /// checkpoint and replay. The step body contains **no collectives**,
    /// so one rank aborting cannot strand its peers in a rendezvous; every
    /// message is CRC-framed, so peers time out on the missing messages
    /// and abort too. Every exchange of the step is sequenced by
    /// `(epoch = step, ordinal)` so leftover frames from an aborted step
    /// are either bit-identical to the replay's (deterministic traffic)
    /// or discarded as stale.
    pub fn try_step(&mut self) -> Result<(), StepError> {
        let _flight = self.flight_scope();
        let epoch = self.step_count;
        // Record the attempted step before `set_epoch`: a seeded fault
        // plan kills this rank inside `set_epoch`, and the post-mortem
        // must still show what the dying rank was about to do.
        self.flight_note(mpi_sim::flight::FlightEventKind::StepBegin, epoch, 0, 0);
        self.comm.set_epoch(epoch);
        self.halo2.begin_step(epoch);
        self.halo3.begin_step(epoch);
        // The step borrows the model shared for as long as an exchange it
        // carries is in flight; the one thing it mutates, the timers, rides
        // in it and comes back on `Ok` and on `Err` alike.
        let timers = std::mem::take(&mut self.timers);
        let mut step = step::Step::begin(self, timers);
        let res = PHASES.iter().try_for_each(|phase| step.run(phase));
        self.timers = step.timers;
        res?;
        self.flight_note(mpi_sim::flight::FlightEventKind::StepEnd, epoch, 0, 0);
        self.step_count += 1;
        self.state.rotate();
        Ok(())
    }

    /// Zero every non-prognostic work array — the new velocity level
    /// included, which nothing reads before the step writes it and the
    /// checkpoint image does not carry — so a model restored from a
    /// checkpoint is indistinguishable from a freshly constructed one that
    /// loaded the same state. Asserted bitwise by the checkpoint round-trip
    /// tests.
    pub fn reset_transients(&mut self) {
        let s = &mut self.state;
        let n = s.new_lev();
        for v in [&s.u[n], &s.v[n]] {
            v.fill(0.0);
        }
        for b in &s.work.adv_band {
            b.data().fill(0.0);
        }
        s.work.filter2.fill(0.0);
        s.work.acc_eta.fill(0.0);
        s.work.acc_u.fill(0.0);
        s.work.acc_v.fill(0.0);
        for lev in 0..crate::state::LEVELS {
            s.bt_eta[lev].fill(0.0);
            s.bt_u[lev].fill(0.0);
            s.bt_v[lev].fill(0.0);
        }
        self.gu.fill(0.0);
        self.gv.fill(0.0);
        self.maxima.speed.fill(0.0);
        self.maxima.excess.fill(0.0);
    }

    /// Cumulative halo receive-wait nanoseconds on this rank (shared by
    /// the 2-D and 3-D halo engines).
    pub fn halo_wait_ns(&self) -> u64 {
        self.halo2.halo_wait_ns()
    }

    /// Cumulative nanoseconds exchanges spent in flight (begin → done)
    /// on this rank — concurrent spans add, so this is "communication ·
    /// seconds" available for overlap accounting.
    pub fn halo_inflight_ns(&self) -> u64 {
        self.halo2.halo_inflight_ns()
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step_count
    }

    /// Overwrite the step counter (restart resume).
    pub fn set_steps_taken(&mut self, n: u64) {
        self.step_count = n;
    }

    /// Advance `n` steps.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run `days` simulated days and report throughput, measuring only
    /// the daily loop (the paper's SYPD definition).
    pub fn run_days(&mut self, days: f64) -> StepStats {
        let steps = ((days * 86_400.0) / self.cfg.dt_baroclinic).round() as usize;
        let t0 = std::time::Instant::now();
        self.timers.start("daily_loop");
        self.run_steps(steps);
        self.timers.stop("daily_loop");
        let wall = t0.elapsed().as_secs_f64();
        let sim_days = steps as f64 * self.cfg.dt_baroclinic / 86_400.0;
        StepStats {
            steps: steps as u64,
            simulated_days: sim_days,
            wall_seconds: wall,
            sypd: (sim_days / 365.0) / (wall / 86_400.0),
        }
    }

    /// Local diagnostics at the current level.
    pub fn diagnostics(&self) -> Diagnostics {
        let c = self.state.cur();
        diag::local_diagnostics(
            &self.space,
            &self.grid,
            &self.state.u[c],
            &self.state.v[c],
            self.state.t.cur(),
            self.state.s.cur(),
        )
    }

    /// Deterministic fingerprint of the prognostic state.
    pub fn checksum(&self) -> u64 {
        self.state.checksum()
    }

    /// Global (allreduced) tracer inventory of temperature — the
    /// conservation metric.
    pub fn global_heat_content(&self) -> f64 {
        let d = self.diagnostics();
        self.comm.allreduce_f64(d.heat_content, ReduceOp::Sum)
    }
}
