//! Cold start — where `Model::new` spends its time, stage by stage, on the
//! grid of each `licom_bench` workload (public API only).
//!
//! ```text
//! cargo run --release --example cold_start
//! ```
//! Three repeats a row. Each repeat is two worlds, as a benchmark episode
//! or a served job is one: the first builds a whole model and drops it, the
//! second runs the constructor's stages on their own — so both start on a
//! fresh rank thread, and from the second line on the allocator hands back
//! pages the process has used before. Times are the slowest rank's, in
//! milliseconds; `init/new` is `init_stratified` over `Model::new`, and
//! `State MiB` is what one rank's `State` keeps resident
//! (`State::resident_bytes`). This prints the stage table of EXPERIMENTS.md
//! "Cold start".

use std::time::Instant;

use licomkpp::grid::{GlobalGrid, ModelConfig, Resolution};
use licomkpp::halo::Halo2D;
use licomkpp::kokkos::Space;
use licomkpp::model::localgrid::LocalGrid;
use licomkpp::model::model::choose_dims;
use licomkpp::model::state::State;
use licomkpp::model::{Model, ModelOptions};
use licomkpp::mpi::{CartComm, World};

const REPEATS: usize = 3;

/// `[Model::new, GlobalGrid::build, LocalGrid::build, State::new,
/// init_stratified]`, each the slowest rank's, in milliseconds, then the
/// largest rank's `State` in MiB.
type Stages = [f64; 6];

fn ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn slowest<const N: usize>(per_rank: Vec<[f64; N]>) -> [f64; N] {
    let mut out = [0.0; N];
    for rank in &per_rank {
        for (s, &x) in out.iter_mut().zip(rank) {
            *s = f64::max(*s, x);
        }
    }
    out
}

fn stages(cfg: &ModelConfig, ranks: usize) -> Stages {
    let opts = ModelOptions::default();
    let [new_ms] = slowest(World::run(ranks, |comm| {
        [ms(|| Model::new(comm, cfg.clone(), Space::serial(), opts.clone())).1]
    }));
    let [global_ms, local_ms, state_ms, init_ms, state_mib] = slowest(World::run(ranks, |comm| {
        let (global, global_ms) =
            ms(|| GlobalGrid::build(cfg.nx, cfg.ny, cfg.nz, &opts.bathymetry, cfg.full_depth));
        let (px, py) = choose_dims(comm.size(), cfg.nx);
        let halo = Halo2D::new(&CartComm::new(comm.clone(), px, py, true), cfg.nx, cfg.ny);
        let (grid, local_ms) = ms(|| LocalGrid::build(&global, &halo));
        let (mut state, state_ms) = ms(|| State::new(&grid));
        let ((), init_ms) = ms(|| state.init_stratified(&grid));
        assert!(!state.has_nan());
        let state_mib = state.resident_bytes() as f64 / (1 << 20) as f64;
        [global_ms, local_ms, state_ms, init_ms, state_mib]
    }));
    [new_ms, global_ms, local_ms, state_ms, init_ms, state_mib]
}

fn main() {
    let eddy = |div, nz| Resolution::Eddy10km.config().scaled_down(div, nz);
    let rows = [
        ("kernel_serial_1r", eddy(20, 30), 1),
        ("cpe_swathread_1r", eddy(30, 30), 1),
        ("halo_serial_2r", eddy(60, 6), 2),
        ("ensemble_serve (pilot)", eddy(60, 6), 1),
    ];
    println!(
        "{:<24} {:>11} {:>5} | {:>10} {:>11} {:>10} {:>10} {:>10} {:>9} | {:>9}",
        "workload",
        "grid",
        "ranks",
        "Model::new",
        "GlobalGrid",
        "LocalGrid",
        "State::new",
        "init_strat",
        "init/new",
        "State MiB"
    );
    for (name, cfg, ranks) in &rows {
        let grid = format!("{}x{}x{}", cfg.nx, cfg.ny, cfg.nz);
        for _ in 0..REPEATS {
            let [new, global, local, state, init, mib] = stages(cfg, *ranks);
            println!(
                "{name:<24} {grid:>11} {ranks:>5} | {new:>10.2} {global:>11.2} {local:>10.2} {state:>10.2} {init:>10.2} {:>9.2} | {mib:>9.2}",
                init / new
            );
        }
    }
}
