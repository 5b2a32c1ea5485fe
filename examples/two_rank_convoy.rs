//! The two-rank convoy — a slow mode of the `halo_serial_2r` grid, shown
//! with the public API.
//!
//! ```text
//! cargo run --release --example two_rank_convoy [-- RUNS STEPS]
//! ```
//! Two ranks step 60×38×6 (`Eddy10km` / 60, 6 levels) on `Space::serial()`,
//! as the referee's `halo_serial_2r` does: `RUNS` fresh worlds (default 6)
//! of one forward step and `STEPS` timed ones (default 300). A step is timed
//! on each rank and counted at the slower; it is *slow* when it takes more
//! than twice the lowest median of the runs. Per run this prints the
//! step-time quantiles, the slow steps and the longest stretch of
//! consecutive ones, and over the quiet and the slow steps apart the mean
//! `barotropic` phase time and the time spent inside halo receives
//! (`halo_wait_ns`, the wait of a carried exchange's `finish`), both the
//! slower rank's. Times are in ms. This prints the table of EXPERIMENTS.md
//! "The two-rank convoy".

use std::time::Instant;

use licomkpp::grid::Resolution;
use licomkpp::kokkos::Space;
use licomkpp::model::{Model, ModelOptions};
use licomkpp::mpi::World;

/// One step on one rank: wall, `barotropic` phase and halo-receive time, ms.
type Step = [f64; 3];

fn run(steps: usize) -> Vec<Step> {
    let cfg = Resolution::Eddy10km.config().scaled_down(60, 6);
    let per_rank = World::run(2, |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), ModelOptions::default());
        m.run_steps(1);
        (0..steps)
            .map(|_| {
                let (bt0, wait0) = (
                    m.timers.seconds("barotropic"),
                    m.timers.count("halo_wait_ns"),
                );
                let t0 = Instant::now();
                m.step();
                [
                    t0.elapsed().as_secs_f64() * 1e3,
                    (m.timers.seconds("barotropic") - bt0) * 1e3,
                    (m.timers.count("halo_wait_ns") - wait0) as f64 * 1e-6,
                ]
            })
            .collect::<Vec<Step>>()
    });
    (0..steps)
        .map(|s| std::array::from_fn(|k| per_rank.iter().map(|r| r[s][k]).fold(0.0, f64::max)))
        .collect()
}

/// The `q`-quantile of sorted `xs` (nearest rank).
fn quantile(xs: &[f64], q: f64) -> f64 {
    xs[((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1]
}

/// Mean barotropic and receive time over the steps `pick` selects.
fn means(steps: &[Step], pick: impl Fn(&Step) -> bool) -> String {
    let chosen: Vec<&Step> = steps.iter().filter(|s| pick(s)).collect();
    if chosen.is_empty() {
        return format!("{:>7} {:>7}", "-", "-");
    }
    let mean = |k: usize| chosen.iter().map(|s| s[k]).sum::<f64>() / chosen.len() as f64;
    format!("{:>7.3} {:>7.3}", mean(1), mean(2))
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a count"))
        .collect();
    let (runs, steps) = (
        args.first().copied().unwrap_or(6),
        args.get(1).copied().unwrap_or(300),
    );
    println!(
        "{:>3} | {:>6} {:>6} {:>6} {:>7} {:>6} | {:>4} {:>6} | {:>15} | {:>15}",
        "run",
        "p50",
        "p90",
        "p99",
        "p99.9",
        "max",
        "slow",
        "stretch",
        "quiet bt  wait",
        "slow bt  wait"
    );
    let runs: Vec<(Vec<Step>, Vec<f64>)> = (0..runs)
        .map(|_| {
            let steps = run(steps);
            let mut wall: Vec<f64> = steps.iter().map(|s| s[0]).collect();
            wall.sort_by(f64::total_cmp);
            (steps, wall)
        })
        .collect();
    let normal = runs
        .iter()
        .map(|(_, wall)| quantile(wall, 0.5))
        .fold(f64::MAX, f64::min);
    let slow = |s: &Step| s[0] > 2.0 * normal;
    for (r, (steps, wall)) in runs.iter().enumerate() {
        let (mut stretch, mut longest) = (0, 0);
        for s in steps {
            stretch = if slow(s) { stretch + 1 } else { 0 };
            longest = longest.max(stretch);
        }
        println!(
            "{r:>3} | {:>6.3} {:>6.3} {:>6.3} {:>7.3} {:>6.3} | {:>4} {longest:>6} | {} | {}",
            quantile(wall, 0.5),
            quantile(wall, 0.9),
            quantile(wall, 0.99),
            quantile(wall, 0.999),
            wall[wall.len() - 1],
            steps.iter().filter(|s| slow(s)).count(),
            means(steps, |s| !slow(s)),
            means(steps, slow),
        );
    }
}
