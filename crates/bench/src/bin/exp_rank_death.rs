//! Rank-death MTTR sweep — detection latency and recovery wall-clock as
//! a function of checkpoint interval and ring depth K, at 4 and 16
//! ranks.
//!
//! One rank is seeded to die while the group attempts step 4 of 6. The
//! elastic driver detects the death (typed `PeerDead` from the step
//! vote), recruits a spare through survivor consensus, restores the
//! newest commonly-held ring image, and replays. Detection latency is
//! near-constant (registry-backed, not timeout-bound); the replay share
//! of MTTR grows with the checkpoint interval, which is the trade this
//! table quantifies. Ring depth K only matters when slots are scarce:
//! K = 1 holds exactly one image, so a long interval forces deep
//! rollback to whatever that slot holds.
#![allow(clippy::field_reassign_with_default)]

use bench::banner;
use licom::checkpoint::RecoveryPolicy;
use licom::elastic::{run_elastic, ElasticConfig, ElasticOutcome, ElasticStats};
use licom::model::ModelOptions;
use mpi_sim::{FaultPlan, RetryPolicy, World, WorldConfig};
use ocean_grid::Resolution;

const STEPS: u64 = 6;
const DEATH_EPOCH: u64 = 3; // dies attempting step 4

fn opts() -> ModelOptions {
    let mut o = ModelOptions::default();
    o.overlap = true;
    o.retry = RetryPolicy::test_small();
    o
}

struct Shape {
    world: usize,
    spares: usize,
    victim: usize,
    cfg: ocean_grid::ModelConfig,
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            world: 4,
            spares: 1,
            victim: 1,
            // nx = 45: 3 compute ranks split 3x1.
            cfg: Resolution::Coarse100km.config().scaled_down(8, 6),
        },
        Shape {
            world: 16,
            spares: 4,
            victim: 5,
            // nx = 60: 12 compute ranks split 4x3.
            cfg: Resolution::Coarse100km.config().scaled_down(6, 6),
        },
    ]
}

struct Row {
    wall: f64,
    stats: ElasticStats,
}

fn run_once(shape: &Shape, ckpt_every: u64, ring: usize, kill: bool, tag: &str) -> Row {
    let dir = std::env::temp_dir().join(format!("licom_rank_death_bench_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let ecfg = ElasticConfig {
        target_steps: STEPS,
        ckpt_dir: dir.clone(),
        ring,
        recovery: RecoveryPolicy {
            checkpoint_every: ckpt_every,
            max_rollbacks: 8,
        },
    };
    let mut wc = WorldConfig::new(shape.world).spares(shape.spares);
    if kill {
        wc = wc.faults(FaultPlan::new(0x3774).kill(shape.victim, DEATH_EPOCH));
    }
    let cfg = shape.cfg.clone();
    let t0 = std::time::Instant::now();
    let (out, _) = World::run_cfg(wc, move |comm| {
        match run_elastic(comm, cfg.clone(), kokkos_rs::Space::serial(), opts(), &ecfg)
            .expect("seeded death must be survivable")
        {
            ElasticOutcome::Completed { stats, .. } => Some(stats),
            ElasticOutcome::Spared | ElasticOutcome::Died => None,
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let finished: Vec<ElasticStats> = out.into_iter().flatten().collect();
    assert_eq!(finished.len(), shape.world - shape.spares);
    // Detection/recovery are per-rank walls; the slowest rank bounds the
    // group, so report the max.
    let stats = ElasticStats {
        run: finished[0].run,
        rank_deaths_recovered: finished[0].rank_deaths_recovered,
        detection_ns: finished.iter().map(|s| s.detection_ns).max().unwrap(),
        recovery_wall_ns: finished.iter().map(|s| s.recovery_wall_ns).max().unwrap(),
    };
    Row { wall, stats }
}

fn main() {
    banner("Rank-death MTTR: detection + recovery vs checkpoint interval and ring depth");
    println!(
        "death while attempting step 4 of {STEPS}; elastic driver, overlap on, serial space\n"
    );
    println!(
        "{:>5} {:>11} {:>4} {:>9} {:>10} {:>10} {:>7} {:>9} {:>8}",
        "ranks",
        "ckpt_every",
        "K",
        "detect_ms",
        "recover_ms",
        "replay",
        "deaths",
        "wall_s",
        "+wall%"
    );
    for shape in shapes() {
        let compute = shape.world - shape.spares;
        for &ckpt_every in &[1u64, 2, 4] {
            for &ring in &[1usize, 3] {
                let tag = format!("w{}c{}k{}", shape.world, ckpt_every, ring);
                let clean = run_once(&shape, ckpt_every, ring, false, &format!("{tag}_clean"));
                let dead = run_once(&shape, ckpt_every, ring, true, &tag);
                assert_eq!(dead.stats.rank_deaths_recovered, 1);
                println!(
                    "{:>5} {:>11} {:>4} {:>9.2} {:>10.2} {:>10} {:>7} {:>9.2} {:>8.0}",
                    format!("{compute}+{}", shape.spares),
                    ckpt_every,
                    ring,
                    dead.stats.detection_ns as f64 * 1e-6,
                    dead.stats.recovery_wall_ns as f64 * 1e-6,
                    dead.stats.run.steps_replayed,
                    dead.stats.rank_deaths_recovered,
                    dead.wall,
                    100.0 * (dead.wall / clean.wall - 1.0),
                );
            }
        }
    }
    println!(
        "\nDetection is registry-backed (no timeout burn), so detect_ms tracks the\n\
         in-flight step's compute. Recovery wall covers consensus + re-form +\n\
         restore; replayed steps scale with the checkpoint interval — the classic\n\
         MTTR vs checkpoint-overhead trade."
    );
}
