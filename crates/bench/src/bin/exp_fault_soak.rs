//! Fault soak — the seeded fault matrix (message faults × rank death)
//! crossed with every execution space, under a hard wall-clock budget.
//!
//! Each cell runs the elastic driver on a 3-compute + 1-spare world and
//! must end bitwise identical to the clean run of the same space; rank
//! deaths must be detected as typed `PeerDead` and recovered through
//! survivor consensus + spare adoption + checkpoint-ring restore. The
//! whole matrix must finish inside `--budget-seconds` (default 600) —
//! a hang anywhere in the comm stack blows the budget and fails CI.
//!
//! ```text
//! exp_fault_soak [--budget-seconds N] [--out fault_soak.json]
//! ```
//!
//! Exit codes: 0 pass, 1 divergence/unrecovered death/budget blown.
#![allow(clippy::field_reassign_with_default)]

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use bench::banner;
use licom::checkpoint::RecoveryPolicy;
use licom::elastic::{run_elastic, ElasticConfig, ElasticOutcome, ElasticStats};
use licom::model::ModelOptions;
use mpi_sim::{FaultKind, FaultPlan, FaultRule, MatchSpec, RetryPolicy, World, WorldConfig};
use ocean_grid::Resolution;

const COMPUTE: usize = 3;
const WORLD: usize = 4;
const STEPS: u64 = 6;
const SPACES: [&str; 4] = ["Serial", "Threads", "DeviceSim", "SwAthread"];

fn space_for(name: &str) -> kokkos_rs::Space {
    if name == "SwAthread" {
        kokkos_rs::Space::sw_athread_with(sunway_sim::CgConfig::test_small())
    } else {
        kokkos_rs::Space::from_name(name).expect("known space")
    }
}

fn opts() -> ModelOptions {
    let mut o = ModelOptions::default();
    o.overlap = true;
    o.retry = RetryPolicy::test_small();
    o
}

struct CellResult {
    wall: f64,
    /// Checksums keyed by role, from whichever ranks finished.
    checksums: Vec<u64>,
    deaths_recovered: u64,
    replay_steps: u64,
    rollbacks: u32,
    rank_deaths: u64,
    peer_dead_errors: u64,
    crc_failures: u64,
}

fn run_cell(space_name: &str, plan: Option<FaultPlan>, tag: &str) -> CellResult {
    let cfg = Resolution::Coarse100km.config().scaled_down(8, 6);
    let dir = std::env::temp_dir().join(format!("licom_fault_soak_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let ecfg = ElasticConfig {
        target_steps: STEPS,
        ckpt_dir: dir.clone(),
        ring: 3,
        recovery: RecoveryPolicy {
            checkpoint_every: 2,
            max_rollbacks: 8,
        },
    };
    let mut wc = WorldConfig::new(WORLD).spares(WORLD - COMPUTE);
    if let Some(p) = plan {
        wc = wc.faults(p);
    }
    let space_name = space_name.to_string();
    let t0 = Instant::now();
    let (out, traffic) = World::run_cfg(wc, move |comm| {
        match run_elastic(comm, cfg.clone(), space_for(&space_name), opts(), &ecfg)
            .expect("soak plans must be survivable")
        {
            ElasticOutcome::Completed { model, stats } => {
                Some((model.comm().rank(), model.checksum(), stats))
            }
            ElasticOutcome::Spared | ElasticOutcome::Died => None,
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let mut finished: Vec<(usize, u64, ElasticStats)> = out.into_iter().flatten().collect();
    finished.sort_unstable_by_key(|(role, ..)| *role);
    assert_eq!(finished.len(), COMPUTE, "all roles must finish");
    CellResult {
        wall,
        checksums: finished.iter().map(|(_, sum, _)| *sum).collect(),
        deaths_recovered: finished[0].2.rank_deaths_recovered,
        replay_steps: finished[0].2.run.steps_replayed,
        rollbacks: finished[0].2.run.rollbacks,
        rank_deaths: traffic.rank_deaths,
        peer_dead_errors: traffic.peer_dead_errors,
        crc_failures: traffic.crc_failures,
    }
}

/// The fault matrix: message faults alone, rank death alone, and both.
/// Each row is `(label, plan, expected deaths, min rollbacks, min CRC
/// detections)` — the minimums prove the fault actually fired and took
/// the intended recovery path instead of silently missing.
fn scenarios() -> Vec<(&'static str, Option<FaultPlan>, u64, u32, u64)> {
    let flip = || FaultRule::new(FaultKind::BitFlip, MatchSpec::any().epochs(1, 2)).max_hits(1);
    // NOTE: no tag filter — the elastic driver runs the model on a
    // derived communicator whose wire tags are view-namespaced, so a
    // tag-range spec would match nothing. f64-only injection keeps the
    // u8 control plane (votes, consensus bitmaps) out of reach anyway.
    let hard_drop = || {
        FaultRule::new(
            FaultKind::Drop { recoverable: false },
            MatchSpec::any().src(0).epochs(2, 3),
        )
        .max_hits(1)
    };
    vec![
        ("clean", None, 0, 0, 0),
        (
            "bitflip (escrow heal)",
            Some(FaultPlan::new(11).rule(flip())),
            0,
            0,
            1,
        ),
        (
            "hard drop (rollback)",
            Some(FaultPlan::new(44).rule(hard_drop())),
            0,
            1,
            0,
        ),
        (
            "rank death",
            Some(FaultPlan::new(0xD0A).kill(1, 3)),
            1,
            0,
            0,
        ),
        (
            "death + bitflip",
            Some(FaultPlan::new(0xD0B).rule(flip()).kill(1, 3)),
            1,
            0,
            1,
        ),
    ]
}

fn main() -> ExitCode {
    let mut budget_seconds: f64 = 600.0;
    let mut out_path = std::path::PathBuf::from("fault_soak.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--budget-seconds" => {
                budget_seconds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--budget-seconds needs a number")
            }
            "--out" => out_path = args.next().map(Into::into).expect("--out needs a path"),
            other => {
                eprintln!("exp_fault_soak: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    banner("Fault soak: message faults x rank death x every space");
    println!(
        "{COMPUTE}+1 ranks x {STEPS} steps, overlap engine on, elastic driver, \
         budget {budget_seconds:.0}s\n"
    );

    let t0 = Instant::now();
    let mut ok = true;
    let mut json = String::from("{\n  \"cells\": [\n");
    let mut first_cell = true;
    println!(
        "{:<12} {:<24} {:>6} {:>7} {:>7} {:>5} {:>8} {:>8}",
        "space", "scenario", "deaths", "replay", "roll", "wall", "PeerDead", "bitwise"
    );
    for space in SPACES {
        let clean = run_cell(space, None, &format!("{space}_clean"));
        for (label, plan, want_deaths, min_rollbacks, min_crc) in scenarios() {
            let tag = format!("{space}_{}", label.split_whitespace().next().unwrap());
            let cell = match plan {
                None => run_cell(space, None, &tag),
                Some(p) => run_cell(space, Some(p), &tag),
            };
            let bitwise = cell.checksums == clean.checksums;
            let recovered = cell.deaths_recovered == want_deaths && cell.rank_deaths == want_deaths;
            let fired = cell.rollbacks >= min_rollbacks && cell.crc_failures >= min_crc;
            if !bitwise || !recovered || !fired {
                if !fired {
                    eprintln!(
                        "{space}/{label}: fault did not take the intended path                          (rollbacks {} < {min_rollbacks} or crc {} < {min_crc})",
                        cell.rollbacks, cell.crc_failures
                    );
                }
                ok = false;
            }
            println!(
                "{:<12} {:<24} {:>6} {:>7} {:>7} {:>5.1} {:>8} {:>8}",
                space,
                label,
                cell.deaths_recovered,
                cell.replay_steps,
                cell.rollbacks,
                cell.wall,
                cell.peer_dead_errors,
                if bitwise { "yes" } else { "NO!" }
            );
            if !first_cell {
                json.push_str(",\n");
            }
            first_cell = false;
            let _ = write!(
                json,
                "    {{\"space\": \"{space}\", \"scenario\": \"{label}\", \
                 \"wall_seconds\": {:.4}, \"rank_deaths\": {}, \
                 \"deaths_recovered\": {}, \"replay_steps\": {}, \
                 \"rollbacks\": {}, \"peer_dead_errors\": {}, \"bitwise\": {}}}",
                cell.wall,
                cell.rank_deaths,
                cell.deaths_recovered,
                cell.replay_steps,
                cell.rollbacks,
                cell.peer_dead_errors,
                bitwise
            );
        }
    }
    let total = t0.elapsed().as_secs_f64();
    let within_budget = total <= budget_seconds;
    let _ = write!(
        json,
        "\n  ],\n  \"total_wall_seconds\": {total:.2},\n  \
         \"budget_seconds\": {budget_seconds:.0},\n  \
         \"within_budget\": {within_budget},\n  \"pass\": {}\n}}\n",
        ok && within_budget
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("exp_fault_soak: writing {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    println!(
        "\nwrote {} ({total:.1}s of {budget_seconds:.0}s budget)",
        out_path.display()
    );

    if ok && within_budget {
        println!("soak: PASS");
        ExitCode::SUCCESS
    } else {
        if !within_budget {
            eprintln!("soak: FAIL — wall budget exceeded ({total:.1}s > {budget_seconds:.0}s)");
        } else {
            eprintln!("soak: FAIL — divergence or unrecovered death (see table)");
        }
        ExitCode::FAILURE
    }
}
