//! Flight-recorder acceptance: the always-on black box must turn a
//! seeded rank death — on every execution space, under the overlap
//! engine — into exactly one schema-valid post-mortem bundle whose
//! causally-merged stream contains the dying rank's final attempted
//! step and a `PeerDead` observation from every survivor.
#![allow(clippy::field_reassign_with_default)]

use licomkpp::grid::Resolution;
use licomkpp::kokkos::Space;
use licomkpp::model::{run_elastic, ElasticConfig, ElasticOutcome, ModelOptions, RecoveryPolicy};
use licomkpp::mpi::{FaultPlan, RetryPolicy, World, WorldConfig};
use licomkpp::profiling::{read_bundle, FlightEventKind};
use std::path::PathBuf;

const COMPUTE: usize = 3;
const WORLD: usize = 4;
const STEPS: u64 = 6;
/// World rank 1 halts at epoch 3 (attempting step 4): mid-run, after
/// checkpoints exist, off a checkpoint boundary.
const VICTIM: i64 = 1;
const DEATH_EPOCH: u64 = 3;

fn cfg() -> licomkpp::grid::ModelConfig {
    Resolution::Coarse100km.config().scaled_down(8, 6)
}

fn opts(flight_dir: PathBuf) -> ModelOptions {
    let mut o = ModelOptions::default();
    o.overlap = true;
    o.retry = RetryPolicy::test_small();
    o.flight_dir = Some(flight_dir);
    o
}

type SpaceCtor = fn() -> Space;

fn spaces() -> Vec<(&'static str, SpaceCtor)> {
    vec![
        ("Serial", || Space::serial()),
        ("Threads", || Space::threads()),
        ("DeviceSim", || Space::device_sim()),
        ("SwAthread", || {
            Space::sw_athread_with(licomkpp::sunway::CgConfig::test_small())
        }),
    ]
}

fn run_seeded_death(space: fn() -> Space, tag: &str) -> (PathBuf, usize) {
    let base = std::env::temp_dir().join(format!("licom_flight_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let flight_dir = base.join("flight");
    let ecfg = ElasticConfig {
        target_steps: STEPS,
        ckpt_dir: base.join("ckpt"),
        ring: 3,
        recovery: RecoveryPolicy {
            checkpoint_every: 2,
            max_rollbacks: 8,
        },
    };
    let wc = WorldConfig::new(WORLD)
        .spares(WORLD - COMPUTE)
        .faults(FaultPlan::new(0xDEAD_0001).kill(VICTIM as usize, DEATH_EPOCH));
    let fdir = flight_dir.clone();
    let (out, _) = World::run_cfg(wc, move |comm| {
        let o = opts(fdir.clone());
        match run_elastic(comm, cfg(), space(), o, &ecfg).expect("elastic run must recover") {
            ElasticOutcome::Completed { .. } => 1usize,
            ElasticOutcome::Spared | ElasticOutcome::Died => 0,
        }
    });
    assert_eq!(
        out.iter().sum::<usize>(),
        COMPUTE,
        "{tag}: all three roles must finish"
    );
    let bundles = std::fs::read_dir(&flight_dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();
    let _ = std::fs::remove_dir_all(base.join("ckpt"));
    (
        bundles
            .first()
            .cloned()
            .unwrap_or_else(|| flight_dir.clone()),
        bundles.len(),
    )
}

#[test]
fn rank_death_black_boxes_on_all_spaces() {
    for (name, space) in spaces() {
        let (bundle_path, n_bundles) = run_seeded_death(space, &format!("death_{name}"));
        // Claim-once: one incident, one bundle — even with three
        // survivors racing to dump after the same consensus.
        assert_eq!(n_bundles, 1, "{name}: exactly one post-mortem bundle");

        // read_bundle schema-validates, including the causal-order
        // (non-decreasing Lamport) invariant over the merged stream.
        let bundle =
            read_bundle(&bundle_path).unwrap_or_else(|e| panic!("{name}: bundle invalid: {e}"));
        assert_eq!(bundle.reason, "rank-death", "{name}");
        assert!(
            bundle
                .events
                .windows(2)
                .all(|w| w[0].lamport <= w[1].lamport),
            "{name}: merged stream must be causally ordered"
        );

        // The dying rank's final attempted step is on record: StepBegin
        // lands before set_epoch fires the seeded kill.
        let victim_last = bundle
            .events
            .iter()
            .rfind(|e| e.rank == VICTIM && e.kind == FlightEventKind::StepBegin)
            .unwrap_or_else(|| panic!("{name}: no StepBegin from the victim"));
        assert_eq!(
            victim_last.a, DEATH_EPOCH,
            "{name}: victim's last StepBegin must be the death epoch"
        );
        assert!(
            bundle
                .events
                .iter()
                .any(|e| e.kind == FlightEventKind::RankDeath && e.a == VICTIM as u64),
            "{name}: the seeded RankDeath event must be in the bundle"
        );

        // Every survivor's own PeerDead observation made it into the
        // snapshot (consensus gives the happens-before edge).
        for survivor in [0i64, 2] {
            assert!(
                bundle
                    .events
                    .iter()
                    .any(|e| e.rank == survivor && e.kind == FlightEventKind::PeerDead),
                "{name}: survivor {survivor} must have observed PeerDead"
            );
        }
        // The post-consensus dump context is part of the story too.
        assert!(
            bundle
                .events
                .iter()
                .any(|e| e.kind == FlightEventKind::ConsensusRound),
            "{name}: consensus round must be recorded"
        );
        // Model activity before the death: steps and checkpoints.
        assert!(
            bundle
                .events
                .iter()
                .any(|e| e.kind == FlightEventKind::CheckpointSave),
            "{name}: pre-death checkpoints must be recorded"
        );
        let _ = std::fs::remove_file(&bundle_path);
        if let Some(dir) = bundle_path.parent().and_then(|p| p.parent()) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
