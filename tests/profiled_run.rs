//! What a `Profiler` attached to a run sees, and what that run sent: a
//! 4-rank model on each execution space for a few steps yields a chrome
//! trace the validator accepts, carrying kernel spans, phase regions and
//! `mpi-sim` comm instants on every rank — and the four spaces send the
//! same, literal, traffic. Nothing here reads a clock: how much of a step
//! its phases cover is `licom_bench`'s `licom.unattributed_frac`.

use std::sync::Arc;

use licomkpp::grid::Resolution;
use licomkpp::kokkos::Space;
use licomkpp::model::{Model, ModelOptions, PHASES};
use licomkpp::mpi::World;
use licomkpp::profiling::{
    attach, detach, test_registry_lock, validate_chrome_trace, Profiler, COMM_TRACK,
};
use licomkpp::sunway::CgConfig;

const RANKS: usize = 4;
const STEPS: usize = 8;

#[test]
fn four_spaces_trace_validly_and_send_the_same_literal_traffic() {
    let _serial = test_registry_lock();
    // 60x36x6: nx divides over four ranks.
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 6);
    let dir = std::env::temp_dir().join(format!("licomkpp_profiled_run_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for name in ["Serial", "Threads", "DeviceSim", "SwAthread"] {
        let prof = Arc::new(Profiler::default());
        attach(prof.clone());
        let run_cfg = cfg.clone();
        let (wet_cells, traffic) = World::run_traced(RANKS, move |comm| {
            let space = match name {
                "SwAthread" => Space::sw_athread_with(CgConfig::bench()),
                _ => Space::from_name(name).unwrap(),
            };
            let mut m = Model::new(comm, run_cfg.clone(), space, ModelOptions::default());
            m.run_steps(STEPS);
            // Wet cells: Σ kmt over the owned wet columns.
            m.grid.wet.cols_own.total_cost()
        });
        detach();

        // The messages 8 steps of the one schedule send; a row of `PHASES`
        // that posts one exchange more, or one route more, moves these.
        // 227 exchanges on 2 × 2 ranks (15 at start-up, 4 a step, 180
        // substeps), 12 messages each where the two-round protocol sent
        // 14: 3 178 → 2 724. Bytes: two 32 B frame headers fewer an
        // exchange, and the top row's 4 fold corners (16 cells a field
        // level, 999 field levels in all) are its own cells now:
        // 5 664 128 − 227·64 − 999·16·8. The advection intermediate is
        // a band whose exchange moves no east/west strip (4 ranks × 2
        // strips × 18 rows × H × 6 levels × 2 fields × 8 B a step), and a
        // bottom rank's message from its zonal neighbour held nothing else
        // (2 messages and their 32 B frame headers a step): 2 724 − 8·2
        // messages, 5 521 728 − 8·(27 648 + 64) B. The tracers keep two
        // levels, not three, so start-up exchanges 13 fields, not 15: two
        // single-field exchanges of 12 messages and 33 024 B fewer,
        // 2 708 − 2·12 messages, 5 300 032 − 2·33 024 B. η keeps two
        // levels, not three, so start-up exchanges 12 fields: one 2-D
        // exchange of 12 messages and 5 824 B fewer, 2 684 − 12 messages,
        // 5 233 984 − 5 824 B. The new level's u, v, T and S go in one
        // exchange where two went (3 a step, not 4): 8 exchanges of 12
        // messages fewer, each message's 32 B frame header with it,
        // 2 672 − 96 messages, 5 228 160 − 96·32 B.
        assert_eq!(
            (traffic.p2p_messages, traffic.p2p_bytes, wet_cells[0]),
            (2_576, 5_225_088, 2_522),
            "{name}: (p2p messages, p2p bytes, rank 0's wet cells)"
        );

        // Written, read back, validated: the file is what a user opens.
        let path = dir.join(format!("trace_{}.json", name.to_lowercase()));
        prof.write_trace(&path).unwrap();
        let summary = validate_chrome_trace(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: trace does not validate: {e}"));
        assert_eq!(prof.dropped_events(), 0, "{name}");
        let events = prof.events_snapshot();
        assert_eq!(
            summary.spans + summary.instants + summary.counters,
            events.len(),
            "{name}"
        );
        for rank in 0..RANKS as i64 {
            let on_rank =
                |cat: &'static str| events.iter().filter(move |e| e.pid == rank && e.cat == cat);
            assert!(on_rank("kernel").any(|e| e.ph == 'X'), "{name} rank {rank}");
            assert!(
                on_rank("comm").any(|e| e.ph == 'i' && e.tid == COMM_TRACK),
                "{name} rank {rank}"
            );
            for phase in &PHASES {
                assert_eq!(
                    on_rank("region").filter(|e| e.name == phase.name).count(),
                    STEPS,
                    "{name} rank {rank}: one `{}` region a step",
                    phase.name
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
