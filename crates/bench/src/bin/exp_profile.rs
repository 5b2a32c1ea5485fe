//! Observability demo — the `kokkos-profiling` subsystem end to end.
//!
//! For each of the four execution spaces this binary runs a profiled
//! 4-rank model, then exercises every consumer of the hook stream:
//!
//! 1. **chrome trace** — kernel/region spans, mpi-sim traffic instants
//!    and (on SwAthread) CPE/DMA counter samples are exported as
//!    Perfetto-loadable JSON and re-validated with the built-in schema
//!    checker;
//! 2. **kernel/region tables** — the Kokkos "simple kernel timer" view;
//! 3. **SYPD + hotspot shares** — the paper's throughput figure with the
//!    baroclinic/barotropic/advection/canuto/halo breakdown, checked to
//!    cover the measured wall-clock within 2%;
//! 4. **census comparison** — measured per-phase shares lined up against
//!    the `perf-model` kernel census, the calibration loop of §VI-C.
//!
//! Traces land in `$TMPDIR/licomkpp_traces/trace_<space>.json`; open
//! them at <https://ui.perfetto.dev>.

use std::sync::Arc;

use bench::banner;
use kokkos_profiling::{
    attach, detach, hotspot_shares, validate_chrome_trace, Profiler, SypdReporter,
};
use licom::model::{Model, ModelOptions, StepStats};
use mpi_sim::World;
use ocean_grid::Resolution;
use perf_model::{
    compare_kernels, predicted_kernel_times, render_comparison, Machine, ProblemSpec,
};

const RANKS: usize = 4;
const STEPS: usize = 8;

/// Acceptance bound: the phase timers must cover the daily-loop wall
/// clock to within this relative error.
const COVERAGE_BOUND: f64 = 0.02;

fn space_for(name: &str) -> kokkos_rs::Space {
    if name == "SwAthread" {
        // Small CG config keeps the simulated-CPE run fast.
        kokkos_rs::Space::sw_athread_with(sunway_sim::CgConfig::test_small())
    } else {
        kokkos_rs::Space::from_name(name).expect("known space")
    }
}

struct RankResult {
    stats: StepStats,
    phases: Vec<(&'static str, f64)>,
    daily_loop: f64,
    sunway: Option<sunway_sim::CgCounters>,
}

fn main() {
    banner("kokkos-profiling: profiled 4-rank run on every execution space");
    // Divisor 6 keeps nx=60, which decomposes cleanly over 4 ranks.
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 6);
    let days = STEPS as f64 * cfg.dt_baroclinic / 86_400.0;
    println!(
        "{RANKS} ranks x {STEPS} steps, {}x{}x{} grid, traces in {}",
        cfg.nx,
        cfg.ny,
        cfg.nz,
        std::env::temp_dir().join("licomkpp_traces").display()
    );
    println!("isa = {}", licom::lanes::Isa::detect().name());
    let dir = std::env::temp_dir().join("licomkpp_traces");
    std::fs::create_dir_all(&dir).expect("create trace dir");

    for space_name in ["Serial", "Threads", "DeviceSim", "SwAthread"] {
        banner(&format!("space: {space_name}"));
        let prof = Arc::new(Profiler::default());
        attach(prof.clone());
        let run_cfg = cfg.clone();
        let results: Vec<RankResult> = World::run(RANKS, move |comm| {
            let space = space_for(space_name);
            let mut m = Model::new(
                comm,
                run_cfg.clone(),
                space.clone(),
                ModelOptions::default(),
            );
            let stats = m.run_days(days);
            RankResult {
                stats,
                phases: m.timers.phase_seconds(),
                daily_loop: m.timers.seconds("daily_loop"),
                sunway: match &space {
                    kokkos_rs::Space::SwAthread(sw) => Some(sw.counters()),
                    _ => None,
                },
            }
        });
        // Counter samples ride the trace too (the §VI-C "job-level
        // monitoring" bridge): snapshot each rank's CG before export.
        for (rank, r) in results.iter().enumerate() {
            if let Some(cg) = &r.sunway {
                prof.sample_sunway(rank as i64, cg);
            }
        }
        detach();

        // 1. chrome trace: write, re-read, validate.
        let path = dir.join(format!("trace_{}.json", space_name.to_lowercase()));
        prof.write_trace(&path).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace back");
        let summary = validate_chrome_trace(&text).expect("trace must validate");
        println!(
            "trace {}: {} events ({} spans, {} instants, {} counter samples) \
             on {} tracks, {} dropped",
            path.display(),
            summary.events,
            summary.spans,
            summary.instants,
            summary.counters,
            summary.tracks,
            prof.dropped_events(),
        );

        // 2. kernel table (top 8 rows).
        let table = prof.render_report();
        for line in table.lines().take(9) {
            println!("  {line}");
        }

        // 3. SYPD + hotspot shares from rank 0's phase timers.
        let r0 = &results[0];
        let rep = SypdReporter::new(r0.stats.simulated_days, r0.daily_loop);
        println!();
        print!("{}", rep.render(&r0.phases));
        let coverage = rep.coverage_error(&r0.phases);
        assert!(
            coverage <= COVERAGE_BOUND,
            "{space_name}: phase timers cover wall to {:.2}% (> {:.0}% bound)",
            coverage * 100.0,
            COVERAGE_BOUND * 100.0
        );
        println!(
            "coverage: phase sum within {:.2}% of daily-loop wall (bound {:.0}%)",
            coverage * 100.0,
            COVERAGE_BOUND * 100.0
        );

        // 4. measured-vs-census shares over the matching phase names.
        let measured: Vec<(String, f64)> =
            r0.phases.iter().map(|(n, s)| (n.to_string(), *s)).collect();
        let predicted =
            predicted_kernel_times(&ProblemSpec::from_config(&cfg), &Machine::orise(), RANKS);
        let rows = compare_kernels(&measured, &predicted);
        if !rows.is_empty() {
            println!("\nmeasured vs census (shares over matched kernels):");
            print!("{}", render_comparison(&rows));
        }

        // Sunway counter recap.
        if let Some(cg) = &results[0].sunway {
            println!(
                "rank-0 CG: {} kernels, {:.2e} cycles, LB eff {:.3}, \
                 DMA {:.1} kB get / {:.1} kB put",
                cg.kernels_launched,
                cg.kernel_cycles as f64,
                cg.load_balance_efficiency(),
                cg.totals.dma_get_bytes as f64 / 1e3,
                cg.totals.dma_put_bytes as f64 / 1e3,
            );
        }
    }

    banner("summary");
    let shares_demo = hotspot_shares(&[("barotropic", 3.0), ("canuto", 1.0)]);
    assert!((shares_demo.iter().map(|r| r.share).sum::<f64>() - 1.0).abs() < 1e-12);
    println!(
        "all four spaces produced validated Perfetto traces with kernel,\n\
         region, comm and counter tracks; hotspot shares covered wall to\n\
         within {:.0}% on every space.",
        COVERAGE_BOUND * 100.0
    );
}
