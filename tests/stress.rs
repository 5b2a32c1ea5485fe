//! Longer-horizon stability and physical-sanity stress tests of the
//! assembled model (kept at sizes a CI debug build finishes in seconds).

use licomkpp::grid::Resolution;
use licomkpp::kokkos::Space;
use licomkpp::model::history::HistoryWriter;
use licomkpp::model::{Model, ModelOptions};
use licomkpp::mpi::World;

/// Two simulated days of the global scaled configuration: the model must
/// stay finite, develop circulation, and keep its diagnostics inside
/// physically defensible bands.
#[test]
fn two_day_global_spinup_is_physical() {
    let cfg = Resolution::Coarse100km.config().scaled_down(8, 6);
    World::run(1, |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::threads(), ModelOptions::default());
        let steps_per_day = cfg.steps_per_day();
        let dir = std::env::temp_dir().join("licom_stress_history");
        let _ = std::fs::remove_dir_all(&dir);
        let mut hist = HistoryWriter::create(&m, &dir.join("h.csv")).unwrap();
        let mut ke = Vec::new();
        for _day in 0..2 {
            m.run_steps(steps_per_day);
            let s = hist.sample(&m).unwrap();
            ke.push(s.kinetic_energy);
            assert!(!m.state.has_nan(), "NaN during spin-up");
            assert!(s.max_speed < 5.0, "runaway currents: {}", s.max_speed);
            assert!(
                s.mean_sst > 5.0 && s.mean_sst < 25.0,
                "global mean SST out of band: {}",
                s.mean_sst
            );
        }
        // Wind keeps injecting energy during early spin-up.
        assert!(ke[1] > ke[0] * 0.5, "KE collapsed: {ke:?}");
        assert!(ke[1].is_finite() && ke[1] > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Leapfrog + Asselin keeps the computational mode bounded: the
/// step-to-step oscillation of η must not grow over time.
#[test]
fn computational_mode_stays_filtered() {
    let cfg = Resolution::Coarse100km.config().scaled_down(8, 6);
    World::run(1, |comm| {
        let mut m = Model::new(comm, cfg.clone(), Space::serial(), ModelOptions::default());
        m.run_steps(10);
        let osc = |m: &Model| {
            // RMS of (eta_cur - eta_old): the 2Δt mode amplitude proxy.
            let a = m.state.eta.cur().as_slice();
            let b = m.state.eta.old().as_slice();
            (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
        };
        let early = osc(&m);
        m.run_steps(40);
        let late = osc(&m);
        // Spin-up grows the flow, so allow growth — but bounded, not the
        // exponential divergence an unfiltered leapfrog would show.
        assert!(
            late < early * 50.0 + 1.0,
            "computational mode growing: {early} -> {late}"
        );
    });
}

/// The SwAthread backend survives a multi-step run and reports coherent
/// hardware counters (the §VI-C monitoring-toolchain analogue) — and, the
/// simulator being deterministic, exact ones: rank 0 of 4 on 60x36x6 under
/// `CgConfig::bench()` after 8 steps. Each literal moves only in a change
/// that says why, below; DMA bytes should only fall.
#[test]
fn sunway_backend_counters_are_coherent() {
    const STEPS: u64 = 8;
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 6);
    let per_rank = World::run(4, |comm| {
        let space = Space::sw_athread_with(licomkpp::sunway::CgConfig::bench());
        let mut m = Model::new(comm, cfg.clone(), space, ModelOptions::default());
        m.run_steps(STEPS as usize);
        m.sunway_counters().expect("SwAthread space")
    });
    let c = &per_rank[0];
    assert!(c.kernels_launched > 50, "launches {}", c.kernels_launched);
    assert!(c.totals.flops > 1_000_000, "flops {}", c.totals.flops);
    let eff = c.load_balance_efficiency();
    assert!((0.0..=1.0).contains(&eff));
    // Simulated time is positive and finite.
    let secs = c.simulated_seconds(2.25e9);
    assert!(secs.is_finite() && secs > 0.0);

    let dma_bytes = c.totals.dma_get_bytes + c.totals.dma_put_bytes;
    // The run's total includes `Model::new`'s start-up exchanges, whose
    // strips the CPEs copy; with two tracer levels, not three, there are
    // two of them fewer: 53 760 B.
    assert_eq!(dma_bytes, 8_213_940 * STEPS - 53_760, "DMA bytes, 8 steps");
    assert_eq!(c.totals.ldm_high_water, 4_096, "LDM high-water bytes");
    // Stalled over busy CPE cycles (the mean CPE's, times 8 CPEs) is the
    // DMA-stall fraction, 0.976324: kept as the integers it is made of.
    // The window sums' ghost rectangles were four launches a substep
    // (their ghosts now arrive by exchange): 11 819 472 → 11 482 512 B a
    // step, (483 368 984, 61 928 008) → (446 850 168, 57 210 816) cycles.
    // Then the Asselin filter and the window sum folded into the substep
    // kernel: 11 482 512 → 10 329 072 B a step, but these cycles *rose*
    // 4.3 % / 4.2 %. Four ranks keep the interior / rim split, and a
    // one-cell rim of this 30 × 18 block is one iteration a tile on 64
    // CPEs, which the pipe charges one DMA transaction per 8 B of — so the
    // 72 B an iteration the fold adds to every rim cell cost more latency
    // (264 792 → 271 760 transactions over the run) than the two dense
    // passes it removes. Declared at the pair's 330 B the same schedule
    // reads (409 560 272, 52 392 744): the rise is the accounting of thin
    // launches, not the schedule. Then the new level was finished in two
    // column passes (leapfrog, friction solve and mode correction over the
    // velocity columns; z advection, diffusion, mixing solve and restore
    // over the tracer columns), each declaring the union of its members'
    // traffic, and the guard's scans became a fold of their per-column
    // maxima: 10 329 072 → 9 133 456 B a step, (466 084 080, 59 642 632) →
    // (454 306 736, 58 135 464) cycles. Then the old level was read in one
    // column pass (density in work rows, pressure, the canuto closure) over
    // the owned columns and the same body without the closure over the halo
    // columns the momentum stencil reads pressure at (north and east of the
    // block), where the EOS over every padded wet cell, the pressure
    // integral over every padded wet column and the canuto launch each
    // streamed the stored density: 9 133 456 → 9 047 656 B a step,
    // (453 671 160, 58 054 040) cycles. Then tracer advection's x → y ran
    // as one row wavefront over the interior rows, its intermediate in a
    // per-thread ring, with x on the band's owned rows and y on the rims
    // beside it, and the band's exchange moved no east/west strip:
    // 9 047 656 → 8 936 488 B a step, (443 517 704, 56 775 744) cycles.
    // Then the wavefront's tile became a whole interior level, its ring
    // fed from the band on the rows the band's x launch writes, and its
    // SwAthread tile was sized by the five-row ring it holds instead of
    // the whole tile: 8 936 488 → 8 835 688 B a step (no x row computed
    // twice), the LDM high-water back to 4 096 B, and the cycles rose
    // (443 517 704, 56 775 744) → (446 826 680, 57 192 192): on this
    // 30 × 18 block the 14-row level splits into 12 tiles of 14 × 22 or
    // 14 × 8, which Eq. 2 hands to 6 of the 8 CPEs, two each. Then the
    // tracers kept two levels, not three, and `Model::new` exchanged two
    // fields fewer: its strip copies' (2 968 140, 376 772) cycles fewer,
    // the eight steps' own cycles unchanged. Then the tracer column pass
    // diagnosed `w` into its work rows, where a launch of its own stored
    // it and the pass reloaded it: one launch a step fewer, 8 835 688 →
    // 8 794 888 B a step, (443 416 108, 56 759 476) cycles (`Model::new`'s
    // counters unchanged: η's third level was a 2-D exchange, which no CPE
    // copies). Then the velocity and the tracer column pass became one
    // pass over the tracer columns that runs the canuto closure into work
    // rows, where the old-level pass stored `km` / `kh` and each solve
    // reloaded one: one launch a step fewer, 8 794 888 → 8 566 888 B a
    // step, (440 907 060, 56 444 604) cycles. Then the momentum tendency
    // became one pass over the velocity columns in tiles of 512 that
    // integrates its corners' pressure into work rows and adds the wind
    // stress and the depth mean, where the old level's pass stored the
    // pressure over the owned and the halo columns, the tendency launches
    // over the interior and the rim cells reloaded it, and the wind and the
    // depth mean reloaded the tendency: five launches a step fewer,
    // 8 566 888 → 8 213 940 B a step, (435 047 660, 55 701 156) cycles.
    assert_eq!(
        (c.totals.dma_stall_cycles, c.kernel_cycles_mean),
        (435_047_660, 55_701_156),
        "(dma_stall_cycles, kernel_cycles_mean)"
    );
}
