//! Per-layer metrics of a traced pass: spans, the public counters read at
//! the episode's edges, and the census, turned into the numbers of
//! `spec::PER_LAYER`.

use perf_model::{predicted_shares, CpeParams, Machine, ProblemSpec};

use crate::episode::EpisodeOut;
use crate::report::Record;
use crate::serve::ServeOut;
use crate::spec::{Episode, Grid, SpaceKind, PHASES};
use crate::stats::{median, percentile};
use crate::tracer::Summary;

/// Census kernel → the `Timers` phase it runs under in `Model::try_step`.
const CENSUS_PHASE: [(&str, &str); 15] = [
    ("eos", "eos"),
    ("pressure", "eos"),
    ("canuto", "canuto"),
    ("momentum_tend", "momentum"),
    ("leapfrog_uv", "update_uv"),
    ("vmix_momentum", "vmix_momentum"),
    ("bt_correct", "vmix_momentum"),
    ("diagnose_w", "halo_uv"),
    ("advection_tracer", "advection_tracer"),
    ("tracer_hdiff", "hdiff"),
    ("vmix_tracer", "vmix_tracer"),
    ("asselin", "asselin"),
    ("bt_eta", "barotropic"),
    ("bt_vel", "barotropic"),
    ("bt_asselin+filter", "barotropic"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Spans → `licom.phase_ms.*`, kernel, halo and launch numbers, per step
/// and per rank, so they add up against one rank's step wall.
fn from_spans(r: &mut Record, s: &Summary, steps: u64, ranks: usize, launch_ns: f64) {
    let per_step_ms = |ns: u64| ratio(ns as f64 * 1e-6, (steps * ranks as u64) as f64);
    for (p, name) in PHASES.iter().enumerate() {
        r.set(
            &format!("licom.phase_ms.{name}"),
            per_step_ms(s.phase_licom_ns[p]),
        );
    }
    r.set("licom.kernel_ms_per_step", per_step_ms(s.kernel_ns));
    r.set(
        "halo-exchange.pack_ms_per_step",
        per_step_ms(s.halo_pack_ns),
    );
    r.set(
        "halo-exchange.exchange_ms_per_step",
        per_step_ms(s.halo_exchange_ns),
    );
    let launches = ratio(s.launches as f64, (steps * ranks as u64) as f64);
    r.set("kokkos-rs.launches_per_step", launches);
    // Estimated: the empty-launch cost of this space times the launches.
    r.set(
        "kokkos-rs.dispatch_ms_per_step",
        launches * launch_ns * 1e-6,
    );
    r.set(
        "licom.unattributed_frac",
        ratio(s.step_self_ns as f64, s.step_ns as f64),
    );
}

/// Census numbers for `grid`, and how far its predicted phase shares sit
/// from the measured ones (L1 distance over the phases the census covers).
fn from_census(r: &mut Record, grid: Grid) {
    let cfg = grid.cfg();
    let spec = ProblemSpec::from_config(&cfg);
    let (f3, b3) = spec.per_point_cost();
    let (f2, b2) = spec.per_column_substep_cost();
    let per_cell = |c3: f64, c2: f64| c3 + c2 * spec.substeps as f64 / cfg.nz as f64;
    r.set("perf-model.flops_per_cell_step", per_cell(f3, f2));
    r.set("perf-model.bytes_per_cell_step", per_cell(b3, b2));

    let mut predicted = [0.0f64; PHASES.len()];
    for (kernel, share) in predicted_shares(&spec, &Machine::orise(), 1) {
        let phase = CENSUS_PHASE
            .iter()
            .find(|(k, _)| *k == kernel)
            .map(|(_, p)| *p)
            .unwrap_or_else(|| panic!("census kernel `{kernel}` has no phase"));
        let p = PHASES
            .iter()
            .position(|n| *n == phase)
            .expect("known phase");
        predicted[p] += share;
    }
    let measured: Vec<f64> = PHASES
        .iter()
        .map(|p| r.metrics[&format!("licom.phase_ms.{p}")])
        .collect();
    let covered: f64 = measured
        .iter()
        .zip(&predicted)
        .filter(|(_, p)| **p > 0.0)
        .map(|(m, _)| m)
        .sum();
    let l1: f64 = measured
        .iter()
        .zip(&predicted)
        .filter(|(_, p)| **p > 0.0)
        .map(|(m, p)| (ratio(*m, covered) - p).abs())
        .sum();
    r.set("perf-model.census_share_l1_err", l1);
}

fn from_core_group(r: &mut Record, grid: Grid, out: &EpisodeOut) {
    let Some(cg) = &out.cg else { return };
    let steps = out.steps() as f64;
    let cfg = crate::spec::cg_config();
    let t = &cg.totals;
    r.set(
        "sunway-sim.sim_cycles_per_step",
        cg.kernel_cycles as f64 / steps,
    );
    r.set(
        "sunway-sim.dma_bytes_per_step",
        (t.dma_get_bytes + t.dma_put_bytes) as f64 / steps,
    );
    r.set(
        "sunway-sim.dma_transactions_per_step",
        t.dma_transactions as f64 / steps,
    );
    let stall = ratio(
        t.dma_stall_cycles as f64,
        cg.kernel_cycles_mean as f64 * cfg.num_cpes as f64,
    );
    r.set("sunway-sim.dma_stall_fraction", stall);
    r.set("sunway-sim.ldm_high_water_bytes", t.ldm_high_water as f64);
    r.set(
        "sunway-sim.cpe_imbalance",
        ratio(cg.kernel_cycles as f64, cg.kernel_cycles_mean as f64),
    );
    r.set("sunway-sim.flops_per_step", t.flops as f64 / steps);
    r.set(
        "sunway-sim.launches_per_step",
        cg.kernels_launched as f64 / steps,
    );
    r.set(
        "sunway-sim.host_ns_per_sim_kcycle",
        ratio(
            out.step_ns.iter().sum::<u64>() as f64,
            cg.kernel_cycles as f64 / 1e3,
        ),
    );

    // The analytic model's stall fraction for one streaming kernel with
    // the census's mean 3-D intensity, at the tile the dispatcher picks.
    let params = CpeParams {
        num_cpes: cfg.num_cpes,
        ldm_bytes: cfg.ldm_bytes,
        clock_hz: cfg.clock_hz,
        mem_bw_bps: cfg.mem_bandwidth_bps,
        dma_latency_cycles: cfg.dma_latency_cycles,
        simd_f64_lanes: cfg.simd_f64_lanes,
    };
    let spec = ProblemSpec::from_config(&grid.cfg());
    let (flops, bytes) = spec.per_point_cost();
    let kernels = perf_model::workload::PASSES_3D.len() as f64;
    let (flops, bytes) = ((flops / kernels) as u64, (bytes / kernels) as u64);
    let tile = params.choose_tile_elems(bytes, out.wet_cells as usize);
    let predicted = params.predicted_stall_fraction(flops, bytes, tile);
    r.set("perf-model.stall_fraction_err", (predicted - stall).abs());
}

/// Everything one traced model episode yields. `plain` is its untraced
/// twin, `launch_ns` the probes' per-launch costs in `SpaceKind::ALL` order.
pub fn model(
    r: &mut Record,
    ep: &Episode,
    traced: &EpisodeOut,
    plain: &EpisodeOut,
    spans: &Summary,
    launch_ns: [f64; 4],
) {
    let steps = traced.steps();
    let per_step = |n: u64| ratio(n as f64, steps as f64);
    let t = &traced.traffic;
    r.set("mpi-sim.p2p_msgs_per_step", per_step(t.p2p_messages));
    r.set("mpi-sim.p2p_bytes_per_step", per_step(t.p2p_bytes));
    r.set("mpi-sim.pool_allocs_per_step", per_step(t.pool_allocations));
    r.set(
        "mpi-sim.retries_total",
        (t.halo_retries + t.crc_failures + t.resends_served) as f64,
    );

    let space = SpaceKind::ALL
        .iter()
        .position(|k| *k == ep.space)
        .expect("known space");
    from_spans(r, spans, steps, ep.ranks, launch_ns[space]);

    r.set(
        "halo-exchange.wait_fraction",
        ratio(traced.halo_wait_ns as f64, traced.rank_step_ns as f64),
    );
    // The share of in-flight exchange time not spent blocked.
    r.set(
        "halo-exchange.hidden_fraction",
        (1.0 - ratio(traced.halo_wait_ns as f64, traced.halo_inflight_ns as f64)).clamp(0.0, 1.0),
    );

    r.set(
        "licom.ns_per_wet_cell_step",
        ratio(
            plain.rank_step_ns as f64,
            (plain.steps() * plain.wet_cells) as f64,
        ),
    );
    r.set("licom.step_ms_p90", percentile(&plain.step_ms(), 900));
    r.set("licom.model_new_ms", traced.model_new_s * 1e3);
    r.set(
        "licom.guard_trips",
        (traced.guard_trips + plain.guard_trips) as f64,
    );
    from_census(r, ep.grid);
    from_core_group(r, ep.grid, traced);
    r.set(
        "bench.trace_overhead_frac",
        median(&traced.step_ms()) / median(&plain.step_ms()) - 1.0,
    );
}

/// Solo step time of one serving grid on Threads, for the overhead line.
pub struct Solo {
    pub grid: Grid,
    pub step_ms: f64,
    pub model_new_ms: f64,
}

/// Everything the traced serving pass yields. `plain` is the same jobs
/// served untraced.
pub fn serve(
    r: &mut Record,
    traced: &ServeOut,
    plain: &ServeOut,
    spans: &Summary,
    solo: &[Solo],
    launch_ns: [f64; 4],
) {
    let steps = traced.window_steps;
    // Served models live on private solo worlds whose traffic counters
    // the job API does not expose; the tap sees their sends.
    r.set(
        "mpi-sim.p2p_msgs_per_step",
        ratio(spans.sends as f64, steps as f64),
    );
    r.set(
        "mpi-sim.p2p_bytes_per_step",
        ratio(spans.send_bytes as f64, steps as f64),
    );
    from_spans(r, spans, steps, 1, launch_ns[1]);
    // No root span: the server, not the benchmark, calls try_step.
    r.set("licom.unattributed_frac", 0.0);
    r.set(
        "licom.model_new_ms",
        median(&solo.iter().map(|s| s.model_new_ms).collect::<Vec<_>>()),
    );
    // The census is per grid; judge it on the largest of the mix.
    from_census(r, solo.last().expect("three serving grids").grid);

    let latency: Vec<f64> = plain.completed().iter().map(|j| j.0).collect();
    if !latency.is_empty() {
        r.set("licom-server.job_ms_p50", median(&latency));
        r.set("licom-server.job_ms_p90", percentile(&latency, 900));
    }
    r.set("licom-server.steps_per_s", plain.steps_per_s());
    let submits: Vec<f64> = plain
        .jobs
        .iter()
        .map(|j| j.submit_ns as f64 * 1e-3)
        .collect();
    if !submits.is_empty() {
        r.set("licom-server.submit_us", median(&submits));
    }
    r.set(
        "licom-server.slice_ms_p50",
        plain.slice_p50_ns as f64 * 1e-6,
    );
    r.set(
        "licom-server.slice_ms_p99",
        plain.slice_p99_ns as f64 * 1e-6,
    );
    r.set(
        "licom-server.rejected_total",
        (plain.rejected + traced.rejected) as f64,
    );
    // Time the workers would need stepping these jobs alone, against the
    // worker-time the server actually held.
    let solo_ms: f64 = plain
        .jobs
        .iter()
        .map(|j| {
            let s = solo
                .iter()
                .find(|s| s.grid == j.plan.grid)
                .expect("every served grid has a solo time");
            j.plan.steps as f64 * s.step_ms
        })
        .sum();
    r.set(
        "licom-server.overhead_frac",
        1.0 - ratio(solo_ms, plain.workers as f64 * plain.window_s * 1e3),
    );
    r.set(
        "bench.trace_overhead_frac",
        ratio(plain.steps_per_s(), traced.steps_per_s()) - 1.0,
    );
}
