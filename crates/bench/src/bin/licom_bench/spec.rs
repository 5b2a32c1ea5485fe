//! What the benchmark runs and what it reports: the five workloads with
//! their exact parameters and stability horizons, and the registry of
//! every metric name with unit, direction, bound and kind. README.md and
//! BENCHMARK.json are written from (and tested against) this file.

use kokkos_rs::Space;
use ocean_grid::{ModelConfig, Resolution};

/// A grid derived from the paper's strong-scaling configuration,
/// `Resolution::Eddy10km.config().scaled_down(div, nz)` (dt 9/180/180 s,
/// 20 barotropic substeps), with the number of steps it was measured to
/// run clean for. Every `Coarse100km`-derived grid trips the physics
/// guard within 100 steps (README "Why Eddy10km"), so none is offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    pub div: usize,
    pub nz: usize,
    /// No model on this grid may live longer than this many steps.
    pub horizon: u64,
}

impl Grid {
    pub fn cfg(self) -> ModelConfig {
        Resolution::Eddy10km.config().scaled_down(self.div, self.nz)
    }

    /// `"180x115x30"` — the key goldens are stored under.
    pub fn label(self) -> String {
        let c = self.cfg();
        format!("{}x{}x{}", c.nx, c.ny, c.nz)
    }
}

/// 180×115×30, 445,394 wet cells: ran clean for 200 steps.
pub const GRID_KERNEL: Grid = Grid {
    div: 20,
    nz: 30,
    horizon: 200,
};
/// 120×76×30: ran clean for 300 steps.
pub const GRID_CPE: Grid = Grid {
    div: 30,
    nz: 30,
    horizon: 300,
};
/// 60×38×6: trips the guard at step 1488; horizon 1000.
pub const GRID_HALO: Grid = Grid {
    div: 60,
    nz: 6,
    horizon: 1000,
};
/// The serving mix: 30×19×4, 40×25×6 and 60×38×6. Served jobs live at
/// most [`SERVE_MAX_STEPS`] steps; the two smaller grids were run clean
/// for 400 steps when the goldens were blessed.
pub const SERVE_GRIDS: [Grid; 3] = [
    Grid {
        div: 120,
        nz: 4,
        horizon: 400,
    },
    Grid {
        div: 90,
        nz: 6,
        horizon: 400,
    },
    GRID_HALO,
];
/// The `halo_serial_2r` episode; probes run shortened copies of it.
pub const HALO_EPISODE: Episode = Episode {
    ranks: 2,
    space: SpaceKind::Serial,
    grid: GRID_HALO,
    warmup: 20,
    steps: 100,
};
pub const SERVE_MIN_STEPS: u64 = 8;
pub const SERVE_MAX_STEPS: u64 = 24;
/// One job in this many carries `CheckpointPolicy{every_steps:4, ring:2}`.
pub const SERVE_CKPT_ONE_IN: usize = 8;

/// The simulated core group of the Sunway workload: `CgConfig::bench()`
/// with every logical CPE run on the launching thread. The simulated
/// statistics do not depend on the host thread count; the host time does,
/// and two host threads handing 513 launches a step to each other swing
/// it 2x on a shared 2-core box.
pub fn cg_config() -> sunway_sim::CgConfig {
    sunway_sim::CgConfig {
        host_workers: 1,
        ..sunway_sim::CgConfig::bench()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    Serial,
    Threads,
    DeviceSim,
    SwAthread,
}

impl SpaceKind {
    pub const ALL: [SpaceKind; 4] = [
        SpaceKind::Serial,
        SpaceKind::Threads,
        SpaceKind::DeviceSim,
        SpaceKind::SwAthread,
    ];

    /// A fresh execution space (SwAthread gets its own simulated core
    /// group, so its counters start at zero).
    pub fn make(self) -> Space {
        match self {
            SpaceKind::Serial => Space::serial(),
            SpaceKind::Threads => Space::threads(),
            SpaceKind::DeviceSim => Space::device_sim(),
            SpaceKind::SwAthread => Space::sw_athread_with(cg_config()),
        }
    }

    /// Host threads one rank keeps busy on this space.
    pub fn host_threads(self, nproc: usize) -> usize {
        match self {
            SpaceKind::Serial => 1,
            SpaceKind::Threads | SpaceKind::DeviceSim => nproc,
            SpaceKind::SwAthread => cg_config().host_workers,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SpaceKind::Serial => "serial",
            SpaceKind::Threads => "threads",
            SpaceKind::DeviceSim => "devicesim",
            SpaceKind::SwAthread => "swathread",
        }
    }
}

/// One model episode: a fresh `World::run`, `Model::new` on every rank
/// with default `ModelOptions`, `warmup` untimed steps, then `steps` timed
/// `try_step` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    pub ranks: usize,
    pub space: SpaceKind,
    pub grid: Grid,
    pub warmup: u64,
    pub steps: u64,
}

impl Episode {
    /// Whether the episode keeps every core of an `nproc`-core host busy
    /// (ranks x host threads per rank). Such a step is disturbed whenever
    /// any core is, so a run reports its fastest episode; one that leaves
    /// a core free reports the lower quartile (`stats::quiet`).
    pub fn saturates(&self, nproc: usize) -> bool {
        self.ranks * self.space.host_threads(nproc) >= nproc
    }

    /// Refuse an episode that would outlive its grid's stability horizon.
    pub fn preflight(&self) -> Result<(), String> {
        let life = self.warmup + self.steps;
        if life > self.grid.horizon {
            return Err(format!(
                "episode of {life} steps on {} exceeds its stability horizon of {} steps \
                 (see README.md, \"Why Eddy10km\")",
                self.grid.label(),
                self.grid.horizon
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated model episodes.
    Model(Episode),
    /// Closed-loop serving through `licom-server`.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers this workload stresses and which it bypasses.
    pub why: &'static str,
    pub kind: Kind,
    /// The single traced episode of `--trace 1` (shorter, so the traced
    /// pass, its untraced twin and the probes fit in one run).
    pub traced_steps: u64,
    /// Listed in BENCHMARK.json, i.e. run and gated by the benchmark
    /// driver. `kernel_threads_1r` is not (README "What the driver runs").
    pub in_manifest: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "kernel_serial_1r",
        why: "1 rank, Serial, 180x115x30: the plain single-threaded baseline; licom kernels are the step, \
              mpi-sim sends 0 messages, dispatch is <1% - a kernel change shows here, a comm or dispatch change must not",
        kind: Kind::Model(Episode {
            ranks: 1,
            space: SpaceKind::Serial,
            grid: GRID_KERNEL,
            warmup: 3,
            steps: 8,
        }),
        traced_steps: 10,
        in_manifest: true,
    },
    Workload {
        name: "kernel_threads_1r",
        why: "same grid on Space::threads(): differs from kernel_serial_1r only in the execution space, \
              so the gap is kokkos-rs partitioning and dispatch",
        kind: Kind::Model(Episode {
            ranks: 1,
            space: SpaceKind::Threads,
            grid: GRID_KERNEL,
            warmup: 3,
            steps: 16,
        }),
        traced_steps: 10,
        in_manifest: false,
    },
    Workload {
        name: "halo_serial_2r",
        why: "2 ranks, Serial, 60x38x6: the strong-scaling limit - barotropic substeps, halo pack/CRC/unpack and \
              mpi-sim delivery dominate; a halo or message-path change shows here and not in kernel_serial_1r",
        kind: Kind::Model(HALO_EPISODE),
        traced_steps: 120,
        in_manifest: true,
    },
    Workload {
        name: "cpe_swathread_1r",
        why: "1 rank, SwAthread on CgConfig::bench() (1 host thread), 120x76x30: the only workload where sunway-sim (DMA pipe, LDM tiling, \
              registry dispatch) does the work; its simulated statistics are exact",
        kind: Kind::Model(Episode {
            ranks: 1,
            space: SpaceKind::SwAthread,
            grid: GRID_CPE,
            warmup: 3,
            steps: 20,
        }),
        traced_steps: 8,
        in_manifest: true,
    },
    Workload {
        name: "ensemble_serve",
        why: "licom-server, nproc workers and closed-loop clients, seeded mix of tiny short jobs on Threads: Model::new, \
              launch cost on the shared pool, the scheduler and checkpoint writes dominate, not kernels",
        kind: Kind::Serve,
        traced_steps: 0,
        in_manifest: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What clock or count a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Wall-clock of this host.
    Host,
    /// Simulated Sunway cycles or statistics; repeat exactly.
    Simulated,
    /// A count the program makes; repeats exactly where `exact` is set.
    Count,
    /// Computed from array sizes, the census or launch counts.
    Computed,
}

impl Source {
    pub fn word(self) -> &'static str {
        match self {
            Source::Host => "host time",
            Source::Simulated => "simulated",
            Source::Count => "count",
            Source::Computed => "computed",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the first file's median by which the second may be worse
    /// before `compare` calls it a regression; `None` reports only.
    pub bound: Option<f64>,
    /// Must be bit-identical between two runs of one commit.
    pub exact: bool,
    pub source: Source,
    /// The end-to-end metric and workload this number should move
    /// (README interaction table).
    pub moves: &'static str,
}

impl Metric {
    /// `"exact"`, `"25 %"`, or `"-"` for a metric that is only reported.
    pub fn bound_label(&self) -> String {
        match (self.exact, self.bound) {
            (true, _) => "exact".to_string(),
            (false, Some(b)) => format!("{:.0} %", b * 100.0),
            (false, None) => "-".to_string(),
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: Source,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        source,
        moves,
    }
}

/// End-to-end metrics every workload reports with tracing off — the
/// `end_to_end` list of BENCHMARK.json. None of them can be 0.
pub const END_TO_END: [Metric; 4] = [
    e2e(
        "sypd",
        "1/d",
        Better::Higher,
        0.25,
        Source::Host,
        "simulated years per wall-clock day at the run's quiet step time: dt / step_ms_p50 / 365 (the same measurement in the paper's unit); \
         ensemble_serve: upper quartile over its windows of steps served * dt / window / 365",
    ),
    e2e(
        "step_ms_p50",
        "ms",
        Better::Lower,
        0.25,
        Source::Host,
        "the run's quiet step time: over its episodes, of each episode's fastest try_step wall (slowest rank per step), \
         the fastest if the workload keeps every core busy, else the lower quartile; \
         ensemble_serve: lower quartile over its windows of each window's median submit-to-terminal latency / job steps",
    ),
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        Source::Host,
        "fastest of the run's set-ups, episode start to first timed step (world spawn, Model::new on every rank, warm-up); \
         ensemble_serve: median over its server lifetimes, Server::start to the first pilot job's Started event",
    ),
    e2e(
        "peak_rss_mb",
        "MiB",
        Better::Lower,
        0.25,
        Source::Host,
        "VmHWM of the workload's process; ensemble_serve: median over its server lifetimes of the highest VmRSS seen (sampled every 10 ms)",
    ),
];

/// Reported by `run` beside the four above, on the workloads they are
/// defined for; `compare` holds them to these bounds. They cannot sit in
/// BENCHMARK.json's `end_to_end` list, which every workload must report
/// and which may never read 0.
pub const END_TO_END_EXTRA: [Metric; 4] = [
    e2e(
        "steps_per_s",
        "1/s",
        Better::Higher,
        0.25,
        Source::Host,
        "ensemble_serve: upper quartile over its windows (one per server lifetime) of steps served / window",
    ),
    e2e(
        "job_ms_p50",
        "ms",
        Better::Lower,
        0.25,
        Source::Host,
        "ensemble_serve: lower quartile over its windows of each window's median submit-to-terminal-event latency",
    ),
    Metric {
        name: "sim_cycles_per_step",
        unit: "cycles",
        better: Better::Lower,
        bound: Some(0.0),
        exact: true,
        source: Source::Simulated,
        moves: "cpe_swathread_1r: CgCounters::kernel_cycles / steps (simulated time, not host time)",
    },
    Metric {
        name: "failed_fraction",
        unit: "1",
        better: Better::Lower,
        bound: Some(0.0),
        exact: true,
        source: Source::Count,
        moves: "all: (steps returning Err + jobs not Completed + submit refusals + checksum mismatches) / attempted",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    source: Source,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Computed, Count, Host, Simulated};

const MV_HALO: &str = "sypd, step_ms_p50 on halo_serial_2r; none on kernel_serial_1r";
const MV_DISPATCH: &str = "sypd on ensemble_serve (launch cost) and kernel_threads_1r (partitioning); none on kernel_serial_1r";
const MV_CPE_SIM: &str = "sim_cycles_per_step on cpe_swathread_1r";
const MV_SETUP: &str = "setup_s everywhere, step_ms_p50 on ensemble_serve";
const MV_KERNEL: &str = "sypd on kernel_serial_1r and kernel_threads_1r";
const MV_SERVE: &str = "sypd, step_ms_p50 on ensemble_serve";
const MV_NONE: &str = "none; guards the instruments' own cost";
const MV_MODEL: &str = "none; says how far perf-model projections can be trusted (unvalidated: no hardware reference here)";

/// The 16 `Timers` phase regions of `Model::try_step`.
pub const PHASES: [&str; 16] = [
    "advection_tracer",
    "barotropic",
    "canuto",
    "vmix_momentum",
    "vmix_tracer",
    "momentum",
    "hdiff",
    "halo_uv",
    "halo_ts",
    "halo_drain",
    "guard",
    "eos",
    "asselin",
    "update_uv",
    "forcing",
    "telemetry",
];

/// Per-layer metrics of the traced pass — the `per_layer` list of
/// BENCHMARK.json. A metric of a layer the workload does not exercise
/// reads 0 there (no messages on one rank, no DMA off the Sunway space).
pub const PER_LAYER: &[Metric] = &[
    // mpi-sim
    layer(
        "mpi-sim.p2p_msgs_per_step",
        "count",
        Lower,
        true,
        Count,
        MV_HALO,
    ),
    layer(
        "mpi-sim.p2p_bytes_per_step",
        "B",
        Lower,
        true,
        Count,
        MV_HALO,
    ),
    layer(
        "mpi-sim.pool_allocs_per_step",
        "count",
        Lower,
        true,
        Count,
        MV_HALO,
    ),
    layer(
        "mpi-sim.retries_total",
        "count",
        Lower,
        true,
        Count,
        MV_HALO,
    ),
    layer("mpi-sim.pingpong_ns", "ns", Lower, false, Host, MV_HALO),
    layer("mpi-sim.msg_64k_ns", "ns", Lower, false, Host, MV_HALO),
    layer("mpi-sim.allreduce_ns", "ns", Lower, false, Host, MV_SETUP),
    layer("mpi-sim.crc32c_gb_s", "GB/s", Higher, false, Host, MV_HALO),
    layer(
        "mpi-sim.flight_record_ns",
        "ns",
        Lower,
        false,
        Host,
        MV_HALO,
    ),
    // kokkos-rs
    layer(
        "kokkos-rs.launch_ns.serial",
        "ns",
        Lower,
        false,
        Host,
        MV_DISPATCH,
    ),
    layer(
        "kokkos-rs.launch_ns.threads",
        "ns",
        Lower,
        false,
        Host,
        MV_DISPATCH,
    ),
    layer(
        "kokkos-rs.launch_ns.devicesim",
        "ns",
        Lower,
        false,
        Host,
        MV_DISPATCH,
    ),
    layer(
        "kokkos-rs.launch_ns.swathread",
        "ns",
        Lower,
        false,
        Host,
        MV_DISPATCH,
    ),
    layer(
        "kokkos-rs.launches_per_step",
        "count",
        Lower,
        true,
        Count,
        MV_DISPATCH,
    ),
    layer(
        "kokkos-rs.dispatch_ms_per_step",
        "ms",
        Lower,
        false,
        Computed,
        MV_DISPATCH,
    ),
    layer(
        "kokkos-rs.triad_gb_s.serial",
        "GB/s",
        Higher,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "kokkos-rs.triad_gb_s.threads",
        "GB/s",
        Higher,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "kokkos-rs.threads_speedup",
        "x",
        Higher,
        false,
        Host,
        MV_DISPATCH,
    ),
    // kokkos-profiling
    layer(
        "kokkos-profiling.profiler_overhead_frac",
        "1",
        Lower,
        false,
        Host,
        MV_NONE,
    ),
    layer(
        "kokkos-profiling.disabled_hook_ns",
        "ns",
        Lower,
        false,
        Host,
        MV_NONE,
    ),
    // sunway-sim
    layer(
        "sunway-sim.sim_cycles_per_step",
        "cycles",
        Lower,
        true,
        Simulated,
        MV_CPE_SIM,
    ),
    layer(
        "sunway-sim.dma_bytes_per_step",
        "B",
        Lower,
        true,
        Simulated,
        MV_CPE_SIM,
    ),
    layer(
        "sunway-sim.dma_transactions_per_step",
        "count",
        Lower,
        true,
        Simulated,
        MV_CPE_SIM,
    ),
    layer(
        "sunway-sim.dma_stall_fraction",
        "1",
        Lower,
        true,
        Simulated,
        MV_CPE_SIM,
    ),
    layer(
        "sunway-sim.ldm_high_water_bytes",
        "B",
        Lower,
        true,
        Simulated,
        MV_CPE_SIM,
    ),
    layer(
        "sunway-sim.cpe_imbalance",
        "x",
        Lower,
        true,
        Simulated,
        MV_CPE_SIM,
    ),
    layer(
        "sunway-sim.flops_per_step",
        "count",
        Lower,
        true,
        Simulated,
        MV_CPE_SIM,
    ),
    layer(
        "sunway-sim.launches_per_step",
        "count",
        Lower,
        true,
        Simulated,
        MV_CPE_SIM,
    ),
    layer(
        "sunway-sim.host_ns_per_sim_kcycle",
        "ns",
        Lower,
        false,
        Host,
        "sypd on cpe_swathread_1r",
    ),
    // ocean-grid
    layer(
        "ocean-grid.global_build_ms",
        "ms",
        Lower,
        false,
        Host,
        MV_SETUP,
    ),
    layer(
        "ocean-grid.wetset_build_ms",
        "ms",
        Lower,
        false,
        Host,
        MV_SETUP,
    ),
    layer(
        "ocean-grid.wet_fraction",
        "1",
        Higher,
        true,
        Count,
        MV_SETUP,
    ),
    // halo-exchange
    layer("halo-exchange.halo2d_us", "us", Lower, false, Host, MV_HALO),
    layer(
        "halo-exchange.halo3d_nz6_us",
        "us",
        Lower,
        false,
        Host,
        MV_HALO,
    ),
    layer(
        "halo-exchange.halo3d_nz30_us",
        "us",
        Lower,
        false,
        Host,
        MV_HALO,
    ),
    layer(
        "halo-exchange.halo3d_many4_us",
        "us",
        Lower,
        false,
        Host,
        MV_HALO,
    ),
    layer(
        "halo-exchange.integrity_overhead_frac",
        "1",
        Lower,
        false,
        Host,
        MV_HALO,
    ),
    layer(
        "halo-exchange.pack_ms_per_step",
        "ms",
        Lower,
        false,
        Host,
        MV_HALO,
    ),
    layer(
        "halo-exchange.exchange_ms_per_step",
        "ms",
        Lower,
        false,
        Host,
        MV_HALO,
    ),
    layer(
        "halo-exchange.wait_fraction",
        "1",
        Lower,
        false,
        Host,
        MV_HALO,
    ),
    layer(
        "halo-exchange.hidden_fraction",
        "1",
        Higher,
        false,
        Host,
        MV_HALO,
    ),
    layer(
        "halo-exchange.strong_scaling_eff_2r",
        "1",
        Higher,
        false,
        Host,
        MV_HALO,
    ),
    // licom
    layer(
        "licom.phase_ms.advection_tracer",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "licom.phase_ms.barotropic",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer("licom.phase_ms.canuto", "ms", Lower, false, Host, MV_KERNEL),
    layer(
        "licom.phase_ms.vmix_momentum",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "licom.phase_ms.vmix_tracer",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "licom.phase_ms.momentum",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer("licom.phase_ms.hdiff", "ms", Lower, false, Host, MV_KERNEL),
    layer(
        "licom.phase_ms.halo_uv",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "licom.phase_ms.halo_ts",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "licom.phase_ms.halo_drain",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer("licom.phase_ms.guard", "ms", Lower, false, Host, MV_KERNEL),
    layer("licom.phase_ms.eos", "ms", Lower, false, Host, MV_KERNEL),
    layer(
        "licom.phase_ms.asselin",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "licom.phase_ms.update_uv",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "licom.phase_ms.forcing",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "licom.phase_ms.telemetry",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "licom.kernel_ms_per_step",
        "ms",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer(
        "licom.ns_per_wet_cell_step",
        "ns",
        Lower,
        false,
        Host,
        MV_KERNEL,
    ),
    layer("licom.step_ms_p90", "ms", Lower, false, Host, MV_KERNEL),
    layer(
        "licom.unattributed_frac",
        "1",
        Lower,
        false,
        Host,
        "none; the reconciliation line, must stay <= 0.05",
    ),
    layer("licom.model_new_ms", "ms", Lower, false, Host, MV_SETUP),
    layer(
        "licom.checkpoint_write_ms",
        "ms",
        Lower,
        false,
        Host,
        MV_SERVE,
    ),
    layer(
        "licom.checkpoint_restore_ms",
        "ms",
        Lower,
        false,
        Host,
        MV_SERVE,
    ),
    layer("licom.checkpoint_mb", "MB", Lower, true, Count, MV_SERVE),
    layer(
        "licom.guard_trips",
        "count",
        Lower,
        true,
        Count,
        "failed steps everywhere",
    ),
    // perf-model
    layer(
        "perf-model.flops_per_cell_step",
        "count",
        Lower,
        true,
        Computed,
        MV_MODEL,
    ),
    layer(
        "perf-model.bytes_per_cell_step",
        "B",
        Lower,
        true,
        Computed,
        MV_MODEL,
    ),
    layer(
        "perf-model.census_share_l1_err",
        "1",
        Lower,
        false,
        Host,
        MV_MODEL,
    ),
    layer(
        "perf-model.stall_fraction_err",
        "1",
        Lower,
        false,
        Simulated,
        MV_MODEL,
    ),
    // licom-server
    layer(
        "licom-server.steps_per_s",
        "1/s",
        Higher,
        false,
        Host,
        MV_SERVE,
    ),
    layer(
        "licom-server.job_ms_p50",
        "ms",
        Lower,
        false,
        Host,
        MV_SERVE,
    ),
    layer(
        "licom-server.job_ms_p90",
        "ms",
        Lower,
        false,
        Host,
        MV_SERVE,
    ),
    layer("licom-server.submit_us", "us", Lower, false, Host, MV_SERVE),
    layer(
        "licom-server.slice_ms_p50",
        "ms",
        Lower,
        false,
        Host,
        MV_SERVE,
    ),
    layer(
        "licom-server.slice_ms_p99",
        "ms",
        Lower,
        false,
        Host,
        MV_SERVE,
    ),
    layer(
        "licom-server.rejected_total",
        "count",
        Lower,
        true,
        Count,
        MV_SERVE,
    ),
    layer(
        "licom-server.overhead_frac",
        "1",
        Lower,
        false,
        Host,
        MV_SERVE,
    ),
    // bench
    layer(
        "bench.trace_overhead_frac",
        "1",
        Lower,
        false,
        Host,
        MV_NONE,
    ),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(END_TO_END_EXTRA.iter())
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// How long one contract run measures (BENCHMARK.json `run_seconds`).
pub const RUN_SECONDS: u64 = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&END_TO_END_EXTRA).chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        for p in PHASES {
            assert!(metric(&format!("licom.phase_ms.{p}")).is_some(), "{p}");
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
        }
    }

    #[test]
    fn every_workload_passes_its_own_preflight() {
        for w in WORKLOADS {
            if let Kind::Model(mut ep) = w.kind {
                ep.preflight().unwrap();
                ep.steps = w.traced_steps;
                ep.preflight().unwrap();
            }
        }
        assert!(SERVE_GRIDS.iter().all(|g| SERVE_MAX_STEPS <= g.horizon));
    }

    #[test]
    fn preflight_refuses_an_episode_past_the_horizon() {
        let ep = Episode {
            ranks: 1,
            space: SpaceKind::Serial,
            grid: GRID_KERNEL,
            warmup: 3,
            steps: 198,
        };
        let err = ep.preflight().unwrap_err();
        assert!(err.contains("180x115x30") && err.contains("200"), "{err}");
    }

    #[test]
    fn grids_are_the_documented_sizes() {
        assert_eq!(GRID_KERNEL.label(), "180x115x30");
        assert_eq!(GRID_CPE.label(), "120x76x30");
        assert_eq!(GRID_HALO.label(), "60x38x6");
        assert_eq!(SERVE_GRIDS[0].label(), "30x19x4");
        assert_eq!(SERVE_GRIDS[1].label(), "40x25x6");
        assert_eq!(GRID_KERNEL.cfg().dt_baroclinic, 180.0);
    }
}
