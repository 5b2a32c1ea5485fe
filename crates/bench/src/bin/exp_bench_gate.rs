//! CI perf-regression gate — the telemetry subsystem end to end.
//!
//! Runs a profiled 4-rank model on every execution space, builds the
//! cross-rank telemetry report (imbalance attribution, halo-wait /
//! compute split, critical path) and writes a schema-validated
//! `BENCH_run.json`, then compares it metric-by-metric against the
//! committed `BENCH_baseline.json` under the tolerance policy in
//! [`bench::gate`]. Timing metrics only fail on >25% regressions;
//! deterministic transport counters must match exactly.
//!
//! ```text
//! exp_bench_gate                      # gate against BENCH_baseline.json
//! exp_bench_gate --write-baseline     # (re)write the baseline and exit 0
//! exp_bench_gate --inject-regression  # self-test: 2x timing, must exit 1
//! exp_bench_gate --baseline P --out P --report P   # override paths
//! exp_bench_gate --assert-below threads.halo_wait_fraction=0.3
//!                                     # hard bound (repeatable): exit 1
//!                                     # if the metric is >= the value
//! exp_bench_gate --trace P            # chrome-trace of one Threads run
//! ```
//!
//! Exit codes: 0 pass, 1 regression / missing metric / failed
//! `--assert-below` bound, 2 usage/IO error.
//!
//! `overlap_efficiency` is measured from the halo engines' in-flight
//! counter: `(compute + inflight) / wall` on rank 0, where `compute` is
//! the leaf-phase sum minus receive-wait and `inflight` accumulates every
//! exchange's begin→done span (concurrent spans add). A fully blocking
//! schedule scores ≈1 (comm serializes with compute); carrying exchanges
//! across kernel work pushes it toward 1 + inflight/wall.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::banner;
use bench::gate::{
    compare_metrics, gate_passes, merge_best, render_diff, summary_to_json, validate_summary,
    write_summary,
};
use kokkos_profiling::{
    attach, detach, gather_phases, is_enclosing, parse_json, render_prometheus, CriticalPath,
    ImbalanceReport, Profiler, WaitComputeSplit,
};
use licom::model::{Model, ModelOptions, StepStats};
use mpi_sim::{TrafficSnapshot, World};
use ocean_grid::Resolution;
use perf_model::{predicted_imbalance, predicted_shares, Machine, ProblemSpec};

const RANKS: usize = 4;
const STEPS: usize = 8;
const SPACES: [&str; 4] = ["Serial", "Threads", "DeviceSim", "SwAthread"];

/// Acceptance bound: wait + compute must sum to the measured step wall
/// within this relative error (the ISSUE's ±2%).
const SPLIT_BOUND: f64 = 0.02;

fn space_for(name: &str) -> kokkos_rs::Space {
    if name == "SwAthread" {
        kokkos_rs::Space::sw_athread_with(sunway_sim::CgConfig::bench())
    } else {
        kokkos_rs::Space::from_name(name).expect("known space")
    }
}

struct RankResult {
    stats: StepStats,
    /// This rank's phase profile (phase name → seconds).
    phases: Vec<(String, f64)>,
    /// All ranks' profiles, gathered through the deterministic
    /// allgather — identical on every rank.
    profiles: Vec<Vec<(String, f64)>>,
    daily_loop: f64,
    halo_wait_ns: u64,
    halo_inflight_ns: u64,
    counters: Vec<(String, u64)>,
    traffic: TrafficSnapshot,
    wet_cells: u64,
    monitor: String,
    /// SwAthread only: core-group counter rollup
    /// `[dma_bytes, dma_stall_cycles, cpe_busy_cycles, ldm_high_water]`.
    cg: Option<[f64; 4]>,
}

struct SpaceSummary {
    name: &'static str,
    metrics: Vec<(String, f64)>,
    report: String,
}

fn run_space(space_name: &'static str, cfg: &ocean_grid::ModelConfig) -> SpaceSummary {
    let days = STEPS as f64 * cfg.dt_baroclinic / 86_400.0;
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
        // The model's space clone shares the simulated core group, so the
        // counters here cover every kernel the run launched.
        let cg = match &space {
            kokkos_rs::Space::SwAthread(sw) => {
                let c = sw.counters();
                Some([
                    (c.totals.dma_get_bytes + c.totals.dma_put_bytes) as f64,
                    c.totals.dma_stall_cycles as f64,
                    c.kernel_cycles_mean as f64 * sw.config().num_cpes as f64,
                    c.totals.ldm_high_water as f64,
                ])
            }
            _ => None,
        };
        // Leaf phases only: the enclosing daily_loop/step timers contain
        // them and would double-count every second.
        let phases: Vec<(String, f64)> = m
            .timers
            .phase_seconds()
            .into_iter()
            .filter(|(n, _)| !is_enclosing(n))
            .map(|(n, s)| (n.to_string(), s))
            .collect();
        let profiles = gather_phases(m.comm(), phases.clone());
        RankResult {
            stats,
            phases,
            profiles,
            daily_loop: m.timers.seconds("daily_loop"),
            halo_wait_ns: m.halo_wait_ns(),
            halo_inflight_ns: m.halo_inflight_ns(),
            counters: m
                .timers
                .counters()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            traffic: m.comm().traffic(),
            wet_cells: m.grid.wet.cells3_own.indices.len() as u64,
            cg,
            monitor: m
                .telemetry()
                .map(|t| t.render())
                .unwrap_or_else(|| "telemetry disabled\n".to_string()),
        }
    });

    let r0 = &results[0];
    let prefix = space_name.to_lowercase();
    let imbalance = ImbalanceReport::from_profiles(&r0.profiles);

    // Halo-wait / compute split, per rank: phase timers must decompose
    // the measured wall within the ±2% bound on every rank.
    let mut split_lines = String::new();
    for (rank, r) in results.iter().enumerate() {
        let phase_sum: f64 = r.phases.iter().map(|(_, s)| s).sum();
        let split = WaitComputeSplit::new(phase_sum, r.halo_wait_ns as f64 * 1e-9, r.daily_loop);
        assert!(
            split.coverage_error() <= SPLIT_BOUND,
            "{space_name} rank {rank}: wait+compute covers wall to {:.2}% (> {:.0}% bound)",
            split.coverage_error() * 100.0,
            SPLIT_BOUND * 100.0
        );
        split_lines.push_str(&format!("rank {rank}: {}", split.render()));
    }

    // Critical path: slowest rank per phase, serialized, vs measured
    // (max across ranks) daily-loop wall.
    let wall_max = results.iter().map(|r| r.daily_loop).fold(0.0, f64::max);
    let critical = CriticalPath::from_report(&imbalance, wall_max);

    // Census-predicted imbalance floor from the wet-point decomposition.
    let wet: Vec<u64> = results.iter().map(|r| r.wet_cells).collect();
    let predicted = predicted_imbalance(&wet);
    let heaviest = &imbalance.phases[0];

    let r0_split = WaitComputeSplit::new(
        r0.phases.iter().map(|(_, s)| s).sum(),
        r0.halo_wait_ns as f64 * 1e-9,
        r0.daily_loop,
    );

    // Measured comm/compute overlap on rank 0: compute (leaf phases
    // minus receive-wait) plus communication-in-flight seconds, over the
    // step-loop wall. Blocking exchanges contribute their whole call
    // span to `inflight` so a dense schedule scores ≈1; split-phase
    // exchanges carried across kernels score the hidden span too.
    let r0_phase_sum: f64 = r0.phases.iter().map(|(_, s)| s).sum();
    let r0_compute = (r0_phase_sum - r0.halo_wait_ns as f64 * 1e-9).max(0.0);
    let overlap_efficiency = if r0.daily_loop > 0.0 {
        (r0_compute + r0.halo_inflight_ns as f64 * 1e-9) / r0.daily_loop
    } else {
        0.0
    };

    let count = |name: &str| -> f64 {
        r0.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v as f64)
            .unwrap_or(0.0)
    };
    let mut metrics = vec![
        (format!("{prefix}.sypd"), r0.stats.sypd),
        (
            format!("{prefix}.mean_step_seconds"),
            r0.daily_loop / STEPS as f64,
        ),
        (
            format!("{prefix}.halo_wait_seconds"),
            r0.halo_wait_ns as f64 * 1e-9 / STEPS as f64,
        ),
        (
            format!("{prefix}.halo_wait_fraction"),
            r0_split.halo_fraction(),
        ),
        (format!("{prefix}.max_over_mean"), heaviest.max_over_mean),
        (format!("{prefix}.overlap_efficiency"), overlap_efficiency),
        // World-cumulative transport totals — unlike the per-step
        // windowed `halo_msgs` counter (whose window boundaries depend
        // on rank scheduling), the end-of-run totals are deterministic.
        (
            format!("{prefix}.p2p_messages_total"),
            r0.traffic.p2p_messages as f64,
        ),
        (
            format!("{prefix}.p2p_bytes_total"),
            r0.traffic.p2p_bytes as f64,
        ),
        (format!("{prefix}.wet_cells"), r0.wet_cells as f64),
        (format!("{prefix}.steps"), r0.stats.steps as f64),
        (
            format!("{prefix}.drift_perf_trips"),
            count("drift_perf_trips"),
        ),
        (
            format!("{prefix}.drift_physics_trips"),
            count("drift_physics_trips"),
        ),
    ];
    // SwAthread's simulated hardware counters: DMA traffic, residual
    // Eq. 1/2 stall fraction, and LDM residency — the direct evidence
    // for the LDM-tiling deliverables, gated direction-aware.
    if let Some([dma_bytes, stall_cycles, busy_cycles, ldm_high]) = r0.cg {
        metrics.push((
            format!("{prefix}.cg_dma_bytes_per_step"),
            dma_bytes / STEPS as f64,
        ));
        metrics.push((
            format!("{prefix}.cg_dma_stall_fraction"),
            stall_cycles / busy_cycles.max(1.0),
        ));
        metrics.push((format!("{prefix}.cg_ldm_high_water"), ldm_high));
    }

    // Full text report for this space (CI uploads it as an artifact).
    let mut report = format!("## space: {space_name}\n\n");
    report.push_str(&imbalance.render());
    report.push('\n');
    report.push_str(&critical.render());
    report.push_str(&split_lines);
    report.push_str(&r0.monitor);
    report.push_str(&format!(
        "census imbalance floor (wet points): {predicted:.3}; measured `{}` max/mean: {:.3}\n",
        heaviest.name, heaviest.max_over_mean
    ));
    let counters: Vec<(&str, u64)> = r0.counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let phases: Vec<(&str, f64)> = r0.phases.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    report.push_str("\n### rank-0 Prometheus exposition\n\n");
    report.push_str(&render_prometheus(&r0.traffic, &counters, &phases));

    SpaceSummary {
        name: space_name,
        metrics,
        report,
    }
}

/// Seeded rank-death scenario: 3 compute + 1 spare, rank 1 dies while
/// attempting step 4 of 6 under the overlap engine, the elastic driver
/// recovers through spare adoption + checkpoint-ring restore. The
/// recovery counters are fully deterministic, so the gate holds them
/// exact; MTTR-style timings ride along as informational metrics.
fn run_elastic_scenario() -> Vec<(String, f64)> {
    use licom::checkpoint::RecoveryPolicy;
    use licom::elastic::{run_elastic, ElasticConfig, ElasticOutcome};
    use mpi_sim::{FaultPlan, RetryPolicy, WorldConfig};

    let cfg = Resolution::Coarse100km.config().scaled_down(8, 6);
    let dir = std::env::temp_dir().join("licom_bench_gate_elastic");
    let _ = std::fs::remove_dir_all(&dir);
    let ecfg = ElasticConfig {
        target_steps: 6,
        ckpt_dir: dir.clone(),
        ring: 3,
        recovery: RecoveryPolicy {
            checkpoint_every: 2,
            max_rollbacks: 8,
        },
    };
    let wc = WorldConfig::new(4)
        .spares(1)
        .faults(FaultPlan::new(0xDEAD_0001).kill(1, 3));
    let (out, traffic) = World::run_cfg(wc, move |comm| {
        let opts = ModelOptions {
            overlap: true,
            retry: RetryPolicy::test_small(),
            ..Default::default()
        };
        match run_elastic(comm, cfg.clone(), kokkos_rs::Space::serial(), opts, &ecfg)
            .expect("gate scenario must recover")
        {
            ElasticOutcome::Completed { stats, .. } => Some(stats),
            ElasticOutcome::Spared | ElasticOutcome::Died => None,
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    let finished: Vec<_> = out.into_iter().flatten().collect();
    assert_eq!(finished.len(), 3, "all three roles must finish");
    let s = &finished[0];
    vec![
        (
            "elastic.rank_deaths_recovered".to_string(),
            s.rank_deaths_recovered as f64,
        ),
        (
            "elastic.recovery_replay_steps".to_string(),
            s.recovery_replay_steps as f64,
        ),
        (
            "elastic.rank_deaths".to_string(),
            traffic.rank_deaths as f64,
        ),
        (
            "elastic.detection_ms".to_string(),
            finished.iter().map(|s| s.detection_ns).max().unwrap_or(0) as f64 * 1e-6,
        ),
        (
            "elastic.recovery_wall_ms".to_string(),
            finished
                .iter()
                .map(|s| s.recovery_wall_ns)
                .max()
                .unwrap_or(0) as f64
                * 1e-6,
        ),
    ]
}

/// Seeded serving scenario: 48 traffic-gen jobs (mixed grids, mixed
/// priorities, some checkpointing) over 4 workers on the shared Threads
/// pool. Job/step totals are deterministic (exact-gated); throughput
/// and tail latency are wall-clock (band-gated direction-aware).
fn run_server_scenario() -> Vec<(String, f64)> {
    use licom_server::{generate, Server, ServerConfig, TrafficConfig};

    let dir = std::env::temp_dir().join("licom_bench_gate_server");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        workers: 4,
        ckpt_base: dir.clone(),
        ..ServerConfig::default()
    });
    let traffic = TrafficConfig {
        jobs: 48,
        steps: (3, 6),
        ..TrafficConfig::default()
    };
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = generate(&traffic)
        .into_iter()
        .map(|a| server.submit(a.spec).expect("gate scenario within bounds"))
        .collect();
    let snap = server.join();
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(snap.jobs_failed, 0, "serving scenario must not fail jobs");
    assert_eq!(handles.len() as u64, snap.jobs_completed);
    vec![
        (
            "server.jobs_completed".to_string(),
            snap.jobs_completed as f64,
        ),
        ("server.steps_total".to_string(), snap.steps_total as f64),
        (
            "server.steps_per_sec".to_string(),
            snap.steps_total as f64 / wall.max(1e-9),
        ),
        (
            "server.p99_step_latency_ns".to_string(),
            snap.p99_step_ns as f64,
        ),
        (
            "server.p50_step_latency_ns".to_string(),
            snap.p50_step_ns as f64,
        ),
    ]
}

/// Flight-recorder scenario. Two measurements:
///
/// * `flight.record_ns_per_event` — armed per-event recording cost over
///   a large batch (seqlock ring write + Lamport tick), band-gated and
///   additionally pinned by CI's `--assert-below` ceiling;
///   `flight.disabled_ns_per_event` rides along informationally (the
///   disabled path is one relaxed atomic load).
/// * `flight.dump_events_total` — a fixed event sequence recorded into a
///   fixed-capacity ring and dumped through the post-mortem path; the
///   read-back bundle's event count is deterministic (exact-gated).
fn run_flight_scenario() -> Vec<(String, f64)> {
    use mpi_sim::flight::{self, FlightEventKind};

    const N: u64 = 200_000;
    let timings = World::run(1, |comm| {
        // Disabled path first: no scope armed anywhere, so each call is
        // the single-atomic-load bail-out.
        let t0 = std::time::Instant::now();
        for i in 0..N {
            flight::record(FlightEventKind::KernelBegin, i, 0, 0);
        }
        let disabled_ns = t0.elapsed().as_nanos() as f64 / N as f64;

        let _scope = kokkos_profiling::flight::arm(comm, 4096);
        let t0 = std::time::Instant::now();
        for i in 0..N {
            flight::record(FlightEventKind::KernelBegin, i, 0, 0);
        }
        let armed_ns = t0.elapsed().as_nanos() as f64 / N as f64;
        (armed_ns, disabled_ns)
    });
    let (armed_ns, disabled_ns) = timings[0];

    let dir = std::env::temp_dir().join("licom_bench_gate_flight");
    let _ = std::fs::remove_dir_all(&dir);
    let dump_dir = dir.clone();
    let counts = World::run(1, move |comm| {
        let _scope = kokkos_profiling::flight::arm(comm, 512);
        for i in 0..300u64 {
            flight::record(FlightEventKind::StepBegin, i, 0, 0);
        }
        let path = kokkos_profiling::dump_on_failure(&dump_dir, "bench-gate", comm)
            .expect("first dump of a fresh world claims");
        let bundle = kokkos_profiling::read_bundle(&path).expect("bundle is schema-valid");
        bundle.events.len() as f64
    });
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        ("flight.record_ns_per_event".to_string(), armed_ns),
        ("flight.disabled_ns_per_event".to_string(), disabled_ns),
        ("flight.dump_events_total".to_string(), counts[0]),
    ]
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("exp_bench_gate: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut write_baseline = false;
    let mut inject = false;
    let repo_root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut baseline_path = repo_root.join("BENCH_baseline.json");
    let mut out_path = PathBuf::from("BENCH_run.json");
    let mut report_path = PathBuf::from("telemetry_report.txt");
    let mut trace_path: Option<PathBuf> = None;
    let mut assert_below: Vec<(String, f64)> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--write-baseline" => write_baseline = true,
            "--inject-regression" => inject = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = PathBuf::from(p),
                None => return fail("--baseline needs a path"),
            },
            "--out" => match args.next() {
                Some(p) => out_path = PathBuf::from(p),
                None => return fail("--out needs a path"),
            },
            "--report" => match args.next() {
                Some(p) => report_path = PathBuf::from(p),
                None => return fail("--report needs a path"),
            },
            "--trace" => match args.next() {
                Some(p) => trace_path = Some(PathBuf::from(p)),
                None => return fail("--trace needs a path"),
            },
            "--assert-below" => match args.next().as_deref().and_then(|s| {
                let (name, val) = s.split_once('=')?;
                Some((name.to_string(), val.parse::<f64>().ok()?))
            }) {
                Some(bound) => assert_below.push(bound),
                None => return fail("--assert-below needs NAME=VALUE"),
            },
            other => return fail(&format!("unknown flag `{other}`")),
        }
    }

    banner("bench gate: telemetry-instrumented 4-rank run on every space");
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 6);
    println!(
        "{RANKS} ranks x {STEPS} steps, {}x{}x{} grid",
        cfg.nx, cfg.ny, cfg.nz
    );
    println!("isa = {}", licom::lanes::Isa::detect().name());

    let mut raw: BTreeMap<String, f64> = BTreeMap::new();
    let mut report = String::from("# licomkpp telemetry report\n\n");
    for space in SPACES {
        banner(&format!("space: {space}"));
        // Two measurement passes, best-of merged direction-aware:
        // contention on a shared runner only ever makes a pass look
        // worse, so the better pass is the truer measurement. The
        // Threads pass optionally records a chrome trace (an attached
        // profiler adds span overhead, so only the requested run pays).
        let first = if let (Some(path), "Threads") = (&trace_path, space) {
            let prof = std::sync::Arc::new(Profiler::default());
            attach(prof.clone());
            let s = run_space(space, &cfg);
            detach();
            match prof.write_trace(path) {
                Ok(()) => println!("wrote trace {}", path.display()),
                Err(e) => return fail(&format!("writing trace {}: {e}", path.display())),
            }
            s
        } else {
            run_space(space, &cfg)
        };
        let second = run_space(space, &cfg);
        assert_eq!(first.name, space);
        let a: BTreeMap<String, f64> = first.metrics.iter().cloned().collect();
        let b: BTreeMap<String, f64> = second.metrics.iter().cloned().collect();
        for (k, v) in merge_best(&a, &b) {
            println!("  {k:<34} {v:.6}");
            raw.insert(k, v);
        }
        report.push_str(&first.report);
        report.push('\n');
    }

    banner("elastic rank-death scenario (exact recovery counters)");
    for (k, v) in run_elastic_scenario() {
        println!("  {k:<34} {v:.6}");
        raw.insert(k, v);
    }

    banner("ensemble-serving scenario (48 jobs over the shared pool)");
    for (k, v) in run_server_scenario() {
        println!("  {k:<34} {v:.6}");
        raw.insert(k, v);
    }

    banner("flight-recorder scenario (armed record cost + deterministic dump)");
    for (k, v) in run_flight_scenario() {
        println!("  {k:<34} {v:.6}");
        raw.insert(k, v);
    }

    // Census shares recap rides the report (predicted-vs-measured, the
    // §VI-C calibration loop).
    let spec = ProblemSpec::from_config(&cfg);
    let shares = predicted_shares(&spec, &Machine::orise(), RANKS);
    report.push_str("## census predicted shares (ORISE, 4 ranks)\n\n");
    for (name, s) in &shares {
        report.push_str(&format!("{name:<20} {:.2}%\n", 100.0 * s));
    }

    let apply_injection = |raw: &BTreeMap<String, f64>| -> BTreeMap<String, f64> {
        let mut m = raw.clone();
        // Derived headline metric: the SwAthread/Threads gap (1.0 =
        // parity). Recomputed here so re-measured retries refresh it.
        if let (Some(&t), Some(&s)) = (m.get("threads.sypd"), m.get("swathread.sypd")) {
            if s > 0.0 && t > 0.0 {
                m.insert("swathread.sypd_ratio_vs_threads".to_string(), t / s);
            }
        }
        if inject {
            for (name, v) in m.iter_mut() {
                if name.ends_with(".mean_step_seconds") || name.ends_with(".halo_wait_seconds") {
                    *v *= 2.0;
                } else if name.ends_with(".sypd") {
                    *v *= 0.5;
                }
            }
        }
        m
    };
    if inject {
        banner("injecting synthetic 2x timing regression (self-test)");
    }
    let mut metrics = apply_injection(&raw);

    let mut diffs = Vec::new();
    if !write_baseline {
        banner(&format!("gate vs {}", baseline_path.display()));
        let baseline = match std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_json(&t))
            .and_then(|d| validate_summary(&d))
        {
            Ok(m) => m,
            Err(e) => {
                return fail(&format!(
                    "loading baseline {}: {e} (run with --write-baseline first)",
                    baseline_path.display()
                ))
            }
        };
        diffs = compare_metrics(&baseline, &metrics);
        // Timing-only regressions get the affected spaces re-measured
        // and merged best-of before the verdict sticks — a loaded
        // runner produces one-sided outliers, a real regression
        // persists. Exact-counter failures are never retried.
        let timing_only = |d: &bench::gate::MetricDiff| {
            d.verdict == bench::gate::Verdict::Regressed
                && matches!(
                    bench::gate::policy_for(&d.name).direction,
                    bench::gate::Direction::HigherIsBetter | bench::gate::Direction::LowerIsBetter
                )
        };
        for retry in 1..=2 {
            let retryable = diffs.iter().all(|d| {
                !matches!(
                    d.verdict,
                    bench::gate::Verdict::Regressed | bench::gate::Verdict::Missing
                ) || timing_only(d)
            });
            if gate_passes(&diffs) || !retryable {
                break;
            }
            let suspects: Vec<&'static str> = SPACES
                .iter()
                .copied()
                .filter(|s| {
                    let p = format!("{}.", s.to_lowercase());
                    diffs
                        .iter()
                        .any(|d| timing_only(d) && d.name.starts_with(&p))
                })
                .collect();
            banner(&format!(
                "timing regression — re-measuring {} (retry {retry}/2)",
                suspects.join(", ")
            ));
            for space in suspects {
                let again = run_space(space, &cfg);
                let b: BTreeMap<String, f64> = again.metrics.iter().cloned().collect();
                raw = merge_best(&raw, &b);
            }
            if diffs
                .iter()
                .any(|d| timing_only(d) && d.name.starts_with("server."))
            {
                banner("re-measuring serving scenario");
                let b: BTreeMap<String, f64> = run_server_scenario().into_iter().collect();
                raw = merge_best(&raw, &b);
            }
            if diffs
                .iter()
                .any(|d| timing_only(d) && d.name.starts_with("flight."))
            {
                banner("re-measuring flight scenario");
                let b: BTreeMap<String, f64> = run_flight_scenario().into_iter().collect();
                raw = merge_best(&raw, &b);
            }
            metrics = apply_injection(&raw);
            diffs = compare_metrics(&baseline, &metrics);
        }
    }

    // Write + re-validate the machine-readable summary.
    let doc = summary_to_json(
        &[
            ("nx", cfg.nx as u64),
            ("ny", cfg.ny as u64),
            ("nz", cfg.nz as u64),
            ("ranks", RANKS as u64),
            ("steps", STEPS as u64),
        ],
        &SPACES,
        &metrics,
    );
    if let Err(e) = write_summary(&out_path, &doc) {
        return fail(&format!("writing {}: {e}", out_path.display()));
    }
    let round_trip = match std::fs::read_to_string(&out_path)
        .map_err(|e| e.to_string())
        .and_then(|t| parse_json(&t))
        .and_then(|d| validate_summary(&d))
    {
        Ok(m) => m,
        Err(e) => {
            return fail(&format!(
                "{} failed schema validation: {e}",
                out_path.display()
            ))
        }
    };
    assert_eq!(round_trip, metrics, "run summary must round-trip");
    println!(
        "\nwrote {} (schema-valid, {} metrics)",
        out_path.display(),
        metrics.len()
    );

    if let Err(e) = std::fs::write(&report_path, &report) {
        return fail(&format!("writing {}: {e}", report_path.display()));
    }
    println!("wrote {}", report_path.display());

    if write_baseline {
        if let Err(e) = write_summary(&baseline_path, &doc) {
            return fail(&format!("writing {}: {e}", baseline_path.display()));
        }
        println!("wrote baseline {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    // Hard bounds from --assert-below: absolute ceilings independent of
    // the baseline (CI uses them to pin the overlap-engine deliverables).
    let mut bounds_ok = true;
    for (name, bound) in &assert_below {
        match metrics.get(name) {
            Some(&v) if v < *bound => {
                println!("assert-below: {name} = {v:.6} < {bound} (ok)");
            }
            Some(&v) => {
                eprintln!("assert-below FAILED: {name} = {v:.6} >= {bound}");
                bounds_ok = false;
            }
            None => {
                eprintln!("assert-below FAILED: metric `{name}` was not measured");
                bounds_ok = false;
            }
        }
    }

    print!("{}", render_diff(&diffs));
    if gate_passes(&diffs) && bounds_ok {
        println!("\ngate: PASS");
        ExitCode::SUCCESS
    } else {
        println!("\ngate: FAIL (regression beyond tolerance, see above)");
        ExitCode::FAILURE
    }
}
