//! `licom_bench` — the repository's reference benchmark.
//!
//! Five workloads, SYPD end to end, every crate measured from outside:
//! by timing calls into public functions, by the benchmark's own
//! implementations of `ProfilingHooks` and `CommTap`, and by reading
//! public counters. README.md beside this file documents every metric,
//! workload and command; `spec.rs` is the registry they are tested against.
//!
//! ```text
//! licom_bench --workload W --seed S --seconds T --trace 0|1   one workload, one process (the driver's form)
//! licom_bench run   --seed S --out F [--reverse]               all five, tracing off, each in a child process
//! licom_bench trace --seed S --out F [--spans-dir D]           all five traced, with the layer probes
//! licom_bench compare A B                                      two result files against the bounds
//! licom_bench bless                                            regenerate golden.json (never called by run)
//! licom_bench manifest                                         print BENCHMARK.json from the registry
//! licom_bench metrics                                          print the metric table of README.md
//! ```

mod episode;
mod golden;
mod layers;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod tracer;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use kokkos_profiling::{render_json, render_json_pretty, Json};

use golden::Goldens;
use report::{Record, ResultFile};
use serve::{JobStream, Outcome, ServeOut, Until};
use spec::{Episode, Kind, SpaceKind, Workload};

/// Jobs served in each half (untraced, traced) of the traced serving pass.
const TRACED_JOBS: usize = 25;
/// How long each server lifetime of an untraced serving run is kept
/// saturated (the measured window); a run holds as many as fit `--seconds`.
const SERVE_WINDOW_S: f64 = 2.5;
const SERVE_MIN_WINDOWS: usize = 3;
/// Set-up-only server lifetimes before the windows: `setup_s` is the
/// median of these and the windows' own.
const SERVE_EXTRA_SETUPS: u32 = 6;
/// `licom.unattributed_frac` above this means the spans no longer add up
/// to the step.
const RECONCILIATION_BOUND: f64 = 0.05;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch directory beside the executable — inside the checkout
/// whatever the target directory is — removed when the process ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join("licom_bench_work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn new_record(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Record {
    Record {
        workload: w.name.to_string(),
        seed,
        seconds,
        traced,
        nproc: nproc(),
        deterministic: matches!(w.kind, Kind::Model(_)),
        ..Record::default()
    }
}

/// Count an episode's failed steps and hold its checksums to the goldens.
fn verify_episode(r: &mut Record, goldens: &Goldens, ep: &Episode, out: &episode::EpisodeOut) {
    r.attempted += out.steps().max(1);
    r.failed += out.failed_steps;
    r.notes.extend(out.errors.iter().cloned());
    if out.errors.is_empty() {
        if let Err(e) = goldens.check_episode(ep, &out.checksums) {
            r.failed += 1;
            r.notes.push(e);
        }
    }
}

fn verify_jobs(r: &mut Record, goldens: &Goldens, out: &ServeOut) {
    for job in &out.jobs {
        r.attempted += 1;
        let verdict = match &job.outcome {
            Outcome::Completed { checksum } => {
                goldens.check_job(job.plan.grid, job.plan.steps, *checksum)
            }
            Outcome::NotCompleted(why) => Err(format!(
                "job {}:{} not completed: {why}",
                job.plan.grid.label(),
                job.plan.steps
            )),
        };
        if let Err(e) = verdict {
            r.failed += 1;
            r.notes.push(e);
        }
    }
}

fn finish(r: &mut Record) -> Result<(), String> {
    r.correct = r.failed == 0;
    r.set("failed_fraction", r.failed_fraction());
    if !r.traced && !r.metrics.contains_key("peak_rss_mb") {
        // A traced process also holds its spans; its peak says nothing
        // about the workload.
        r.set("peak_rss_mb", stats::peak_rss_mb()?);
    }
    Ok(())
}

fn tail_note(what: &str, samples: &[f64]) -> String {
    match stats::tail(samples) {
        Some((pm, v)) => format!(
            "{what}: median {:.4}, p{} {v:.4} over {} samples",
            stats::median(samples),
            pm as f64 / 10.0,
            samples.len()
        ),
        None => format!(
            "{what}: median {:.4} over {} samples (too few for a tail percentile)",
            stats::median(samples),
            samples.len()
        ),
    }
}

/// Index of the largest value: interference from the host's other tenants
/// only ever slows an episode, so the fastest one is the least disturbed.
fn best(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// The smallest value: a model's set-up is computation, which disturbance
/// only adds to, so the fastest of a run's set-ups is the least disturbed.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Tracing off: repeat the workload's episode for `seconds` of wall clock,
/// set-ups included, and report the quiet step time (`stats::quiet`) over
/// the episodes' fastest steps.
fn measure_model(
    r: &mut Record,
    ep: &Episode,
    seconds: u64,
    work: &Path,
    process_start: Instant,
) -> Result<(), String> {
    ep.preflight()?;
    let goldens = Goldens::committed()?;
    let dt = ep.grid.cfg().dt_baroclinic;
    let budget = Duration::from_secs(seconds);
    let mut episodes = Vec::new();
    // The first episode's set-up counts from process start.
    let mut t0 = process_start;
    loop {
        let out = episode::run(ep, work, t0);
        verify_episode(r, &goldens, ep, &out);
        let broken = out.step_ns.is_empty();
        episodes.push(out);
        // Another episode only if one as long as the last still fits.
        if broken || process_start.elapsed() + t0.elapsed() > budget {
            break;
        }
        t0 = Instant::now();
    }
    let usable: Vec<&episode::EpisodeOut> =
        episodes.iter().filter(|e| !e.step_ns.is_empty()).collect();
    if usable.is_empty() {
        return Err(format!("no episode completed a timed step: {:?}", r.notes));
    }
    let saturated = ep.saturates(r.nproc);
    let fastest_step: Vec<f64> = usable.iter().map(|e| fastest(&e.step_ms())).collect();
    let setup: Vec<f64> = usable.iter().map(|e| e.setup_s).collect();
    let step_ms = stats::quiet(&fastest_step, saturated);
    r.set("step_ms_p50", step_ms);
    r.set("sypd", stats::sypd(1.0, dt, step_ms * 1e-3));
    r.set("setup_s", fastest(&setup));
    // Simulated time: the same in every episode.
    if let Some(cg) = &usable[0].cg {
        r.set(
            "sim_cycles_per_step",
            cg.kernel_cycles as f64 / usable[0].steps() as f64,
        );
    }
    let all_steps: Vec<f64> = usable.iter().flat_map(|e| e.step_ms()).collect();
    let whole: Vec<f64> = usable.iter().map(|e| e.sypd(dt)).collect();
    r.notes
        .push(tail_note("step_ms over every timed step", &all_steps));
    r.notes.push(format!(
        "{} episodes of {}+{} steps in {:.1} s; step_ms_p50 is the {} over the episodes of each episode's fastest step \
         (the workload {}), sypd the same step in years per day; over whole episodes sypd was {:.4} (median) to {:.4} (best)",
        usable.len(),
        ep.warmup,
        ep.steps,
        process_start.elapsed().as_secs_f64(),
        if saturated { "fastest" } else { "lower quartile" },
        if saturated {
            "keeps every core busy"
        } else {
            "leaves a core free"
        },
        stats::median(&whole),
        whole[best(&whole)],
    ));
    r.samples.insert(
        "sypd".into(),
        fastest_step
            .iter()
            .map(|ms| stats::sypd(1.0, dt, ms * 1e-3))
            .collect(),
    );
    r.samples.insert("step_ms_p50".into(), fastest_step);
    r.samples.insert("setup_s".into(), setup);
    r.samples.insert("step_ms".into(), all_steps);
    Ok(())
}

/// Tracing off: a few set-up-only server lifetimes, then lifetimes kept
/// saturated for `SERVE_WINDOW_S` each until `seconds` of wall clock are
/// spent; the throughput and latency metrics are quartiles over the windows.
fn measure_serve(
    r: &mut Record,
    seed: u64,
    seconds: u64,
    work: &Path,
    process_start: Instant,
) -> Result<(), String> {
    let goldens = Goldens::committed()?;
    let dt = spec::GRID_HALO.cfg().dt_baroclinic;
    let mut stream = JobStream::new(seed);
    let window = Duration::from_secs_f64(SERVE_WINDOW_S);
    let budget = Duration::from_secs(seconds);
    let mut setup = Vec::new();
    for _ in 0..SERVE_EXTRA_SETUPS {
        setup.push(serve::setup_only(work)?);
    }
    let mut windows = Vec::new();
    loop {
        let t0 = Instant::now();
        let out = serve::run(&mut stream, Until::Window(window), work, t0);
        verify_jobs(r, &goldens, &out);
        windows.push(out);
        // Another lifetime only if one as long as the last still fits.
        if windows.len() >= SERVE_MIN_WINDOWS && process_start.elapsed() + t0.elapsed() > budget {
            break;
        }
    }
    if windows
        .iter()
        .any(|w| w.window_steps == 0 || w.completed().is_empty() || w.peak_rss_mb == 0.0)
    {
        return Err(format!("a serving window completed no work: {:?}", r.notes));
    }
    // Per window: steps per second, and the median over its completed jobs
    // of latency and of latency per step.
    let sps: Vec<f64> = windows.iter().map(ServeOut::steps_per_s).collect();
    let job_ms: Vec<f64> = windows
        .iter()
        .map(|w| stats::median(&w.completed().iter().map(|j| j.0).collect::<Vec<_>>()))
        .collect();
    let per_step_ms: Vec<f64> = windows
        .iter()
        .map(|w| stats::median(&w.completed().iter().map(|j| j.0 / j.1).collect::<Vec<_>>()))
        .collect();
    let rss: Vec<f64> = windows.iter().map(|w| w.peak_rss_mb).collect();
    setup.extend(windows.iter().map(|w| w.setup_s));
    // A window's figure is already a total or a median over a dozen jobs
    // of three sizes, so the best window is an outlier as often as a quiet
    // one: the quiet quartile over the windows repeats better.
    let sypd: Vec<f64> = windows.iter().map(|w| w.sypd(dt)).collect();
    r.set("sypd", stats::quartiles(&sypd).1);
    r.set("steps_per_s", stats::quartiles(&sps).1);
    r.set("step_ms_p50", stats::quiet(&per_step_ms, false));
    r.set("job_ms_p50", stats::quiet(&job_ms, false));
    // This set-up is a few thread wake-ups: it has a rare fast path (a
    // worker not yet asleep) that a minimum would chase. The process's
    // peak resident set is a coincidence of jobs; the median lifetime's is not.
    r.set("setup_s", stats::median(&setup));
    r.set("peak_rss_mb", stats::median(&rss));
    let all_jobs: Vec<f64> = windows
        .iter()
        .flat_map(ServeOut::completed)
        .map(|j| j.0)
        .collect();
    r.notes
        .push(tail_note("job_ms over every completed job", &all_jobs));
    r.notes.push(format!(
        "{} server lifetimes with a saturated window of {:.2} s each in {:.1} s, {} workers, {} closed-loop clients; \
         setup_s is the median of {} set-ups, peak_rss_mb the median over the lifetimes (VmHWM of the process: {:.2} MiB), \
         every other metric is the quiet quartile over the windows (median window: {:.2} steps/s, best: {:.2})",
        windows.len(),
        window.as_secs_f64(),
        process_start.elapsed().as_secs_f64(),
        windows[0].workers,
        windows[0].workers,
        setup.len(),
        stats::peak_rss_mb()?,
        stats::median(&sps),
        sps[best(&sps)],
    ));
    r.samples.insert("step_ms_p50".into(), per_step_ms);
    r.samples.insert("job_ms_p50".into(), job_ms);
    r.samples.insert("sypd".into(), sypd);
    r.samples.insert("steps_per_s".into(), sps);
    r.samples.insert("setup_s".into(), setup);
    r.samples.insert("peak_rss_mb".into(), rss);
    Ok(())
}

fn write_spans(path: Option<&Path>, workload: &str, spans: &[tracer::Span]) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, render_json(&tracer::spans_to_json(workload, spans)))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Hold the traced pass to the reconciliation bound and say what share of
/// the untraced median step (`step_ms`) the dispatch estimate is.
fn reconcile(r: &mut Record, step_ms: f64) {
    let frac = r
        .metrics
        .get("licom.unattributed_frac")
        .copied()
        .unwrap_or(0.0);
    if frac > RECONCILIATION_BOUND {
        r.failed += 1;
        r.notes.push(format!(
            "reconciliation failed: {:.1}% of the step is covered by no span (bound {:.0}%)",
            frac * 100.0,
            RECONCILIATION_BOUND * 100.0
        ));
    }
    r.notes.push(format!(
        "estimated dispatch is {:.3}% of the median step",
        100.0 * r.metrics["kokkos-rs.dispatch_ms_per_step"] / step_ms
    ));
}

/// The traced pass of a model workload: one untraced and one traced
/// episode of `traced_steps`, then the probes.
fn trace_model(
    r: &mut Record,
    w: &Workload,
    ep: &Episode,
    work: &Path,
    spans_out: Option<&Path>,
) -> Result<(), String> {
    let ep = Episode {
        steps: w.traced_steps,
        ..*ep
    };
    ep.preflight()?;
    let goldens = Goldens::committed()?;
    let plain = episode::run(&ep, work, Instant::now());
    verify_episode(r, &goldens, &ep, &plain);
    tracer::start();
    let traced = episode::run(&ep, work, Instant::now());
    let spans = tracer::stop();
    verify_episode(r, &goldens, &ep, &traced);
    if plain.step_ns.is_empty() || traced.step_ns.is_empty() {
        return Err(format!("the traced pass completed no step: {:?}", r.notes));
    }
    write_spans(spans_out, w.name, &spans)?;
    let launch_ns = probes::run_all(r, work);
    layers::model(
        r,
        &ep,
        &traced,
        &plain,
        &tracer::summarize(&spans),
        launch_ns,
    );
    r.notes.push(format!("{} spans recorded", spans.len()));
    reconcile(r, stats::median(&plain.step_ms()));
    Ok(())
}

fn trace_serve(
    r: &mut Record,
    w: &Workload,
    seed: u64,
    work: &Path,
    spans_out: Option<&Path>,
) -> Result<(), String> {
    let goldens = Goldens::committed()?;
    let jobs = Until::Jobs(TRACED_JOBS);
    let plain = serve::run(&mut JobStream::new(seed), jobs, work, Instant::now());
    verify_jobs(r, &goldens, &plain);
    tracer::start();
    let traced = serve::run(&mut JobStream::new(seed), jobs, work, Instant::now());
    let spans = tracer::stop();
    verify_jobs(r, &goldens, &traced);
    if plain.window_steps == 0 || traced.window_steps == 0 {
        return Err(format!("the traced pass served no step: {:?}", r.notes));
    }
    write_spans(spans_out, w.name, &spans)?;
    // Each serving grid alone on Threads: what a step costs with nothing
    // else in the pool.
    let solo = spec::SERVE_GRIDS
        .iter()
        .map(|&grid| {
            let ep = Episode {
                ranks: 1,
                space: SpaceKind::Threads,
                grid,
                warmup: 2,
                steps: 20,
            };
            let out = episode::run(&ep, work, Instant::now());
            if let Some(e) = out.errors.first() {
                return Err(format!("{} alone on Threads: {e}", grid.label()));
            }
            Ok(layers::Solo {
                grid,
                step_ms: stats::median(&out.step_ms()),
                model_new_ms: out.model_new_s * 1e3,
            })
        })
        .collect::<Result<Vec<layers::Solo>, String>>()?;
    let launch_ns = probes::run_all(r, work);
    layers::serve(
        r,
        &traced,
        &plain,
        &tracer::summarize(&spans),
        &solo,
        launch_ns,
    );
    let dispatch = r.metrics["kokkos-rs.dispatch_ms_per_step"];
    for s in &solo {
        r.notes.push(format!(
            "{} alone on Threads: {:.3} ms/step, estimated dispatch {:.0}% of it (an upper estimate: \
             a launch that fits one tile never wakes the pool)",
            s.grid.label(),
            s.step_ms,
            100.0 * dispatch / s.step_ms
        ));
    }
    r.notes.push(format!("{} spans recorded", spans.len()));
    Ok(())
}

struct WorkloadArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

/// One workload in this process: the form the driver calls.
fn run_workload(a: &WorkloadArgs, process_start: Instant) -> Result<bool, String> {
    let w = spec::workload(&a.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (known: {})",
            a.workload,
            spec::WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    let work = WorkDir::create()?;
    let mut r = new_record(w, a.seed, a.seconds, a.trace);
    match (w.kind, a.trace) {
        (Kind::Model(ep), false) => measure_model(&mut r, &ep, a.seconds, &work.0, process_start)?,
        (Kind::Serve, false) => measure_serve(&mut r, a.seed, a.seconds, &work.0, process_start)?,
        (Kind::Model(ep), true) => trace_model(&mut r, w, &ep, &work.0, a.spans.as_deref())?,
        (Kind::Serve, true) => trace_serve(&mut r, w, a.seed, &work.0, a.spans.as_deref())?,
    }
    finish(&mut r)?;
    print!("{}", r.render());
    if let Some(path) = &a.out {
        std::fs::write(path, render_json(&r.to_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let list: &[spec::Metric] = if a.trace {
        spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    println!("{}", r.contract_line(list));
    Ok(r.correct)
}

/// 60×38×6 for 10 steps on every execution space: bitwise-equal checksums,
/// equal to the golden.
fn cross_space_check(work: &Path) -> Result<(), String> {
    let goldens = Goldens::committed()?;
    for space in SpaceKind::ALL {
        let ep = Episode {
            space,
            ..golden::CROSS_SPACE
        };
        let out = episode::run(&ep, work, Instant::now());
        if let Some(e) = out.errors.first() {
            return Err(format!("cross-space check on {}: {e}", space.name()));
        }
        goldens.check_episode(&ep, &out.checksums)?;
    }
    println!(
        "cross-space check: 60x38x6, 10 steps, Serial = Threads = DeviceSim = SwAthread = golden"
    );
    Ok(())
}

/// `run` and `trace`: every workload in its own child process.
fn orchestrate(
    trace: bool,
    seed: u64,
    seconds: u64,
    out: &Path,
    reverse: bool,
    spans_dir: Option<&Path>,
) -> Result<bool, String> {
    let work = WorkDir::create()?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut all_correct = true;
    if !trace {
        cross_space_check(&work.0)?;
    }
    if let Some(dir) = spans_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut order: Vec<&Workload> = spec::WORKLOADS.iter().collect();
    if reverse {
        order.reverse();
    }
    let mut records = Vec::new();
    for w in order {
        let record_path = work.0.join(format!("{}.json", w.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&record_path)
            .stdin(Stdio::null());
        if let Some(dir) = spans_dir {
            cmd.arg("--spans")
                .arg(dir.join(format!("spans_{}.json", w.name)));
        }
        let output = cmd
            .output()
            .map_err(|e| format!("spawning the {} child: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        // The child's last line is the driver's JSON; the rest is for people.
        let shown: Vec<&str> = stdout.lines().collect();
        for line in &shown[..shown.len().saturating_sub(1)] {
            println!("{line}");
        }
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        all_correct &= output.status.success();
        match std::fs::read_to_string(&record_path) {
            Ok(text) => {
                let json = kokkos_profiling::parse_json(&text)?;
                records.push(Record::from_json(&json)?);
            }
            Err(e) => {
                return Err(format!(
                    "the {} child ({}) left no record: {e}",
                    w.name, output.status
                ))
            }
        }
    }
    // Files list workloads in the registry's order whatever order they ran in.
    records.sort_by_key(|r| spec::WORKLOADS.iter().position(|w| w.name == r.workload));
    ResultFile { records }.write(out)?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

/// BENCHMARK.json, from the registry.
fn manifest() -> String {
    let dir = "crates/bench/src/bin/licom_bench";
    let metric_list = |ms: &[spec::Metric], bounded: bool| {
        Json::Arr(
            ms.iter()
                .map(|m| {
                    let mut j = Json::obj([
                        ("name", m.name.into()),
                        ("unit", m.unit.into()),
                        ("better", m.better.word().into()),
                    ]);
                    if bounded {
                        j.set(
                            "bound",
                            Json::Num(m.bound.expect("end-to-end metrics are bounded")),
                        );
                    }
                    j
                })
                .collect(),
        )
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        &format!("{dir}/Cargo.toml"),
        "--",
    ];
    render_json_pretty(&Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| (*s).into()).collect()),
        ),
        ("paths", Json::Arr(vec![dir.into()])),
        ("run_seconds", spec::RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                spec::WORKLOADS
                    .iter()
                    .filter(|w| w.in_manifest)
                    .map(|w| Json::obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        ("end_to_end", metric_list(&spec::END_TO_END, true)),
        ("per_layer", metric_list(spec::PER_LAYER, false)),
    ]))
}

/// Metrics with unit, direction, bound and kind, as a Markdown table of
/// README.md.
fn metrics_table(metrics: &[&spec::Metric]) -> String {
    let mut out = String::from(
        "| metric | unit | better | bound | kind | defined as / should move |\n|---|---|---|---|---|---|\n",
    );
    for m in metrics {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.word(),
            m.bound_label(),
            m.source.word(),
            m.moves
        ));
    }
    out
}

fn end_to_end_table() -> String {
    let all: Vec<&spec::Metric> = spec::END_TO_END
        .iter()
        .chain(&spec::END_TO_END_EXTRA)
        .collect();
    metrics_table(&all)
}

fn per_layer_table() -> String {
    metrics_table(&spec::PER_LAYER.iter().collect::<Vec<_>>())
}

fn usage() -> String {
    "usage:\n  \
     licom_bench --workload W --seed S --seconds T --trace 0|1 [--out F] [--spans F]\n  \
     licom_bench run   --seed S --out F [--seconds T] [--reverse]\n  \
     licom_bench trace --seed S --out F [--spans-dir D]\n  \
     licom_bench compare A B\n  \
     licom_bench bless\n  \
     licom_bench manifest\n  \
     licom_bench metrics\n"
        .to_string()
}

/// `--flag value` pairs (and bare `--reverse`) into a lookup.
fn flags(args: &[String]) -> Result<std::collections::BTreeMap<String, String>, String> {
    let mut map = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`\n{}", usage()))?;
        let value = if name == "reverse" {
            "1".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("`{a}` needs a value\n{}", usage()))?
                .clone()
        };
        map.insert(name.to_string(), value);
    }
    Ok(map)
}

fn number(map: &std::collections::BTreeMap<String, String>, key: &str) -> Result<u64, String> {
    let v = map
        .get(key)
        .ok_or_else(|| format!("`--{key}` is required\n{}", usage()))?;
    v.parse()
        .map_err(|_| format!("`--{key} {v}`: not a whole number"))
}

fn dispatch(args: &[String], process_start: Instant) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run" | "trace") => {
            let trace = args[0] == "trace";
            let f = flags(&args[1..])?;
            let out = f
                .get("out")
                .ok_or_else(|| format!("`--out` is required\n{}", usage()))?;
            let seconds = match f.get("seconds") {
                Some(_) => number(&f, "seconds")?,
                None => spec::RUN_SECONDS,
            };
            orchestrate(
                trace,
                number(&f, "seed")?,
                seconds,
                Path::new(out),
                f.contains_key("reverse"),
                f.get("spans-dir").map(Path::new),
            )
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(usage());
            };
            let (table, worse) = report::compare(
                &ResultFile::read(Path::new(a))?,
                &ResultFile::read(Path::new(b))?,
            );
            print!("{table}");
            Ok(!worse)
        }
        Some("bless") => {
            let work = WorkDir::create()?;
            // Goldens are source and live beside this file, whichever of
            // the two packages (standalone, or the `bench` crate) built it.
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
            let path = if dir.join("golden.json").exists() {
                dir.join("golden.json")
            } else {
                dir.join("src/bin/licom_bench/golden.json")
            };
            golden::bless(&path, &work.0)?;
            println!("wrote {}; rebuild to compile it in", path.display());
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        Some("metrics") => {
            println!("End-to-end metrics:\n\n{}", end_to_end_table());
            println!("Per-layer metrics:\n\n{}", per_layer_table());
            Ok(true)
        }
        Some(a) if a.starts_with("--") => {
            let f = flags(args)?;
            let trace = match number(&f, "trace")? {
                0 => false,
                1 => true,
                n => return Err(format!("`--trace {n}`: must be 0 or 1")),
            };
            let seconds = number(&f, "seconds")?;
            if !(1..=600).contains(&seconds) {
                return Err(format!("`--seconds {seconds}`: must be 1 to 600"));
            }
            run_workload(
                &WorkloadArgs {
                    workload: f
                        .get("workload")
                        .ok_or_else(|| format!("`--workload` is required\n{}", usage()))?
                        .clone(),
                    seed: number(&f, "seed")?,
                    seconds,
                    trace,
                    out: f.get("out").map(PathBuf::from),
                    spans: f.get("spans").map(PathBuf::from),
                },
                process_start,
            )
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("licom_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_registry() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            kokkos_profiling::parse_json(committed).unwrap(),
            kokkos_profiling::parse_json(&manifest()).unwrap(),
            "BENCHMARK.json is stale: regenerate it with `licom_bench manifest`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn readme_carries_the_registry() {
        let readme = include_str!("README.md");
        assert!(
            readme.contains(&end_to_end_table()),
            "README end-to-end table is stale"
        );
        assert!(
            readme.contains(&per_layer_table()),
            "README per-layer table is stale"
        );
        for w in spec::WORKLOADS {
            assert!(readme.contains(&format!("`{}`", w.name)), "{}", w.name);
        }
    }

    #[test]
    fn flags_parse_pairs_and_reject_strays() {
        let args: Vec<String> = ["--seed", "7", "--reverse", "--out", "f.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = flags(&args).unwrap();
        assert_eq!(number(&f, "seed"), Ok(7));
        assert!(f.contains_key("reverse"));
        assert!(number(&f, "seconds").is_err());
        assert!(flags(&["stray".to_string()]).is_err());
        assert!(flags(&["--seed".to_string()]).is_err());
    }

    #[test]
    fn best_picks_the_fastest_episode() {
        assert_eq!(best(&[2.0, 3.5, 3.0]), 1);
        assert_eq!(best(&[1.0]), 0);
    }
}
