//! The `ensemble_serve` workload: `licom-server` driven through its public
//! job API by `nproc` closed-loop clients, each submitting its next job
//! when the previous one's terminal `JobEvent` arrives.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kokkos_rs::Space;
use licom_server::{
    CheckpointPolicy, JobEvent, JobSpec, Priority, Rng, Server, ServerConfig, SubmitError,
};

use crate::spec::{Grid, SERVE_CKPT_ONE_IN, SERVE_GRIDS, SERVE_MAX_STEPS, SERVE_MIN_STEPS};

/// One job of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPlan {
    pub grid: Grid,
    pub steps: u64,
    pub checkpoint: bool,
}

/// The seeded job stream. Jobs come in blocks holding every (grid, even
/// step count) pair once — 3 grids × 9 lengths — in an order drawn from
/// the seed, so any two seeds serve the same amount of work per block and
/// differ in its order and in which jobs checkpoint.
pub struct JobStream {
    rng: Rng,
    block: Vec<JobPlan>,
    issued: usize,
}

impl JobStream {
    pub fn new(seed: u64) -> Self {
        JobStream {
            // Decorrelate neighbouring seeds before xorshift sees them.
            rng: Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_1E55),
            block: Vec::new(),
            issued: 0,
        }
    }

    fn refill(&mut self) {
        let mut block: Vec<JobPlan> = SERVE_GRIDS
            .iter()
            .flat_map(|&grid| {
                (SERVE_MIN_STEPS..=SERVE_MAX_STEPS)
                    .step_by(2)
                    .map(move |steps| JobPlan {
                        grid,
                        steps,
                        checkpoint: false,
                    })
            })
            .collect();
        // Fisher–Yates from the seeded generator.
        for i in (1..block.len()).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            block.swap(i, j);
        }
        self.block = block;
    }
}

impl Iterator for JobStream {
    type Item = JobPlan;

    fn next(&mut self) -> Option<JobPlan> {
        if self.block.is_empty() {
            self.refill();
        }
        let mut job = self.block.pop()?;
        job.checkpoint = self.issued.is_multiple_of(SERVE_CKPT_ONE_IN);
        self.issued += 1;
        Some(job)
    }
}

impl JobPlan {
    fn spec(&self, client: usize) -> JobSpec {
        JobSpec {
            tenant: format!("client{client}"),
            priority: Priority::Normal,
            cfg: self.grid.cfg(),
            space: Space::threads(),
            steps: self.steps,
            checkpoint: self.checkpoint.then_some(CheckpointPolicy {
                every_steps: 4,
                ring: 2,
                rollback_at: None,
            }),
        }
    }
}

/// Each client's first job of every server lifetime: the largest grid,
/// the shortest run, checkpointing.
pub const PILOT: JobPlan = JobPlan {
    grid: crate::spec::GRID_HALO,
    steps: SERVE_MIN_STEPS,
    checkpoint: true,
};

/// How a submitted job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Completed {
        checksum: u64,
    },
    /// Cancelled, failed, refused at `submit`, or the event stream hung up.
    NotCompleted(String),
}

#[derive(Debug, Clone)]
pub struct JobRecord {
    pub plan: JobPlan,
    /// `submit` call to terminal event.
    pub latency_ns: u64,
    /// The `submit` call alone.
    pub submit_ns: u64,
    pub outcome: Outcome,
}

/// How often a window's resident set is read: the serving process's peak
/// is a coincidence of jobs, so a run reports the median over its server
/// lifetimes of each lifetime's peak, which `VmHWM` cannot give.
const RSS_SAMPLE: Duration = Duration::from_millis(10);

/// When the clients stop submitting.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Keep the server saturated for this long, then drain.
    Window(Duration),
    /// Submit exactly this many jobs in total (the traced pass).
    Jobs(usize),
}

/// One server lifetime.
#[derive(Debug, Clone)]
pub struct ServeOut {
    /// `Server::start` to the first pilot job's `Started` event.
    pub setup_s: f64,
    /// The measured window: the first pilot's `Started` event to the stop signal
    /// (`Window`) or to the last terminal event (`Jobs`).
    pub window_s: f64,
    /// Steps the server counted inside the window.
    pub window_steps: u64,
    /// Highest `VmRSS` (MiB) seen inside the window, sampled every
    /// `RSS_SAMPLE`; 0 for `Until::Jobs`, which does not sample.
    pub peak_rss_mb: f64,
    pub jobs: Vec<JobRecord>,
    pub workers: usize,
    pub rejected: u64,
    pub slice_p50_ns: u64,
    pub slice_p99_ns: u64,
}

impl ServeOut {
    pub fn steps_per_s(&self) -> f64 {
        self.window_steps as f64 / self.window_s
    }

    pub fn sypd(&self, dt_baroclinic: f64) -> f64 {
        crate::stats::sypd(self.window_steps as f64, dt_baroclinic, self.window_s)
    }

    /// `(latency ms, steps)` of every job that completed.
    pub fn completed(&self) -> Vec<(f64, f64)> {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, Outcome::Completed { .. }))
            .map(|j| (j.latency_ns as f64 * 1e-6, j.plan.steps as f64))
            .collect()
    }
}

/// `nproc` workers, checkpoint rings under the work directory, every other
/// knob at the server's default.
fn start_server(work_dir: &Path) -> Server {
    Server::start(ServerConfig {
        workers: crate::nproc(),
        ckpt_base: work_dir.join("serve"),
        ..ServerConfig::default()
    })
}

/// Run one server lifetime over jobs drawn from `stream`.
pub fn run(stream: &mut JobStream, until: Until, work_dir: &Path, t0: Instant) -> ServeOut {
    let workers = crate::nproc();
    let server = start_server(work_dir);
    let stream = Mutex::new((stream, 0usize));
    let stop = AtomicBool::new(false);
    // Nanoseconds after `t0` of the first pilot's `Started` event (0 = not yet).
    let pilot_started_ns = AtomicU64::new(0);
    let records: Mutex<Vec<JobRecord>> = Mutex::new(Vec::new());

    // The plan, and whether it is one of the lifetime's pilot jobs.
    let next_plan = || -> Option<(JobPlan, bool)> {
        let mut guard = stream.lock().expect("job stream poisoned");
        if guard.1 < workers {
            // Every client opens with the same job, so neither `setup_s`
            // (start to the first `Started` event) nor the peak resident
            // set (every worker holding the largest model and a checkpoint
            // image at once) depends on the seed's draw.
            guard.1 += 1;
            return Some((PILOT, true));
        }
        if let Until::Jobs(limit) = until {
            if guard.1 >= limit {
                return None;
            }
        }
        guard.1 += 1;
        guard.0.next().map(|plan| (plan, false))
    };

    let (window_s, window_steps, peak_rss_mb) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..workers)
            .map(|client| {
                let (server, stop, pilot_started_ns, records, next_plan) =
                    (&server, &stop, &pilot_started_ns, &records, &next_plan);
                scope.spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let Some((plan, pilot)) = next_plan() else {
                            break;
                        };
                        let t_submit = Instant::now();
                        let submitted = server.submit(plan.spec(client));
                        let submit_ns = t_submit.elapsed().as_nanos() as u64;
                        let outcome = match submitted {
                            Err(e) => Outcome::NotCompleted(refusal(&e)),
                            Ok(handle) => loop {
                                match handle.events.recv() {
                                    Ok(JobEvent::Started { .. }) if pilot => {
                                        let ns = t0.elapsed().as_nanos() as u64;
                                        let _ = pilot_started_ns.compare_exchange(
                                            0,
                                            ns.max(1),
                                            Ordering::SeqCst,
                                            Ordering::SeqCst,
                                        );
                                    }
                                    Ok(JobEvent::Completed { checksum, .. }) => {
                                        break Outcome::Completed { checksum }
                                    }
                                    Ok(JobEvent::Cancelled { steps_done }) => {
                                        break Outcome::NotCompleted(format!(
                                            "cancelled at step {steps_done}"
                                        ))
                                    }
                                    Ok(JobEvent::Failed { reason }) => {
                                        break Outcome::NotCompleted(reason)
                                    }
                                    Ok(_) => {}
                                    Err(_) => {
                                        break Outcome::NotCompleted(
                                            "event stream hung up".to_string(),
                                        )
                                    }
                                }
                            },
                        };
                        records.lock().expect("records poisoned").push(JobRecord {
                            plan,
                            latency_ns: t_submit.elapsed().as_nanos() as u64,
                            submit_ns,
                            outcome,
                        });
                    }
                })
            })
            .collect();

        let started = || pilot_started_ns.load(Ordering::SeqCst);
        let window = match until {
            Until::Window(len) => {
                // Sleep through the window, then stop submissions; jobs in
                // flight drain outside it.
                while started() == 0 && !clients.iter().all(|c| c.is_finished()) {
                    std::thread::sleep(Duration::from_micros(200));
                }
                let steps0 = server.metrics().steps_total.load(Ordering::Relaxed);
                let t_open = Instant::now();
                let mut peak_rss_mb = 0.0_f64;
                while t_open.elapsed() < len {
                    std::thread::sleep(RSS_SAMPLE.min(len.saturating_sub(t_open.elapsed())));
                    peak_rss_mb = peak_rss_mb.max(crate::stats::rss_mb().unwrap_or(0.0));
                }
                let steps = server.metrics().steps_total.load(Ordering::Relaxed) - steps0;
                let window_s = t_open.elapsed().as_secs_f64();
                stop.store(true, Ordering::SeqCst);
                Some((window_s, steps, peak_rss_mb))
            }
            Until::Jobs(_) => None,
        };
        for c in clients {
            c.join().expect("serve client panicked");
        }
        window.unwrap_or_else(|| {
            let end_ns = t0.elapsed().as_nanos() as u64;
            (
                end_ns.saturating_sub(started()) as f64 * 1e-9,
                server.metrics().steps_total.load(Ordering::Relaxed),
                0.0,
            )
        })
    });

    let m = server.metrics();
    let rejected =
        m.rejected_quota.load(Ordering::Relaxed) + m.rejected_backpressure.load(Ordering::Relaxed);
    let (slice_p50_ns, slice_p99_ns) = (
        m.step_latency.quantile_ns(0.50),
        m.step_latency.quantile_ns(0.99),
    );
    server.join();
    ServeOut {
        setup_s: pilot_started_ns.load(Ordering::SeqCst) as f64 * 1e-9,
        window_s,
        window_steps,
        peak_rss_mb,
        jobs: records.into_inner().expect("records poisoned"),
        workers,
        rejected,
        slice_p50_ns,
        slice_p99_ns,
    }
}

fn refusal(e: &SubmitError) -> String {
    format!("submit refused: {e}")
}

/// One more sample of the serving set-up and nothing else: start a server,
/// submit the pilot job, time its `Started` event, cancel it, join. A
/// 4 ms quantity needs more than three samples to find its floor.
pub fn setup_only(work_dir: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let server = start_server(work_dir);
    let handle = server.submit(PILOT.spec(0)).map_err(|e| refusal(&e))?;
    let mut setup_s = None;
    for event in &handle.events {
        match event {
            JobEvent::Started { .. } => {
                setup_s = Some(t0.elapsed().as_secs_f64());
                server.cancel(handle.id);
            }
            JobEvent::Failed { reason } => return Err(format!("pilot job failed: {reason}")),
            JobEvent::Completed { .. } | JobEvent::Cancelled { .. } => break,
            _ => {}
        }
    }
    server.join();
    setup_s.ok_or_else(|| "the pilot job never started".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_repeats_for_a_seed_and_differs_between_seeds() {
        let a: Vec<JobPlan> = JobStream::new(7).take(60).collect();
        let b: Vec<JobPlan> = JobStream::new(7).take(60).collect();
        let c: Vec<JobPlan> = JobStream::new(8).take(60).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_block_holds_the_same_work() {
        for seed in [1, 2, 99] {
            let jobs: Vec<JobPlan> = JobStream::new(seed).take(54).collect();
            for block in jobs.chunks(27) {
                let steps: u64 = block.iter().map(|j| j.steps).sum();
                assert_eq!(steps, 3 * (8..=24).step_by(2).sum::<u64>());
                for g in SERVE_GRIDS {
                    assert_eq!(block.iter().filter(|j| j.grid == g).count(), 9);
                }
            }
            assert!(jobs
                .iter()
                .all(|j| (SERVE_MIN_STEPS..=SERVE_MAX_STEPS).contains(&j.steps)));
            // One job in eight checkpoints.
            assert_eq!(jobs.iter().filter(|j| j.checkpoint).count(), 7);
        }
    }
}
