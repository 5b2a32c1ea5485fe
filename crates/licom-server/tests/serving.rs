//! Serving semantics: admission control, fair share, cancellation,
//! event-stream ordering, and the no-lost-no-duplicated-jobs contract.

use std::time::{Duration, Instant};

use kokkos_rs::Space;
use licom_server::{
    generate, JobEvent, JobSpec, JobStatus, Priority, Server, ServerConfig, SubmitError,
    TrafficConfig,
};

fn ckpt_base(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("licom-serving-test-{}-{tag}", std::process::id()))
}

fn tiny(tenant: &str, priority: Priority, steps: u64) -> JobSpec {
    JobSpec {
        priority,
        ..JobSpec::small(tenant, Space::serial(), steps)
    }
}

/// Poll per-tenant delivered steps until `total` steps have landed or
/// the deadline passes; returns the snapshot.
fn steps_at(server: &Server, total: u64, deadline: Duration) -> Vec<(String, u64)> {
    let t0 = Instant::now();
    loop {
        let snap = server.tenant_steps();
        if snap.iter().map(|(_, s)| s).sum::<u64>() >= total {
            return snap;
        }
        assert!(
            t0.elapsed() < deadline,
            "timed out waiting for {total} steps"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Equal-priority tenants with equal backlogs receive step counts
/// within 10% of each other at any saturated point — fair share, not
/// first-come-first-served.
#[test]
fn equal_tenants_within_10_percent() {
    let server = Server::start(ServerConfig {
        workers: 2,
        slice_steps: 1,
        batch_size: 1,
        ckpt_base: ckpt_base("fair"),
        ..ServerConfig::default()
    });
    let mut handles = Vec::new();
    for i in 0..20 {
        // Interleave submissions so neither tenant owns the queue head.
        handles.push(server.submit(tiny("a", Priority::Normal, 8)).unwrap());
        handles.push(server.submit(tiny("b", Priority::Normal, 8)).unwrap());
        let _ = i;
    }
    // Sample mid-run: both tenants still have backlog at 160/320 steps.
    let snap = steps_at(&server, 160, Duration::from_secs(60));
    let a = snap.iter().find(|(n, _)| n == "a").unwrap().1 as f64;
    let b = snap.iter().find(|(n, _)| n == "b").unwrap().1 as f64;
    let err = (a - b).abs() / a.max(b);
    assert!(err <= 0.10, "fair-share error {err:.3} (a={a} b={b})");
    let snap = server.join();
    assert_eq!(snap.jobs_completed, 40);
}

/// A high-priority tenant gets a proportionally larger share, and the
/// low-priority tenant is never starved.
#[test]
fn priority_shifts_share_without_starvation() {
    let server = Server::start(ServerConfig {
        workers: 2,
        slice_steps: 1,
        batch_size: 1,
        ckpt_base: ckpt_base("prio"),
        ..ServerConfig::default()
    });
    for _ in 0..20 {
        server.submit(tiny("hi", Priority::High, 8)).unwrap();
        server.submit(tiny("lo", Priority::Low, 8)).unwrap();
    }
    let snap = steps_at(&server, 150, Duration::from_secs(60));
    let hi = snap.iter().find(|(n, _)| n == "hi").unwrap().1;
    let lo = snap.iter().find(|(n, _)| n == "lo").unwrap().1;
    assert!(
        hi > 2 * lo,
        "weight-4 tenant should dominate a weight-1 tenant: hi={hi} lo={lo}"
    );
    assert!(lo > 0, "proportional share never starves: lo={lo}");
    server.join();
}

#[test]
fn tenant_quota_enforced() {
    let server = Server::start(ServerConfig {
        workers: 1,
        tenant_quota: 4,
        ckpt_base: ckpt_base("quota"),
        ..ServerConfig::default()
    });
    // Head job is long, so the other three stay in flight.
    let mut handles = vec![server.submit(tiny("t", Priority::Normal, 200)).unwrap()];
    for _ in 0..3 {
        handles.push(server.submit(tiny("t", Priority::Normal, 4)).unwrap());
    }
    match server.submit(tiny("t", Priority::Normal, 4)) {
        Err(SubmitError::QuotaExceeded { tenant, quota }) => {
            assert_eq!(tenant, "t");
            assert_eq!(quota, 4);
        }
        other => panic!("expected quota rejection, got {:?}", other.map(|h| h.id)),
    }
    // A different tenant is unaffected by t's quota.
    handles.push(server.submit(tiny("u", Priority::Normal, 4)).unwrap());
    let snap = server.join();
    assert_eq!(snap.rejected_quota, 1);
    assert_eq!(snap.jobs_completed, 5);
}

#[test]
fn global_backpressure_enforced() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ckpt_base: ckpt_base("bp"),
        ..ServerConfig::default()
    });
    // Distinct tenants so the per-tenant quota never triggers; the head
    // job occupies the worker while the queue fills.
    let head = server.submit(tiny("t0", Priority::Normal, 300)).unwrap();
    // The worker has claimed it once it has built its model.
    match head.events.recv_timeout(Duration::from_secs(60)) {
        Ok(JobEvent::Started { .. }) => {}
        other => panic!("expected the head job to start, got {other:?}"),
    }
    server.submit(tiny("t1", Priority::Normal, 4)).unwrap();
    server.submit(tiny("t2", Priority::Normal, 4)).unwrap();
    match server.submit(tiny("t3", Priority::Normal, 4)) {
        Err(SubmitError::Backpressure { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected backpressure, got {:?}", other.map(|h| h.id)),
    }
    let snap = server.join();
    assert_eq!(snap.rejected_backpressure, 1);
    assert_eq!(snap.jobs_completed, 3);
}

/// Cancelling a queued job never builds its model; cancelling a running
/// one stops at a step boundary. Both deliver a terminal `Cancelled`.
#[test]
fn cancel_queued_and_running() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ckpt_base: ckpt_base("cancel"),
        ..ServerConfig::default()
    });
    let long = server.submit(tiny("t", Priority::Normal, 400)).unwrap();
    let queued = server.submit(tiny("t", Priority::Normal, 50)).unwrap();
    assert!(server.cancel(queued.id), "queued job known");

    // Running cancel: wait until the long job reports progress.
    let mut started = false;
    for ev in long.events.iter() {
        match ev {
            JobEvent::Progress { steps_done } if steps_done > 0 => {
                started = true;
                break;
            }
            _ => {}
        }
    }
    assert!(started);
    assert!(server.cancel(long.id));
    // Once both are terminal, a stale cancel is refused.
    let long_events: Vec<_> = long.events.iter().collect();
    assert!(matches!(
        long_events.last(),
        Some(JobEvent::Cancelled { .. })
    ));
    assert!(
        !server.cancel(long.id),
        "terminal job no longer cancellable"
    );

    let snap = server.join();
    assert_eq!(snap.jobs_cancelled, 2);
    assert_eq!(snap.jobs_completed, 0);

    // Queued cancel: no Started event — the instance was never built.
    let queued_events: Vec<_> = queued.events.iter().collect();
    assert!(
        !queued_events
            .iter()
            .any(|e| matches!(e, JobEvent::Started { .. })),
        "cancelled-while-queued job must not build a model: {queued_events:?}"
    );
    assert!(matches!(
        queued_events.last(),
        Some(JobEvent::Cancelled { steps_done: 0 })
    ));
}

/// Event streams are ordered: Started, monotone Progress, exactly one
/// terminal event, then hang-up. Statuses agree.
#[test]
fn event_stream_ordering_and_terminal_status() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ckpt_base: ckpt_base("events"),
        ..ServerConfig::default()
    });
    let h = server.submit(tiny("t", Priority::Normal, 10)).unwrap();
    let events: Vec<_> = h.events.iter().collect(); // ends on hang-up
    assert!(matches!(events.first(), Some(JobEvent::Started { .. })));
    let mut last_progress = 0;
    let mut terminals = 0;
    for e in &events {
        match e {
            JobEvent::Progress { steps_done } => {
                assert!(*steps_done >= last_progress, "progress regressed");
                last_progress = *steps_done;
            }
            JobEvent::Completed { steps, .. } => {
                terminals += 1;
                assert_eq!(*steps, 10);
            }
            JobEvent::Cancelled { .. } | JobEvent::Failed { .. } => terminals += 1,
            _ => {}
        }
    }
    assert_eq!(terminals, 1, "exactly one terminal event: {events:?}");
    assert!(matches!(events.last(), Some(JobEvent::Completed { .. })));
    assert!(matches!(
        server.status(h.id),
        Some(JobStatus::Completed { steps: 10, .. })
    ));
    server.join();
}

/// 64 mixed-size, mixed-priority instances from `traffic-gen` on the
/// shared Threads pool: every job reaches exactly one terminal state —
/// nothing lost, nothing duplicated — and the scrape carries
/// per-instance labels.
#[test]
fn traffic_gen_smoke_64_instances_threads() {
    let server = Server::start(ServerConfig {
        workers: 4,
        ckpt_base: ckpt_base("smoke64"),
        ..ServerConfig::default()
    });
    let cfg = TrafficConfig {
        jobs: 64,
        steps: (2, 5),
        ..TrafficConfig::default()
    };
    let handles: Vec<_> = generate(&cfg)
        .into_iter()
        .map(|a| server.submit(a.spec).expect("admission within bounds"))
        .collect();
    assert_eq!(handles.len(), 64);

    // Scrape mid-run until at least one live instance shows up labeled.
    let t0 = Instant::now();
    loop {
        let scrape = server.render_prometheus();
        // Occupancy gauges are in every scrape, live instance or not.
        assert!(scrape.contains("# TYPE licom_sched_queue_depth gauge"));
        assert!(scrape.contains("# TYPE licom_tenant_running gauge"));
        assert!(scrape.contains("licom_workers_busy "));
        if scrape.contains("licom_step_total{instance=\"m") {
            assert!(scrape.contains("tenant=\""));
            assert!(scrape.contains("licom_sched_queue_depth{tenant=\""));
            break;
        }
        if t0.elapsed() > Duration::from_secs(60) {
            break; // all jobs may already be done on a fast machine
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut terminal_events = 0;
    for h in &handles {
        let events: Vec<_> = h.events.iter().collect();
        terminal_events += events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    JobEvent::Completed { .. }
                        | JobEvent::Cancelled { .. }
                        | JobEvent::Failed { .. }
                )
            })
            .count();
    }
    assert_eq!(terminal_events, 64, "exactly one terminal event per job");
    let snap = server.join();
    assert_eq!(snap.jobs_submitted, 64);
    assert_eq!(
        snap.jobs_completed + snap.jobs_cancelled + snap.jobs_failed,
        64
    );
    assert_eq!(snap.jobs_failed, 0);
    assert!(snap.steps_total > 0);
    assert!(snap.p99_step_ns >= snap.p50_step_ns);
}

/// The seeded 48-job plan is 214 steps, and the server delivers every one
/// of them: a plan that changes under its seed, a step served twice or a
/// job dropped moves a literal here.
#[test]
fn seeded_plan_is_served_to_the_step() {
    let plan = generate(&TrafficConfig {
        jobs: 48,
        steps: (3, 6),
        ..TrafficConfig::default()
    });
    let planned: u64 = plan.iter().map(|a| a.spec.steps).sum();
    assert_eq!((plan.len(), planned), (48, 214));

    let server = Server::start(ServerConfig {
        workers: 4,
        ckpt_base: ckpt_base("plan48"),
        ..ServerConfig::default()
    });
    for a in plan {
        server.submit(a.spec).expect("admission within bounds");
    }
    let snap = server.join();
    assert_eq!(
        (snap.jobs_completed, snap.steps_total, snap.jobs_failed),
        (48, 214, 0)
    );
}
