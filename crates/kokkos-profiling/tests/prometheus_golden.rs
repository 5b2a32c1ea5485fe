//! Golden-file test for the Prometheus text exposition.
//!
//! Inputs are fixed synthetic values (never live timings), so the
//! rendered text must match `golden/prometheus.txt` byte for byte. To
//! regenerate after an intentional format change:
//! `BLESS=1 cargo test -p kokkos-profiling --test prometheus_golden`.

use kokkos_profiling::{render_gauge, render_named_gauges, render_prometheus_labeled};
use mpi_sim::TrafficSnapshot;

fn synthetic_traffic() -> TrafficSnapshot {
    TrafficSnapshot {
        p2p_messages: 42,
        p2p_bytes: 10_240,
        collectives: 7,
        collective_bytes: 896,
        barriers: 3,
        pool_allocations: 12,
        pool_reuses: 2_048,
        pooled_bytes: 524_288,
        faults_dropped: 1,
        faults_duplicated: 0,
        faults_delayed: 2,
        faults_bitflipped: 0,
        faults_truncated: 0,
        rank_stalls: 1,
        crc_failures: 2,
        halo_retries: 2,
        resends_served: 2,
        resend_bytes: 1_024,
        recv_timeouts: 0,
        rank_deaths: 1,
        peer_dead_errors: 3,
        sends_suppressed: 5,
    }
}

#[test]
fn exposition_matches_golden_file() {
    let counters: &[(&str, u64)] = &[
        ("halo_msgs", 96),
        ("halo_bytes", 73_728),
        ("drift_trips", 0),
    ];
    let phases: &[(&str, f64)] = &[("barotropic", 0.5), ("eos", 0.00125), ("halo_ts", 0.0625)];
    let rendered = render_prometheus_labeled(&synthetic_traffic(), counters, phases, &[]);

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/prometheus.txt");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(golden_path, &rendered).unwrap();
    }
    let golden =
        std::fs::read_to_string(golden_path).expect("golden file missing — run with BLESS=1");
    assert_eq!(
        rendered, golden,
        "exposition drifted from golden file; rerun with BLESS=1 if intentional"
    );
}

#[test]
fn labeled_exposition_matches_golden_file() {
    let counters: &[(&str, u64)] = &[("step", 17), ("rollbacks", 1)];
    let phases: &[(&str, f64)] = &[("readyc", 0.25)];
    let mut rendered = render_prometheus_labeled(
        &synthetic_traffic(),
        counters,
        phases,
        &[("instance", "m17"), ("tenant", "a")],
    );

    // Every sample line carries the base labels first (the scheduler
    // gauges appended below use their own label set by design).
    for line in rendered.lines().filter(|l| !l.starts_with('#')) {
        assert!(
            line.contains("instance=\"m17\",tenant=\"a\""),
            "sample missing base labels: {line}"
        );
    }

    // The scheduler-side gauge families the serving engine appends to
    // its exposition: per-tenant queue depth / running jobs and the
    // worker-occupancy sample.
    rendered.push_str(&render_named_gauges(
        "licom_sched_queue_depth",
        "Jobs queued for a slice, per tenant.",
        "tenant",
        &[("a", 3), ("b", 1)],
    ));
    rendered.push_str(&render_named_gauges(
        "licom_tenant_running",
        "Jobs claimed or stepping (admitted minus queued), per tenant.",
        "tenant",
        &[("a", 2), ("b", 0)],
    ));
    rendered.push_str(&render_gauge(
        "licom_workers_busy",
        "Workers currently stepping a claimed batch.",
        2,
    ));
    assert!(rendered.contains("licom_sched_queue_depth{tenant=\"a\"} 3"));
    assert!(rendered.contains("licom_workers_busy 2"));
    assert!(
        rendered.contains("model_counter_total{instance=\"m17\",tenant=\"a\",name=\"step\"} 17")
    );

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/prometheus_labeled.txt"
    );
    if std::env::var("BLESS").is_ok() {
        std::fs::write(golden_path, &rendered).unwrap();
    }
    let golden =
        std::fs::read_to_string(golden_path).expect("golden file missing — run with BLESS=1");
    assert_eq!(
        rendered, golden,
        "labeled exposition drifted from golden file; rerun with BLESS=1 if intentional"
    );
}
