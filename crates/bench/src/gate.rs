//! The perf-regression gate: machine-readable run summaries
//! (`BENCH_run.json`, schema `licomkpp-bench-v1`) and the tolerance-band
//! comparison against a committed `BENCH_baseline.json`.
//!
//! Policy, per metric class (classified by name suffix):
//!
//! * **timing** (`sypd`, `mean_step_seconds`) — direction-aware,
//!   generous: only a >25% *regression* fails; any improvement passes.
//!   Wall-clock on shared CI runners is noisy. `halo_wait_seconds` gets
//!   an even wider band (75%) — receive-wait swings with scheduling.
//! * **fractions/ratios** — direction-aware with an absolute floor so
//!   micro-jitter on tiny denominators never trips the gate.
//!   `halo_wait_fraction` (lower is better, 50% band) and
//!   `overlap_efficiency` (higher is better, 25% band) are gated
//!   deliverables of the overlap engine; `max_over_mean` stays
//!   informational.
//! * **deterministic counters** (`p2p_messages_total`, `p2p_bytes_total`, `wet_cells`,
//!   `steps`, `drift_*_trips`) — exact: the simulated transport is
//!   deterministic, so *any* difference is a real behaviour change.
//! * unknown names — informational, never gate. So is
//!   `sypd_ratio_vs_threads` (Threads SYPD over SwAthread SYPD): a
//!   wall-clock ratio between a host pool and a simulator, on a grid where
//!   every Threads launch runs inline, reads the simulator's constant cost
//!   (5.6 in the committed baseline) and defends nothing; the SwAthread
//!   deliverables are the deterministic `cg_*` rows.
//!
//! A metric present in the baseline but missing from the run fails (a
//! silently dropped measurement is itself a regression); new metrics in
//! the run are reported but pass.

use std::collections::BTreeMap;

use kokkos_profiling::{render_json_pretty, Json};

pub const SCHEMA: &str = "licomkpp-bench-v1";

/// Which direction of change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    HigherIsBetter,
    LowerIsBetter,
    /// Deterministic counter: any change at all is a failure.
    Exact,
    /// Reported, never gated.
    Informational,
}

/// Tolerance band for one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricPolicy {
    pub direction: Direction,
    /// Relative regression allowed before failing (0.25 = 25% worse).
    pub rel_tol: f64,
    /// Absolute change below which a regression is ignored regardless of
    /// the relative band (kills noise on near-zero denominators).
    pub abs_floor: f64,
}

/// Classify a metric by the suffix after the last `.` (metric names are
/// `<space>.<metric>`).
pub fn policy_for(name: &str) -> MetricPolicy {
    let suffix = name.rsplit('.').next().unwrap_or(name);
    match suffix {
        "sypd" => MetricPolicy {
            direction: Direction::HigherIsBetter,
            rel_tol: 0.25,
            abs_floor: 0.0,
        },
        "mean_step_seconds" => MetricPolicy {
            direction: Direction::LowerIsBetter,
            rel_tol: 0.25,
            abs_floor: 1.0e-4,
        },
        // Receive-wait at millisecond scale swings with rank scheduling;
        // only a blow-up (not jitter) should gate.
        "halo_wait_seconds" => MetricPolicy {
            direction: Direction::LowerIsBetter,
            rel_tol: 0.75,
            abs_floor: 2.0e-3,
        },
        // With the overlap engine in place the wait fraction is a
        // first-class deliverable: hold it to a tight band so a schedule
        // change that reintroduces blocking waits gates the build.
        "halo_wait_fraction" => MetricPolicy {
            direction: Direction::LowerIsBetter,
            rel_tol: 0.5,
            abs_floor: 0.05,
        },
        // Overlap efficiency is the companion deliverable: losing more
        // than a quarter of the achieved comm/compute overlap regresses.
        "overlap_efficiency" => MetricPolicy {
            direction: Direction::HigherIsBetter,
            rel_tol: 0.25,
            abs_floor: 0.1,
        },
        // Simulated CG DMA traffic per step is a function of the tile
        // schedule, not of host timing — a growth means the LDM tiling
        // regressed (smaller tiles, more transactions). Small drift is
        // allowed for schedule changes that trade bytes for stalls.
        "cg_dma_bytes_per_step" => MetricPolicy {
            direction: Direction::LowerIsBetter,
            rel_tol: 0.10,
            abs_floor: 0.0,
        },
        // Fraction of aggregate CPE busy cycles stalled in dma_wait —
        // the measured Eq. 1/2 residual. Rising past tolerance means
        // tiles shrank below the crossover.
        "cg_dma_stall_fraction" => MetricPolicy {
            direction: Direction::LowerIsBetter,
            rel_tol: 0.25,
            abs_floor: 0.02,
        },
        // Peak LDM bytes resident: deeper tiles amortize DMA latency, so
        // falling high-water marks mean the cost model stopped using the
        // scratchpad.
        "cg_ldm_high_water" => MetricPolicy {
            direction: Direction::HigherIsBetter,
            rel_tol: 0.25,
            abs_floor: 0.0,
        },
        // Serving throughput of the ensemble engine (aggregate model
        // steps per wall second across all concurrent instances). Wall
        // clock under a many-worker load test is noisy; gate only on a
        // halving-scale collapse.
        "steps_per_sec" => MetricPolicy {
            direction: Direction::HigherIsBetter,
            rel_tol: 0.5,
            abs_floor: 0.0,
        },
        // Tail step latency under the serving load. The p99 is a bucket
        // upper bound from a fixed histogram, so small shifts quantize;
        // the band plus a 1 ms floor keeps scheduling jitter out while a
        // genuine tail blow-up (lock convoy, pool starvation) gates.
        "p99_step_latency_ns" => MetricPolicy {
            direction: Direction::LowerIsBetter,
            rel_tol: 1.0,
            abs_floor: 1.0e6,
        },
        "max_over_mean" => MetricPolicy {
            direction: Direction::Informational,
            rel_tol: 0.0,
            abs_floor: 0.0,
        },
        // Armed flight-recorder cost per recorded event. Nanosecond-scale
        // wall timing quantizes hard on shared runners, so the band is
        // wide and the floor generous — the hard ceiling is CI's
        // --assert-below bound; the gate only catches a blow-up (a lock
        // or allocation sneaking onto the record path).
        "record_ns_per_event" => MetricPolicy {
            direction: Direction::LowerIsBetter,
            rel_tol: 1.0,
            abs_floor: 50.0,
        },
        // Recovery counters from the seeded rank-death scenario are
        // fully deterministic (registry-backed detection, fixed fault
        // seed): any drift means the elastic protocol changed behavior.
        "p2p_messages_total"
        | "p2p_bytes_total"
        | "wet_cells"
        | "steps"
        | "drift_perf_trips"
        | "drift_physics_trips"
        | "rank_deaths_recovered"
        | "recovery_replay_steps"
        // Serving scenario: the seeded traffic plan admits a fixed job
        // set and the server completes every one (no cancels, no
        // faults), so the job and step totals are deterministic.
        | "jobs_completed"
        | "steps_total"
        // Flight scenario: a fixed event sequence recorded into a fixed
        // ring and dumped — the bundle's event count is deterministic.
        | "dump_events_total" => MetricPolicy {
            direction: Direction::Exact,
            rel_tol: 0.0,
            abs_floor: 0.0,
        },
        _ => MetricPolicy {
            direction: Direction::Informational,
            rel_tol: 0.0,
            abs_floor: 0.0,
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    /// In baseline, absent from the run.
    Missing,
    /// In the run, absent from the baseline.
    Added,
}

/// One metric's baseline-vs-run comparison.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    pub name: String,
    pub baseline: Option<f64>,
    pub run: Option<f64>,
    pub verdict: Verdict,
}

fn judge(name: &str, baseline: f64, run: f64) -> Verdict {
    let p = policy_for(name);
    // Regression magnitude, positive when `run` is worse.
    let (worse_by, better) = match p.direction {
        Direction::HigherIsBetter => (baseline - run, run > baseline),
        Direction::LowerIsBetter => (run - baseline, run < baseline),
        Direction::Exact => {
            return if run == baseline {
                Verdict::Ok
            } else {
                Verdict::Regressed
            };
        }
        Direction::Informational => return Verdict::Ok,
    };
    if worse_by <= 0.0 {
        return if better {
            Verdict::Improved
        } else {
            Verdict::Ok
        };
    }
    if worse_by <= p.abs_floor {
        return Verdict::Ok;
    }
    let scale = baseline.abs().max(1e-30);
    if worse_by / scale > p.rel_tol {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Merge two measurement passes into a best-of table, direction-aware:
/// timing metrics keep the better pass (loaded runners only ever make a
/// run look *worse*, so best-of-N removes contention noise without
/// hiding real regressions), exact counters keep the first pass (the
/// gate flags any true nondeterminism against the baseline anyway), and
/// informational metrics keep the first pass.
pub fn merge_best(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let mut out = a.clone();
    for (name, &vb) in b {
        match out.get_mut(name) {
            Some(va) => match policy_for(name).direction {
                Direction::HigherIsBetter => *va = va.max(vb),
                Direction::LowerIsBetter => *va = va.min(vb),
                Direction::Exact | Direction::Informational => {}
            },
            None => {
                out.insert(name.clone(), vb);
            }
        }
    }
    out
}

/// Compare a run's metric table against the baseline's.
pub fn compare_metrics(
    baseline: &BTreeMap<String, f64>,
    run: &BTreeMap<String, f64>,
) -> Vec<MetricDiff> {
    let mut out = Vec::new();
    for (name, &b) in baseline {
        match run.get(name) {
            Some(&r) => out.push(MetricDiff {
                name: name.clone(),
                baseline: Some(b),
                run: Some(r),
                verdict: judge(name, b, r),
            }),
            None => out.push(MetricDiff {
                name: name.clone(),
                baseline: Some(b),
                run: None,
                verdict: Verdict::Missing,
            }),
        }
    }
    for (name, &r) in run {
        if !baseline.contains_key(name) {
            out.push(MetricDiff {
                name: name.clone(),
                baseline: None,
                run: Some(r),
                verdict: Verdict::Added,
            });
        }
    }
    out
}

/// `true` iff no diff gates the build (Missing and Regressed fail).
pub fn gate_passes(diffs: &[MetricDiff]) -> bool {
    diffs
        .iter()
        .all(|d| !matches!(d.verdict, Verdict::Regressed | Verdict::Missing))
}

/// Human-readable diff report, regressions first.
pub fn render_diff(diffs: &[MetricDiff]) -> String {
    let mut rows: Vec<&MetricDiff> = diffs.iter().collect();
    rows.sort_by_key(|d| match d.verdict {
        Verdict::Regressed => 0,
        Verdict::Missing => 1,
        Verdict::Improved => 2,
        Verdict::Added => 3,
        Verdict::Ok => 4,
    });
    let mut out = format!(
        "{:<36} {:>14} {:>14} {:>9}  verdict\n",
        "metric", "baseline", "run", "change%"
    );
    for d in rows {
        let (b, r) = (d.baseline, d.run);
        let change = match (b, r) {
            (Some(b), Some(r)) if b.abs() > 1e-30 => format!("{:+.1}", 100.0 * (r - b) / b),
            _ => "-".to_string(),
        };
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.6}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<36} {:>14} {:>14} {:>9}  {}\n",
            d.name,
            fmt(b),
            fmt(r),
            change,
            match d.verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
                Verdict::Missing => "MISSING",
                Verdict::Added => "added (new)",
            }
        ));
    }
    out
}

/// Build the schema-`licomkpp-bench-v1` summary document.
pub fn summary_to_json(
    config: &[(&str, u64)],
    spaces: &[&str],
    metrics: &BTreeMap<String, f64>,
) -> Json {
    let mut cfg = Json::Obj(Default::default());
    for (k, v) in config {
        cfg.set(k, Json::from(*v));
    }
    let mut m = Json::Obj(Default::default());
    for (k, v) in metrics {
        m.set(k, Json::from(*v));
    }
    Json::obj([
        ("schema", Json::from(SCHEMA)),
        ("config", cfg),
        (
            "spaces",
            Json::Arr(spaces.iter().map(|s| Json::from(*s)).collect()),
        ),
        ("metrics", m),
    ])
}

/// Validate a parsed summary against the schema and pull out the metric
/// table. Rejects wrong/missing schema tags, non-object `metrics`,
/// non-numeric metric values and missing `config`/`spaces`.
pub fn validate_summary(doc: &Json) -> Result<BTreeMap<String, f64>, String> {
    let schema = doc
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("missing `schema` tag")?;
    if schema != SCHEMA {
        return Err(format!("schema `{schema}`, expected `{SCHEMA}`"));
    }
    match doc.get("config") {
        Some(Json::Obj(_)) => {}
        _ => return Err("missing or non-object `config`".to_string()),
    }
    match doc.get("spaces") {
        Some(Json::Arr(a)) if !a.is_empty() => {
            if a.iter().any(|s| s.as_str().is_none()) {
                return Err("non-string entry in `spaces`".to_string());
            }
        }
        _ => return Err("missing or empty `spaces`".to_string()),
    }
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(m)) => m,
        _ => return Err("missing or non-object `metrics`".to_string()),
    };
    let mut out = BTreeMap::new();
    for (k, v) in metrics {
        let n = v
            .as_num()
            .ok_or_else(|| format!("metric `{k}` is not a number"))?;
        out.insert(k.clone(), n);
    }
    Ok(out)
}

/// Write a summary document atomically (tmp + rename, like the trace
/// writer) so a crashed gate never leaves a truncated JSON behind.
pub fn write_summary(path: &std::path::Path, doc: &Json) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, render_json_pretty(doc))?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_profiling::parse_json as parse;

    fn table(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn timing_within_band_passes() {
        // 20% slower is inside the 25% band.
        let base = table(&[("serial.mean_step_seconds", 0.10)]);
        let run = table(&[("serial.mean_step_seconds", 0.12)]);
        assert!(gate_passes(&compare_metrics(&base, &run)));
    }

    #[test]
    fn timing_bands_are_direction_aware() {
        let base = table(&[("serial.mean_step_seconds", 0.10), ("serial.sypd", 2.0)]);
        // 26% slower step AND 30% lower sypd: both regress.
        let bad = table(&[("serial.mean_step_seconds", 0.126), ("serial.sypd", 1.4)]);
        let diffs = compare_metrics(&base, &bad);
        assert!(!gate_passes(&diffs));
        assert_eq!(
            diffs
                .iter()
                .filter(|d| d.verdict == Verdict::Regressed)
                .count(),
            2
        );
        // 2x faster everywhere: improvements never fail.
        let good = table(&[("serial.mean_step_seconds", 0.05), ("serial.sypd", 4.0)]);
        let diffs = compare_metrics(&base, &good);
        assert!(gate_passes(&diffs));
        assert!(diffs.iter().all(|d| d.verdict == Verdict::Improved));
    }

    #[test]
    fn merge_best_is_direction_aware() {
        let a = table(&[
            ("s.sypd", 2.0),
            ("s.mean_step_seconds", 0.10),
            ("s.p2p_messages_total", 96.0),
        ]);
        let b = table(&[
            ("s.sypd", 2.5),
            ("s.mean_step_seconds", 0.12),
            ("s.p2p_messages_total", 96.0),
        ]);
        let m = merge_best(&a, &b);
        assert_eq!(m["s.sypd"], 2.5);
        assert_eq!(m["s.mean_step_seconds"], 0.10);
        assert_eq!(m["s.p2p_messages_total"], 96.0);
    }

    #[test]
    fn exact_counters_fail_on_any_change() {
        let base = table(&[("serial.p2p_messages_total", 96.0)]);
        let run = table(&[("serial.p2p_messages_total", 97.0)]);
        let diffs = compare_metrics(&base, &run);
        assert_eq!(diffs[0].verdict, Verdict::Regressed);
        assert!(!gate_passes(&diffs));
    }

    #[test]
    fn abs_floor_suppresses_tiny_wait_jitter() {
        // halo_wait_fraction 0.001 → 0.004 is 4x relative but far under
        // the 0.05 absolute floor: must pass.
        let base = table(&[("serial.halo_wait_fraction", 0.001)]);
        let run = table(&[("serial.halo_wait_fraction", 0.004)]);
        assert!(gate_passes(&compare_metrics(&base, &run)));
    }

    #[test]
    fn missing_metric_fails_added_passes() {
        let base = table(&[("serial.sypd", 2.0)]);
        let run = table(&[("threads.sypd", 2.0)]);
        let diffs = compare_metrics(&base, &run);
        assert!(!gate_passes(&diffs));
        assert!(diffs.iter().any(|d| d.verdict == Verdict::Missing));
        assert!(diffs.iter().any(|d| d.verdict == Verdict::Added));
    }

    #[test]
    fn informational_metrics_never_gate() {
        let base = table(&[("serial.max_over_mean", 1.0)]);
        let run = table(&[("serial.max_over_mean", 50.0)]);
        assert!(gate_passes(&compare_metrics(&base, &run)));
    }

    #[test]
    fn overlap_metrics_are_direction_aware() {
        // Wait fraction creeping back up past the 50% band regresses…
        let base = table(&[("serial.halo_wait_fraction", 0.15)]);
        let bad = table(&[("serial.halo_wait_fraction", 0.40)]);
        assert!(!gate_passes(&compare_metrics(&base, &bad)));
        // …but dropping it further is an improvement, never a failure.
        let good = table(&[("serial.halo_wait_fraction", 0.02)]);
        assert!(gate_passes(&compare_metrics(&base, &good)));

        // Overlap efficiency falling more than 25% (and above the 0.1
        // absolute floor) regresses; rising never does.
        let base = table(&[("serial.overlap_efficiency", 2.4)]);
        let bad = table(&[("serial.overlap_efficiency", 1.5)]);
        assert!(!gate_passes(&compare_metrics(&base, &bad)));
        let good = table(&[("serial.overlap_efficiency", 3.0)]);
        assert!(gate_passes(&compare_metrics(&base, &good)));
        // Tiny absolute dips under the floor are jitter, not regressions.
        let jitter = table(&[("serial.overlap_efficiency", 2.31)]);
        assert!(gate_passes(&compare_metrics(&base, &jitter)));
    }

    #[test]
    fn summary_round_trips_through_schema_validation() {
        let metrics = table(&[("serial.sypd", 2.5), ("serial.p2p_messages_total", 96.0)]);
        let doc = summary_to_json(
            &[
                ("nx", 60),
                ("ny", 40),
                ("nz", 10),
                ("ranks", 4),
                ("steps", 8),
            ],
            &["Serial"],
            &metrics,
        );
        let text = kokkos_profiling::render_json_pretty(&doc);
        let back = parse(&text).expect("rendered summary parses");
        let got = validate_summary(&back).expect("valid schema");
        assert_eq!(got, metrics);
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_summary(&parse("{}").unwrap()).is_err());
        assert!(validate_summary(
            &parse(r#"{"schema":"other","config":{},"spaces":["Serial"],"metrics":{}}"#).unwrap()
        )
        .is_err());
        assert!(validate_summary(
            &parse(r#"{"schema":"licomkpp-bench-v1","config":{},"spaces":[],"metrics":{}}"#)
                .unwrap()
        )
        .is_err());
        assert!(validate_summary(
            &parse(
                r#"{"schema":"licomkpp-bench-v1","config":{},"spaces":["Serial"],"metrics":{"a":"x"}}"#
            )
            .unwrap()
        )
        .is_err());
    }

    #[test]
    fn diff_report_leads_with_regressions() {
        let base = table(&[("a.sypd", 2.0), ("b.sypd", 2.0)]);
        let run = table(&[("a.sypd", 2.0), ("b.sypd", 1.0)]);
        let report = render_diff(&compare_metrics(&base, &run));
        let first = report.lines().nth(1).unwrap();
        assert!(first.starts_with("b.sypd") && first.contains("REGRESSED"));
    }
}
