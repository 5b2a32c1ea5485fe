//! Prometheus text exposition for the simulator's counter surfaces.
//!
//! Renders `mpi-sim` traffic snapshots, named event counters (e.g.
//! `licom::Timers::counters`) and phase timings in the Prometheus
//! text-based exposition format (`# HELP` / `# TYPE` headers followed by
//! `name{labels} value` samples). No client library — the format is
//! three line shapes — but the output is stable and scrape-compatible,
//! so a run can be diffed against a golden file or dropped behind a
//! trivial HTTP handler.

use mpi_sim::TrafficSnapshot;

/// Escape a label value per the exposition format.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a base label set (`instance="m17",tenant="a"`) plus one
/// optional trailing label into the `{...}` sample suffix. Empty base
/// and no trailing label renders as no braces at all.
fn label_suffix(base: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = base
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render an `mpi-sim` [`TrafficSnapshot`] as one counter family per
/// field, every sample carrying `base` labels:
/// `mpi_traffic_<field>_total{instance="m17",tenant="a"} <value>`.
/// Per-instance serving uses this so each instance's private world
/// traffic stays distinguishable in one scrape.
pub fn render_traffic_labeled(t: &TrafficSnapshot, base: &[(&str, &str)]) -> String {
    let suffix = label_suffix(base, None);
    let mut out = String::new();
    for (name, value) in t.fields() {
        out.push_str(&format!(
            "# HELP mpi_traffic_{name}_total Cumulative mpi-sim {} counter.\n\
             # TYPE mpi_traffic_{name}_total counter\n\
             mpi_traffic_{name}_total{suffix} {value}\n",
            name.replace('_', " ")
        ));
    }
    out
}

/// Render a named counter table (e.g. `Timers::counters`) as one family
/// with `base` labels plus a `name` label. Entries are sorted by name
/// for stable output.
pub fn render_named_counters_labeled(
    family: &str,
    help: &str,
    base: &[(&str, &str)],
    entries: &[(&str, u64)],
) -> String {
    let mut sorted: Vec<&(&str, u64)> = entries.iter().collect();
    sorted.sort_by_key(|(n, _)| *n);
    let mut out = format!("# HELP {family} {help}\n# TYPE {family} counter\n");
    for (name, value) in sorted {
        out.push_str(&format!(
            "{family}{} {value}\n",
            label_suffix(base, Some(("name", name)))
        ));
    }
    out
}

/// Render a named counter table (e.g. `Timers::counters`) as one family
/// with a `name` label. Entries are sorted by name for stable output.
pub fn render_named_counters(family: &str, help: &str, entries: &[(&str, u64)]) -> String {
    render_named_counters_labeled(family, help, &[], entries)
}

/// Render an integer gauge table as one family with `base` labels plus
/// one per-entry label whose key is `label_key` (e.g. `tenant`):
/// `family{base...,tenant="a"} 3`. Entries are sorted by label value
/// for stable output. Gauges, unlike the counter families above, may
/// legitimately go down between scrapes (queue depths, occupancy).
pub fn render_named_gauges_labeled(
    family: &str,
    help: &str,
    base: &[(&str, &str)],
    label_key: &str,
    entries: &[(&str, u64)],
) -> String {
    let mut sorted: Vec<&(&str, u64)> = entries.iter().collect();
    sorted.sort_by_key(|(n, _)| *n);
    let mut out = format!("# HELP {family} {help}\n# TYPE {family} gauge\n");
    for (name, value) in sorted {
        out.push_str(&format!(
            "{family}{} {value}\n",
            label_suffix(base, Some((label_key, name)))
        ));
    }
    out
}

/// Render an integer gauge table keyed by one label (see
/// [`render_named_gauges_labeled`]).
pub fn render_named_gauges(
    family: &str,
    help: &str,
    label_key: &str,
    entries: &[(&str, u64)],
) -> String {
    render_named_gauges_labeled(family, help, &[], label_key, entries)
}

/// Render a single unlabeled integer gauge sample.
pub fn render_gauge(family: &str, help: &str, value: u64) -> String {
    format!("# HELP {family} {help}\n# TYPE {family} gauge\n{family} {value}\n")
}

/// Render a phase/kernel seconds table as a gauge family with `base`
/// labels plus a `name` label, in fixed 9-decimal notation so output
/// never depends on float shortest-representation quirks.
pub fn render_phase_seconds_labeled(
    family: &str,
    help: &str,
    base: &[(&str, &str)],
    entries: &[(&str, f64)],
) -> String {
    let mut sorted: Vec<&(&str, f64)> = entries.iter().collect();
    sorted.sort_by_key(|(n, _)| *n);
    let mut out = format!("# HELP {family} {help}\n# TYPE {family} gauge\n");
    for (name, secs) in sorted {
        out.push_str(&format!(
            "{family}{} {secs:.9}\n",
            label_suffix(base, Some(("name", name)))
        ));
    }
    out
}

/// One-call exposition of a run's counter surfaces — traffic, named
/// event counters, and phase seconds — with every sample tagged by
/// `base` labels (e.g. `[("instance", "m17"), ("tenant", "a")]`). The
/// ensemble server scrapes one of these per instance and concatenates;
/// label disjointness keeps the families merge-safe.
pub fn render_prometheus_labeled(
    traffic: &TrafficSnapshot,
    counters: &[(&str, u64)],
    phases: &[(&str, f64)],
    base: &[(&str, &str)],
) -> String {
    let mut out = render_traffic_labeled(traffic, base);
    out.push_str(&render_named_counters_labeled(
        "model_counter_total",
        "Named model event counters (licom::Timers).",
        base,
        counters,
    ));
    out.push_str(&render_phase_seconds_labeled(
        "model_phase_seconds",
        "Accumulated wall seconds per model phase timer.",
        base,
        phases,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label("x\ny"), "x\\ny");
    }

    #[test]
    fn families_have_help_and_type() {
        let text = render_named_counters("f_total", "Help text.", &[("b", 2), ("a", 1)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# HELP f_total Help text.");
        assert_eq!(lines[1], "# TYPE f_total counter");
        // Sorted by name regardless of input order.
        assert_eq!(lines[2], "f_total{name=\"a\"} 1");
        assert_eq!(lines[3], "f_total{name=\"b\"} 2");
    }

    #[test]
    fn traffic_renders_every_field() {
        let t = TrafficSnapshot {
            p2p_messages: 7,
            ..Default::default()
        };
        let text = render_traffic_labeled(&t, &[]);
        assert!(text.contains("mpi_traffic_p2p_messages_total 7"));
        assert!(text.contains("mpi_traffic_recv_timeouts_total 0"));
        assert_eq!(
            text.lines().filter(|l| !l.starts_with('#')).count(),
            t.fields().len()
        );
    }

    #[test]
    fn phase_seconds_fixed_notation() {
        let text = render_phase_seconds_labeled("p_seconds", "h", &[], &[("eos", 0.5)]);
        assert!(text.contains("p_seconds{name=\"eos\"} 0.500000000"));
    }

    #[test]
    fn gauges_use_caller_label_key() {
        let text = render_named_gauges("q_depth", "h", "tenant", &[("b", 2), ("a", 7)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "# TYPE q_depth gauge");
        assert_eq!(lines[2], "q_depth{tenant=\"a\"} 7");
        assert_eq!(lines[3], "q_depth{tenant=\"b\"} 2");
        let single = render_gauge("busy", "h", 3);
        assert!(single.ends_with("busy 3\n"));
    }
}
