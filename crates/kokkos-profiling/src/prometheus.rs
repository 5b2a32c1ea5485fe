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

/// One family: `# HELP` / `# TYPE` headers, then one sample per entry in
/// label order, each carrying `base` labels plus `label_key="<entry>"`
/// (no per-entry label when `label_key` is `None`) and its value as
/// `value` formats it.
fn render_family<V: Copy>(
    kind: &str,
    name: &str,
    help: &str,
    base: &[(&str, &str)],
    label_key: Option<&str>,
    entries: &[(&str, V)],
    value: fn(V) -> String,
) -> String {
    let mut sorted: Vec<&(&str, V)> = entries.iter().collect();
    sorted.sort_by_key(|(label, _)| *label);
    let mut out = format!("# HELP {name} {help}\n# TYPE {name} {kind}\n");
    for &(label, v) in sorted {
        let suffix = label_suffix(base, label_key.map(|k| (k, label)));
        out.push_str(&format!("{name}{suffix} {}\n", value(v)));
    }
    out
}

fn integer(v: u64) -> String {
    v.to_string()
}

/// Render a named counter table (e.g. `Timers::counters`) as one family
/// with a `name` label. Entries are sorted by name for stable output.
pub fn render_named_counters(family: &str, help: &str, entries: &[(&str, u64)]) -> String {
    render_family("counter", family, help, &[], Some("name"), entries, integer)
}

/// Render an integer gauge table as one family with one per-entry label
/// whose key is `label_key` (e.g. `tenant`): `family{tenant="a"} 3`.
/// Entries are sorted by label value for stable output. Gauges, unlike
/// counters, may legitimately go down between scrapes (queue depths,
/// occupancy).
pub fn render_named_gauges(
    family: &str,
    help: &str,
    label_key: &str,
    entries: &[(&str, u64)],
) -> String {
    render_family(
        "gauge",
        family,
        help,
        &[],
        Some(label_key),
        entries,
        integer,
    )
}

/// Render a single unlabeled integer gauge sample.
pub fn render_gauge(family: &str, help: &str, value: u64) -> String {
    render_family("gauge", family, help, &[], None, &[("", value)], integer)
}

/// One-call exposition of a run's counter surfaces, every sample tagged
/// by `base` labels (e.g. `[("instance", "m17"), ("tenant", "a")]`):
/// one `mpi_traffic_<field>_total` counter family per `mpi-sim` traffic
/// field, the named event counters as `model_counter_total{name=..}`, and
/// the phase seconds as the `model_phase_seconds{name=..}` gauge in fixed
/// 9-decimal notation (so output never depends on float
/// shortest-representation quirks). The ensemble server scrapes one of
/// these per instance and concatenates; label disjointness keeps the
/// families merge-safe.
pub fn render_prometheus_labeled(
    traffic: &TrafficSnapshot,
    counters: &[(&str, u64)],
    phases: &[(&str, f64)],
    base: &[(&str, &str)],
) -> String {
    let mut out = String::new();
    for (field, value) in traffic.fields() {
        out.push_str(&render_family(
            "counter",
            &format!("mpi_traffic_{field}_total"),
            &format!("Cumulative mpi-sim {} counter.", field.replace('_', " ")),
            base,
            None,
            &[("", value)],
            integer,
        ));
    }
    out.push_str(&render_family(
        "counter",
        "model_counter_total",
        "Named model event counters (licom::Timers).",
        base,
        Some("name"),
        counters,
        integer,
    ));
    out.push_str(&render_family(
        "gauge",
        "model_phase_seconds",
        "Accumulated wall seconds per model phase timer.",
        base,
        Some("name"),
        phases,
        |secs| format!("{secs:.9}"),
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
        let text = render_prometheus_labeled(&t, &[], &[], &[]);
        assert!(text.contains("mpi_traffic_p2p_messages_total 7"));
        assert!(text.contains("mpi_traffic_recv_timeouts_total 0"));
        // Empty counter and phase tables leave only their headers.
        assert_eq!(
            text.lines().filter(|l| !l.starts_with('#')).count(),
            t.fields().len()
        );
    }

    #[test]
    fn phase_seconds_fixed_notation() {
        let text = render_prometheus_labeled(&Default::default(), &[], &[("eos", 0.5)], &[]);
        assert!(text.contains("model_phase_seconds{name=\"eos\"} 0.500000000"));
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
