//! Chrome-trace (Perfetto-compatible) JSON export.
//!
//! The event model follows the Trace Event Format the Chrome tracing UI
//! and Perfetto consume: an object with a `traceEvents` array whose
//! entries carry `name`/`cat`/`ph`/`ts`/`pid`/`tid`, with `ts` and `dur`
//! in **microseconds**. We emit:
//!
//! * `"X"` complete spans — kernels, deep copies, regions;
//! * `"i"` instant events — fences, halo traffic, fault injections;
//! * `"C"` counter events — counter samples;
//! * `"M"` metadata — process (rank) and thread track names.
//!
//! `pid` is the simulated MPI rank and `tid` the emitting thread's track,
//! so each rank renders as its own process row. The file is written
//! atomically ([`crate::durable::replace`]) so a crash mid-run never
//! leaves a truncated JSON behind, and events are sorted by
//! `(pid, tid, ts)` before render — the validator in [`crate::json`]
//! checks that invariant.

use std::fmt::Write as _;
use std::path::Path;

/// Track id used for a rank's communication events (kept distinct from
/// compute-thread tracks so comm renders as its own row per rank).
pub const COMM_TRACK: i64 = 1_000_000;

/// Track id used for counter samples.
pub const COUNTER_TRACK: i64 = 1_000_001;

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

/// One trace event, pre-render.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: String,
    pub cat: &'static str,
    /// Chrome phase: 'X' (complete), 'i' (instant), 'C' (counter).
    pub ph: char,
    pub ts_ns: u64,
    /// Only meaningful for 'X'.
    pub dur_ns: u64,
    /// Simulated MPI rank.
    pub pid: i64,
    /// Thread / track id within the rank.
    pub tid: i64,
    pub args: Vec<(&'static str, ArgValue)>,
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Nanoseconds rendered as a decimal microsecond literal (`1234.567`),
/// never scientific notation — Perfetto rejects the latter.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn push_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(x) => {
            let _ = write!(out, "{x}");
        }
        ArgValue::I64(x) => {
            let _ = write!(out, "{x}");
        }
        ArgValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        ArgValue::Str(s) => {
            out.push('"');
            push_escaped(out, s);
            out.push('"');
        }
    }
}

fn push_event(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"name\":\"");
    push_escaped(out, &ev.name);
    let _ = write!(
        out,
        "\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":",
        ev.cat, ev.ph
    );
    push_us(out, ev.ts_ns);
    if ev.ph == 'X' {
        out.push_str(",\"dur\":");
        push_us(out, ev.dur_ns);
    }
    if ev.ph == 'i' {
        // Thread-scoped instant: renders as a tick on its own track.
        out.push_str(",\"s\":\"t\"");
    }
    let _ = write!(out, ",\"pid\":{},\"tid\":{}", ev.pid, ev.tid);
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":");
            push_arg_value(out, v);
        }
        out.push('}');
    }
    out.push('}');
}

fn push_metadata(out: &mut String, name: &str, pid: i64, tid: Option<i64>, label: &str) {
    let _ = write!(out, "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid}");
    if let Some(tid) = tid {
        let _ = write!(out, ",\"tid\":{tid}");
    }
    out.push_str(",\"args\":{\"name\":\"");
    push_escaped(out, label);
    out.push_str("\"}}");
}

/// Render a full chrome-trace JSON document. Events are sorted by
/// `(pid, tid, ts)`; metadata rows naming each rank/track come first.
pub fn render(events: &[TraceEvent]) -> String {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.pid, e.tid, e.ts_ns));

    let mut pids: Vec<i64> = sorted.iter().map(|e| e.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    let mut tracks: Vec<(i64, i64)> = sorted.iter().map(|e| (e.pid, e.tid)).collect();
    tracks.sort_unstable();
    tracks.dedup();

    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for pid in &pids {
        if !first {
            out.push(',');
        }
        first = false;
        push_metadata(&mut out, "process_name", *pid, None, &format!("rank {pid}"));
    }
    for (pid, tid) in &tracks {
        let label = match *tid {
            COMM_TRACK => "comm".to_string(),
            COUNTER_TRACK => "counters".to_string(),
            t => format!("thread {t}"),
        };
        if !first {
            out.push(',');
        }
        first = false;
        push_metadata(&mut out, "thread_name", *pid, Some(*tid), &label);
    }
    for ev in sorted {
        if !first {
            out.push(',');
        }
        first = false;
        push_event(&mut out, ev);
    }
    out.push_str("]}");
    out
}

/// Write the trace atomically ([`crate::durable::replace`]).
pub fn write_atomic(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    crate::durable::replace(path, "json.tmp", render(events).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, pid: i64, tid: i64, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "kernel",
            ph: 'X',
            ts_ns: ts,
            dur_ns: dur,
            pid,
            tid,
            args: vec![("work_items", ArgValue::U64(42))],
        }
    }

    #[test]
    fn render_sorts_tracks_and_is_valid_json() {
        let events = vec![
            span("b", 1, 0, 2000, 500),
            span("a", 0, 0, 1000, 500),
            span("c", 0, 0, 500, 100),
        ];
        let doc = render(&events);
        let parsed = crate::json::parse(&doc).expect("valid JSON");
        let summary = crate::json::validate_chrome_trace_value(&parsed).expect("schema ok");
        assert_eq!(summary.spans, 3);
        // rank 0's events must appear in ts order even though the input
        // was shuffled.
        assert!(doc.find("\"name\":\"c\"").unwrap() < doc.find("\"name\":\"a\"").unwrap());
    }

    #[test]
    fn strings_are_escaped() {
        let mut ev = span("we\"ird\\name", 0, 0, 0, 1);
        ev.args = vec![("label", ArgValue::Str("tab\there".into()))];
        let doc = render(&[ev]);
        assert!(doc.contains("we\\\"ird\\\\name"));
        assert!(doc.contains("tab\\there"));
        crate::json::parse(&doc).expect("escaped doc parses");
    }

    #[test]
    fn microsecond_rendering_keeps_nanosecond_precision() {
        let mut out = String::new();
        push_us(&mut out, 1_234_567);
        assert_eq!(out, "1234.567");
        out.clear();
        push_us(&mut out, 9);
        assert_eq!(out, "0.009");
    }

    #[test]
    fn write_atomic_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join("kp-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_atomic(&path, &[span("k", 0, 0, 0, 10)]).unwrap();
        assert!(path.exists());
        assert!(!dir.join("t.json.tmp").exists());
        let body = std::fs::read_to_string(&path).unwrap();
        crate::json::parse(&body).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
