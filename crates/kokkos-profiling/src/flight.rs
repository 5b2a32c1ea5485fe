//! Flight-recorder consumer side: the kernel-event bridge, causal
//! merging, post-mortem bundle I/O, and chrome-trace export.
//!
//! The recording core ([`FlightRing`], [`LamportClock`], thread-scope
//! arming) lives in `mpi_sim::flight`, underneath the transport whose
//! message path carries the clock. This module is everything that
//! happens *around* the rings:
//!
//! * [`init_bridge`] — connect `kokkos-rs`'s dispatch chokepoint to the
//!   rings (every kernel launch records a `KernelBegin`/`KernelEnd` pair
//!   while armed) and mirror the armed flag so the disabled dispatch path
//!   stays one atomic load. Every `licom::Model` installs it and owns its
//!   rank's ring.
//! * [`merge_causal`] / [`snapshot_all`] — merge per-rank snapshots into
//!   one cross-rank stream ordered by `(lamport, rank, t_ns)`: a receive
//!   always sorts after its send, whatever the wall clocks measured.
//! * [`dump_postmortem`] / [`dump_on_failure`] — snapshot all reachable
//!   rings into an atomic ([`crate::durable::replace`]) JSON bundle tagged
//!   [`FLIGHT_SCHEMA`]. Failure edges call [`dump_on_failure`], which
//!   also enforces the one-bundle-per-incident claim.
//! * [`read_bundle`] / [`validate_bundle`] — parse + schema-check a
//!   bundle in one walk of its events (used by `licom-trace`, the CI
//!   smoke job, and the tests).
//! * [`bundle_to_trace_events`] — re-express a bundle as chrome-trace
//!   events for the existing [`crate::trace`] exporter, so a post-mortem
//!   opens in Perfetto next to an ordinary profiler trace.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};

use kokkos_rs::profiling::{FlightSink, KernelId};
use mpi_sim::Comm;
use parking_lot::Mutex;

pub use mpi_sim::flight::{
    now_ns, FlightCtx, FlightEvent, FlightEventKind, FlightRing, FlightScope, LamportClock,
    DEFAULT_CAPACITY, FLIGHT_SCHEMA,
};

use crate::json::{self, Json};
use crate::trace::{ArgValue, TraceEvent, COMM_TRACK};

/// 48-bit FNV-1a hash of a kernel name. Bundles are JSON and the
/// dependency-free serializer stores numbers as `f64`, so every payload
/// word must survive an f64 round-trip — 48 bits fit exactly (collisions
/// across the ~100 kernel names in this codebase are not a concern).
pub fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h & ((1 << 48) - 1)
}

/// Global hash → kernel-name table, filled by the bridge as kernels are
/// first seen and embedded into every bundle so `licom-trace` can print
/// names, not hashes.
static KERNEL_NAMES: Mutex<BTreeMap<u64, &'static str>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Hashes this thread has already interned — keeps the armed
    /// recording path lock-free after each kernel's first launch.
    static SEEN_NAMES: std::cell::RefCell<HashSet<u64>> =
        std::cell::RefCell::new(HashSet::new());
}

fn intern_name(hash: u64, name: &'static str) {
    SEEN_NAMES.with(|seen| {
        if seen.borrow_mut().insert(hash) {
            KERNEL_NAMES.lock().entry(hash).or_insert(name);
        }
    });
}

/// Snapshot of the interning table (hash → kernel name).
pub fn kernel_name_table() -> BTreeMap<u64, String> {
    KERNEL_NAMES
        .lock()
        .iter()
        .map(|(h, n)| (*h, n.to_string()))
        .collect()
}

/// The bridge installed into `kokkos-rs`: kernel span edges from the
/// dispatch chokepoint become ring events on whichever thread launched
/// the kernel.
struct RingSink;

impl FlightSink for RingSink {
    fn kernel_begin(
        &self,
        kid: KernelId,
        name: &'static str,
        _space: &'static str,
        work_items: u64,
    ) {
        let hash = name_hash(name);
        intern_name(hash, name);
        mpi_sim::flight::record(FlightEventKind::KernelBegin, kid, hash, work_items);
    }

    fn kernel_end(&self, kid: KernelId) {
        mpi_sim::flight::record(FlightEventKind::KernelEnd, kid, 0, 0);
    }
}

/// Install the kernel-event bridge and the armed-flag mirror (idempotent;
/// `licom::Model::new` calls it).
pub fn init_bridge() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        kokkos_rs::profiling::install_flight_sink(Arc::new(RingSink));
        mpi_sim::flight::set_arm_observer(kokkos_rs::profiling::set_flight_armed);
    });
}

/// Sort events into the single cross-rank causal order: primary key is
/// the Lamport stamp (a receive's stamp is strictly greater than its
/// send's), ranks break ties deterministically, wall time last.
pub fn merge_causal(mut events: Vec<FlightEvent>) -> Vec<FlightEvent> {
    events.sort_by_key(|e| (e.lamport, e.rank, e.t_ns));
    events
}

/// Snapshot every ring and merge causally.
pub fn snapshot_all(rings: &[Arc<FlightRing>]) -> Vec<FlightEvent> {
    merge_causal(rings.iter().flat_map(|r| r.snapshot()).collect())
}

fn event_json(ev: &FlightEvent) -> Json {
    Json::obj([
        ("t_ns", Json::from(ev.t_ns)),
        ("lamport", Json::from(ev.lamport)),
        ("rank", Json::Num(ev.rank as f64)),
        ("kind", Json::from(ev.kind.name())),
        ("a", Json::from(ev.a)),
        ("b", Json::from(ev.b)),
        ("c", Json::from(ev.c)),
    ])
}

/// Build the bundle document for a set of rings (events causally
/// merged, kernel-name table embedded).
pub fn bundle_json(reason: &str, rings: &[Arc<FlightRing>]) -> Json {
    let events = snapshot_all(rings);
    let names = kernel_name_table();
    let mut doc = Json::obj([
        ("schema", Json::from(FLIGHT_SCHEMA)),
        ("reason", Json::from(reason)),
        (
            "ranks",
            Json::Arr(rings.iter().map(|r| Json::Num(r.rank() as f64)).collect()),
        ),
        (
            "total_recorded",
            Json::from(rings.iter().map(|r| r.total_recorded()).sum::<u64>()),
        ),
        (
            "kernel_names",
            Json::Obj(
                names
                    .into_iter()
                    .map(|(h, n)| (h.to_string(), Json::Str(n)))
                    .collect(),
            ),
        ),
        ("events", Json::Arr(events.iter().map(event_json).collect())),
    ]);
    doc.set("event_count", Json::from(events.len()));
    doc
}

/// Write a post-mortem bundle atomically ([`crate::durable::replace`]) — a
/// crash mid-dump never leaves a truncated bundle behind.
pub fn dump_postmortem(
    path: &Path,
    reason: &str,
    rings: &[Arc<FlightRing>],
) -> std::io::Result<()> {
    let doc = json::render(&bundle_json(reason, rings));
    crate::durable::replace(path, "json.tmp", doc.as_bytes())
}

/// A collision-free bundle path under `dir`: pid + process-wide sequence
/// number + a slug of the failure reason.
pub fn postmortem_path(dir: &Path, reason: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let slug: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .take(32)
        .collect();
    dir.join(format!(
        "flight-{}-{}-{slug}.json",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ))
}

/// The failure-edge entry point: snapshot all of `comm`'s world's rings
/// into a bundle under `dir`. Returns `None` (without writing) when no
/// ring was ever armed, when another edge of the same incident already
/// dumped, or when the write fails — a post-mortem must never turn one
/// failure into two.
pub fn dump_on_failure(dir: &Path, reason: &str, comm: &Comm) -> Option<PathBuf> {
    let rings = comm.flight_rings();
    if rings.is_empty() || !comm.flight_claim_dump() {
        return None;
    }
    let path = postmortem_path(dir, reason);
    match dump_postmortem(&path, reason, &rings) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "flight: failed to write post-mortem {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// What the validator measured about a bundle.
#[derive(Debug, Clone, Default)]
pub struct BundleSummary {
    pub reason: String,
    pub events: usize,
    pub ranks: usize,
    /// Event count per kind name.
    pub by_kind: BTreeMap<String, usize>,
}

/// Schema-check an already-parsed bundle: tag, well-formed events with
/// known kinds, and the causal-order invariant (Lamport stamps
/// non-decreasing down the merged stream).
pub fn validate_bundle(doc: &Json) -> Result<BundleSummary, String> {
    parse_bundle(doc).map(|(summary, _)| summary)
}

/// The one walk [`validate_bundle`] and [`read_bundle`] share: check the
/// bundle and decode each event as it is checked.
fn parse_bundle(doc: &Json) -> Result<(BundleSummary, Vec<FlightEvent>), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema tag")?;
    if schema != FLIGHT_SCHEMA {
        return Err(format!("schema {schema:?}, expected {FLIGHT_SCHEMA:?}"));
    }
    let reason = doc
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("missing reason")?
        .to_string();
    let ranks = doc
        .get("ranks")
        .and_then(Json::as_arr)
        .ok_or("missing ranks array")?
        .len();
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("missing events array")?;
    let mut summary = BundleSummary {
        reason,
        events: events.len(),
        ranks,
        ..BundleSummary::default()
    };
    let mut decoded = Vec::with_capacity(events.len());
    let mut last_lamport = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let field = |name: &str| {
            ev.get(name)
                .and_then(Json::as_num)
                .ok_or(format!("event {i}: bad or missing `{name}`"))
        };
        let mut w = [0.0; 5];
        for (word, name) in w.iter_mut().zip(["t_ns", "rank", "a", "b", "c"]) {
            *word = field(name)?;
        }
        let name = ev
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing kind"))?;
        let kind = FlightEventKind::from_name(name)
            .ok_or_else(|| format!("event {i}: unknown kind {name:?}"))?;
        let lamport = field("lamport")? as u64;
        if lamport < last_lamport {
            return Err(format!(
                "event {i}: lamport {lamport} < {last_lamport} — stream not causally merged"
            ));
        }
        last_lamport = lamport;
        *summary.by_kind.entry(name.to_string()).or_insert(0) += 1;
        decoded.push(FlightEvent {
            t_ns: w[0] as u64,
            lamport,
            rank: w[1] as i64,
            kind,
            a: w[2] as u64,
            b: w[3] as u64,
            c: w[4] as u64,
        });
    }
    Ok((summary, decoded))
}

/// A parsed, validated bundle.
#[derive(Debug, Clone)]
pub struct Bundle {
    pub reason: String,
    pub events: Vec<FlightEvent>,
    /// Kernel-name table (hash → name) embedded at dump time.
    pub kernel_names: BTreeMap<u64, String>,
}

/// Read + validate a bundle from disk.
pub fn read_bundle(path: &Path) -> Result<Bundle, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let (summary, events) = parse_bundle(&doc)?;
    let kernel_names = match doc.get("kernel_names") {
        Some(Json::Obj(map)) => map
            .iter()
            .filter_map(|(k, v)| Some((k.parse::<u64>().ok()?, v.as_str()?.to_string())))
            .collect(),
        _ => BTreeMap::new(),
    };
    Ok(Bundle {
        reason: summary.reason,
        events,
        kernel_names,
    })
}

fn kind_category(kind: FlightEventKind) -> &'static str {
    use FlightEventKind::*;
    match kind {
        KernelBegin | KernelEnd => "kernel",
        MsgSend | MsgRecv | HaloSend | HaloRecv | EscrowResend => "comm",
        StepBegin | StepEnd | CheckpointSave | CheckpointRestore | SchedDecision => "model",
        _ => "fault",
    }
}

fn event_label(ev: &FlightEvent, names: &BTreeMap<u64, String>) -> String {
    match ev.kind {
        FlightEventKind::KernelBegin => match names.get(&ev.b) {
            Some(name) => format!("{name} (kid {})", ev.a),
            None => format!("kernel {:x} (kid {})", ev.b, ev.a),
        },
        _ => ev.kind.name().to_string(),
    }
}

/// Re-express a causally-merged event stream as chrome-trace events:
/// `KernelBegin`/`KernelEnd` pairs from the same rank become complete
/// spans on the rank's compute track, everything else an instant on the
/// rank's comm/fault track.
pub fn bundle_to_trace_events(
    events: &[FlightEvent],
    names: &BTreeMap<u64, String>,
) -> Vec<TraceEvent> {
    let mut out = Vec::with_capacity(events.len());
    // Open kernel spans by (rank, kid): begin waits for its end.
    let mut open: HashMap<(i64, u64), &FlightEvent> = HashMap::new();
    for ev in events {
        match ev.kind {
            FlightEventKind::KernelBegin => {
                open.insert((ev.rank, ev.a), ev);
            }
            FlightEventKind::KernelEnd => {
                if let Some(begin) = open.remove(&(ev.rank, ev.a)) {
                    out.push(TraceEvent {
                        name: event_label(begin, names),
                        cat: "kernel",
                        ph: 'X',
                        ts_ns: begin.t_ns,
                        dur_ns: ev.t_ns.saturating_sub(begin.t_ns),
                        pid: ev.rank,
                        tid: 0,
                        args: vec![
                            ("lamport", ArgValue::U64(begin.lamport)),
                            ("work_items", ArgValue::U64(begin.c)),
                        ],
                    });
                }
            }
            kind => {
                out.push(TraceEvent {
                    name: ev.kind.name().to_string(),
                    cat: kind_category(kind),
                    ph: 'i',
                    ts_ns: ev.t_ns,
                    dur_ns: 0,
                    pid: ev.rank,
                    tid: COMM_TRACK,
                    args: vec![
                        ("lamport", ArgValue::U64(ev.lamport)),
                        ("a", ArgValue::U64(ev.a)),
                        ("b", ArgValue::U64(ev.b)),
                        ("c", ArgValue::U64(ev.c)),
                    ],
                });
            }
        }
    }
    // A kernel open at snapshot time (e.g. the failing launch itself) is
    // still evidence: emit it as an instant so it survives the export.
    for (_, begin) in open {
        out.push(TraceEvent {
            name: event_label(begin, names),
            cat: "kernel",
            ph: 'i',
            ts_ns: begin.t_ns,
            dur_ns: 0,
            pid: begin.rank,
            tid: 0,
            args: vec![("lamport", ArgValue::U64(begin.lamport))],
        });
    }
    out
}

/// Render the "last `n` events before failure" report: the causal tail
/// of the merged stream, one line per event, newest last.
pub fn render_last_events(
    events: &[FlightEvent],
    names: &BTreeMap<u64, String>,
    n: usize,
) -> String {
    let tail = &events[events.len().saturating_sub(n)..];
    let mut out = String::new();
    out.push_str(&format!(
        "last {} of {} events (causal order; lamport | rank | t_us):\n",
        tail.len(),
        events.len()
    ));
    for ev in tail {
        out.push_str(&format!(
            "  [{:>8}] rank {:>2} t={:>12.3}  {:<18} a={} b={} c={}\n",
            ev.lamport,
            ev.rank,
            ev.t_ns as f64 / 1000.0,
            event_label(ev, names),
            ev.a,
            ev.b,
            ev.c
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::flight::FlightRing;

    fn ring_with(rank: i64, events: &[(FlightEventKind, u64, u64, u64)]) -> Arc<FlightRing> {
        let ring = FlightRing::new(rank, 64);
        let clock = LamportClock::default();
        for (kind, a, b, c) in events {
            ring.record(&clock, *kind, *a, *b, *c);
        }
        ring
    }

    #[test]
    fn merge_causal_orders_recv_after_send() {
        let sender = FlightRing::new(0, 8);
        let receiver = FlightRing::new(1, 8);
        let c0 = LamportClock::default();
        let c1 = LamportClock::default();
        // Rank 1 is "ahead" in wall time but the Lamport merge still
        // orders its receive after rank 0's send.
        let sent = c0.tick();
        sender.record_stamped(FlightEventKind::MsgSend, sent, 1, 7, 4);
        let merged = c1.observe(sent);
        receiver.record_stamped(FlightEventKind::MsgRecv, merged, 0, 7, 4);
        let events = snapshot_all(&[receiver, sender]);
        assert_eq!(events[0].kind, FlightEventKind::MsgSend);
        assert_eq!(events[1].kind, FlightEventKind::MsgRecv);
        assert!(events[0].lamport < events[1].lamport);
    }

    #[test]
    fn bundle_round_trips_and_validates() {
        let dir = std::env::temp_dir().join(format!("kp-flight-test-{}", std::process::id()));
        let rings = vec![
            ring_with(
                0,
                &[
                    (FlightEventKind::StepBegin, 3, 0, 0),
                    (FlightEventKind::GuardTrip, 3, 2, 0),
                ],
            ),
            ring_with(1, &[(FlightEventKind::PeerDead, 0, 11, 0)]),
        ];
        let path = postmortem_path(&dir, "guard trip: step 3");
        dump_postmortem(&path, "guard trip: step 3", &rings).unwrap();
        assert!(!path.with_extension("json.tmp").exists());

        let bundle = read_bundle(&path).unwrap();
        assert_eq!(bundle.reason, "guard trip: step 3");
        assert_eq!(bundle.events.len(), 3);
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let summary = validate_bundle(&doc).unwrap();
        assert_eq!(summary.ranks, 2);
        assert_eq!(summary.by_kind.get("GuardTrip"), Some(&1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The armed path end to end: 300 events recorded into a 512-slot ring
    /// through the thread-local scope, dumped by the failure path, read
    /// back — none lost, none invented, and the dump is claimed once.
    #[test]
    fn armed_ring_dumps_every_recorded_event() {
        let dir = std::env::temp_dir().join(format!("kp-flight-dump-{}", std::process::id()));
        mpi_sim::World::run(1, |comm| {
            let _scope = comm.arm_flight(512);
            for i in 0..300 {
                mpi_sim::flight::record(FlightEventKind::StepBegin, i, 0, 0);
            }
            let path = dump_on_failure(&dir, "armed dump", comm).expect("first dump claims");
            assert_eq!(read_bundle(&path).unwrap().events.len(), 300);
            assert!(dump_on_failure(&dir, "armed dump", comm).is_none());
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_rejects_wrong_schema_and_unknown_kind() {
        let doc = json::parse(r#"{"schema":"nope","reason":"r","ranks":[],"events":[]}"#).unwrap();
        assert!(validate_bundle(&doc).unwrap_err().contains("schema"));
        let doc = json::parse(
            r#"{"schema":"licomkpp-flight-v1","reason":"r","ranks":[0],
                "events":[{"t_ns":1,"lamport":1,"rank":0,"kind":"Nope","a":0,"b":0,"c":0}]}"#,
        )
        .unwrap();
        assert!(validate_bundle(&doc).unwrap_err().contains("unknown kind"));
    }

    #[test]
    fn trace_export_of_bundle_is_schema_valid() {
        let h = name_hash("FunctorNewLevelColumns");
        let clock = LamportClock::default();
        let ring = FlightRing::new(0, 16);
        ring.record(&clock, FlightEventKind::KernelBegin, 1, h, 100);
        ring.record(&clock, FlightEventKind::KernelEnd, 1, 0, 0);
        ring.record(&clock, FlightEventKind::HaloSend, 0x30001, 1, 64);
        ring.record(&clock, FlightEventKind::KernelBegin, 2, h, 100); // unclosed
        let events = snapshot_all(&[ring]);
        let names: BTreeMap<u64, String> = [(h, "FunctorNewLevelColumns".to_string())].into();
        let trace = bundle_to_trace_events(&events, &names);
        let doc = crate::trace::render(&trace);
        let summary = json::validate_chrome_trace(&doc).unwrap();
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.instants, 2);
        assert!(doc.contains("FunctorNewLevelColumns"));
    }

    #[test]
    fn last_events_report_shows_tail() {
        let ring = ring_with(
            2,
            &[
                (FlightEventKind::StepBegin, 1, 0, 0),
                (FlightEventKind::StepEnd, 1, 0, 0),
                (FlightEventKind::Drift, 2, 0, 0),
            ],
        );
        let events = snapshot_all(&[ring]);
        let report = render_last_events(&events, &BTreeMap::new(), 2);
        assert!(report.contains("last 2 of 3 events"));
        assert!(!report.contains("StepBegin"));
        assert!(report.contains("Drift"));
    }

    #[test]
    fn name_hash_fits_48_bits() {
        for name in ["FunctorNewLevelColumns", "FunctorBarotropic", "x"] {
            assert!(name_hash(name) < (1 << 48));
        }
        assert_ne!(name_hash("a"), name_hash("b"));
    }
}
