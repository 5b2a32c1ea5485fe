//! The in-process profiling tool: an implementation of
//! [`kokkos_rs::ProfilingHooks`] that aggregates kernel/region/deep-copy
//! statistics into lock-sharded tables and records a bounded trace-event
//! buffer for chrome-trace export.
//!
//! One [`Profiler`] serves every rank of an `mpi-sim` job: simulated ranks
//! run on threads, so each rank thread declares itself once with
//! [`set_thread_rank`] and all events it emits land on that rank's `pid`
//! track. Kernel begin/end callbacks fire on the dispatching thread
//! (dispatch is synchronous in every execution space), so span pairing is
//! done through a sharded open-span map keyed by kernel id — robust even
//! if a functor panic unwinds through the dispatch, because the RAII
//! guards in `kokkos-rs` still deliver the `end_*` callback.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kokkos_rs::profiling::{self, DeepCopyInfo, KernelId, KernelInfo, ProfilingHooks};
use kokkos_rs::MemSpace;
use parking_lot::Mutex;

use crate::clock;
use crate::stats::{Stat, StatsTable};
use crate::trace::{ArgValue, TraceEvent, COMM_TRACK};

const OPEN_SHARDS: usize = 16;

/// Default bound on the trace-event buffer (events beyond it are counted
/// in [`Profiler::dropped_events`], never silently lost from accounting —
/// the stats tables keep aggregating regardless).
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_RANK: Cell<i64> = const { Cell::new(0) };
    static THREAD_TID: Cell<i64> = const { Cell::new(-1) };
    static REGION_STACK: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Declare the simulated MPI rank of the calling thread. All events the
/// thread emits afterwards carry this rank as their chrome-trace `pid`.
pub fn set_thread_rank(rank: i64) {
    THREAD_RANK.with(|r| r.set(rank));
}

fn thread_rank() -> i64 {
    THREAD_RANK.with(|r| r.get())
}

fn thread_tid() -> i64 {
    THREAD_TID.with(|t| {
        if t.get() < 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed) as i64);
        }
        t.get()
    })
}

/// Aggregation key for one kernel: functor name × execution space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelKey {
    pub name: &'static str,
    pub space: &'static str,
}

struct OpenKernel {
    name: &'static str,
    space: &'static str,
    pattern: &'static str,
    policy: &'static str,
    work_items: u64,
    start_ns: u64,
    pid: i64,
    tid: i64,
    /// Innermost region at launch time, for trace args.
    region: Option<&'static str>,
}

struct OpenCopy {
    name: String,
    key: (&'static str, &'static str),
    bytes: u64,
    start_ns: u64,
    pid: i64,
    tid: i64,
}

fn memspace_name(m: MemSpace) -> &'static str {
    match m {
        MemSpace::Host => "Host",
        MemSpace::Device => "Device",
    }
}

/// The aggregating + tracing consumer. Construct, wrap in an `Arc`, and
/// [`attach`] it; detach with [`detach`] when done.
pub struct Profiler {
    max_events: usize,
    open: [Mutex<HashMap<KernelId, OpenKernel>>; OPEN_SHARDS],
    open_copies: Mutex<HashMap<KernelId, OpenCopy>>,
    /// Per-(kernel, space) durations and work items.
    pub kernels: StatsTable<KernelKey>,
    /// Per-execution-space totals.
    pub spaces: StatsTable<&'static str>,
    /// Per-region wall time (regions nest; each level accounts its own
    /// full span, like Kokkos Tools' region timers).
    pub regions: StatsTable<&'static str>,
    /// Per-(src, dst) memory-space deep-copy durations and bytes.
    pub copies: StatsTable<(&'static str, &'static str)>,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
    fences: AtomicU64,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_EVENTS)
    }
}

impl Profiler {
    pub fn new(max_events: usize) -> Self {
        Self {
            max_events,
            open: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            open_copies: Mutex::new(HashMap::new()),
            kernels: StatsTable::new(),
            spaces: StatsTable::new(),
            regions: StatsTable::new(),
            copies: StatsTable::new(),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            fences: AtomicU64::new(0),
        }
    }

    fn record_event(&self, ev: TraceEvent) {
        let mut events = self.events.lock();
        if events.len() >= self.max_events {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(ev);
    }

    fn begin_kernel_common(&self, kid: KernelId, info: &KernelInfo) {
        let span = OpenKernel {
            name: info.name,
            space: info.space,
            pattern: info.pattern.name(),
            policy: info.policy.name(),
            work_items: info.work_items,
            start_ns: clock::now_ns(),
            pid: thread_rank(),
            tid: thread_tid(),
            region: REGION_STACK.with(|s| s.borrow().last().map(|(n, _)| *n)),
        };
        self.open[kid as usize % OPEN_SHARDS]
            .lock()
            .insert(kid, span);
    }

    fn end_kernel_common(&self, kid: KernelId) {
        let Some(span) = self.open[kid as usize % OPEN_SHARDS].lock().remove(&kid) else {
            return;
        };
        let dur = clock::now_ns().saturating_sub(span.start_ns);
        let key = KernelKey {
            name: span.name,
            space: span.space,
        };
        self.kernels.record(key, dur, 0, span.work_items);
        self.spaces.record(span.space, dur, 0, span.work_items);
        let mut args = vec![
            ("kid", ArgValue::U64(kid)),
            ("pattern", ArgValue::Str(span.pattern.to_string())),
            ("policy", ArgValue::Str(span.policy.to_string())),
            ("space", ArgValue::Str(span.space.to_string())),
            ("work_items", ArgValue::U64(span.work_items)),
        ];
        if let Some(region) = span.region {
            args.push(("region", ArgValue::Str(region.to_string())));
        }
        self.record_event(TraceEvent {
            name: span.name.to_string(),
            cat: "kernel",
            ph: 'X',
            ts_ns: span.start_ns,
            dur_ns: dur,
            pid: span.pid,
            tid: span.tid,
            args,
        });
    }

    // ---- communication bridge -----------------------------------------

    /// Record one `mpi-sim` traffic event as an instant on the rank's
    /// comm track. Called by the tap adapter in `lib.rs`.
    pub fn on_comm(&self, rank: i64, kind: &'static str, peer: i64, bytes: u64, tag: i64) {
        self.record_event(TraceEvent {
            name: kind.to_string(),
            cat: "comm",
            ph: 'i',
            ts_ns: clock::now_ns(),
            dur_ns: 0,
            pid: rank,
            tid: COMM_TRACK,
            args: vec![
                ("peer", ArgValue::I64(peer)),
                ("bytes", ArgValue::U64(bytes)),
                ("tag", ArgValue::I64(tag)),
            ],
        });
    }

    // ---- results -------------------------------------------------------

    pub fn fences(&self) -> u64 {
        self.fences.load(Ordering::Relaxed)
    }

    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn event_count(&self) -> usize {
        self.events.lock().len()
    }

    /// Copy out the trace-event buffer (for merging or custom export).
    pub fn events_snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Write the chrome-trace JSON atomically to `path`.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        crate::trace::write_atomic(path, &self.events.lock())
    }

    /// Per-kernel table sorted by descending total time.
    pub fn kernel_table(&self) -> Vec<(KernelKey, Stat)> {
        let mut rows = self.kernels.snapshot();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.name.cmp(b.0.name)));
        rows
    }

    /// Per-region table sorted by descending total time.
    pub fn region_table(&self) -> Vec<(&'static str, Stat)> {
        let mut rows = self.regions.snapshot();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        rows
    }

    /// Drop all aggregates and buffered events.
    pub fn reset(&self) {
        for shard in &self.open {
            shard.lock().clear();
        }
        self.open_copies.lock().clear();
        self.kernels.clear();
        self.spaces.clear();
        self.regions.clear();
        self.copies.clear();
        self.events.lock().clear();
        self.dropped.store(0, Ordering::Relaxed);
        self.fences.store(0, Ordering::Relaxed);
    }
}

impl ProfilingHooks for Profiler {
    fn begin_parallel_for(&self, kid: KernelId, info: &KernelInfo) {
        self.begin_kernel_common(kid, info);
    }

    fn end_parallel_for(&self, kid: KernelId) {
        self.end_kernel_common(kid);
    }

    fn begin_parallel_reduce(&self, kid: KernelId, info: &KernelInfo) {
        self.begin_kernel_common(kid, info);
    }

    fn end_parallel_reduce(&self, kid: KernelId) {
        self.end_kernel_common(kid);
    }

    fn begin_deep_copy(&self, kid: KernelId, info: &DeepCopyInfo<'_>) {
        let src = memspace_name(info.src_space);
        let dst = memspace_name(info.dst_space);
        self.open_copies.lock().insert(
            kid,
            OpenCopy {
                name: format!("deep_copy {}<-{}", info.dst_label, info.src_label),
                key: (src, dst),
                bytes: info.bytes,
                start_ns: clock::now_ns(),
                pid: thread_rank(),
                tid: thread_tid(),
            },
        );
    }

    fn end_deep_copy(&self, kid: KernelId) {
        let Some(span) = self.open_copies.lock().remove(&kid) else {
            return;
        };
        let dur = clock::now_ns().saturating_sub(span.start_ns);
        self.copies.record(span.key, dur, span.bytes, 0);
        self.record_event(TraceEvent {
            name: span.name,
            cat: "deep_copy",
            ph: 'X',
            ts_ns: span.start_ns,
            dur_ns: dur,
            pid: span.pid,
            tid: span.tid,
            args: vec![
                ("kid", ArgValue::U64(kid)),
                ("bytes", ArgValue::U64(span.bytes)),
                (
                    "direction",
                    ArgValue::Str(format!("{}->{}", span.key.0, span.key.1)),
                ),
            ],
        });
    }

    fn push_region(&self, name: &'static str) {
        REGION_STACK.with(|s| s.borrow_mut().push((name, clock::now_ns())));
    }

    fn pop_region(&self, name: &'static str) {
        let popped = REGION_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop the innermost matching frame: unbalanced pops (a pop
            // with no matching push) are ignored rather than corrupting
            // the stack.
            stack
                .iter()
                .rposition(|(n, _)| *n == name)
                .map(|i| stack.remove(i))
        });
        let Some((_, start_ns)) = popped else { return };
        let dur = clock::now_ns().saturating_sub(start_ns);
        self.regions.record(name, dur, 0, 0);
        self.record_event(TraceEvent {
            name: name.to_string(),
            cat: "region",
            ph: 'X',
            ts_ns: start_ns,
            dur_ns: dur,
            pid: thread_rank(),
            tid: thread_tid(),
            args: Vec::new(),
        });
    }

    fn mark_fence(&self, name: &'static str, space: &'static str) {
        self.fences.fetch_add(1, Ordering::Relaxed);
        self.record_event(TraceEvent {
            name: name.to_string(),
            cat: "fence",
            ph: 'i',
            ts_ns: clock::now_ns(),
            dur_ns: 0,
            pid: thread_rank(),
            tid: thread_tid(),
            args: vec![("space", ArgValue::Str(space.to_string()))],
        });
    }
}

/// Adapter forwarding `mpi-sim` tap events onto the profiler's per-rank
/// comm tracks.
struct CommBridge(Arc<Profiler>);

impl mpi_sim::CommTap for CommBridge {
    fn on_event(&self, ev: &mpi_sim::CommEvent) {
        self.0.on_comm(
            ev.rank as i64,
            ev.kind.name(),
            ev.peer as i64,
            ev.bytes,
            ev.tag as i64,
        );
    }
}

/// Install `profiler` as both the process-global Kokkos tool and the
/// `mpi-sim` traffic tap, so kernel spans and halo traffic land in one
/// event stream.
pub fn attach(profiler: Arc<Profiler>) {
    mpi_sim::set_tap(Arc::new(CommBridge(profiler.clone())));
    profiling::set_hooks(profiler);
}

/// Remove the installed tool and tap; dispatch returns to the
/// zero-overhead path.
pub fn detach() {
    profiling::clear_hooks();
    mpi_sim::clear_tap();
}
