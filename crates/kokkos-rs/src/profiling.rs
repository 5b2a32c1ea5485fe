//! Kokkos-Tools-style profiling hook registry.
//!
//! Real Kokkos exposes a C callback interface (`kokkosp_begin_parallel_for`
//! and friends) that tools like the Kokkos Tools connectors, APEX, and
//! Caliper attach to; every `parallel_for`/`parallel_reduce`/`deep_copy`
//! launch notifies the attached tool with a monotonically-assigned kernel
//! id. This module is the Rust equivalent:
//!
//! * [`ProfilingHooks`] — the callback trait. Every method has a no-op
//!   default body, so the trait itself is the null object.
//! * [`set_hooks`] / [`clear_hooks`] — fill or empty the one
//!   process-global consumer slot (e.g. `kokkos_profiling::Profiler`).
//! * Dispatch sites in [`crate::parallel`] and
//!   [`crate::view::deep_copy`] create a [`KernelSpan`] guard around the
//!   launch; the guard emits the matching `end_*` event from its `Drop`
//!   impl, so begin/end stay strictly nested **even when a functor
//!   panics** and the stack unwinds through the dispatch.
//! * [`region`] / [`push_region`] / [`pop_region`] — named phase markers
//!   (Kokkos `Kokkos::Profiling::pushRegion`), used by the model drivers
//!   to attribute kernel time to physics phases.
//!
//! ## Zero overhead when disabled
//!
//! The disabled fast path is one atomic load (plus, for the
//! `DeviceSim` space, the launch count the space always keeps). No
//! allocation, no lock, no `Instant::now()` — the steady-state
//! zero-allocation property of the model step is preserved with hooks
//! disabled; `licom_bench` reports the cost as
//! `kokkos-profiling.disabled_hook_ns`.
//!
//! ## Launch accounting unification
//!
//! `DeviceSim` used to count launches inside each host tile driver (four
//! call sites). The count is now derived from the same place profiling
//! events are emitted — [`begin_kernel`], the single chokepoint every
//! dispatch passes through — so "kernels launched" can never disagree
//! with the profiler's event stream.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::memspace::MemSpace;
use crate::space::Space;

/// Monotonically-assigned id of one kernel launch (unique per process).
pub type KernelId = u64;

/// Which dispatch pattern produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    ParallelFor,
    ParallelReduce,
    DeepCopy,
}

impl PatternKind {
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::ParallelFor => "parallel_for",
            PatternKind::ParallelReduce => "parallel_reduce",
            PatternKind::DeepCopy => "deep_copy",
        }
    }
}

/// Which policy shape the launch iterated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    Range,
    MDRange3,
    List,
}

impl PolicyKind {
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Range => "Range",
            PolicyKind::MDRange3 => "MDRange3",
            PolicyKind::List => "List",
        }
    }
}

/// Everything a tool learns at `begin_parallel_*`.
#[derive(Debug, Clone, Copy)]
pub struct KernelInfo {
    /// Short functor type name (path and generics stripped).
    pub name: &'static str,
    /// Execution-space name (`Serial`, `Threads`, `DeviceSim`, `SwAthread`).
    pub space: &'static str,
    pub pattern: PatternKind,
    pub policy: PolicyKind,
    /// Total iterations the policy covers (list length for `List`,
    /// extent product for ranges).
    pub work_items: u64,
}

/// Everything a tool learns at `begin_deep_copy`.
#[derive(Debug, Clone, Copy)]
pub struct DeepCopyInfo<'a> {
    pub dst_label: &'a str,
    pub src_label: &'a str,
    pub dst_space: MemSpace,
    pub src_space: MemSpace,
    pub bytes: u64,
}

/// The Kokkos-Tools callback surface. Every method defaults to a no-op,
/// so `ProfilingHooks` doubles as its own null object; consumers override
/// only what they consume.
#[allow(unused_variables)]
pub trait ProfilingHooks: Send + Sync {
    fn begin_parallel_for(&self, kid: KernelId, info: &KernelInfo) {}
    fn end_parallel_for(&self, kid: KernelId) {}
    fn begin_parallel_reduce(&self, kid: KernelId, info: &KernelInfo) {}
    fn end_parallel_reduce(&self, kid: KernelId) {}
    fn begin_deep_copy(&self, kid: KernelId, info: &DeepCopyInfo<'_>) {}
    fn end_deep_copy(&self, kid: KernelId) {}
    fn push_region(&self, name: &'static str) {}
    fn pop_region(&self, name: &'static str) {}
    fn mark_fence(&self, name: &'static str, space: &'static str) {}
}

/// The null tool: inherits every default no-op body.
pub struct NullHooks;
impl ProfilingHooks for NullHooks {}

/// Minimal kernel-event consumer for the flight recorder. Unlike
/// [`ProfilingHooks`] (the full Kokkos-Tools surface), a flight sink
/// sees only the span edges the black box needs,
/// and its process-wide armed flag ([`set_flight_armed`]) is maintained
/// by the recorder's own thread-scope machinery — this crate stays free
/// of any dependency on the transport where the rings live.
pub trait FlightSink: Send + Sync {
    fn kernel_begin(&self, kid: KernelId, name: &'static str, space: &'static str, work_items: u64);
    fn kernel_end(&self, kid: KernelId);
}

static FLIGHT_SINK: OnceLock<Arc<dyn FlightSink>> = OnceLock::new();
/// Mirrors "any thread has an armed flight scope" into this crate so the
/// dispatch chokepoint can skip flight work with one relaxed load.
static FLIGHT_ARMED: AtomicBool = AtomicBool::new(false);

/// Install the process-wide flight sink (first install wins; the
/// recorder installs a single bridge once).
pub fn install_flight_sink(sink: Arc<dyn FlightSink>) {
    let _ = FLIGHT_SINK.set(sink);
}

/// Mirror the recorder's armed state (called from its arm observer on
/// the 0→1 / 1→0 armed-thread transitions).
pub fn set_flight_armed(armed: bool) {
    FLIGHT_ARMED.store(armed, Ordering::Release);
}

/// Is any flight scope armed in the process?
#[inline(always)]
pub fn flight_armed() -> bool {
    FLIGHT_ARMED.load(Ordering::Relaxed)
}

fn current_flight_sink() -> Option<&'static Arc<dyn FlightSink>> {
    if !flight_armed() {
        return None;
    }
    FLIGHT_SINK.get()
}

static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(0);
/// The one consumer slot. [`ENABLED`] mirrors whether it is filled; it is
/// only written under the slot's lock, so no two writers can leave the flag
/// disagreeing with the slot.
static HOOKS: Mutex<Option<Arc<dyn ProfilingHooks>>> = Mutex::new(None);
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Install the process-global profiling tool. Replaces any previous tool.
pub fn set_hooks(hooks: Arc<dyn ProfilingHooks>) {
    let mut slot = HOOKS.lock();
    *slot = Some(hooks);
    ENABLED.store(true, Ordering::Release);
}

/// Remove the installed tool; dispatch returns to the zero-overhead path.
pub fn clear_hooks() {
    let mut slot = HOOKS.lock();
    *slot = None;
    ENABLED.store(false, Ordering::Release);
}

/// Whether a tool is currently attached.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

fn current_hooks() -> Option<Arc<dyn ProfilingHooks>> {
    if !enabled() {
        return None;
    }
    HOOKS.lock().clone()
}

/// Strip path and generic parameters from a type name:
/// `licom::columns::FunctorNewLevelColumns` → `FunctorNewLevelColumns`.
pub fn short_type_name(full: &'static str) -> &'static str {
    let no_generics = match full.find('<') {
        Some(p) => &full[..p],
        None => full,
    };
    match no_generics.rfind("::") {
        Some(p) => &no_generics[p + 2..],
        None => no_generics,
    }
}

/// RAII span for one kernel launch: `begin_*` fired on construction,
/// `end_*` fired from `Drop` (so it also fires during unwinding).
pub struct KernelSpan {
    armed: Option<(Arc<dyn ProfilingHooks>, KernelId, PatternKind)>,
    flight: Option<(&'static Arc<dyn FlightSink>, KernelId)>,
}

/// Open a kernel span. This is the single chokepoint every dispatch in
/// [`crate::parallel`] passes through; `DeviceSim` launch accounting lives
/// here (and only here).
#[inline]
pub(crate) fn begin_kernel(
    space: &Space,
    pattern: PatternKind,
    functor_type: &'static str,
    policy: PolicyKind,
    work_items: u64,
) -> KernelSpan {
    if let Space::DeviceSim(d) = space {
        d.record_launch();
    }
    let hooks = current_hooks();
    let flight = current_flight_sink();
    if hooks.is_none() && flight.is_none() {
        return KernelSpan {
            armed: None,
            flight: None,
        };
    }
    let kid = NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed);
    let name = short_type_name(functor_type);
    if let Some(sink) = flight {
        sink.kernel_begin(kid, name, space.name(), work_items);
    }
    let armed = hooks.map(|hooks| {
        let info = KernelInfo {
            name,
            space: space.name(),
            pattern,
            policy,
            work_items,
        };
        match pattern {
            PatternKind::ParallelReduce => hooks.begin_parallel_reduce(kid, &info),
            _ => hooks.begin_parallel_for(kid, &info),
        }
        (hooks, kid, pattern)
    });
    KernelSpan {
        armed,
        flight: flight.map(|sink| (sink, kid)),
    }
}

impl Drop for KernelSpan {
    fn drop(&mut self) {
        if let Some((hooks, kid, pattern)) = self.armed.take() {
            match pattern {
                PatternKind::ParallelReduce => hooks.end_parallel_reduce(kid),
                _ => hooks.end_parallel_for(kid),
            }
        }
        if let Some((sink, kid)) = self.flight.take() {
            sink.kernel_end(kid);
        }
    }
}

/// RAII span for one `deep_copy`.
pub struct DeepCopySpan {
    armed: Option<(Arc<dyn ProfilingHooks>, KernelId)>,
}

#[inline]
pub(crate) fn begin_deep_copy(info: &DeepCopyInfo<'_>) -> DeepCopySpan {
    let Some(hooks) = current_hooks() else {
        return DeepCopySpan { armed: None };
    };
    let kid = NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed);
    hooks.begin_deep_copy(kid, info);
    DeepCopySpan {
        armed: Some((hooks, kid)),
    }
}

impl Drop for DeepCopySpan {
    fn drop(&mut self) {
        if let Some((hooks, kid)) = self.armed.take() {
            hooks.end_deep_copy(kid);
        }
    }
}

/// Push a named region (Kokkos `pushRegion`). Prefer [`region`], whose
/// guard cannot be forgotten on an early return or panic.
#[inline]
pub fn push_region(name: &'static str) {
    if let Some(hooks) = current_hooks() {
        hooks.push_region(name);
    }
}

/// Pop a named region (Kokkos `popRegion`).
#[inline]
pub fn pop_region(name: &'static str) {
    if let Some(hooks) = current_hooks() {
        hooks.pop_region(name);
    }
}

/// Mark a fence (all our backends launch synchronously, so this is a
/// point event, not a span).
#[inline]
pub fn mark_fence(name: &'static str, space: &'static str) {
    if let Some(hooks) = current_hooks() {
        hooks.mark_fence(name, space);
    }
}

/// RAII region guard: pushes on construction, pops on drop (including
/// during unwinding).
pub struct RegionGuard {
    name: Option<&'static str>,
}

/// Open a named region; the region closes when the guard drops.
#[inline]
pub fn region(name: &'static str) -> RegionGuard {
    if enabled() {
        push_region(name);
        RegionGuard { name: Some(name) }
    } else {
        RegionGuard { name: None }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            pop_region(name);
        }
    }
}

/// Serializes tests (in this crate and downstream) that install global
/// hooks, so concurrent test threads don't tear down each other's tool.
pub fn test_registry_lock() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;

    #[derive(Default)]
    struct Recorder {
        log: PMutex<Vec<String>>,
    }

    impl ProfilingHooks for Recorder {
        fn begin_parallel_for(&self, kid: KernelId, info: &KernelInfo) {
            self.log.lock().push(format!(
                "begin_for {kid} {} {} {} {}",
                info.name,
                info.space,
                info.policy.name(),
                info.work_items
            ));
        }
        fn end_parallel_for(&self, kid: KernelId) {
            self.log.lock().push(format!("end_for {kid}"));
        }
        fn push_region(&self, name: &'static str) {
            self.log.lock().push(format!("push {name}"));
        }
        fn pop_region(&self, name: &'static str) {
            self.log.lock().push(format!("pop {name}"));
        }
    }

    #[test]
    fn short_names_strip_paths_and_generics() {
        assert_eq!(
            short_type_name("licom::columns::FunctorNewLevelColumns"),
            "FunctorNewLevelColumns"
        );
        assert_eq!(short_type_name("FunctorAxpy"), "FunctorAxpy");
        assert_eq!(
            short_type_name("a::b::Wrap<c::d::Inner>"),
            "Wrap" // generics stripped before the path split
        );
    }

    #[test]
    fn disabled_registry_is_inert() {
        let _serial = test_registry_lock();
        clear_hooks();
        assert!(!enabled());
        let span = begin_kernel(
            &Space::serial(),
            PatternKind::ParallelFor,
            "X",
            PolicyKind::Range,
            1,
        );
        drop(span);
        push_region("r");
        pop_region("r");
        mark_fence("f", "Serial");
        // No tool attached: nothing to observe, nothing panicked.
    }

    #[test]
    fn region_guard_pushes_and_pops() {
        let _serial = test_registry_lock();
        let rec = Arc::new(Recorder::default());
        set_hooks(rec.clone());
        {
            let _r = region("phase");
            rec.log.lock().push("inside".into());
        }
        clear_hooks();
        // Other tests in this process may dispatch kernels while our
        // recorder is attached; keep only this test's own entries.
        let log: Vec<String> = rec
            .log
            .lock()
            .iter()
            .filter(|l| l.contains("phase") || *l == "inside")
            .cloned()
            .collect();
        assert_eq!(log, vec!["push phase", "inside", "pop phase"]);
    }

    #[test]
    fn kernel_ids_are_monotone() {
        let _serial = test_registry_lock();
        let rec = Arc::new(Recorder::default());
        set_hooks(rec.clone());
        for _ in 0..3 {
            let _s = begin_kernel(
                &Space::serial(),
                PatternKind::ParallelFor,
                "KidProbe",
                PolicyKind::Range,
                4,
            );
        }
        clear_hooks();
        let log = rec.log.lock().clone();
        let ids: Vec<u64> = log
            .iter()
            .filter(|l| l.starts_with("begin_for") && l.contains("KidProbe"))
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[1] > w[0]), "ids {ids:?}");
    }
}
