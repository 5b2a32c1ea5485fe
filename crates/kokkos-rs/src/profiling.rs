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
//! * [`set_hooks`] / [`clear_hooks`] — install or remove a process-global
//!   consumer (e.g. `kokkos_profiling::Profiler`).
//! * Dispatch sites in [`crate::parallel`], [`crate::team`] and
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
    Team,
}

impl PolicyKind {
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Range => "Range",
            PolicyKind::MDRange3 => "MDRange3",
            PolicyKind::List => "List",
            PolicyKind::Team => "Team",
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
    /// extent product for ranges, league size for `Team`).
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
/// [`ProfilingHooks`] (a full Kokkos-Tools surface with per-instance
/// keying), a flight sink sees only the span edges the black box needs,
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

/// Every installed consumer, in one word: bit 0 is the process-global
/// tool, the rest counts registered instance hooks (in units of
/// [`ONE_INSTANCE`]). Each half is only written under the lock of the
/// registry it mirrors, so the word is always what the two registries
/// hold, and [`enabled`] is derived from it — there is no separate flag
/// to recompute and store late.
static CONSUMERS: AtomicU64 = AtomicU64::new(0);
const GLOBAL_TOOL: u64 = 1;
const ONE_INSTANCE: u64 = 2;

static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(0);
static HOOKS: Mutex<Option<Arc<dyn ProfilingHooks>>> = Mutex::new(None);

/// Identifies one model instance's profiling consumer in the keyed
/// registry. `0` is reserved for "no instance" (the process-global tool).
pub type InstanceKey = u64;

static NEXT_INSTANCE_KEY: AtomicU64 = AtomicU64::new(1);
static INSTANCE_HOOKS: Mutex<
    Option<std::collections::HashMap<InstanceKey, Arc<dyn ProfilingHooks>>>,
> = Mutex::new(None);

std::thread_local! {
    /// The instance whose hooks receive events dispatched from this
    /// thread (0 = none; fall through to the process-global tool). Set
    /// by [`enter_instance`] around each scheduling slice, so a serving
    /// layer stepping many `Model`s on shared worker threads attributes
    /// every kernel to the instance that launched it.
    static CURRENT_INSTANCE: std::cell::Cell<InstanceKey> = const { std::cell::Cell::new(0) };
}

/// Install a process-global profiling tool. Replaces any previous tool.
/// Dispatches from threads inside an [`enter_instance`] scope with
/// registered instance hooks do NOT reach the global tool — per-instance
/// consumers shadow it, which is the isolation multi-instance serving
/// needs.
pub fn set_hooks(hooks: Arc<dyn ProfilingHooks>) {
    let mut slot = HOOKS.lock();
    *slot = Some(hooks);
    CONSUMERS.fetch_or(GLOBAL_TOOL, Ordering::Release);
}

/// Remove the installed tool; dispatch returns to the zero-overhead path
/// (unless per-instance hooks remain registered).
pub fn clear_hooks() {
    let mut slot = HOOKS.lock();
    *slot = None;
    CONSUMERS.fetch_and(!GLOBAL_TOOL, Ordering::Release);
}

/// Allocate a fresh, process-unique instance key (never 0).
pub fn next_instance_key() -> InstanceKey {
    NEXT_INSTANCE_KEY.fetch_add(1, Ordering::Relaxed)
}

/// Register a per-instance profiling consumer under `key`. While a
/// thread is inside [`enter_instance`]`(key)`, every kernel span, region
/// and fence it dispatches is delivered to these hooks *instead of* the
/// process-global tool — two `Model`s stepping in one process never
/// cross-attribute kernels.
pub fn register_instance_hooks(key: InstanceKey, hooks: Arc<dyn ProfilingHooks>) {
    assert_ne!(key, 0, "instance key 0 is reserved");
    let mut map = INSTANCE_HOOKS.lock();
    let map = map.get_or_insert_with(Default::default);
    if map.insert(key, hooks).is_none() {
        CONSUMERS.fetch_add(ONE_INSTANCE, Ordering::Release);
    }
}

/// Remove the consumer registered under `key` (no-op if absent).
pub fn unregister_instance_hooks(key: InstanceKey) {
    let mut guard = INSTANCE_HOOKS.lock();
    if let Some(map) = guard.as_mut() {
        if map.remove(&key).is_some() {
            CONSUMERS.fetch_sub(ONE_INSTANCE, Ordering::Release);
        }
    }
}

/// RAII scope marking this thread's dispatches as belonging to one
/// instance; restores the previous instance (scopes nest) on drop.
pub struct InstanceScope {
    prev: InstanceKey,
}

/// Enter an instance scope on this thread: until the returned guard
/// drops, kernel/region/fence events dispatched from this thread route
/// to the hooks registered under `key` (falling through to the global
/// tool if none are).
pub fn enter_instance(key: InstanceKey) -> InstanceScope {
    let prev = CURRENT_INSTANCE.with(|c| c.replace(key));
    InstanceScope { prev }
}

impl Drop for InstanceScope {
    fn drop(&mut self) {
        CURRENT_INSTANCE.with(|c| c.set(self.prev));
    }
}

/// The instance key active on this thread (0 = none).
pub fn current_instance() -> InstanceKey {
    CURRENT_INSTANCE.with(|c| c.get())
}

/// Whether a tool — global or per-instance — is currently attached.
#[inline(always)]
pub fn enabled() -> bool {
    CONSUMERS.load(Ordering::Acquire) != 0
}

fn current_hooks() -> Option<Arc<dyn ProfilingHooks>> {
    let consumers = CONSUMERS.load(Ordering::Acquire);
    if consumers == 0 {
        return None;
    }
    let key = CURRENT_INSTANCE.with(|c| c.get());
    if key != 0 && consumers >= ONE_INSTANCE {
        if let Some(h) = INSTANCE_HOOKS
            .lock()
            .as_ref()
            .and_then(|m| m.get(&key))
            .cloned()
        {
            return Some(h);
        }
    }
    HOOKS.lock().clone()
}

/// Strip path and generic parameters from a type name:
/// `licom::columns::FunctorDensityColumns` → `FunctorDensityColumns`.
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
/// [`crate::parallel`] and [`crate::team`] passes through; `DeviceSim`
/// launch accounting lives here (and only here).
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
            short_type_name("licom::columns::FunctorDensityColumns"),
            "FunctorDensityColumns"
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
    fn instance_hooks_shadow_global_and_never_cross_attribute() {
        let _serial = test_registry_lock();
        let global = Arc::new(Recorder::default());
        let a = Arc::new(Recorder::default());
        let b = Arc::new(Recorder::default());
        set_hooks(global.clone());
        let (ka, kb) = (next_instance_key(), next_instance_key());
        assert_ne!(ka, kb);
        register_instance_hooks(ka, a.clone());
        register_instance_hooks(kb, b.clone());

        let launch = |name: &'static str| {
            let _s = begin_kernel(
                &Space::serial(),
                PatternKind::ParallelFor,
                name,
                PolicyKind::Range,
                1,
            );
        };
        {
            let _scope = enter_instance(ka);
            assert_eq!(current_instance(), ka);
            launch("InstA");
            {
                // Scopes nest and restore.
                let _inner = enter_instance(kb);
                launch("InstB");
            }
            assert_eq!(current_instance(), ka);
        }
        assert_eq!(current_instance(), 0);
        launch("GlobalK");

        unregister_instance_hooks(ka);
        unregister_instance_hooks(kb);
        clear_hooks();

        let has = |rec: &Recorder, what: &str| rec.log.lock().iter().any(|l| l.contains(what));
        assert!(has(&a, "InstA") && !has(&a, "InstB") && !has(&a, "GlobalK"));
        assert!(has(&b, "InstB") && !has(&b, "InstA"));
        assert!(has(&global, "GlobalK") && !has(&global, "InstA") && !has(&global, "InstB"));
    }

    #[test]
    fn scoped_dispatch_without_registration_falls_back_to_global() {
        let _serial = test_registry_lock();
        let global = Arc::new(Recorder::default());
        set_hooks(global.clone());
        let key = next_instance_key();
        {
            let _scope = enter_instance(key);
            let _s = begin_kernel(
                &Space::serial(),
                PatternKind::ParallelFor,
                "FallbackK",
                PolicyKind::Range,
                1,
            );
        }
        clear_hooks();
        assert!(global.log.lock().iter().any(|l| l.contains("FallbackK")));
    }

    #[test]
    fn instance_registry_alone_enables_dispatch() {
        let _serial = test_registry_lock();
        clear_hooks();
        let rec = Arc::new(Recorder::default());
        let key = next_instance_key();
        register_instance_hooks(key, rec.clone());
        assert!(enabled());
        {
            let _scope = enter_instance(key);
            let _s = begin_kernel(
                &Space::serial(),
                PatternKind::ParallelFor,
                "OnlyInstance",
                PolicyKind::Range,
                1,
            );
        }
        unregister_instance_hooks(key);
        assert!(rec.log.lock().iter().any(|l| l.contains("OnlyInstance")));
    }

    /// A consumer that is registered must be reachable: `enabled()` may
    /// not read false while an instance hook is installed. Before the
    /// flag was derived from the one `CONSUMERS` word it was recomputed
    /// and stored late, and this interleaving lost a registration:
    ///
    /// ```text
    /// racer: unregister(A) / clear_hooks()      main: register(B)
    ///   remove, count 1 -> 0, unlock
    ///   refresh: reads count 0, no tool
    ///                                             insert, count 0 -> 1
    ///                                             ENABLED = true
    ///   ENABLED = false          <- B is registered and unreachable
    /// ```
    ///
    /// Each round lines the two calls up on a spin barrier and sweeps
    /// main's start over a few hundred nanoseconds so the window is
    /// crossed from both sides; the check runs once both have returned.
    /// With the recomputed flag it fails on 2 vCPUs, usually within a few
    /// hundred rounds.
    #[test]
    fn enabled_holds_while_an_instance_hook_is_registered() {
        use std::sync::atomic::AtomicUsize;
        let _serial = test_registry_lock();
        clear_hooks();
        let hooks: Arc<dyn ProfilingHooks> = Arc::new(Recorder::default());
        let (ka, kb) = (next_instance_key(), next_instance_key());
        const ROUNDS: usize = 20_000;
        let (round, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
        // Spin, to stay lined up with the other thread; yield once that has
        // taken too long for it to be running on another core.
        let wait = |ready: &dyn Fn() -> bool| {
            let mut spins = 0u32;
            while !ready() {
                spins += 1;
                if spins < 10_000 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        };
        let mut lost = None;
        std::thread::scope(|s| {
            s.spawn(|| {
                for r in 1..=ROUNDS {
                    wait(&|| round.load(Ordering::Acquire) >= r);
                    if round.load(Ordering::Acquire) == usize::MAX {
                        return;
                    }
                    // Even rounds take the last instance hook away, odd
                    // rounds the global tool.
                    if r % 2 == 0 {
                        unregister_instance_hooks(ka);
                    } else {
                        clear_hooks();
                    }
                    done.store(r, Ordering::Release);
                }
            });
            for r in 1..=ROUNDS {
                if r % 2 == 0 {
                    register_instance_hooks(ka, hooks.clone());
                } else {
                    set_hooks(hooks.clone());
                }
                round.store(r, Ordering::Release);
                for _ in 0..(r / 2) % 64 {
                    std::hint::spin_loop();
                }
                register_instance_hooks(kb, hooks.clone());
                wait(&|| done.load(Ordering::Acquire) == r);
                let reachable = enabled();
                unregister_instance_hooks(kb);
                if !reachable || enabled() {
                    lost = Some((r, reachable));
                    break;
                }
            }
            round.store(usize::MAX, Ordering::Release);
        });
        assert_eq!(
            lost, None,
            "(round, enabled() with one instance hook registered); the flag must also be off after"
        );
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
