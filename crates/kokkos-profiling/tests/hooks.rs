//! Hook-protocol tests: callback ordering on every execution space,
//! end-callback delivery through panic unwinding, aggregate-equals-span
//! properties of the [`Profiler`], and a golden chrome-trace document.
//!
//! Everything here installs process-global hooks, so each test takes
//! [`kokkos_profiling::test_registry_lock`] for its critical section.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use kokkos_profiling::{
    attach, detach, validate_chrome_trace, ArgValue, DeepCopyInfo, KernelId, KernelInfo, Profiler,
    ProfilingHooks, TraceEvent, COMM_TRACK, COUNTER_TRACK,
};
use kokkos_rs::profiling::{clear_hooks, mark_fence, set_hooks};
use kokkos_rs::{
    deep_copy, parallel_for_1d, parallel_reduce_list, Functor1D, ListPolicy, MemSpace, RangePolicy,
    ReduceFunctorList, Reducer, Space, View, View1,
};
use parking_lot::Mutex;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Recording tool
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    BeginFor(KernelId, String, String),
    EndFor(KernelId),
    BeginReduce(KernelId, String, String),
    EndReduce(KernelId),
    /// Id, bytes, destination and source space.
    BeginCopy(KernelId, u64, MemSpace, MemSpace),
    EndCopy(KernelId),
    Push(&'static str),
    Pop(&'static str),
    Fence(&'static str),
}

#[derive(Default)]
struct Recorder {
    log: Mutex<Vec<Ev>>,
}

impl Recorder {
    fn take(&self) -> Vec<Ev> {
        std::mem::take(&mut self.log.lock())
    }
}

impl ProfilingHooks for Recorder {
    fn begin_parallel_for(&self, kid: KernelId, info: &KernelInfo) {
        self.log
            .lock()
            .push(Ev::BeginFor(kid, info.name.into(), info.space.into()));
    }
    fn end_parallel_for(&self, kid: KernelId) {
        self.log.lock().push(Ev::EndFor(kid));
    }
    fn begin_parallel_reduce(&self, kid: KernelId, info: &KernelInfo) {
        self.log
            .lock()
            .push(Ev::BeginReduce(kid, info.name.into(), info.space.into()));
    }
    fn end_parallel_reduce(&self, kid: KernelId) {
        self.log.lock().push(Ev::EndReduce(kid));
    }
    fn begin_deep_copy(&self, kid: KernelId, info: &DeepCopyInfo<'_>) {
        self.log.lock().push(Ev::BeginCopy(
            kid,
            info.bytes,
            info.dst_space,
            info.src_space,
        ));
    }
    fn end_deep_copy(&self, kid: KernelId) {
        self.log.lock().push(Ev::EndCopy(kid));
    }
    fn push_region(&self, name: &'static str) {
        self.log.lock().push(Ev::Push(name));
    }
    fn pop_region(&self, name: &'static str) {
        self.log.lock().push(Ev::Pop(name));
    }
    fn mark_fence(&self, name: &'static str, _space: &'static str) {
        self.log.lock().push(Ev::Fence(name));
    }
}

// ---------------------------------------------------------------------------
// Test functors
// ---------------------------------------------------------------------------

struct Fill {
    x: View1<f64>,
}
impl Functor1D for Fill {
    fn operator(&self, i: usize) {
        self.x.set_at(i, i as f64);
    }
}
kokkos_rs::register_for_1d!(kp_hooks_fill, Fill);

/// Sums a row: reduced over the list `0..n` ([`iota`]).
struct Sum {
    x: View1<f64>,
}
impl ReduceFunctorList for Sum {
    fn contribute(&self, _n: usize, idx: u32, acc: &mut f64) {
        *acc += self.x.at(idx as usize);
    }
}
kokkos_rs::register_reduce_list!(kp_hooks_sum, Sum);

fn iota(n: usize) -> ListPolicy {
    ListPolicy::new(Arc::new((0..n as u32).collect()))
}

/// Panics midway through the iteration space.
struct Panicky;
impl Functor1D for Panicky {
    fn operator(&self, i: usize) {
        if i == 3 {
            panic!("functor panic for unwinding test");
        }
    }
}

fn all_spaces() -> Vec<(&'static str, Space)> {
    vec![
        ("Serial", Space::serial()),
        ("Threads", Space::threads()),
        ("DeviceSim", Space::device_sim()),
        (
            "SwAthread",
            Space::sw_athread_with(sunway_sim::CgConfig::test_small()),
        ),
    ]
}

// ---------------------------------------------------------------------------
// 1. Callback ordering on every space
// ---------------------------------------------------------------------------

/// Every space delivers the same strictly-nested protocol: region push,
/// begin/end for, begin/end reduce, begin/end deep-copy, fence, region
/// pop — with matching ids per pair and ids strictly increasing across
/// launches (the Kokkos monotone-kernel-id contract). The copy goes from
/// host memory into a device view on DeviceSim and into a host view
/// elsewhere, and the tool sees both spaces and the bytes.
#[test]
fn hook_ordering_is_strict_on_every_space() {
    let _serial = kokkos_profiling::test_registry_lock();
    kp_hooks_fill();
    kp_hooks_sum();
    let rec = Arc::new(Recorder::default());
    set_hooks(rec.clone());
    let n = 16;
    let mut last_kid: Option<KernelId> = None;
    for (name, space) in all_spaces() {
        let x: View1<f64> = View::host("x", [n]);
        let dst = if name == "DeviceSim" {
            MemSpace::Device
        } else {
            MemSpace::Host
        };
        let y: View1<f64> = x.mirror(dst);
        {
            let _r = kokkos_rs::profiling::region("space_probe");
            parallel_for_1d(&space, RangePolicy::new(n), &Fill { x: x.clone() });
            let total = parallel_reduce_list(&space, &iota(n), &Sum { x: x.clone() }, Reducer::Sum);
            assert_eq!(total, (0..n).sum::<usize>() as f64, "{name}");
            deep_copy(&y, &x);
            mark_fence("probe_fence", space.name());
        }
        let log = rec.take();
        // Exact protocol shape for this space.
        assert_eq!(log.len(), 9, "{name}: {log:?}");
        let (kf, kr, kc) = match &log[..] {
            [Ev::Push("space_probe"), Ev::BeginFor(kf, fname, fspace), Ev::EndFor(kf2), Ev::BeginReduce(kr, rname, rspace), Ev::EndReduce(kr2), Ev::BeginCopy(kc, bytes, dst, src), Ev::EndCopy(kc2), Ev::Fence("probe_fence"), Ev::Pop("space_probe")] =>
            {
                assert_eq!(fname, "Fill", "{name}");
                assert_eq!(rname, "Sum", "{name}");
                assert_eq!(fspace, name, "{name}");
                assert_eq!(rspace, name, "{name}");
                assert_eq!(*bytes, (n * std::mem::size_of::<f64>()) as u64);
                assert_eq!(*src, MemSpace::Host, "{name}");
                let device = name == "DeviceSim";
                assert_eq!(*dst == MemSpace::Device, device, "{name}: {dst:?}");
                assert_eq!(kf, kf2, "{name}: for begin/end ids differ");
                assert_eq!(kr, kr2, "{name}: reduce begin/end ids differ");
                assert_eq!(kc, kc2, "{name}: copy begin/end ids differ");
                (*kf, *kr, *kc)
            }
            other => panic!("{name}: unexpected protocol {other:?}"),
        };
        assert!(kf < kr && kr < kc, "{name}: ids not monotone within space");
        if let Some(prev) = last_kid {
            assert!(kf > prev, "{name}: ids not monotone across spaces");
        }
        last_kid = Some(kc);
    }
    clear_hooks();
}

// ---------------------------------------------------------------------------
// 2. End callbacks survive panic unwinding
// ---------------------------------------------------------------------------

/// A panicking functor must still deliver `end_parallel_for` and the
/// enclosing region's `pop` — the RAII spans fire from `Drop` during
/// unwinding, exactly like Kokkos' tool-finalize-on-abort guarantee.
/// Covered on the two host spaces whose drivers propagate worker panics
/// to the caller (the rayon shim re-throws on join).
#[test]
fn end_callbacks_fire_through_panic_unwinding() {
    let _serial = kokkos_profiling::test_registry_lock();
    let rec = Arc::new(Recorder::default());
    set_hooks(rec.clone());
    for (name, space) in [("Serial", Space::serial()), ("Threads", Space::threads())] {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _r = kokkos_rs::profiling::region("unwind_probe");
            parallel_for_1d(&space, RangePolicy::new(8), &Panicky);
        }));
        assert!(caught.is_err(), "{name}: functor panic must propagate");
        let log = rec.take();
        assert_eq!(log.len(), 4, "{name}: {log:?}");
        match &log[..] {
            [Ev::Push("unwind_probe"), Ev::BeginFor(kid, fname, _), Ev::EndFor(kid2), Ev::Pop("unwind_probe")] =>
            {
                assert_eq!(fname, "Panicky", "{name}");
                assert_eq!(kid, kid2, "{name}: unwound span ids differ");
            }
            other => panic!("{name}: unexpected unwind protocol {other:?}"),
        }
    }
    clear_hooks();
}

// ---------------------------------------------------------------------------
// 3. Aggregates equal the sum of their spans
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any launch sequence, each kernel-table row's `(count,
    /// total_ns, work_items)` equals the count/duration-sum/items of the
    /// raw `'X'` kernel spans in the trace buffer — the aggregator and
    /// the exporter are two views of one event stream, and must never
    /// disagree.
    #[test]
    fn prop_aggregate_equals_span_sum(
        sizes in proptest::collection::vec(1usize..64, 1..12),
        nested in 0usize..4,
    ) {
        let _serial = kokkos_profiling::test_registry_lock();
        let prof = Arc::new(Profiler::default());
        attach(prof.clone());
        let space = Space::serial();
        for &n in &sizes {
            let x: View1<f64> = View::host("x", [n]);
            let _r = kokkos_rs::profiling::region("prop_outer");
            parallel_for_1d(&space, RangePolicy::new(n), &Fill { x: x.clone() });
            for _ in 0..nested {
                let _inner = kokkos_rs::profiling::region("prop_inner");
                parallel_reduce_list(&space, &iota(n), &Sum { x: x.clone() }, Reducer::Sum);
            }
        }
        detach();
        prop_assert_eq!(prof.dropped_events(), 0);
        let events = prof.events_snapshot();

        for (key, stat) in prof.kernel_table() {
            let spans: Vec<&TraceEvent> = events
                .iter()
                .filter(|e| e.ph == 'X' && e.cat == "kernel" && e.name == key.name)
                .collect();
            prop_assert_eq!(stat.count, spans.len() as u64, "kernel {}", key.name);
            prop_assert_eq!(
                stat.total_ns,
                spans.iter().map(|e| e.dur_ns).sum::<u64>(),
                "kernel {}", key.name
            );
        }
        let expected_for = sizes.len() as u64;
        let expected_reduce = (sizes.len() * nested) as u64;
        let count_of = |fname: &str| {
            prof.kernel_table()
                .iter()
                .filter(|(k, _)| k.name == fname)
                .map(|(_, s)| s.count)
                .sum::<u64>()
        };
        prop_assert_eq!(count_of("Fill"), expected_for);
        prop_assert_eq!(count_of("Sum"), expected_reduce);

        for (name, stat) in prof.region_table() {
            let spans: Vec<&TraceEvent> = events
                .iter()
                .filter(|e| e.ph == 'X' && e.cat == "region" && e.name == name)
                .collect();
            prop_assert_eq!(stat.count, spans.len() as u64, "region {}", name);
            prop_assert_eq!(
                stat.total_ns,
                spans.iter().map(|e| e.dur_ns).sum::<u64>(),
                "region {}", name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Golden chrome-trace document
// ---------------------------------------------------------------------------

/// The exporter's byte-exact output for a fixed event list: metadata
/// rows first (process names, then track names), events sorted by
/// `(pid, tid, ts)`, timestamps as decimal microseconds with nanosecond
/// precision, instants carrying `"s":"t"`. Pinning the document catches
/// schema drift that the structural validator would wave through.
#[test]
fn golden_chrome_trace_document() {
    let events = vec![
        TraceEvent {
            name: "FunctorNewLevelColumns".into(),
            cat: "kernel",
            ph: 'X',
            ts_ns: 1_500,
            dur_ns: 2_500,
            pid: 0,
            tid: 0,
            args: vec![("work_items", ArgValue::U64(42))],
        },
        TraceEvent {
            name: "send".into(),
            cat: "comm",
            ph: 'i',
            ts_ns: 3_000,
            dur_ns: 0,
            pid: 1,
            tid: COMM_TRACK,
            args: vec![("bytes", ArgValue::U64(1024))],
        },
        TraceEvent {
            name: "sw.dma_get_bytes".into(),
            cat: "counter",
            ph: 'C',
            ts_ns: 4_096,
            dur_ns: 0,
            pid: 1,
            tid: COUNTER_TRACK,
            args: vec![("value", ArgValue::F64(12.5))],
        },
    ];
    let doc = kokkos_profiling::trace::render(&events);
    let golden = concat!(
        r#"{"displayTimeUnit":"ms","traceEvents":["#,
        r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"rank 0"}},"#,
        r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"rank 1"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"thread 0"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":1000000,"args":{"name":"comm"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":1000001,"args":{"name":"counters"}},"#,
        r#"{"name":"FunctorNewLevelColumns","cat":"kernel","ph":"X","ts":1.500,"dur":2.500,"pid":0,"tid":0,"args":{"work_items":42}},"#,
        r#"{"name":"send","cat":"comm","ph":"i","ts":3.000,"s":"t","pid":1,"tid":1000000,"args":{"bytes":1024}},"#,
        r#"{"name":"sw.dma_get_bytes","cat":"counter","ph":"C","ts":4.096,"pid":1,"tid":1000001,"args":{"value":12.5}}"#,
        r#"]}"#,
    );
    assert_eq!(doc, golden, "chrome-trace schema drifted from golden");
    let summary = validate_chrome_trace(&doc).expect("golden must validate");
    assert_eq!(summary.spans, 1);
    assert_eq!(summary.instants, 1);
    assert_eq!(summary.counters, 1);
    assert_eq!(summary.metadata, 5);
    assert_eq!(summary.tracks, 3);
}
