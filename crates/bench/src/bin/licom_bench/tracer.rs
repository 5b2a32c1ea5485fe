//! The benchmark's own tracer: an implementation of the public
//! `kokkos_rs::profiling::ProfilingHooks` and `mpi_sim::CommTap` traits
//! that records spans at each layer boundary, from outside the layers.
//!
//! Hooks fire on the dispatching thread (dispatch is synchronous on every
//! execution space), so each thread's spans nest like a stack: the root
//! `step` span the benchmark opens around `try_step`, the phase regions
//! under it, sub-regions (`bt:*`, `adv:*`, `halo:*`, …), kernel and
//! deep-copy spans, and message instants. Spans live in per-thread
//! buffers — no lock on the recording path — and are merged once, when a
//! thread flushes or exits. A span's self time is its duration minus what
//! its direct children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use kokkos_profiling::{now_ns, DeepCopyInfo, Json, KernelId, KernelInfo, ProfilingHooks};
use mpi_sim::{CommEvent, CommEventKind, CommTap};

use crate::spec::PHASES;

/// Which layer a span's self time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's root span; its self time is the unattributed rest.
    Bench,
    Licom,
    HaloExchange,
    KokkosRs,
    MpiSim,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Licom => "licom",
            Layer::HaloExchange => "halo-exchange",
            Layer::KokkosRs => "kokkos-rs",
            Layer::MpiSim => "mpi-sim",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Step,
    Region,
    Kernel,
    DeepCopy,
    Message,
}

/// "Not under any phase region."
pub const NO_PHASE: u8 = u8::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    /// Unique in the run: thread slot in the high bits, sequence below.
    pub id: u64,
    /// Id of the span that was open on this thread when this one began;
    /// 0 for a top-level span.
    pub parent: u64,
    pub name: &'static str,
    pub kind: SpanKind,
    pub layer: Layer,
    pub rank: i64,
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// Index into [`PHASES`] of the enclosing phase region, or [`NO_PHASE`].
    pub phase: u8,
    /// Step number (root), work items (kernel), bytes (copy, message).
    pub arg: u64,
    /// Time covered by direct children, filled in as they close.
    pub child_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }

    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

fn layer_of_region(name: &'static str) -> Layer {
    // `bt:halo` and `adv:halo` wrap nothing but calls into the halo engine.
    // `halo:overlap-compute` wraps the model's own kernels run while an
    // exchange is in flight: that time is licom's, not the halo engine's.
    if (name.starts_with("halo:") || name.ends_with(":halo")) && name != "halo:overlap-compute" {
        Layer::HaloExchange
    } else {
        Layer::Licom
    }
}

fn layer_of_kernel(name: &'static str) -> Layer {
    if name.starts_with("StripCopy") {
        Layer::HaloExchange
    } else {
        Layer::Licom
    }
}

struct ThreadBuf {
    slot: u64,
    rank: i64,
    /// Set-up and warm-up run muted: only timed steps are recorded.
    muted: bool,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans.
    stack: Vec<usize>,
}

impl ThreadBuf {
    fn open(&mut self, name: &'static str, kind: SpanKind, layer: Layer, arg: u64) {
        if self.muted {
            return;
        }
        let (parent, mut phase) = match self.stack.last() {
            Some(&i) => (self.spans[i].id, self.spans[i].phase),
            None => (0, NO_PHASE),
        };
        if kind == SpanKind::Region {
            if let Some(p) = PHASES.iter().position(|p| *p == name) {
                phase = p as u8;
            }
        }
        let id = (self.slot << 40) | (self.spans.len() as u64 + 1);
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            name,
            kind,
            layer,
            rank: self.rank,
            t0_ns: now_ns(),
            t1_ns: 0,
            phase,
            arg,
            child_ns: 0,
        });
    }

    fn close(&mut self) {
        if self.muted {
            return;
        }
        let t1 = now_ns();
        let Some(i) = self.stack.pop() else { return };
        self.spans[i].t1_ns = t1;
        let dur = self.spans[i].dur_ns();
        if let Some(&p) = self.stack.last() {
            self.spans[p].child_ns += dur;
        }
    }

    /// Close down to and including the innermost open region `name`
    /// (an unwinding functor may have skipped inner pops).
    fn close_region(&mut self, name: &'static str) {
        if !self
            .stack
            .iter()
            .any(|&i| self.spans[i].kind == SpanKind::Region && self.spans[i].name == name)
        {
            return;
        }
        while let Some(&i) = self.stack.last() {
            let hit = self.spans[i].kind == SpanKind::Region && self.spans[i].name == name;
            self.close();
            if hit {
                break;
            }
        }
    }

    fn instant(&mut self, name: &'static str, layer: Layer, arg: u64) {
        if self.muted {
            return;
        }
        self.open(name, SpanKind::Message, layer, arg);
        // An instant: closes at its own start and covers none of its parent.
        if let Some(i) = self.stack.pop() {
            self.spans[i].t1_ns = self.spans[i].t0_ns;
        }
    }

    fn flush(&mut self) {
        while !self.stack.is_empty() {
            self.close();
        }
        if !self.spans.is_empty() {
            COLLECTED
                .lock()
                .expect("span collector poisoned")
                .append(&mut self.spans);
        }
    }
}

impl Drop for ThreadBuf {
    // Threads the benchmark does not own (server workers) hand their
    // spans over when they exit.
    fn drop(&mut self) {
        self.flush();
    }
}

static NEXT_SLOT: AtomicU64 = AtomicU64::new(1);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Gates the benchmark's own root spans and message instants; kernel and
/// region callbacks are gated by the layers' registries.
static ACTIVE: AtomicBool = AtomicBool::new(false);

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        slot: NEXT_SLOT.fetch_add(1, Ordering::Relaxed),
        rank: -1,
        muted: false,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

fn with_buf(f: impl FnOnce(&mut ThreadBuf)) {
    // A thread being torn down has no buffer left; its event is dropped.
    let _ = BUF.try_with(|b| f(&mut b.borrow_mut()));
}

struct Hooks;

impl ProfilingHooks for Hooks {
    fn begin_parallel_for(&self, _kid: KernelId, info: &KernelInfo) {
        let layer = layer_of_kernel(info.name);
        with_buf(|b| b.open(info.name, SpanKind::Kernel, layer, info.work_items));
    }
    fn end_parallel_for(&self, _kid: KernelId) {
        with_buf(ThreadBuf::close);
    }
    fn begin_parallel_reduce(&self, kid: KernelId, info: &KernelInfo) {
        self.begin_parallel_for(kid, info);
    }
    fn end_parallel_reduce(&self, _kid: KernelId) {
        with_buf(ThreadBuf::close);
    }
    fn begin_deep_copy(&self, _kid: KernelId, info: &DeepCopyInfo<'_>) {
        with_buf(|b| b.open("deep_copy", SpanKind::DeepCopy, Layer::KokkosRs, info.bytes));
    }
    fn end_deep_copy(&self, _kid: KernelId) {
        with_buf(ThreadBuf::close);
    }
    fn push_region(&self, name: &'static str) {
        with_buf(|b| b.open(name, SpanKind::Region, layer_of_region(name), 0));
    }
    fn pop_region(&self, name: &'static str) {
        with_buf(|b| b.close_region(name));
    }
}

struct Tap;

impl CommTap for Tap {
    fn on_event(&self, ev: &CommEvent) {
        if matches!(ev.kind, CommEventKind::Send | CommEventKind::Recv) {
            with_buf(|b| b.instant(ev.kind.name(), Layer::MpiSim, ev.bytes));
        }
    }
}

/// Install the hook and the tap; spans record until [`stop`].
pub fn start() {
    COLLECTED.lock().expect("span collector poisoned").clear();
    kokkos_rs::profiling::set_hooks(Arc::new(Hooks));
    mpi_sim::set_tap(Arc::new(Tap));
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Remove the hook and the tap and return every span flushed so far.
/// Threads still alive must have called [`flush_thread`] first.
pub fn stop() -> Vec<Span> {
    ACTIVE.store(false, Ordering::SeqCst);
    mpi_sim::clear_tap();
    kokkos_rs::profiling::clear_hooks();
    flush_thread();
    std::mem::take(&mut *COLLECTED.lock().expect("span collector poisoned"))
}

pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Tag this thread's spans with its simulated rank.
pub fn set_rank(rank: i64) {
    with_buf(|b| b.rank = rank);
}

/// Record nothing on this thread until [`unmute`]: an episode's set-up and
/// warm-up are outside the spans, as they are outside the timed steps. No
/// span may be open across either call.
pub fn mute() {
    with_buf(|b| b.muted = true);
}

pub fn unmute() {
    with_buf(|b| b.muted = false);
}

/// Hand this thread's spans to the collector (rank threads call this as
/// their last act; the main thread's are taken by [`stop`]).
pub fn flush_thread() {
    with_buf(ThreadBuf::flush);
}

/// The root span around one `try_step`; a no-op guard when not tracing.
pub struct StepSpan(bool);

pub fn step_span(step: u64) -> StepSpan {
    let on = active();
    if on {
        with_buf(|b| b.open("step", SpanKind::Step, Layer::Bench, step));
    }
    StepSpan(on)
}

impl Drop for StepSpan {
    fn drop(&mut self) {
        if self.0 {
            with_buf(ThreadBuf::close);
        }
    }
}

/// What the per-layer metrics are computed from.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Root spans and their total and self time.
    pub steps: u64,
    pub step_ns: u64,
    pub step_self_ns: u64,
    /// Self time of licom spans (phase regions, sub-regions, kernels)
    /// under each phase, by [`PHASES`] index.
    pub phase_licom_ns: [u64; PHASES.len()],
    /// Duration of licom kernel spans.
    pub kernel_ns: u64,
    /// Kernel launches (`parallel_for` + `parallel_reduce`), all layers.
    pub launches: u64,
    /// `halo:pack` / `halo:unpack` self time plus `StripCopy*` kernels.
    pub halo_pack_ns: u64,
    /// Self time of `halo:exchange2d|3d` and of the model's `bt:halo` /
    /// `adv:halo` wrappers: the halo engine outside its pack and unpack.
    pub halo_exchange_ns: u64,
    pub deep_copy_ns: u64,
    pub sends: u64,
    pub send_bytes: u64,
    /// Self time per layer, over all spans.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut s = Summary::default();
    for sp in spans {
        *s.layer_self_ns.entry(sp.layer.name()).or_default() += sp.self_ns();
        match sp.kind {
            SpanKind::Step => {
                s.steps += 1;
                s.step_ns += sp.dur_ns();
                s.step_self_ns += sp.self_ns();
            }
            SpanKind::Kernel => {
                s.launches += 1;
                match sp.layer {
                    Layer::HaloExchange => s.halo_pack_ns += sp.dur_ns(),
                    _ => s.kernel_ns += sp.dur_ns(),
                }
            }
            SpanKind::Region => match sp.name {
                "halo:pack" | "halo:unpack" => s.halo_pack_ns += sp.self_ns(),
                "halo:exchange2d" | "halo:exchange3d" | "bt:halo" | "adv:halo" => {
                    s.halo_exchange_ns += sp.self_ns()
                }
                _ => {}
            },
            SpanKind::DeepCopy => s.deep_copy_ns += sp.dur_ns(),
            SpanKind::Message => {
                if sp.name == "send" {
                    s.sends += 1;
                    s.send_bytes += sp.arg;
                }
            }
        }
        if sp.layer == Layer::Licom && sp.phase != NO_PHASE {
            s.phase_licom_ns[sp.phase as usize] += sp.self_ns();
        }
    }
    s
}

/// The span file: `{id, parent, name, layer, rank, t0_ns, t1_ns}` per
/// span (plus kind and arg), ids as decimal strings so they survive JSON's
/// doubles.
pub fn spans_to_json(workload: &str, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("id", Json::Str(s.id.to_string())),
                ("parent", Json::Str(s.parent.to_string())),
                ("name", s.name.into()),
                (
                    "kind",
                    match s.kind {
                        SpanKind::Step => "step",
                        SpanKind::Region => "region",
                        SpanKind::Kernel => "kernel",
                        SpanKind::DeepCopy => "deep_copy",
                        SpanKind::Message => "message",
                    }
                    .into(),
                ),
                ("layer", s.layer.name().into()),
                ("rank", Json::Num(s.rank as f64)),
                ("t0_ns", s.t0_ns.into()),
                ("t1_ns", s.t1_ns.into()),
                ("arg", s.arg.into()),
            ])
        })
        .collect();
    Json::obj([
        ("schema", "licom-bench-spans-v1".into()),
        ("workload", workload.into()),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf() -> ThreadBuf {
        ThreadBuf {
            slot: 7,
            rank: 3,
            muted: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Build the spans by hand-set times: recording uses the wall clock,
    /// the arithmetic under test does not.
    fn fixed(b: &mut ThreadBuf, times: &[(u64, u64)]) {
        for (s, (t0, t1)) in b.spans.iter_mut().zip(times) {
            s.t0_ns = *t0;
            s.t1_ns = *t1;
            s.child_ns = 0;
        }
        let kids: Vec<(u64, u64)> = b.spans.iter().map(|s| (s.parent, s.dur_ns())).collect();
        for (parent, dur) in kids {
            if let Some(p) = b.spans.iter_mut().find(|s| s.id == parent) {
                p.child_ns += dur;
            }
        }
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut b = buf();
        b.open("step", SpanKind::Step, Layer::Bench, 0);
        b.open("barotropic", SpanKind::Region, Layer::Licom, 0);
        b.open("FunctorBtEta", SpanKind::Kernel, Layer::Licom, 100);
        b.close();
        b.open("halo:exchange2d", SpanKind::Region, Layer::HaloExchange, 0);
        b.open("halo:pack", SpanKind::Region, Layer::HaloExchange, 0);
        b.open("StripCopy2D", SpanKind::Kernel, Layer::HaloExchange, 8);
        b.close();
        b.close();
        b.instant("send", Layer::MpiSim, 640);
        b.close();
        b.close();
        b.close();
        assert!(b.stack.is_empty());
        let parents: Vec<u64> = b.spans.iter().map(|s| s.parent & 0xff).collect();
        assert_eq!(parents, vec![0, 1, 2, 2, 4, 5, 4]);
        assert!(b.spans.iter().all(|s| s.rank == 3 && s.id >> 40 == 7));
        // Everything under the phase region carries its phase index.
        let bt = PHASES.iter().position(|p| *p == "barotropic").unwrap() as u8;
        assert_eq!(b.spans[0].phase, NO_PHASE);
        assert!(b.spans[1..].iter().all(|s| s.phase == bt));

        // step 0..100 | barotropic 10..90 | kernel 20..40 | exch 50..80 |
        // pack 55..65 | strip 56..60 | send @70
        fixed(
            &mut b,
            &[
                (0, 100),
                (10, 90),
                (20, 40),
                (50, 80),
                (55, 65),
                (56, 60),
                (70, 70),
            ],
        );
        let s = summarize(&b.spans);
        assert_eq!((s.steps, s.step_ns, s.step_self_ns), (1, 100, 20));
        assert_eq!(s.kernel_ns, 20);
        assert_eq!(s.launches, 2);
        // pack self (10 - 4) + strip kernel 4; exchange self 30 - 10.
        assert_eq!(s.halo_pack_ns, 10);
        assert_eq!(s.halo_exchange_ns, 20);
        // licom under barotropic: region self (80 - 20 - 30) + kernel 20.
        assert_eq!(s.phase_licom_ns[bt as usize], 50);
        assert_eq!((s.sends, s.send_bytes), (1, 640));
        // Self times of all layers add back to the root span.
        assert_eq!(s.layer_self_ns.values().sum::<u64>(), 100);
    }

    #[test]
    fn pop_of_an_outer_region_closes_skipped_inner_ones() {
        let mut b = buf();
        b.open("eos", SpanKind::Region, Layer::Licom, 0);
        b.open("adv:xpass", SpanKind::Region, Layer::Licom, 0);
        b.close_region("never-opened");
        assert_eq!(b.stack.len(), 2);
        b.close_region("eos");
        assert!(b.stack.is_empty());
        assert!(b.spans.iter().all(|s| s.t1_ns >= s.t0_ns));
    }

    #[test]
    fn a_muted_thread_records_nothing() {
        let mut b = buf();
        b.muted = true;
        b.open("eos", SpanKind::Region, Layer::Licom, 0);
        b.instant("send", Layer::MpiSim, 8);
        b.close();
        assert!(b.spans.is_empty() && b.stack.is_empty());
    }

    #[test]
    fn overlap_compute_belongs_to_licom() {
        assert_eq!(layer_of_region("halo:overlap-compute"), Layer::Licom);
        assert_eq!(layer_of_region("halo:exchange3d"), Layer::HaloExchange);
        assert_eq!(layer_of_region("bt:substep"), Layer::Licom);
        assert_eq!(layer_of_region("bt:halo"), Layer::HaloExchange);
        assert_eq!(layer_of_kernel("StripCopy"), Layer::HaloExchange);
        assert_eq!(layer_of_kernel("FunctorEos"), Layer::Licom);
    }

    #[test]
    fn span_file_keeps_ids_exact() {
        let mut b = buf();
        b.open("step", SpanKind::Step, Layer::Bench, 5);
        b.close();
        let doc = spans_to_json("w", &b.spans);
        let text = kokkos_profiling::render_json(&doc);
        let back = kokkos_profiling::parse_json(&text).unwrap();
        let row = &back.get("spans").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            row.get("id").unwrap().as_str().unwrap(),
            b.spans[0].id.to_string()
        );
        assert_eq!(row.get("layer").unwrap().as_str(), Some("bench"));
    }
}
