//! Functor registration and launch-time matching — the paper's §V-B
//! innovation, reproduced.
//!
//! The Athread boundary ([`sunway_sim::CpeKernel`]) accepts only a plain
//! `fn` pointer plus one `usize`. A generic `parallel_for<F>` therefore
//! cannot hand `F` to the CPEs directly. Following the paper:
//!
//! 1. **Preset functions** — for each concrete functor type, pattern and
//!    policy, a monomorphic copy of the one generic trampoline (`tramp`)
//!    "executes kernel statements by explicitly invoking the overloaded
//!    `operator()` method", one policy tile at a time.
//! 2. **Registration** — `register_for_1d!` (the analogue of
//!    `KOKKOS_REGISTER_FOR_1D(Arg1, Arg2)`) defines an init function that
//!    inserts `(type key → trampoline)` into a global registry. Model code
//!    calls these during initialization, as the paper registers presets
//!    "during the initialization of Kokkos".
//! 3. **Callback matching** — at launch, the `SwAthread` space looks the
//!    functor's type key up and spawns the matched trampoline on the CPEs.
//!
//! The registry is a **singly linked list**, the data structure the paper
//! selected ("a trade-off between the temporal and spatial complexities
//! while maintaining robustness", O(n) lookup). A SIMD-accelerated lookup
//! over a mirrored key array ([`lookup_simd`]) reproduces the
//! paper's LDM + SIMD matching optimization; the microbenchmarks compare
//! the two.

use std::any::TypeId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sunway_sim::{CpeCtx, CpeKernel};

use crate::functor::{IterCost, Pattern, TileBody};
use crate::policy::Policy;
use crate::profiling::{PatternKind, PolicyKind};

/// What flavour of launch a registered trampoline implements. `FOR` vs
/// `REDUCE` and the rank are part of the macro name in the paper
/// (`KOKKOS_REGISTER_FOR_1D`, `..._REDUCE_3D`, ...); we check it at lookup.
/// A 2-D kernel registers as `For3D`: it launches over a one-level 3-D
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    For1D,
    For3D,
    /// Compact index-list launch ([`crate::policy::ListPolicy`]).
    ForList,
    ReduceList,
}

impl KernelKind {
    /// The macro that registers a functor for this kind.
    pub(crate) fn macro_name(self) -> &'static str {
        match self {
            KernelKind::For1D => "register_for_1d",
            KernelKind::For3D => "register_for_3d",
            KernelKind::ForList => "register_for_list",
            KernelKind::ReduceList => "register_reduce_list",
        }
    }
}

struct Node {
    key: u64,
    name: &'static str,
    kind: KernelKind,
    tramp: CpeKernel,
    next: Option<Box<Node>>,
}

struct Registry {
    head: Option<Box<Node>>,
    len: usize,
    /// Mirrored key array for the SIMD-accelerated matcher.
    keys: Vec<u64>,
    /// Entry table parallel to `keys`.
    flat: Vec<(KernelKind, CpeKernel, &'static str)>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    head: None,
    len: 0,
    keys: Vec::new(),
    flat: Vec::new(),
});

/// Nodes traversed by linked-list lookups (for the matching benchmark).
static NODES_WALKED: AtomicU64 = AtomicU64::new(0);
/// Lookups performed.
static LOOKUPS: AtomicU64 = AtomicU64::new(0);

/// Stable 64-bit key for a functor type.
pub fn key_of<F: 'static>() -> u64 {
    let mut h = DefaultHasher::new();
    TypeId::of::<F>().hash(&mut h);
    h.finish()
}

fn insert(key: u64, name: &'static str, kind: KernelKind, tramp: CpeKernel) {
    let mut reg = REGISTRY.lock().unwrap();
    // Idempotent: re-registering the same functor type is a no-op.
    let mut cur = reg.head.as_deref();
    while let Some(n) = cur {
        if n.key == key && n.kind == kind {
            return;
        }
        cur = n.next.as_deref();
    }
    let node = Box::new(Node {
        key,
        name,
        kind,
        tramp,
        next: reg.head.take(),
    });
    reg.head = Some(node);
    reg.len += 1;
    reg.keys.push(key);
    reg.flat.push((kind, tramp, name));
}

/// Linked-list lookup (the paper's primary path). Returns the trampoline.
pub fn lookup(key: u64, kind: KernelKind) -> Option<CpeKernel> {
    let reg = REGISTRY.lock().unwrap();
    LOOKUPS.fetch_add(1, Ordering::Relaxed);
    let mut walked = 0;
    let mut cur = reg.head.as_deref();
    while let Some(n) = cur {
        walked += 1;
        if n.key == key && n.kind == kind {
            NODES_WALKED.fetch_add(walked, Ordering::Relaxed);
            return Some(n.tramp);
        }
        cur = n.next.as_deref();
    }
    NODES_WALKED.fetch_add(walked, Ordering::Relaxed);
    None
}

/// SIMD-accelerated lookup over the mirrored key array (paper's LDM+SIMD
/// matching optimization). Functionally identical to [`lookup`].
pub fn lookup_simd(key: u64, kind: KernelKind) -> Option<CpeKernel> {
    let reg = REGISTRY.lock().unwrap();
    LOOKUPS.fetch_add(1, Ordering::Relaxed);
    let mut from = 0;
    while let Some(i) = sunway_sim::simd::find_u64(&reg.keys[from..], key) {
        let idx = from + i;
        let (k, t, _) = reg.flat[idx];
        if k == kind {
            return Some(t);
        }
        from = idx + 1;
    }
    None
}

/// Registered-functor count and lookup statistics:
/// `(registered, lookups, nodes_walked)`.
pub fn stats() -> (usize, u64, u64) {
    let reg = REGISTRY.lock().unwrap();
    (
        reg.len,
        LOOKUPS.load(Ordering::Relaxed),
        NODES_WALKED.load(Ordering::Relaxed),
    )
}

/// Human-readable listing of registered kernels (name, kind).
pub fn registered_kernels() -> Vec<(&'static str, KernelKind)> {
    let reg = REGISTRY.lock().unwrap();
    let mut out = Vec::with_capacity(reg.len);
    let mut cur = reg.head.as_deref();
    while let Some(n) = cur {
        out.push((n.name, n.kind));
        cur = n.next.as_deref();
    }
    out
}

// ---------------------------------------------------------------------------
// The launch payload: the single `usize` argument smuggled across the C-like
// boundary points at one of these, living on the launching thread's stack
// for the (blocking) duration of the kernel.
// ---------------------------------------------------------------------------

/// One launch of functor `F` over policy `P`, as `tramp` reads it.
pub(crate) struct Launch<'a, F, P> {
    pub functor: &'a F,
    /// The tiling the CPEs run (a dense for-launch's is re-tiled).
    pub policy: &'a P,
    pub cost: IterCost,
    /// A reduction's partials, slot `t` for tile `t`; empty for any other
    /// launch.
    pub partials: *mut [f64],
    /// What a tile's partial starts from.
    pub identity: f64,
}

/// Split a tile's modeled `View` traffic into DMA-in and DMA-out bytes.
/// Stencil/tendency kernels read more operands than they write (a 2:1
/// split is representative of the licom hot loops); both directions flow
/// through the double-buffered pipe.
#[inline]
fn tile_bytes(cost: IterCost, iters: u64) -> (u64, u64) {
    let total = cost.bytes * iters;
    let put = total / 3;
    (total - put, put)
}

/// Drive one CPE's contiguous tile range through the §V-C2 double-buffered
/// DMA pipeline, staging `resident_elems` iterations of a tile at a time:
/// `iters_of(t)` gives tile `t`'s iteration count (for the prefetch of
/// `t+1`'s bytes), `body(t)` executes it. FLOP accounting happens here too.
#[inline]
fn drive_pipelined(
    ctx: &mut CpeCtx,
    cost: IterCost,
    resident_elems: usize,
    (t0, t1): (usize, usize),
    iters_of: impl Fn(usize) -> u64,
    mut body: impl FnMut(usize),
) {
    if t0 >= t1 {
        return;
    }
    if t1 - t0 == 1 {
        // Single tile: nothing to double-buffer against; take the cheap
        // single-staged path (same cycle accounting, no pipe bookkeeping).
        let iters = iters_of(t0);
        let (in_b, out_b) = tile_bytes(cost, iters);
        sunway_sim::pipeline::stream_single_tile(ctx, resident_elems, in_b, out_b, |ctx| {
            body(t0);
            ctx.account_flops_simd(cost.flops * iters);
        });
        return;
    }
    let mut pipe = sunway_sim::DmaPipe::begin(ctx, resident_elems);
    for t in t0..t1 {
        let iters = iters_of(t);
        let (in_b, out_b) = tile_bytes(cost, iters);
        let next_in = if t + 1 < t1 {
            Some(tile_bytes(cost, iters_of(t + 1)).0)
        } else {
            None
        };
        pipe.tile(ctx, in_b, out_b, next_in, |ctx| {
            body(t);
            ctx.account_flops_simd(cost.flops * iters);
        });
    }
    pipe.finish(ctx);
}

/// The preset trampoline ("preset functions that execute kernel statements
/// by explicitly invoking the overloaded operator() method"), one
/// monomorphic copy per registered `(F, P, M)`: this CPE's share of the
/// policy's tiles, each run through [`TileBody::tile`] inside the DMA
/// pipeline.
fn tramp<F: TileBody<P, M>, P: Policy, M>(ctx: &mut CpeCtx, arg: usize) {
    // SAFETY: `arg` must be the address of a `Launch<F, P>` alive for the
    // whole run. `parallel::launch` runs this trampoline only after looking
    // it up under `F`'s key and `(P, M)`'s kind, and passes its own payload,
    // which outlives the blocking `CoreGroup::run`; a trampoline taken from
    // the public `lookup` and run by hand owes the same.
    let l = unsafe { &*(arg as *const Launch<F, P>) };
    let tiles = l.policy.worker_tile_range(ctx.cpe_id(), ctx.num_cpes());
    let iters = |t: usize| l.policy.tile_iterations(t) as u64;
    let resident = l.policy.resident_elems(l.functor.resident_rows());
    drive_pipelined(ctx, l.cost, resident, tiles, iters, |t| {
        let mut acc = l.identity;
        l.functor.tile(l.policy, t, &mut acc);
        if t < l.partials.len() {
            // SAFETY: slot `t` is in bounds, the launching frame keeps the
            // slots alive, and worker tile ranges are disjoint, so slot `t`
            // has this one writer.
            unsafe { *l.partials.cast::<f64>().add(t) = acc };
        }
    });
}

/// The registry kind of a launch: pattern × policy. A list is the one
/// reduction shape.
pub(crate) fn kind_of<P: Policy, M: Pattern>() -> KernelKind {
    use PolicyKind::*;
    match (M::KIND, P::KIND) {
        (PatternKind::ParallelReduce, _) => KernelKind::ReduceList,
        (_, Range) => KernelKind::For1D,
        (_, MDRange3) => KernelKind::For3D,
        (_, List) => KernelKind::ForList,
    }
}

/// Register `F`'s trampoline for launches of pattern `M` over policy `P`;
/// the `register_*!` macros call this.
pub fn register<F: TileBody<P, M> + 'static, P: Policy, M: Pattern>(name: &'static str) {
    insert(key_of::<F>(), name, kind_of::<P, M>(), tramp::<F, P, M>);
}

/// The body of every `register_*!` macro: an init function `$name` that
/// registers `$f` for launches of pattern `$m` over policy `$p`.
#[doc(hidden)]
#[macro_export]
macro_rules! __register {
    ($name:ident, $f:ty, $p:ident, $m:ident) => {
        #[allow(non_snake_case)]
        pub fn $name() {
            $crate::registry::register::<$f, $crate::policy::$p, $crate::functor::$m>(stringify!(
                $name
            ));
        }
    };
}

/// `KOKKOS_REGISTER_FOR_1D(Arg1, Arg2)`: defines an init function `Arg1`
/// that registers the preset trampoline for functor class `Arg2`. Call
/// `Arg1()` during initialization (idempotent).
#[macro_export]
macro_rules! register_for_1d {
    ($name:ident, $f:ty) => {
        $crate::__register!($name, $f, RangePolicy, For);
    };
}

/// `KOKKOS_REGISTER_FOR_3D` analogue, for a 2-D kernel too (it launches
/// over a one-level 3-D policy); see `register_for_1d!`.
#[macro_export]
macro_rules! register_for_3d {
    ($name:ident, $f:ty) => {
        $crate::__register!($name, $f, MDRangePolicy3, For);
    };
}

/// `KOKKOS_REGISTER_FOR_LIST` analogue (index-list launch); see
/// `register_for_1d!`.
#[macro_export]
macro_rules! register_for_list {
    ($name:ident, $f:ty) => {
        $crate::__register!($name, $f, ListPolicy, For);
    };
}

/// `KOKKOS_REGISTER_REDUCE_LIST` analogue; see `register_for_1d!`.
#[macro_export]
macro_rules! register_reduce_list {
    ($name:ident, $f:ty) => {
        $crate::__register!($name, $f, ListPolicy, Reduce);
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functor::{For, Functor1D};
    use crate::policy::RangePolicy;
    use crate::view::{View, View1};

    fn register_range<F: Functor1D + 'static>(name: &'static str) {
        register::<F, RangePolicy, For>(name);
    }

    struct Scale {
        x: View1<f64>,
        a: f64,
    }
    impl Functor1D for Scale {
        fn operator(&self, i: usize) {
            self.x.set_at(i, self.a * self.x.at(i));
        }
    }

    struct Other;
    impl Functor1D for Other {
        fn operator(&self, _i: usize) {}
    }

    #[test]
    fn register_and_lookup() {
        register_range::<Scale>("scale");
        register_range::<Scale>("scale"); // idempotent
        let t = lookup(key_of::<Scale>(), KernelKind::For1D);
        assert!(t.is_some());
        let t2 = lookup_simd(key_of::<Scale>(), KernelKind::For1D);
        assert_eq!(t.map(|f| f as usize), t2.map(|f| f as usize));
    }

    #[test]
    fn lookup_miss_returns_none() {
        struct NeverRegistered;
        impl Functor1D for NeverRegistered {
            fn operator(&self, _i: usize) {}
        }
        assert!(lookup(key_of::<NeverRegistered>(), KernelKind::For1D).is_none());
        assert!(lookup_simd(key_of::<NeverRegistered>(), KernelKind::For1D).is_none());
    }

    #[test]
    fn kind_is_part_of_the_match() {
        register_range::<Other>("other_for");
        // Registered as FOR over a range, looked up as another kind → miss.
        assert!(lookup(key_of::<Other>(), KernelKind::For3D).is_none());
    }

    #[test]
    fn trampoline_executes_functor_on_simulated_cpes() {
        register_range::<Scale>("scale2");
        let x: View1<f64> = View::host("x", [100]);
        for i in 0..100 {
            x.set_at(i, i as f64);
        }
        let f = Scale {
            x: x.clone(),
            a: 3.0,
        };
        let payload = Launch {
            functor: &f,
            policy: &RangePolicy::new(100).with_tile(7),
            cost: f.cost(),
            partials: &mut [],
            identity: 0.0,
        };
        let tramp = lookup(key_of::<Scale>(), KernelKind::For1D).unwrap();
        let mut cg = sunway_sim::CoreGroup::new(sunway_sim::CgConfig::test_small());
        cg.run(
            tramp,
            &payload as *const Launch<Scale, RangePolicy> as usize,
        );
        for i in 0..100 {
            assert_eq!(x.at(i), 3.0 * i as f64);
        }
        assert!(cg.counters().totals.flops > 0, "cost accounting ran");
    }

    #[test]
    fn stats_count_registrations_and_walks() {
        register_range::<Scale>("scale3");
        let (len0, lk0, _) = stats();
        assert!(len0 >= 1);
        let _ = lookup(key_of::<Scale>(), KernelKind::For1D);
        let (_, lk1, _) = stats();
        assert_eq!(lk1, lk0 + 1);
    }

    #[test]
    fn registered_kernels_lists_names() {
        register_range::<Scale>("scale4");
        let names: Vec<&str> = registered_kernels().iter().map(|(n, _)| *n).collect();
        // The first registration for Scale wins the name slot.
        assert!(names.iter().any(|n| n.starts_with("scale")));
    }
}
