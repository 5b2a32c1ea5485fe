//! Functor registration and launch-time matching — the paper's §V-B
//! innovation, reproduced.
//!
//! The Athread boundary ([`sunway_sim::CpeKernel`]) accepts only a plain
//! `fn` pointer plus one `usize`. A generic `parallel_for<F>` therefore
//! cannot hand `F` to the CPEs directly. Following the paper:
//!
//! 1. **Preset functions** — for each concrete functor type, a monomorphic
//!    trampoline (`tramp_for_1d::<F>` etc.) "executes kernel statements by
//!    explicitly invoking the overloaded `operator()` method".
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
//! over a mirrored key array ([`lookup_simd_hit_index`]) reproduces the
//! paper's LDM + SIMD matching optimization; the microbenchmarks compare
//! the two.

use std::any::TypeId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sunway_sim::{CpeCtx, CpeKernel};

use crate::functor::{
    Functor1D, Functor2D, Functor3D, FunctorList, IterCost, ReduceFunctor1D, ReduceFunctor2D,
    ReduceFunctor3D, ReduceFunctorList,
};
use crate::policy::{tiles_per_cpe, ListPolicy, MDRangePolicy2, MDRangePolicy3, RangePolicy};

/// What flavour of launch a registered trampoline implements. `FOR` vs
/// `REDUCE` and the rank are part of the macro name in the paper
/// (`KOKKOS_REGISTER_FOR_1D`, `..._REDUCE_2D`, ...); we check it at lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    For1D,
    For2D,
    For3D,
    Reduce1D,
    Reduce2D,
    Reduce3D,
    /// Compact index-list launch ([`crate::policy::ListPolicy`]).
    ForList,
    ReduceList,
    /// Hierarchical team launch with LDM scratch (see [`crate::team`]).
    Team,
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

/// Index the SIMD matcher would hit for `key` — exposed for tests/benches.
pub fn lookup_simd_hit_index(key: u64) -> Option<usize> {
    let reg = REGISTRY.lock().unwrap();
    sunway_sim::simd::find_u64(&reg.keys, key)
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
// Launch payloads: the single `usize` argument smuggled across the C-like
// boundary points at one of these, living on the launching thread's stack
// for the (blocking) duration of the kernel.
// ---------------------------------------------------------------------------

#[doc(hidden)]
pub struct Payload1D {
    pub functor: *const (),
    pub policy: RangePolicy,
    pub cost: IterCost,
}

#[doc(hidden)]
pub struct Payload2D {
    pub functor: *const (),
    pub policy: MDRangePolicy2,
    pub cost: IterCost,
}

#[doc(hidden)]
pub struct Payload3D {
    pub functor: *const (),
    pub policy: MDRangePolicy3,
    pub cost: IterCost,
}

#[doc(hidden)]
pub struct PayloadList {
    pub functor: *const (),
    /// Borrowed from the launching frame (`ListPolicy` is not `Copy`);
    /// valid for the blocking duration of the kernel, like `functor`.
    pub policy: *const ListPolicy,
    pub cost: IterCost,
}

#[doc(hidden)]
pub struct PayloadReduceList {
    pub functor: *const (),
    pub policy: *const ListPolicy,
    pub cost: IterCost,
    pub partials: *mut f64,
    pub identity: f64,
}

#[doc(hidden)]
pub struct PayloadReduce1D {
    pub functor: *const (),
    pub policy: RangePolicy,
    pub cost: IterCost,
    /// Per-tile partials, length `policy.total_tiles()`; disjoint writes.
    pub partials: *mut f64,
    pub identity: f64,
}

#[doc(hidden)]
pub struct PayloadReduce2D {
    pub functor: *const (),
    pub policy: MDRangePolicy2,
    pub cost: IterCost,
    pub partials: *mut f64,
    pub identity: f64,
}

#[doc(hidden)]
pub struct PayloadReduce3D {
    pub functor: *const (),
    pub policy: MDRangePolicy3,
    pub cost: IterCost,
    pub partials: *mut f64,
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
/// DMA pipeline: `iters_of(t)` gives tile `t`'s iteration count (for the
/// prefetch of `t+1`'s bytes), `body(ctx, t)` executes it. FLOP accounting
/// happens here so every trampoline charges identically.
#[inline]
fn drive_pipelined(
    ctx: &mut CpeCtx,
    cost: IterCost,
    tile_elems: usize,
    t0: usize,
    t1: usize,
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
        sunway_sim::pipeline::stream_single_tile(ctx, tile_elems, in_b, out_b, |ctx| {
            body(t0);
            ctx.account_flops_simd(cost.flops * iters);
        });
        return;
    }
    let mut pipe = sunway_sim::DmaPipe::begin(ctx, tile_elems);
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

// ---------------------------------------------------------------------------
// Preset trampolines ("preset functions that execute kernel statements by
// explicitly invoking the overloaded operator() method").
// ---------------------------------------------------------------------------

#[doc(hidden)]
pub fn tramp_for_1d<F: Functor1D>(ctx: &mut CpeCtx, arg: usize) {
    let p = unsafe { &*(arg as *const Payload1D) };
    let f = unsafe { &*(p.functor as *const F) };
    let total = p.policy.total_tiles();
    let per = tiles_per_cpe(total, ctx.num_cpes());
    let first = ctx.cpe_id() * per;
    let last = (first + per).min(total);
    let iters = |t: usize| {
        let (lo, hi) = p.policy.tile_range(t);
        (hi - lo) as u64
    };
    drive_pipelined(ctx, p.cost, p.policy.tile, first, last, iters, |t| {
        let (lo, hi) = p.policy.tile_range(t);
        for i in lo..hi {
            f.operator(i);
        }
    });
}

#[doc(hidden)]
pub fn tramp_for_2d<F: Functor2D>(ctx: &mut CpeCtx, arg: usize) {
    let p = unsafe { &*(arg as *const Payload2D) };
    let f = unsafe { &*(p.functor as *const F) };
    let total = p.policy.total_tiles();
    let per = tiles_per_cpe(total, ctx.num_cpes());
    let first = ctx.cpe_id() * per;
    let last = (first + per).min(total);
    let iters = |t: usize| {
        let [(j0, j1), (i0, i1)] = p.policy.tile_bounds(t);
        ((j1 - j0) * (i1 - i0)) as u64
    };
    let tile_elems = p.policy.tile[0] * p.policy.tile[1];
    drive_pipelined(ctx, p.cost, tile_elems, first, last, iters, |t| {
        f.operator_tile(p.policy.tile_bounds(t));
    });
}

#[doc(hidden)]
pub fn tramp_for_3d<F: Functor3D>(ctx: &mut CpeCtx, arg: usize) {
    let p = unsafe { &*(arg as *const Payload3D) };
    let f = unsafe { &*(p.functor as *const F) };
    let total = p.policy.total_tiles();
    let per = tiles_per_cpe(total, ctx.num_cpes());
    let first = ctx.cpe_id() * per;
    let last = (first + per).min(total);
    let iters = |t: usize| {
        let [(k0, k1), (j0, j1), (i0, i1)] = p.policy.tile_bounds(t);
        ((k1 - k0) * (j1 - j0) * (i1 - i0)) as u64
    };
    let tile_elems = p.policy.tile[0] * p.policy.tile[1] * p.policy.tile[2];
    drive_pipelined(ctx, p.cost, tile_elems, first, last, iters, |t| {
        f.operator_tile(p.policy.tile_bounds(t));
    });
}

#[doc(hidden)]
pub fn tramp_for_list<F: FunctorList>(ctx: &mut CpeCtx, arg: usize) {
    let p = unsafe { &*(arg as *const PayloadList) };
    let f = unsafe { &*(p.functor as *const F) };
    let policy = unsafe { &*p.policy };
    // Cost-weighted Eq. (2): each CPE takes the contiguous tile range whose
    // cumulative cost share is its own, not a fixed tile count.
    let (t0, t1) = policy.worker_tile_range(ctx.cpe_id(), ctx.num_cpes());
    let iters = |t: usize| {
        let (lo, hi) = policy.tile_range(t);
        (hi - lo) as u64
    };
    drive_pipelined(ctx, p.cost, policy.tile, t0, t1, iters, |t| {
        let (n0, entries) = policy.tile_entries(t);
        f.operator_span(n0, entries);
    });
}

#[doc(hidden)]
pub fn tramp_reduce_list<F: ReduceFunctorList>(ctx: &mut CpeCtx, arg: usize) {
    let p = unsafe { &*(arg as *const PayloadReduceList) };
    let f = unsafe { &*(p.functor as *const F) };
    let policy = unsafe { &*p.policy };
    let (t0, t1) = policy.worker_tile_range(ctx.cpe_id(), ctx.num_cpes());
    let iters = |t: usize| {
        let (lo, hi) = policy.tile_range(t);
        (hi - lo) as u64
    };
    drive_pipelined(ctx, p.cost, policy.tile, t0, t1, iters, |t| {
        let (n0, entries) = policy.tile_entries(t);
        let mut acc = p.identity;
        f.contribute_span(n0, entries, &mut acc);
        // SAFETY: worker tile ranges are disjoint; tile t has one owner.
        unsafe { *p.partials.add(t) = acc };
    });
}

#[doc(hidden)]
pub fn tramp_reduce_1d<F: ReduceFunctor1D>(ctx: &mut CpeCtx, arg: usize) {
    let p = unsafe { &*(arg as *const PayloadReduce1D) };
    let f = unsafe { &*(p.functor as *const F) };
    let total = p.policy.total_tiles();
    let per = tiles_per_cpe(total, ctx.num_cpes());
    let first = ctx.cpe_id() * per;
    let last = (first + per).min(total);
    let iters = |t: usize| {
        let (lo, hi) = p.policy.tile_range(t);
        (hi - lo) as u64
    };
    drive_pipelined(ctx, p.cost, p.policy.tile, first, last, iters, |t| {
        let (lo, hi) = p.policy.tile_range(t);
        let mut acc = p.identity;
        for i in lo..hi {
            f.contribute(i, &mut acc);
        }
        // SAFETY: each tile index t is owned by exactly one CPE.
        unsafe { *p.partials.add(t) = acc };
    });
}

#[doc(hidden)]
pub fn tramp_reduce_2d<F: ReduceFunctor2D>(ctx: &mut CpeCtx, arg: usize) {
    let p = unsafe { &*(arg as *const PayloadReduce2D) };
    let f = unsafe { &*(p.functor as *const F) };
    let total = p.policy.total_tiles();
    let per = tiles_per_cpe(total, ctx.num_cpes());
    let first = ctx.cpe_id() * per;
    let last = (first + per).min(total);
    let iters = |t: usize| {
        let [(j0, j1), (i0, i1)] = p.policy.tile_bounds(t);
        ((j1 - j0) * (i1 - i0)) as u64
    };
    let tile_elems = p.policy.tile[0] * p.policy.tile[1];
    drive_pipelined(ctx, p.cost, tile_elems, first, last, iters, |t| {
        let [(j0, j1), (i0, i1)] = p.policy.tile_bounds(t);
        let mut acc = p.identity;
        for j in j0..j1 {
            for i in i0..i1 {
                f.contribute(j, i, &mut acc);
            }
        }
        unsafe { *p.partials.add(t) = acc };
    });
}

#[doc(hidden)]
pub fn tramp_reduce_3d<F: ReduceFunctor3D>(ctx: &mut CpeCtx, arg: usize) {
    let p = unsafe { &*(arg as *const PayloadReduce3D) };
    let f = unsafe { &*(p.functor as *const F) };
    let total = p.policy.total_tiles();
    let per = tiles_per_cpe(total, ctx.num_cpes());
    let first = ctx.cpe_id() * per;
    let last = (first + per).min(total);
    let iters = |t: usize| {
        let [(k0, k1), (j0, j1), (i0, i1)] = p.policy.tile_bounds(t);
        ((k1 - k0) * (j1 - j0) * (i1 - i0)) as u64
    };
    let tile_elems = p.policy.tile[0] * p.policy.tile[1] * p.policy.tile[2];
    drive_pipelined(ctx, p.cost, tile_elems, first, last, iters, |t| {
        let [(k0, k1), (j0, j1), (i0, i1)] = p.policy.tile_bounds(t);
        let mut acc = p.identity;
        for k in k0..k1 {
            for j in j0..j1 {
                for i in i0..i1 {
                    f.contribute(k, j, i, &mut acc);
                }
            }
        }
        unsafe { *p.partials.add(t) = acc };
    });
}

// ---------------------------------------------------------------------------
// Registration entry points used by the macros.
// ---------------------------------------------------------------------------

pub fn register_1d<F: Functor1D + 'static>(name: &'static str) {
    insert(key_of::<F>(), name, KernelKind::For1D, tramp_for_1d::<F>);
}

pub fn register_2d<F: Functor2D + 'static>(name: &'static str) {
    insert(key_of::<F>(), name, KernelKind::For2D, tramp_for_2d::<F>);
}

pub fn register_3d<F: Functor3D + 'static>(name: &'static str) {
    insert(key_of::<F>(), name, KernelKind::For3D, tramp_for_3d::<F>);
}

pub fn register_list<F: FunctorList + 'static>(name: &'static str) {
    insert(
        key_of::<F>(),
        name,
        KernelKind::ForList,
        tramp_for_list::<F>,
    );
}

pub fn register_reduce_list<F: ReduceFunctorList + 'static>(name: &'static str) {
    insert(
        key_of::<F>(),
        name,
        KernelKind::ReduceList,
        tramp_reduce_list::<F>,
    );
}

pub fn register_reduce_1d<F: ReduceFunctor1D + 'static>(name: &'static str) {
    insert(
        key_of::<F>(),
        name,
        KernelKind::Reduce1D,
        tramp_reduce_1d::<F>,
    );
}

pub fn register_reduce_2d<F: ReduceFunctor2D + 'static>(name: &'static str) {
    insert(
        key_of::<F>(),
        name,
        KernelKind::Reduce2D,
        tramp_reduce_2d::<F>,
    );
}

pub fn register_reduce_3d<F: ReduceFunctor3D + 'static>(name: &'static str) {
    insert(
        key_of::<F>(),
        name,
        KernelKind::Reduce3D,
        tramp_reduce_3d::<F>,
    );
}

/// Registration hook for team trampolines (used by `crate::team`).
pub fn insert_team(key: u64, name: &'static str, tramp: CpeKernel) {
    insert(key, name, KernelKind::Team, tramp);
}

/// `KOKKOS_REGISTER_FOR_1D(Arg1, Arg2)`: defines an init function `Arg1`
/// that registers the preset trampoline for functor class `Arg2`. Call
/// `Arg1()` during initialization (idempotent).
#[macro_export]
macro_rules! register_for_1d {
    ($name:ident, $f:ty) => {
        #[allow(non_snake_case)]
        pub fn $name() {
            $crate::registry::register_1d::<$f>(stringify!($name));
        }
    };
}

/// `KOKKOS_REGISTER_FOR_2D` analogue; see `register_for_1d!`.
#[macro_export]
macro_rules! register_for_2d {
    ($name:ident, $f:ty) => {
        #[allow(non_snake_case)]
        pub fn $name() {
            $crate::registry::register_2d::<$f>(stringify!($name));
        }
    };
}

/// `KOKKOS_REGISTER_FOR_3D` analogue; see `register_for_1d!`.
#[macro_export]
macro_rules! register_for_3d {
    ($name:ident, $f:ty) => {
        #[allow(non_snake_case)]
        pub fn $name() {
            $crate::registry::register_3d::<$f>(stringify!($name));
        }
    };
}

/// `KOKKOS_REGISTER_FOR_LIST` analogue (index-list launch); see
/// `register_for_1d!`.
#[macro_export]
macro_rules! register_for_list {
    ($name:ident, $f:ty) => {
        #[allow(non_snake_case)]
        pub fn $name() {
            $crate::registry::register_list::<$f>(stringify!($name));
        }
    };
}

/// `KOKKOS_REGISTER_REDUCE_LIST` analogue; see `register_for_1d!`.
#[macro_export]
macro_rules! register_reduce_list {
    ($name:ident, $f:ty) => {
        #[allow(non_snake_case)]
        pub fn $name() {
            $crate::registry::register_reduce_list::<$f>(stringify!($name));
        }
    };
}

/// `KOKKOS_REGISTER_REDUCE_1D` analogue; see `register_for_1d!`.
#[macro_export]
macro_rules! register_reduce_1d {
    ($name:ident, $f:ty) => {
        #[allow(non_snake_case)]
        pub fn $name() {
            $crate::registry::register_reduce_1d::<$f>(stringify!($name));
        }
    };
}

/// `KOKKOS_REGISTER_REDUCE_2D` analogue; see `register_for_1d!`.
#[macro_export]
macro_rules! register_reduce_2d {
    ($name:ident, $f:ty) => {
        #[allow(non_snake_case)]
        pub fn $name() {
            $crate::registry::register_reduce_2d::<$f>(stringify!($name));
        }
    };
}

/// `KOKKOS_REGISTER_REDUCE_3D` analogue; see `register_for_1d!`.
#[macro_export]
macro_rules! register_reduce_3d {
    ($name:ident, $f:ty) => {
        #[allow(non_snake_case)]
        pub fn $name() {
            $crate::registry::register_reduce_3d::<$f>(stringify!($name));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{View, View1};

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
        register_1d::<Scale>("scale");
        register_1d::<Scale>("scale"); // idempotent
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
        register_1d::<Other>("other_for");
        // Registered as FOR, looked up as REDUCE → miss.
        assert!(lookup(key_of::<Other>(), KernelKind::Reduce1D).is_none());
    }

    #[test]
    fn trampoline_executes_functor_on_simulated_cpes() {
        register_1d::<Scale>("scale2");
        let x: View1<f64> = View::host("x", [100]);
        for i in 0..100 {
            x.set_at(i, i as f64);
        }
        let f = Scale {
            x: x.clone(),
            a: 3.0,
        };
        let payload = Payload1D {
            functor: &f as *const Scale as *const (),
            policy: RangePolicy::new(100).with_tile(7),
            cost: f.cost(),
        };
        let tramp = lookup(key_of::<Scale>(), KernelKind::For1D).unwrap();
        let mut cg = sunway_sim::CoreGroup::new(sunway_sim::CgConfig::test_small());
        cg.run(tramp, &payload as *const Payload1D as usize);
        for i in 0..100 {
            assert_eq!(x.at(i), 3.0 * i as f64);
        }
        assert!(cg.counters().totals.flops > 0, "cost accounting ran");
    }

    #[test]
    fn stats_count_registrations_and_walks() {
        register_1d::<Scale>("scale3");
        let (len0, lk0, _) = stats();
        assert!(len0 >= 1);
        let _ = lookup(key_of::<Scale>(), KernelKind::For1D);
        let (_, lk1, _) = stats();
        assert_eq!(lk1, lk0 + 1);
    }

    #[test]
    fn registered_kernels_lists_names() {
        register_1d::<Scale>("scale4");
        let names: Vec<&str> = registered_kernels().iter().map(|(n, _)| *n).collect();
        // The first registration for Scale wins the name slot.
        assert!(names.iter().any(|n| n.starts_with("scale")));
    }
}
