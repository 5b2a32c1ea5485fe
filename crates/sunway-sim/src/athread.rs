//! Athread-style kernel launch API and the persistent CPE worker pool.
//!
//! The vendor Athread library is a *C* API: the MPE launches a kernel on all
//! 64 CPEs by passing a plain function pointer plus one pointer-sized
//! argument (`athread_spawn(fn, arg)`), then blocks in `athread_join()`.
//! This is the restriction that drives the paper's whole §V-B design — "the
//! Athread API for initiating kernels on CPEs supports only C syntax, which
//! does not allow the passage of template parameters to CPE-run kernels".
//!
//! We reproduce that boundary faithfully: [`CpeKernel`] is a plain `fn`
//! pointer taking a [`CpeCtx`] and a `usize` opaque argument. Generic
//! functors cannot cross it; the `kokkos-rs` Athread backend must register
//! concrete trampolines ahead of time and smuggle the functor through the
//! `usize` (exactly the registration + callback strategy of the paper).
//!
//! ## Host execution model
//!
//! Simulated cycles are deterministic regardless of how the logical CPEs
//! are multiplexed onto OS threads, so the host scheduling is free to chase
//! wall-clock. The MPE (launching thread) always executes its own share of
//! the CPEs inline during `join()`, exactly like `athread_join` spinning on
//! the CPE mailboxes; only `min(host_workers, available_parallelism) − 1`
//! helper threads are spawned. On a single-core host that degenerates to a
//! fully inline loop with zero channel traffic or context switches per
//! launch — the difference between a kernel launch costing microseconds
//! and costing scheduler round-trips. Per-CPE LDM allocators and the
//! counters buffer persist across launches, so the steady state allocates
//! nothing.

use std::sync::mpsc;
use std::thread::JoinHandle;

use crate::config::CgConfig;
use crate::counters::{CgCounters, CpeCounters};
use crate::dma::{DmaHandle, DMA_ISSUE_CYCLES, LDM_BYTES_PER_CYCLE};
use crate::ldm::LdmAllocator;

/// A CPE kernel: a plain function pointer. No generics, no captures.
pub type CpeKernel = fn(&mut CpeCtx, usize);

/// Execution context handed to a kernel running on one logical CPE.
///
/// Owns the CPE's LDM allocator, its performance counters, and the simulated
/// clock. All DMA and compute accounting flows through this context.
pub struct CpeCtx {
    cpe_id: usize,
    num_cpes: usize,
    cfg: CgConfig,
    ldm: LdmAllocator,
    /// Counters for the current kernel; `counters.cycles` is the CPE clock.
    pub counters: CpeCounters,
}

impl CpeCtx {
    #[cfg(test)]
    fn new(cpe_id: usize, cfg: &CgConfig) -> Self {
        Self::with_ldm(cpe_id, cfg, LdmAllocator::new(cfg.ldm_bytes))
    }

    /// Build a context around a persistent per-CPE LDM allocator. The
    /// allocator's high-water window is rewound: this context accounts one
    /// kernel launch.
    fn with_ldm(cpe_id: usize, cfg: &CgConfig, ldm: LdmAllocator) -> Self {
        ldm.begin_kernel_window();
        Self {
            cpe_id,
            num_cpes: cfg.num_cpes,
            cfg: cfg.clone(),
            ldm,
            counters: CpeCounters::default(),
        }
    }

    /// This CPE's id in `0..num_cpes` (athread's `_MYID`).
    pub fn cpe_id(&self) -> usize {
        self.cpe_id
    }

    /// Number of CPEs participating in the launch (64 per CG).
    pub fn num_cpes(&self) -> usize {
        self.num_cpes
    }

    /// SIMD width in f64 lanes for vectorised accounting.
    pub fn simd_f64_lanes(&self) -> usize {
        self.cfg.simd_f64_lanes
    }

    /// The hardware configuration of the hosting core group.
    pub fn config(&self) -> &CgConfig {
        &self.cfg
    }

    /// The CPE's LDM scratchpad allocator. Returned by value (cheap clone
    /// sharing the same bookkeeping) so reservations do not borrow the context
    /// and can coexist with `&mut self` DMA calls.
    pub fn ldm(&self) -> LdmAllocator {
        self.ldm.clone()
    }

    /// Current simulated CPE cycle.
    pub fn now(&self) -> u64 {
        self.counters.cycles
    }

    // ---- compute accounting ------------------------------------------------

    /// Charge `n` scalar double-precision operations (1 cycle each).
    pub fn account_flops_scalar(&mut self, n: u64) {
        self.counters.flops += n;
        self.counters.cycles += n;
    }

    /// Charge `n` double-precision operations executed through SIMD lanes.
    pub fn account_flops_simd(&mut self, n: u64) {
        self.counters.flops += n;
        let lanes = self.cfg.simd_f64_lanes as u64;
        self.counters.cycles += n.div_ceil(lanes);
    }

    /// Charge raw cycles (branching, address arithmetic, gather overhead).
    pub fn account_cycles(&mut self, n: u64) {
        self.counters.cycles += n;
    }

    /// Record `n` policy tiles executed by this CPE (dispatch accounting).
    pub fn account_tiles(&mut self, n: u64) {
        self.counters.tiles += n;
    }

    /// Charge LDM streaming traffic of `bytes`.
    pub fn account_ldm_traffic(&mut self, bytes: u64) {
        self.counters.ldm_bytes += bytes;
        self.counters.cycles += bytes.div_ceil(LDM_BYTES_PER_CYCLE);
    }

    // ---- DMA ---------------------------------------------------------------

    /// Wait for an asynchronous transfer: the CPE clock jumps to the
    /// transfer's completion time if it hasn't been hidden by compute, and
    /// the un-hidden remainder is recorded as DMA stall.
    pub fn dma_wait(&mut self, handle: DmaHandle) {
        if handle.ready_at > self.counters.cycles {
            self.counters.dma_stall_cycles += handle.ready_at - self.counters.cycles;
            self.counters.cycles = handle.ready_at;
        }
    }

    /// Model (accounting-only) asynchronous DMA get of `bytes`, split into
    /// transactions of at most `chunk_bytes` (the LDM tile the data would
    /// stream through on hardware). No data moves — the functor reads host
    /// memory directly in the shared-space simulation — but traffic,
    /// transaction latencies and bandwidth time are charged exactly as a
    /// staged transfer would be. Compute issued before [`Self::dma_wait`]
    /// on the returned handle overlaps the transfer.
    pub fn dma_get_async_model(&mut self, bytes: u64, chunk_bytes: usize) -> DmaHandle {
        self.dma_async_model(true, bytes, chunk_bytes)
    }

    /// Accounting-only asynchronous DMA put (see [`Self::dma_get_async_model`]).
    pub fn dma_put_async_model(&mut self, bytes: u64, chunk_bytes: usize) -> DmaHandle {
        self.dma_async_model(false, bytes, chunk_bytes)
    }

    fn dma_async_model(&mut self, get: bool, bytes: u64, chunk_bytes: usize) -> DmaHandle {
        if bytes == 0 {
            return DmaHandle {
                ready_at: self.counters.cycles,
                bytes: 0,
            };
        }
        let chunks = bytes.div_ceil(chunk_bytes.max(1) as u64);
        self.counters.dma_transactions += chunks;
        if get {
            self.counters.dma_get_bytes += bytes;
        } else {
            self.counters.dma_put_bytes += bytes;
        }
        self.counters.cycles += chunks * DMA_ISSUE_CYCLES;
        // Each chunk pays the fixed engine latency; the payload streams at
        // the contended per-CPE share of CG bandwidth.
        let per_cpe_bw = self.cfg.mem_bandwidth_bps / self.num_cpes.max(1) as f64;
        let stream = (bytes as f64 / per_cpe_bw * self.cfg.clock_hz).ceil() as u64;
        DmaHandle {
            ready_at: self.counters.cycles + chunks * self.cfg.dma_latency_cycles + stream,
            bytes,
        }
    }
}

enum WorkerMsg {
    Launch { kernel: CpeKernel, arg: usize },
    Shutdown,
}

struct Worker {
    tx: mpsc::Sender<WorkerMsg>,
    handle: Option<JoinHandle<()>>,
}

type KernelResult = Result<Vec<(usize, CpeCounters)>, String>;

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "CPE kernel panicked".into())
}

/// Execute `kernel` on one logical CPE backed by a persistent allocator,
/// returning its counters. Shared by the MPE inline path and the helper
/// worker threads so accounting is identical regardless of placement.
fn run_cpe(
    cpe: usize,
    cfg: &CgConfig,
    ldm: &LdmAllocator,
    kernel: CpeKernel,
    arg: usize,
) -> CpeCounters {
    let mut ctx = CpeCtx::with_ldm(cpe, cfg, ldm.clone());
    kernel(&mut ctx, arg);
    // Capture the kernel-window LDM peak at the end of the kernel, so the
    // high-water survives however many alloc/free cycles the
    // double-buffered loop went through.
    ctx.counters.ldm_high_water = ctx.counters.ldm_high_water.max(ldm.high_water() as u64);
    ctx.counters
}

/// A simulated core group: the MPE thread plus a persistent pool of helper
/// threads executing the logical CPEs, with aggregated performance counters.
///
/// Mirrors the Athread lifecycle:
/// `athread_init` → [`CoreGroup::new`], `athread_spawn` → [`CoreGroup::spawn`],
/// `athread_join` → [`CoreGroup::join`], `athread_halt` → `Drop`.
pub struct CoreGroup {
    cfg: CgConfig,
    /// Execution slots including the MPE (slot 0). CPE `c` runs on slot
    /// `c % slots`; helper `workers[i]` owns slot `i + 1`.
    slots: usize,
    workers: Vec<Worker>,
    results_rx: mpsc::Receiver<KernelResult>,
    /// The MPE's share of an outstanding launch, executed in `join()`.
    pending: Option<(CpeKernel, usize)>,
    counters: CgCounters,
    /// Per-launch scratch, reused so the steady state allocates nothing.
    per_cpe: Vec<CpeCounters>,
    /// Persistent LDM allocators for the MPE-slot CPEs (`c % slots == 0`).
    mpe_ldm: Vec<LdmAllocator>,
}

impl CoreGroup {
    /// Boot a core group. `cfg.host_workers` is an upper bound on host
    /// threads; the effective count is additionally capped by the machine's
    /// available parallelism, and the launching (MPE) thread always serves
    /// as one of the slots, so only `slots − 1` helper threads are spawned.
    pub fn new(cfg: CgConfig) -> Self {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let slots = cfg.host_workers.clamp(1, cfg.num_cpes).min(avail).max(1);
        let (results_tx, results_rx) = mpsc::channel::<KernelResult>();
        let mut workers = Vec::with_capacity(slots - 1);
        for slot in 1..slots {
            let (tx, rx) = mpsc::channel::<WorkerMsg>();
            let results_tx = results_tx.clone();
            let cfg = cfg.clone();
            let handle = std::thread::Builder::new()
                .name(format!("cpe-worker-{slot}"))
                .spawn(move || {
                    let my_cpes: Vec<usize> =
                        (0..cfg.num_cpes).filter(|c| c % slots == slot).collect();
                    let pools: Vec<LdmAllocator> = my_cpes
                        .iter()
                        .map(|_| LdmAllocator::new(cfg.ldm_bytes))
                        .collect();
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            WorkerMsg::Launch { kernel, arg } => {
                                // Kernel panics (e.g. LDM overflow) are
                                // caught and re-raised on the joining MPE
                                // thread, like a device abort surfacing
                                // at synchronization.
                                let run =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        my_cpes
                                            .iter()
                                            .zip(&pools)
                                            .map(|(&cpe, ldm)| {
                                                (cpe, run_cpe(cpe, &cfg, ldm, kernel, arg))
                                            })
                                            .collect::<Vec<_>>()
                                    }));
                                // Receiver only disappears if the CG was
                                // dropped mid-kernel; nothing to do then.
                                let _ = results_tx.send(run.map_err(panic_message));
                            }
                            WorkerMsg::Shutdown => break,
                        }
                    }
                })
                .expect("failed to spawn CPE worker thread");
            workers.push(Worker {
                tx,
                handle: Some(handle),
            });
        }
        let mpe_cpes = (0..cfg.num_cpes).filter(|c| c % slots == 0).count();
        let mpe_ldm = (0..mpe_cpes)
            .map(|_| LdmAllocator::new(cfg.ldm_bytes))
            .collect();
        let per_cpe = vec![CpeCounters::default(); cfg.num_cpes];
        Self {
            cfg,
            slots,
            workers,
            results_rx,
            pending: None,
            counters: CgCounters::default(),
            per_cpe,
            mpe_ldm,
        }
    }

    /// The hardware configuration this CG was booted with.
    pub fn config(&self) -> &CgConfig {
        &self.cfg
    }

    /// `athread_spawn`: launch `kernel` on every logical CPE.
    ///
    /// `arg` is the single pointer-sized opaque argument the real API
    /// allows. Only one kernel may be outstanding, as on hardware.
    /// Helper threads start immediately; the MPE's own share runs when the
    /// launching thread blocks in [`Self::join`].
    ///
    /// # Panics
    /// If a previous launch has not been joined.
    pub fn spawn(&mut self, kernel: CpeKernel, arg: usize) {
        assert!(
            self.pending.is_none(),
            "athread_spawn while a kernel is outstanding; call join() first"
        );
        self.pending = Some((kernel, arg));
        for w in &self.workers {
            w.tx.send(WorkerMsg::Launch { kernel, arg })
                .expect("CPE worker thread died");
        }
    }

    /// `athread_join`: execute the MPE's share of the outstanding kernel,
    /// wait for the helper threads, and fold all counters into the CG
    /// aggregate.
    ///
    /// # Panics
    /// If no kernel is outstanding, or if the kernel panicked on any CPE.
    pub fn join(&mut self) {
        let (kernel, arg) = self
            .pending
            .take()
            .expect("athread_join without a pending kernel");
        for c in self.per_cpe.iter_mut() {
            *c = CpeCounters::default();
        }
        let mut failure: Option<String> = None;
        // MPE share: CPEs c with c % slots == 0, inline on this thread.
        // One unwind guard covers the whole share; a panic (e.g. LDM
        // overflow) abandons the remaining CPEs and surfaces below.
        let slots = self.slots;
        let cfg = &self.cfg;
        let mpe_ldm = &self.mpe_ldm;
        let per_cpe = &mut self.per_cpe;
        if let Err(e) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for (i, ldm) in mpe_ldm.iter().enumerate() {
                let cpe = i * slots;
                per_cpe[cpe] = run_cpe(cpe, cfg, ldm, kernel, arg);
            }
        })) {
            failure = Some(panic_message(e));
        }
        for _ in 0..self.workers.len() {
            let chunk = self
                .results_rx
                .recv()
                .expect("CPE worker thread died before reporting");
            match chunk {
                Ok(list) => {
                    for (cpe, counters) in list {
                        self.per_cpe[cpe] = counters;
                    }
                }
                Err(e) => failure = Some(e),
            }
        }
        if let Some(e) = failure {
            panic!("CPE kernel failed: {e}");
        }
        self.counters.record_kernel(&self.per_cpe);
    }

    /// Convenience: `spawn` + `join`.
    pub fn run(&mut self, kernel: CpeKernel, arg: usize) {
        self.spawn(kernel, arg);
        self.join();
    }

    /// Aggregated counters over all kernels launched so far.
    pub fn counters(&self) -> &CgCounters {
        &self.counters
    }

    /// Reset aggregated counters (e.g. after warm-up).
    pub fn reset_counters(&mut self) {
        self.counters = CgCounters::default();
    }
}

impl Drop for CoreGroup {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(WorkerMsg::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn count_kernel(ctx: &mut CpeCtx, arg: usize) {
        // arg is a *const AtomicU64 in disguise — the C-like boundary.
        // SAFETY: every caller passes the address of an `AtomicU64` that
        // outlives its blocking `CoreGroup::run`; the CPEs share it only
        // through atomic operations.
        let counter = unsafe { &*(arg as *const AtomicU64) };
        counter.fetch_add(1 + ctx.cpe_id() as u64, Ordering::Relaxed);
        ctx.account_flops_scalar(10);
    }

    #[test]
    fn kernel_runs_on_every_cpe_exactly_once() {
        let cfg = CgConfig::test_small();
        let n = cfg.num_cpes as u64;
        let mut cg = CoreGroup::new(cfg);
        let counter = AtomicU64::new(0);
        cg.run(count_kernel, &counter as *const _ as usize);
        // sum of (1 + id) over ids 0..n = n + n(n-1)/2
        assert_eq!(counter.load(Ordering::Relaxed), n + n * (n - 1) / 2);
        assert_eq!(cg.counters().kernels_launched, 1);
        assert_eq!(cg.counters().totals.flops, 10 * n);
    }

    #[test]
    fn stall_cycles_measure_unhidden_transfer_time() {
        fn stalled(ctx: &mut CpeCtx, _: usize) {
            let h = ctx.dma_get_async_model(1 << 16, 1 << 20);
            // No compute issued: the whole transfer is a stall.
            ctx.dma_wait(h);
        }
        fn hidden(ctx: &mut CpeCtx, _: usize) {
            let h = ctx.dma_get_async_model(1 << 16, 1 << 20);
            ctx.account_cycles(100_000_000);
            ctx.dma_wait(h);
        }
        let mut cg = CoreGroup::new(CgConfig::test_small());
        cg.run(stalled, 0);
        assert!(cg.counters().totals.dma_stall_cycles > 0);
        let mut cg2 = CoreGroup::new(CgConfig::test_small());
        cg2.run(hidden, 0);
        assert_eq!(cg2.counters().totals.dma_stall_cycles, 0);
    }

    #[test]
    fn chunked_model_transfer_pays_latency_per_chunk() {
        fn one_chunk(ctx: &mut CpeCtx, _: usize) {
            let h = ctx.dma_get_async_model(64 * 1024, 64 * 1024);
            ctx.dma_wait(h);
        }
        fn many_chunks(ctx: &mut CpeCtx, _: usize) {
            let h = ctx.dma_get_async_model(64 * 1024, 4 * 1024);
            ctx.dma_wait(h);
        }
        let mut a = CoreGroup::new(CgConfig::test_small());
        a.run(one_chunk, 0);
        let mut b = CoreGroup::new(CgConfig::test_small());
        b.run(many_chunks, 0);
        assert!(b.counters().totals.dma_transactions > a.counters().totals.dma_transactions);
        assert!(b.counters().kernel_cycles > a.counters().kernel_cycles);
        // Same traffic either way.
        assert_eq!(
            a.counters().totals.dma_get_bytes,
            b.counters().totals.dma_get_bytes
        );
    }

    #[test]
    fn ldm_high_water_reported_without_dma() {
        // The high-water must be captured at kernel end, not only when a
        // DMA transaction happens to record it.
        fn alloc_only(ctx: &mut CpeCtx, _: usize) {
            let _buf = ctx.ldm().reserve(1024, "", 0).unwrap();
        }
        let mut cg = CoreGroup::new(CgConfig::test_small());
        cg.run(alloc_only, 0);
        assert_eq!(cg.counters().totals.ldm_high_water, 1024);
    }

    #[test]
    fn persistent_ldm_pools_reset_between_launches() {
        fn big(ctx: &mut CpeCtx, _: usize) {
            let _buf = ctx.ldm().reserve(8 * 1024, "", 0).unwrap();
        }
        fn small(ctx: &mut CpeCtx, _: usize) {
            let _buf = ctx.ldm().reserve(16, "", 0).unwrap();
        }
        let mut cg = CoreGroup::new(CgConfig::test_small());
        cg.run(big, 0);
        let snap = cg.counters().clone();
        cg.run(small, 0);
        let window = cg.counters().delta(&snap);
        // The second kernel's peak is its own, not the lifetime peak of the
        // persistent allocator.
        assert_eq!(window.totals.ldm_high_water, 8 * 1024);
        assert_eq!(cg.counters().totals.ldm_high_water, 8 * 1024);
    }

    #[test]
    #[should_panic(expected = "athread_spawn while a kernel is outstanding")]
    fn double_spawn_panics() {
        let mut cg = CoreGroup::new(CgConfig::test_small());
        fn nop(_: &mut CpeCtx, _: usize) {}
        cg.spawn(nop, 0);
        cg.spawn(nop, 0);
    }

    #[test]
    #[should_panic(expected = "CPE kernel failed")]
    fn kernel_panic_surfaces_at_join() {
        let mut cg = CoreGroup::new(CgConfig::test_small());
        fn bad(ctx: &mut CpeCtx, _: usize) {
            // Overflow the 16 kB test LDM on every CPE.
            let _ = ctx.ldm().reserve(1 << 20, "", 0).unwrap();
        }
        cg.run(bad, 0);
    }

    #[test]
    fn reset_counters_clears_history() {
        let mut cg = CoreGroup::new(CgConfig::test_small());
        fn busy(ctx: &mut CpeCtx, _: usize) {
            ctx.account_flops_scalar(5);
        }
        cg.run(busy, 0);
        assert!(cg.counters().kernel_cycles > 0);
        cg.reset_counters();
        assert_eq!(cg.counters().kernel_cycles, 0);
        assert_eq!(cg.counters().kernels_launched, 0);
    }

    #[test]
    fn simd_accounting_is_cheaper_than_scalar() {
        let cfg = CgConfig::default();
        let mut ctx = CpeCtx::new(0, &cfg);
        ctx.account_flops_simd(800);
        let simd_cycles = ctx.counters.cycles;
        let mut ctx2 = CpeCtx::new(0, &cfg);
        ctx2.account_flops_scalar(800);
        assert_eq!(simd_cycles, 100);
        assert_eq!(ctx2.counters.cycles, 800);
    }
}
