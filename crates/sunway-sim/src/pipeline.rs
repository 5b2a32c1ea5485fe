//! Double-buffered DMA streaming — the paper's §V-C2 Sunway optimization.
//!
//! "Whenever the Sunway system is used, we adopt a double-buffered
//! technique that leverages the asynchronous mechanism of the Sunway
//! architecture between the CPE workload execution and DMA transfers."
//!
//! [`DmaPipe`] is that schedule as the SwAthread backend charges it: while
//! tile `n` is being computed, tile `n+1` is already streaming in and tile
//! `n-1`'s results are streaming out, through two LDM buffers. A CPE whose
//! share is one tile takes [`stream_single_tile`] instead. Both are
//! accounting only (the functor reads host memory directly), and in the
//! simulated clock the transfer time genuinely disappears behind compute
//! (see the tests); on real hardware this is the difference between a
//! memory-latency-bound and a bandwidth-bound kernel. The module also
//! holds the Eq. 1/2 tile choice ([`choose_tile_elems`]) and the
//! DMA-vs-compute crossover ([`dma_crossover_iters`]).

use crate::athread::CpeCtx;
use crate::config::CgConfig;
use crate::dma::DmaHandle;
use crate::ldm::LdmReservation;

/// Put handles kept in flight by [`DmaPipe`] — double buffering: the
/// current tile's write-back plus the previous one still draining.
pub const MAX_PUTS_IN_FLIGHT: usize = 2;

/// Bytes of LDM one streaming buffer may occupy: a quarter of capacity,
/// so the double-buffered pair (in-flight + compute tile) takes half and
/// leaves the rest for write-back staging and kernel scratch — the split
/// the paper's advection kernel is sized around.
pub fn ldm_stream_budget(cfg: &CgConfig) -> usize {
    (cfg.ldm_bytes / 4).max(256)
}

/// Paper Eq. 1/2 DMA-vs-compute crossover: the smallest tile (in
/// iterations) for which the double-buffered pipeline fully hides DMA
/// behind compute. Below it, per-tile transaction latency leaks into the
/// critical path; above it the kernel is compute-bound.
///
/// With `c` compute cycles/iter (SIMD-folded), `b` transfer cycles/iter at
/// the contended per-CPE bandwidth share and fixed latency `L`:
/// compute hides the transfer when `c·T ≥ L + b·T`, i.e.
/// `T ≥ L / (c − b)`. For bandwidth-bound kernels (`b ≥ c`) the transfer
/// can never be fully hidden; the crossover is then the tile at which the
/// latency overhead falls under ~12% of the streaming time (`T ≥ 8L/b`).
pub fn dma_crossover_iters(cfg: &CgConfig, flops_per_iter: u64, bytes_per_iter: u64) -> u64 {
    let c = flops_per_iter as f64 / cfg.simd_f64_lanes.max(1) as f64;
    let per_cpe_bw = cfg.mem_bandwidth_bps / cfg.num_cpes.max(1) as f64;
    let b = bytes_per_iter as f64 * cfg.clock_hz / per_cpe_bw;
    let l = cfg.dma_latency_cycles as f64;
    let t = if c > b {
        l / (c - b)
    } else {
        8.0 * l / b.max(1e-9)
    };
    (t.ceil() as u64).max(1)
}

/// Cost-model-driven tile size (iterations) for a dense launch of
/// `total_iters` with `bytes_per_iter` of View traffic: the largest tile
/// that (a) keeps one double-buffered stream within the LDM budget
/// ([`ldm_stream_budget`]) and (b) still gives every CPE at least one tile
/// (paper Eq. 2 — `⌈total/num_cpe⌉`). Fewer, larger tiles amortize the
/// per-transaction DMA latency; the balance cap stops CPEs from idling.
pub fn choose_tile_elems(cfg: &CgConfig, bytes_per_iter: u64, total_iters: usize) -> usize {
    if total_iters == 0 {
        return 1;
    }
    let ldm_cap = (ldm_stream_budget(cfg) / bytes_per_iter.max(1) as usize).max(1);
    let balance_cap = total_iters.div_ceil(cfg.num_cpes.max(1)).max(1);
    ldm_cap.min(balance_cap)
}

/// The double-buffered DMA accounting pipeline for registry trampolines.
///
/// Kernels dispatched through the `kokkos-rs` SwAthread registry read host
/// memory directly (shared-space simulation), so no data is staged — but
/// on hardware each tile would stream through LDM. `DmaPipe` charges that
/// movement with the §V-C2 overlap schedule instead of the blocking
/// per-tile model: tile `n+1`'s DMA-get is issued before tile `n`'s
/// compute, write-backs drain asynchronously two-deep, and only transfer
/// time that compute fails to hide lands on the simulated clock (visible
/// as `dma_stall_cycles`). Two tile-sized LDM reservations model the
/// double-buffer residency for the whole kernel, so `ldm_high_water` and
/// [`crate::ldm::LdmOverflow`] behave as if the tiles were real.
pub struct DmaPipe {
    chunk_bytes: usize,
    next_get: Option<DmaHandle>,
    puts: [Option<DmaHandle>; MAX_PUTS_IN_FLIGHT],
    put_slot: usize,
    max_puts_observed: usize,
    _residency: [LdmReservation; 2],
}

impl DmaPipe {
    /// Open a pipeline for tiles of up to `tile_elems` f64 elements.
    /// Reserves the two LDM streaming buffers for the duration; each is
    /// capped at [`ldm_stream_budget`] — larger tiles stream through in
    /// chunks, paying one transaction latency per chunk.
    pub fn begin(ctx: &mut CpeCtx, tile_elems: usize) -> Self {
        let budget = ldm_stream_budget(ctx.config());
        let chunk_bytes = (tile_elems * std::mem::size_of::<f64>()).clamp(1, budget);
        let ldm = ctx.ldm();
        let a = ldm
            .reserve(chunk_bytes, "dma double-buffer tile A", tile_elems)
            .unwrap_or_else(|e| panic!("{e}"));
        let b = ldm
            .reserve(chunk_bytes, "dma double-buffer tile B", tile_elems)
            .unwrap_or_else(|e| panic!("{e}"));
        Self {
            chunk_bytes,
            next_get: None,
            puts: [None, None],
            put_slot: 0,
            max_puts_observed: 0,
            _residency: [a, b],
        }
    }

    /// Process one tile: wait for its (prefetched) DMA-in, prefetch the
    /// following tile (`next_in_bytes`), run `compute`, and stream
    /// `out_bytes` of results back asynchronously. Also records the tile
    /// in the dispatch accounting.
    pub fn tile(
        &mut self,
        ctx: &mut CpeCtx,
        in_bytes: u64,
        out_bytes: u64,
        next_in_bytes: Option<u64>,
        compute: impl FnOnce(&mut CpeCtx),
    ) {
        let get = self
            .next_get
            .take()
            .unwrap_or_else(|| ctx.dma_get_async_model(in_bytes, self.chunk_bytes));
        if let Some(nb) = next_in_bytes {
            self.next_get = Some(ctx.dma_get_async_model(nb, self.chunk_bytes));
        }
        ctx.dma_wait(get);
        compute(ctx);
        if out_bytes > 0 {
            // Reusing this write-back buffer requires its previous put to
            // have drained — the only ordering the double buffer imposes.
            if let Some(prev) = self.puts[self.put_slot].take() {
                ctx.dma_wait(prev);
            }
            self.puts[self.put_slot] = Some(ctx.dma_put_async_model(out_bytes, self.chunk_bytes));
            self.put_slot = (self.put_slot + 1) % MAX_PUTS_IN_FLIGHT;
            let in_flight = self.puts.iter().filter(|p| p.is_some()).count();
            self.max_puts_observed = self.max_puts_observed.max(in_flight);
        }
        ctx.account_tiles(1);
    }

    /// Peak put handles simultaneously in flight (bounded by
    /// [`MAX_PUTS_IN_FLIGHT`]); exposed for tests.
    pub fn max_puts_in_flight(&self) -> usize {
        self.max_puts_observed
    }

    /// Drain the pipeline: all outstanding write-backs (and any unconsumed
    /// prefetch) must complete before the kernel returns, exactly like the
    /// final `dma_wait` of the hardware loop.
    pub fn finish(mut self, ctx: &mut CpeCtx) {
        if let Some(h) = self.next_get.take() {
            ctx.dma_wait(h);
        }
        for p in self.puts.iter_mut() {
            if let Some(h) = p.take() {
                ctx.dma_wait(h);
            }
        }
    }
}

/// Fast path for a CPE whose entire share of a launch is a single tile:
/// with no second tile there is nothing to overlap, so the §V-C2 pipeline
/// degenerates to one staged round-trip through a single LDM buffer. The
/// cycle accounting is identical to what [`DmaPipe`] would charge for the
/// same schedule (get → wait → compute → put → drain), but without the
/// double-buffer reservation and in-flight bookkeeping — this is the
/// common case for the many small 2-D kernels of the barotropic substep
/// loop, where per-launch dispatch cost dominates.
pub fn stream_single_tile(
    ctx: &mut CpeCtx,
    tile_elems: usize,
    in_bytes: u64,
    out_bytes: u64,
    compute: impl FnOnce(&mut CpeCtx),
) {
    let budget = ldm_stream_budget(ctx.config());
    let chunk_bytes = (tile_elems * std::mem::size_of::<f64>()).clamp(1, budget);
    let _residency = ctx
        .ldm()
        .reserve(chunk_bytes, "dma single-tile buffer", tile_elems)
        .unwrap_or_else(|e| panic!("{e}"));
    let get = ctx.dma_get_async_model(in_bytes, chunk_bytes);
    ctx.dma_wait(get);
    compute(ctx);
    let put = ctx.dma_put_async_model(out_bytes, chunk_bytes);
    ctx.dma_wait(put);
    ctx.account_tiles(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::athread::{CoreGroup, CpeCtx};
    use crate::config::CgConfig;

    // ---- DmaPipe ----------------------------------------------------------

    struct PipeProbe {
        tiles: Vec<(u64, u64)>, // (in_bytes, out_bytes)
        compute_per_tile: u64,
        max_puts: usize,
        stall: u64,
        cycles: u64,
        high_water: u64,
        tile_count: u64,
    }

    fn pipe_kernel(ctx: &mut CpeCtx, arg: usize) {
        if ctx.cpe_id() != 0 {
            return;
        }
        // SAFETY: `arg` is the address of the `PipeProbe` its caller keeps
        // alive across the blocking `CoreGroup::run`, and only CPE 0 gets
        // past the check above, so this is the probe's one reference.
        let probe = unsafe { &mut *(arg as *mut PipeProbe) };
        let mut pipe = DmaPipe::begin(ctx, 256);
        for (i, &(inb, outb)) in probe.tiles.iter().enumerate() {
            let next = probe.tiles.get(i + 1).map(|&(nb, _)| nb);
            let work = probe.compute_per_tile;
            pipe.tile(ctx, inb, outb, next, |ctx| ctx.account_cycles(work));
        }
        probe.max_puts = pipe.max_puts_in_flight();
        pipe.finish(ctx);
        probe.stall = ctx.counters.dma_stall_cycles;
        probe.cycles = ctx.counters.cycles;
        probe.high_water = ctx.ldm().high_water() as u64;
        probe.tile_count = ctx.counters.tiles;
    }

    fn run_pipe(tiles: Vec<(u64, u64)>, compute_per_tile: u64) -> PipeProbe {
        let mut cg = CoreGroup::new(CgConfig::test_small());
        let mut probe = PipeProbe {
            tiles,
            compute_per_tile,
            max_puts: 0,
            stall: 0,
            cycles: 0,
            high_water: 0,
            tile_count: 0,
        };
        cg.run(pipe_kernel, &mut probe as *mut PipeProbe as usize);
        probe
    }

    /// Charge the time and traffic of a blocking DMA round-trip of `bytes`:
    /// one transaction's latency plus the whole stream, all stalled. The
    /// unpipelined baseline the pipe is held to beating.
    fn account_dma_traffic(ctx: &mut CpeCtx, bytes: usize) {
        ctx.counters.dma_transactions += 1;
        ctx.counters.dma_get_bytes += bytes as u64;
        // The stream at this CPE's share of the CG bandwidth, as
        // `CpeCtx::dma_async_model` charges every launch.
        let cfg = ctx.config();
        let per_cpe_bw = cfg.mem_bandwidth_bps / ctx.num_cpes() as f64;
        let t = cfg.dma_latency_cycles + (bytes as f64 / per_cpe_bw * cfg.clock_hz).ceil() as u64;
        ctx.counters.dma_stall_cycles += t;
        ctx.counters.cycles += t;
    }

    #[test]
    fn pipe_overlap_beats_blocking_model() {
        // Heavy compute per tile: the pipelined schedule should hide the
        // streaming almost entirely, while the blocking model pays it all.
        let tiles = vec![(4096u64, 4096u64); 16];
        let piped = run_pipe(tiles.clone(), 200_000);

        fn blocking_kernel(ctx: &mut CpeCtx, arg: usize) {
            if ctx.cpe_id() != 0 {
                return;
            }
            // SAFETY: as in `pipe_kernel`: a live probe, CPE 0 its one user.
            let probe = unsafe { &mut *(arg as *mut PipeProbe) };
            for &(inb, outb) in probe.tiles.iter() {
                account_dma_traffic(ctx, (inb + outb) as usize);
                ctx.account_cycles(probe.compute_per_tile);
            }
            probe.cycles = ctx.counters.cycles;
        }
        let mut cg = CoreGroup::new(CgConfig::test_small());
        let mut probe = PipeProbe {
            tiles,
            compute_per_tile: 200_000,
            max_puts: 0,
            stall: 0,
            cycles: 0,
            high_water: 0,
            tile_count: 0,
        };
        cg.run(blocking_kernel, &mut probe as *mut PipeProbe as usize);
        assert!(
            piped.cycles < probe.cycles,
            "pipelined {} vs blocking {}",
            piped.cycles,
            probe.cycles
        );
        // With 200k cycles of compute per tile, everything but the first
        // get and final drain hides: stall must be a small fraction.
        assert!(
            (piped.stall as f64) < 0.1 * piped.cycles as f64,
            "stall {} of {}",
            piped.stall,
            piped.cycles
        );
    }

    #[test]
    fn pipe_put_depth_is_bounded() {
        let probe = run_pipe(vec![(1024, 1024); 32], 10);
        assert!(probe.max_puts >= 1);
        assert!(probe.max_puts <= MAX_PUTS_IN_FLIGHT);
        assert_eq!(probe.tile_count, 32);
    }

    #[test]
    fn pipe_reserves_double_buffer_residency() {
        let probe = run_pipe(vec![(2048, 0); 4], 10);
        // Two 256-elem f64 buffers = 2 * 2048 B of LDM residency.
        assert_eq!(probe.high_water, 2 * 2048);
    }

    #[test]
    fn pipe_accounting_is_deterministic() {
        let a = run_pipe(vec![(3000, 1000); 20], 5_000);
        let b = run_pipe(vec![(3000, 1000); 20], 5_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stall, b.stall);
    }

    // ---- tile chooser ------------------------------------------------------

    #[test]
    fn chosen_tile_fits_ldm_budget() {
        let cfg = CgConfig::test_small(); // 16 kB LDM → 4 kB budget
        let t = choose_tile_elems(&cfg, 48, 1_000_000);
        assert!(t * 48 <= ldm_stream_budget(&cfg));
        assert!(t >= 1);
    }

    #[test]
    fn chosen_tile_keeps_every_cpe_busy() {
        let cfg = CgConfig::default(); // 64 CPEs, 256 kB LDM
        let total = 3036; // one 2-D level of the wetset bench
        let t = choose_tile_elems(&cfg, 48, total);
        let tiles = total.div_ceil(t);
        assert!(
            tiles >= cfg.num_cpes,
            "only {tiles} tiles for {} CPEs",
            cfg.num_cpes
        );
    }

    #[test]
    fn crossover_matches_closed_form() {
        let cfg = CgConfig::default();
        // Compute-bound: c = 200/8 = 25 cycles/iter, b ≈ 8*2.25e9/0.8e9 = 22.5
        let t = dma_crossover_iters(&cfg, 200, 8);
        let c = 200.0 / 8.0;
        let b = 8.0 * cfg.clock_hz / (cfg.mem_bandwidth_bps / 64.0);
        let expect = (cfg.dma_latency_cycles as f64 / (c - b)).ceil() as u64;
        assert_eq!(t, expect);
        // Bandwidth-bound kernels report the latency-amortization tile.
        let t2 = dma_crossover_iters(&cfg, 8, 64);
        assert!(t2 >= 1);
    }
}
