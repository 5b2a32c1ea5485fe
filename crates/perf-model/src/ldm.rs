//! LDM tiling cost model — the analytic side of paper Eq. (1)/(2).
//!
//! The simulated Sunway backend (`sunway-sim`) sizes CPE tiles at
//! dispatch time from the double-buffer crossover: a tile is big enough
//! when its compute hides the DMA transfer behind it. This module asks the
//! same rule (`sunway_sim::pipeline`) from machine parameters instead of a
//! live core group, so projections and calibration can predict
//!
//! * the crossover tile (iterations) past which DMA is hidden,
//! * the tile the dispatcher will actually pick for a launch, and
//! * the residual DMA stall fraction at that tile (measured: the
//!   simulator's `dma_stall_cycles` share).
//!
//! The first two are the dispatcher's own functions.

use sunway_sim::{pipeline, CgConfig};

/// CPE-side machine parameters the tiling model needs: `sunway_sim::CgConfig`
/// less its host worker count (same meanings, same SW26010 Pro defaults).
#[derive(Debug, Clone)]
pub struct CpeParams {
    /// CPEs per core group sharing the memory interface.
    pub num_cpes: usize,
    /// LDM bytes per CPE.
    pub ldm_bytes: usize,
    /// CPE clock, Hz.
    pub clock_hz: f64,
    /// Aggregate CG memory bandwidth, bytes/s.
    pub mem_bw_bps: f64,
    /// Fixed startup latency of one DMA transaction, CPE cycles.
    pub dma_latency_cycles: u64,
    /// SIMD width in f64 lanes.
    pub simd_f64_lanes: usize,
}

impl CpeParams {
    /// SW26010 Pro core group (Table II / §VI-A): 64 CPEs, 256 kB LDM,
    /// 2.25 GHz, 51.2 GB/s, ~1 µs DMA startup, 512-bit vectors.
    pub fn sw26010_pro() -> Self {
        Self {
            num_cpes: 64,
            ldm_bytes: 256 * 1024,
            clock_hz: 2.25e9,
            mem_bw_bps: 51.2e9,
            dma_latency_cycles: 2048,
            simd_f64_lanes: 8,
        }
    }

    /// The simulator's configuration with these parameters; one host
    /// worker, as only its arithmetic is read (no probe of the host).
    fn config(&self) -> CgConfig {
        CgConfig {
            num_cpes: self.num_cpes,
            ldm_bytes: self.ldm_bytes,
            clock_hz: self.clock_hz,
            mem_bandwidth_bps: self.mem_bw_bps,
            dma_latency_cycles: self.dma_latency_cycles,
            simd_f64_lanes: self.simd_f64_lanes,
            host_workers: 1,
        }
    }

    /// LDM bytes one double-buffered stream may claim (a quarter of LDM).
    pub fn ldm_stream_budget(&self) -> usize {
        pipeline::ldm_stream_budget(&self.config())
    }

    /// Compute cycles per iteration, SIMD-folded.
    fn compute_cycles(&self, flops_per_iter: u64) -> f64 {
        flops_per_iter as f64 / self.simd_f64_lanes.max(1) as f64
    }

    /// Transfer cycles per iteration at the contended per-CPE bandwidth
    /// share (all CPEs streaming at once — the §VII-D bottleneck regime).
    fn transfer_cycles(&self, bytes_per_iter: u64) -> f64 {
        let per_cpe_bw = self.mem_bw_bps / self.num_cpes.max(1) as f64;
        bytes_per_iter as f64 * self.clock_hz / per_cpe_bw
    }

    /// Paper Eq. 1/2 crossover: smallest tile (iterations) at which the
    /// double-buffered pipeline hides DMA behind compute — `T ≥ L/(c−b)`
    /// when compute-bound, else the latency-amortization point `T ≥ 8L/b`
    /// (`pipeline::dma_crossover_iters`).
    pub fn dma_crossover_iters(&self, flops_per_iter: u64, bytes_per_iter: u64) -> u64 {
        pipeline::dma_crossover_iters(&self.config(), flops_per_iter, bytes_per_iter)
    }

    /// The tile the dispatcher picks for a dense launch: largest tile
    /// within the LDM stream budget, capped so every CPE gets at least
    /// one tile (`pipeline::choose_tile_elems`).
    pub fn choose_tile_elems(&self, bytes_per_iter: u64, total_iters: usize) -> usize {
        pipeline::choose_tile_elems(&self.config(), bytes_per_iter, total_iters)
    }

    /// Steady-state DMA stall fraction of the pipeline at tile size
    /// `tile_iters`: per tile the transfer costs `L + b·T` cycles and the
    /// compute `c·T`; the double buffer overlaps them, so only the excess
    /// `max(0, (L + b·T) − c·T)` stalls the CPE. The fraction is stall
    /// over total occupied cycles, `max(c·T, L + b·T)`.
    ///
    /// This is the analytic prediction for the measured
    /// `cg_dma_stall_fraction`; it ignores ramp-up (first get) and drain
    /// (last puts), so it underestimates slightly for few-tile launches.
    pub fn predicted_stall_fraction(
        &self,
        flops_per_iter: u64,
        bytes_per_iter: u64,
        tile_iters: usize,
    ) -> f64 {
        let t = tile_iters.max(1) as f64;
        let compute = self.compute_cycles(flops_per_iter) * t;
        let transfer = self.dma_latency_cycles as f64 + self.transfer_cycles(bytes_per_iter) * t;
        let stall = (transfer - compute).max(0.0);
        stall / compute.max(transfer).max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sw26010_defaults_match_simulator_defaults() {
        let cfg = CgConfig::default();
        let p = CpeParams::sw26010_pro();
        assert_eq!(p.num_cpes, cfg.num_cpes);
        assert_eq!(p.ldm_bytes, cfg.ldm_bytes);
        assert_eq!(p.clock_hz, cfg.clock_hz);
        assert_eq!(p.mem_bw_bps, cfg.mem_bandwidth_bps);
        assert_eq!(p.dma_latency_cycles, cfg.dma_latency_cycles);
        assert_eq!(p.simd_f64_lanes, cfg.simd_f64_lanes);
    }

    #[test]
    fn stall_fraction_drops_past_crossover() {
        // A compute-rich kernel: past the crossover tile the pipeline
        // hides DMA entirely; well below it, latency dominates.
        let p = CpeParams::sw26010_pro();
        let (flops, bytes) = (400, 16);
        let cross = p.dma_crossover_iters(flops, bytes) as usize;
        assert_eq!(p.predicted_stall_fraction(flops, bytes, cross), 0.0);
        assert!(p.predicted_stall_fraction(flops, bytes, cross.div_ceil(8)) > 0.0);
        // A bandwidth-bound kernel can never fully hide DMA.
        assert!(p.predicted_stall_fraction(2, 128, 1_000_000) > 0.5);
    }

    #[test]
    fn stall_fraction_monotone_in_tile() {
        let p = CpeParams::sw26010_pro();
        let mut last = f64::INFINITY;
        for tile in [1usize, 4, 16, 64, 256, 1024] {
            let f = p.predicted_stall_fraction(20, 48, tile);
            assert!(f <= last + 1e-12, "stall fraction rose at tile {tile}");
            last = f;
        }
    }
}
