//! DMA engine cost model.
//!
//! CPEs cannot address main memory efficiently word-by-word; bulk transfers
//! between main memory and LDM go through a DMA engine. The paper's
//! architecture-specific optimizations for Sunway revolve around this:
//! *double-buffering* overlaps the next tile's DMA-get with the current
//! tile's compute (§V-C2), and the 3D-halo transpose kernels are written to
//! turn strided accesses into contiguous DMA streams (§V-D).
//!
//! No data moves (kernels read host memory directly in the shared-space
//! simulation); a transfer is charged, and costs `latency + bytes /
//! (bandwidth / active_cpes)` cycles. Asynchronous transfers
//! (`CpeCtx::dma_get_async_model` / `dma_put_async_model`) return a
//! [`DmaHandle`] whose `ready_at` cycle stamp is resolved by
//! `CpeCtx::dma_wait`, so overlapped kernels genuinely hide transfer time in
//! the simulated clock.

/// Cycles charged for issuing an asynchronous DMA descriptor (the CPE keeps
/// running afterwards).
pub const DMA_ISSUE_CYCLES: u64 = 32;

/// LDM streaming rate in bytes per cycle (vector load/store of 512-bit
/// lines). Used by `CpeCtx::account_ldm_traffic`.
pub const LDM_BYTES_PER_CYCLE: u64 = 32;

/// Handle to an in-flight asynchronous DMA transfer.
///
/// No data moves (the kernel reads host memory directly); the handle only
/// carries *time*. Waiting on it advances the CPE clock to `ready_at` if the
/// transfer has not yet "completed" — i.e. compute that ran between issue
/// and wait is overlapped for free, exactly like hardware double-buffering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an unawaited DMA transfer hides no latency; call CpeCtx::dma_wait"]
pub struct DmaHandle {
    /// Simulated CPE cycle at which the transfer completes.
    pub ready_at: u64,
    /// Bytes moved (for counter bookkeeping, already recorded at issue).
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_is_plain_data() {
        let h = DmaHandle {
            ready_at: 100,
            bytes: 64,
        };
        let h2 = h;
        assert_eq!(h, h2);
    }
}
