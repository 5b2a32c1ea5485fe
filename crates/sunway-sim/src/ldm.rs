//! Local Data Memory (LDM) — the per-CPE software-managed scratchpad.
//!
//! Each SW26010 Pro CPE owns 256 kB of low-latency memory. Kernels stage
//! tiles of `View` data here via DMA, compute on them, and write results
//! back. The allocator is a classic bump allocator with scoped frees:
//! reservations decrement the watermark when dropped, and exceeding
//! capacity is a hard, *typed* failure — on real hardware it is a link-time
//! or runtime crash, and the paper's double-buffered advection kernel is
//! sized around exactly this limit.
//!
//! The allocator is cheaply cloneable (shared bookkeeping) so reservations
//! do not borrow the CPE context, letting kernels interleave them with
//! `&mut`-taking DMA calls — the natural shape of a double-buffered loop.
//!
//! Residency is accounting-only: [`LdmAllocator::reserve`] returns an
//! [`LdmReservation`] for the cycle-model pipelines in [`crate::pipeline`].
//! The functor reads host memory directly (shared-space simulation), but
//! the simulated LDM pays the residency of the double-buffered tiles it
//! would hold on hardware, so `high_water` and overflow behave exactly as
//! if the data were staged.
//!
//! Allocators are persistent across kernel launches (the [`crate::CoreGroup`]
//! keeps one per logical CPE); [`LdmAllocator::begin_kernel_window`] rewinds
//! the high-water mark at each launch so `high_water()` reports the peak of
//! the *current* kernel, surviving any number of free/realloc cycles of the
//! double-buffer pattern within it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Error returned when a kernel requests more LDM than remains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdmOverflow {
    /// Bytes requested by the failing reservation.
    pub requested: usize,
    /// Bytes still free at the time of the request.
    pub available: usize,
    /// Total LDM capacity of the CPE.
    pub capacity: usize,
    /// What the reservation was for (e.g. the pipeline's buffer role);
    /// may be empty.
    pub context: &'static str,
    /// Tile length (elements) being staged when the overflow hit, if the
    /// caller was tiling; 0 otherwise.
    pub tile_elems: usize,
}

impl std::fmt::Display for LdmOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LDM overflow: requested {} B, only {} B of {} B free",
            self.requested, self.available, self.capacity
        )?;
        if !self.context.is_empty() {
            write!(f, " ({})", self.context)?;
        }
        if self.tile_elems > 0 {
            write!(f, " [tile of {} elems]", self.tile_elems)?;
        }
        Ok(())
    }
}

impl std::error::Error for LdmOverflow {}

#[derive(Debug)]
struct LdmInner {
    capacity: usize,
    used: AtomicUsize,
    high_water: AtomicUsize,
}

/// Per-CPE scratchpad allocator. Logically single-threaded (one per logical
/// CPE, used by one kernel at a time); clones share the same bookkeeping.
/// Atomics (relaxed) rather than `Cell` so allocators can live in the
/// core group's persistent per-CPE pools and move across worker threads
/// between launches.
#[derive(Debug, Clone)]
pub struct LdmAllocator {
    inner: Arc<LdmInner>,
}

impl LdmAllocator {
    /// Create an allocator with `capacity` bytes (256 kB on SW26010 Pro).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(LdmInner {
                capacity,
                used: AtomicUsize::new(0),
                high_water: AtomicUsize::new(0),
            }),
        }
    }

    fn take(
        &self,
        bytes: usize,
        context: &'static str,
        tile_elems: usize,
    ) -> Result<(), LdmOverflow> {
        let used = self.inner.used.load(Ordering::Relaxed);
        if used + bytes > self.inner.capacity {
            return Err(LdmOverflow {
                requested: bytes,
                available: self.inner.capacity - used,
                capacity: self.inner.capacity,
                context,
                tile_elems,
            });
        }
        self.inner.used.store(used + bytes, Ordering::Relaxed);
        self.inner
            .high_water
            .fetch_max(used + bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Reserve `bytes` of residency without a backing buffer, as the
    /// cycle-model DMA pipelines stage a tile. Counts against capacity and
    /// the high-water mark; released on drop, so double-buffering loops
    /// reuse LDM across iterations.
    pub fn reserve(
        &self,
        bytes: usize,
        context: &'static str,
        tile_elems: usize,
    ) -> Result<LdmReservation, LdmOverflow> {
        self.take(bytes, context, tile_elems)?;
        Ok(LdmReservation {
            bytes,
            owner: Arc::clone(&self.inner),
        })
    }

    /// Start a kernel's accounting window: rewind the high-water mark to
    /// the current residency (normally zero between launches). Persistent
    /// per-CPE allocators call this at every `athread_spawn` so
    /// [`Self::high_water`] reports the peak of the running kernel rather
    /// than the lifetime peak.
    pub fn begin_kernel_window(&self) {
        self.inner
            .high_water
            .store(self.inner.used.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.inner.capacity - self.used()
    }

    /// Peak bytes allocated simultaneously since the last
    /// [`Self::begin_kernel_window`] (or creation).
    pub fn high_water(&self) -> usize {
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

/// Accounting-only LDM residency (see [`LdmAllocator::reserve`]).
#[derive(Debug)]
pub struct LdmReservation {
    bytes: usize,
    owner: Arc<LdmInner>,
}

impl LdmReservation {
    /// Reserved size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for LdmReservation {
    fn drop(&mut self) {
        self.owner.used.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let ldm = LdmAllocator::new(1024);
        {
            let a = ldm.reserve(512, "", 64).unwrap();
            assert_eq!(ldm.used(), 512);
            assert_eq!(a.bytes(), 512);
            let b = ldm.reserve(512, "", 0).unwrap(); // fills it
            assert_eq!(b.bytes(), 512);
            assert_eq!(ldm.available(), 0);
        }
        assert_eq!(ldm.used(), 0);
        assert_eq!(ldm.high_water(), 1024);
    }

    #[test]
    fn overflow_is_reported_with_sizes() {
        let ldm = LdmAllocator::new(100);
        let _a = ldm.reserve(60, "", 0).unwrap();
        let err = ldm.reserve(41, "", 0).unwrap_err();
        assert_eq!(err.requested, 41);
        assert_eq!(err.available, 40);
        assert_eq!(err.capacity, 100);
    }

    #[test]
    fn overflow_reports_context_and_tile() {
        let ldm = LdmAllocator::new(100);
        let err = ldm.reserve(256, "dma double-buffer tile", 32).unwrap_err();
        assert_eq!(err.context, "dma double-buffer tile");
        assert_eq!(err.tile_elems, 32);
        let msg = err.to_string();
        assert!(msg.contains("dma double-buffer tile"), "{msg}");
        assert!(msg.contains("32 elems"), "{msg}");
    }

    #[test]
    fn double_buffer_pattern_fits() {
        // The double-buffered DMA pattern reserves two tiles and ping-pongs;
        // capacity must be judged on simultaneous residency, not total
        // reservations over time.
        let ldm = LdmAllocator::new(1000);
        for _ in 0..100 {
            let t0 = ldm.reserve(400, "", 0).unwrap();
            let t1 = ldm.reserve(400, "", 0).unwrap();
            drop(t0);
            drop(t1);
        }
        assert_eq!(ldm.high_water(), 800);
    }

    #[test]
    fn high_water_survives_free_realloc_cycles_within_a_window() {
        let ldm = LdmAllocator::new(1000);
        ldm.begin_kernel_window();
        let big = ldm.reserve(700, "", 0).unwrap();
        drop(big);
        // A smaller steady-state residency must not erase the peak.
        let _small = ldm.reserve(100, "", 0).unwrap();
        assert_eq!(ldm.high_water(), 700);
        assert_eq!(ldm.used(), 100);
    }

    #[test]
    fn kernel_window_rewinds_high_water() {
        let ldm = LdmAllocator::new(1000);
        {
            let _a = ldm.reserve(900, "", 0).unwrap();
        }
        assert_eq!(ldm.high_water(), 900);
        // Next kernel launch on the persistent allocator: window resets.
        ldm.begin_kernel_window();
        assert_eq!(ldm.high_water(), 0);
        let _b = ldm.reserve(300, "", 0).unwrap();
        assert_eq!(ldm.high_water(), 300);
    }

    #[test]
    fn a_reservation_holds_its_bytes_until_dropped() {
        let ldm = LdmAllocator::new(1000);
        let r = ldm.reserve(400, "pipe", 50).unwrap();
        assert_eq!(r.bytes(), 400);
        assert_eq!(ldm.used(), 400);
        assert!(ldm.reserve(700, "", 0).is_err());
        drop(r);
        assert_eq!(ldm.used(), 0);
        assert!(ldm.reserve(700, "", 0).is_ok());
    }

    #[test]
    fn clones_share_bookkeeping() {
        let ldm = LdmAllocator::new(1024);
        let ldm2 = ldm.clone();
        let _a = ldm.reserve(100, "", 0).unwrap();
        assert_eq!(ldm2.used(), 100);
    }
}
