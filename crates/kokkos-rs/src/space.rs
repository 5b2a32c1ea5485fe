//! Execution spaces: where a kernel runs.
//!
//! Four backends, matching the paper's Table I coverage:
//!
//! * [`Space::Serial`] — reference loop; baseline for bitwise comparisons
//!   (plays the role of the original Fortran code path).
//! * [`Space::Threads`] — the process-wide host pool (`shims/rayon`, sized by
//!   `RAYON_NUM_THREADS`); the OpenMP analogue used on the ARM Taishan
//!   server. Dispatch is work-first, and `DeviceSim` shares pool and rules:
//!   a launch below `parallel`'s size gate runs on the launching thread;
//!   a larger one is published and the launcher starts on its chunks at
//!   once, waiting at the end only for workers that joined in time;
//!   a launcher that finds the pool serving another launch (another model,
//!   rank, server worker, or its own outer launch) runs the whole range.
//! * [`Space::DeviceSim`] — a CUDA/HIP-like device: kernels execute as a
//!   grid of tile-blocks, and launches are counted and carry a fixed
//!   overhead. Its kernels read the same host views every other space
//!   reads; a [`crate::MemSpace::Device`] view and the `deep_copy` that
//!   stages it exist for code that wants the tag and the copy's profiling
//!   event, and the model places none.
//! * [`Space::SwAthread`] — the Sunway backend (this work): launches go
//!   through the functor registry to a pre-registered trampoline executed
//!   by a simulated CPE cluster, with LDM/DMA cycle accounting.
//!
//! A `Space` is chosen at runtime (`Space::from_name`), so the *same model
//! binary* runs on every backend — the heart of the portability claim.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sunway_sim::{CgConfig, CgCounters, CoreGroup};

/// Marker for the host-parallel space on the shared pool.
#[derive(Clone, Debug, Default)]
pub struct ThreadsSpace;

/// Simulated discrete accelerator.
#[derive(Clone)]
pub struct DeviceSpace {
    /// Threads per block — metadata mirroring CUDA launch geometry.
    pub threads_per_block: usize,
    launches: Arc<AtomicU64>,
}

impl DeviceSpace {
    pub fn new() -> Self {
        Self {
            threads_per_block: 256,
            launches: Arc::new(AtomicU64::new(0)),
        }
    }

    pub(crate) fn record_launch(&self) {
        self.launches.fetch_add(1, Ordering::Relaxed);
    }

    /// Kernel launches issued on this device so far.
    pub fn launches(&self) -> u64 {
        self.launches.load(Ordering::Relaxed)
    }
}

impl Default for DeviceSpace {
    fn default() -> Self {
        Self::new()
    }
}

/// The Sunway Athread space: one simulated core group.
#[derive(Clone)]
pub struct SwSpace {
    pub(crate) cg: Arc<Mutex<CoreGroup>>,
    /// Immutable copy of the CG's hardware description, kept outside the
    /// mutex so per-launch tile sizing doesn't take the lock.
    cfg: CgConfig,
}

impl SwSpace {
    pub fn new(cfg: CgConfig) -> Self {
        Self {
            cg: Arc::new(Mutex::new(CoreGroup::new(cfg.clone()))),
            cfg,
        }
    }

    /// The core group's hardware configuration (for cost-model-driven
    /// tile sizing at dispatch time).
    pub fn config(&self) -> &CgConfig {
        &self.cfg
    }

    /// Snapshot of the core group's aggregated counters.
    pub fn counters(&self) -> CgCounters {
        self.cg.lock().counters().clone()
    }

    /// Reset the core group's counters.
    pub fn reset_counters(&self) {
        self.cg.lock().reset_counters();
    }

    /// CPE clock (Hz), for converting counters to simulated seconds.
    pub fn clock_hz(&self) -> f64 {
        self.cfg.clock_hz
    }
}

/// A runtime-selected execution space.
#[derive(Clone)]
pub enum Space {
    Serial,
    Threads(ThreadsSpace),
    DeviceSim(DeviceSpace),
    SwAthread(SwSpace),
}

impl Space {
    /// Serial reference space.
    pub fn serial() -> Self {
        Space::Serial
    }

    /// Host-parallel space on the process-wide pool.
    pub fn threads() -> Self {
        Space::Threads(ThreadsSpace)
    }

    /// Simulated GPU device.
    pub fn device_sim() -> Self {
        Space::DeviceSim(DeviceSpace::new())
    }

    /// Simulated Sunway core group with default SW26010 Pro configuration.
    pub fn sw_athread() -> Self {
        Space::SwAthread(SwSpace::new(CgConfig::default()))
    }

    /// Simulated Sunway core group with a custom configuration (tests use
    /// a small one for speed).
    pub fn sw_athread_with(cfg: CgConfig) -> Self {
        Space::SwAthread(SwSpace::new(cfg))
    }

    /// Parse a backend name (CLI/environment selection).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "serial" => Some(Self::serial()),
            "threads" | "openmp" => Some(Self::threads()),
            "devicesim" | "device" | "cuda" | "hip" | "gpu" => Some(Self::device_sim()),
            "swathread" | "sunway" | "athread" => Some(Self::sw_athread()),
            _ => None,
        }
    }

    /// Backend name.
    pub fn name(&self) -> &'static str {
        match self {
            Space::Serial => "Serial",
            Space::Threads(_) => "Threads",
            Space::DeviceSim(_) => "DeviceSim",
            Space::SwAthread(_) => "SwAthread",
        }
    }
}

impl std::fmt::Debug for Space {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Space::{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_roundtrip() {
        for name in ["Serial", "Threads", "DeviceSim", "SwAthread"] {
            let s = Space::from_name(name).unwrap();
            assert_eq!(s.name(), name);
        }
        assert!(Space::from_name("tpu").is_none());
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(Space::from_name("cuda").unwrap().name(), "DeviceSim");
        assert_eq!(Space::from_name("sunway").unwrap().name(), "SwAthread");
        assert_eq!(Space::from_name("openmp").unwrap().name(), "Threads");
    }
}
