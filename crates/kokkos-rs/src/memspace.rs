//! Memory spaces.
//!
//! On ORISE, "the CPU and GPUs are interconnected through 32-bit PCIe buses
//! featuring a DMA with a bandwidth of 16 GB/s", and because the systems
//! "lack support for GPU-aware MPI technology", every halo exchange must
//! stage through host memory. The paper's communication optimization
//! therefore includes *minimizing data copying between the host and
//! devices* — which is only observable if transfers are seen. Every
//! [`crate::view::deep_copy`] reports both spaces and its bytes to the
//! attached profiling tool ([`crate::profiling::DeepCopyInfo`]); the
//! Sunway/host spaces are unified (as on hardware).

/// Where a `View`'s allocation lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Ordinary host DRAM. MPE/CPE-shared memory on Sunway is also `Host`
    /// ("we can apply the Kokkos memory model from the host space without
    /// needing to implement a separate device memory space", §V-B).
    Host,
    /// Simulated discrete-accelerator memory (CUDA/HIP device).
    Device,
}
