//! Per-step model telemetry: a streaming sample ring with EWMA drift
//! detection over both performance and physics metrics.
//!
//! Every committed step contributes one [`StepSample`] — wall time, the
//! halo receive-wait carved out by `halo-exchange`, traffic deltas from
//! the transport's [`mpi_sim::TrafficSnapshot`], the owned wet-cell
//! census, and two cheap surface physics scalars (mean SST, surface
//! kinetic energy) computed serially over the owned block so no extra
//! kernels or collectives enter the step. Samples land in a bounded
//! [`RingBuffer`] and feed two [`DriftBank`]s:
//!
//! * the **perf** bank (step wall, halo wait, traffic) flags slowdowns
//!   and message-volume anomalies — trips are published as the
//!   `drift_perf_trips` counter;
//! * the **physics** bank (SST, surface KE) flags state drift — trips
//!   are published as `drift_physics_trips`.
//!
//! Detection is rank-local and only reported: a step fails on the guard's
//! bounds ([`crate::guard`]), never on a z-score.

use kokkos_profiling::{DriftBank, DriftDetector, DriftEvent, RingBuffer};

use crate::lanes::Isa;

/// Telemetry knobs, carried by [`crate::model::ModelOptions::telemetry`].
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Retained per-step samples (the drift state sees every sample
    /// regardless of ring size).
    pub ring_capacity: usize,
    /// EWMA smoothing factor shared by all detectors.
    pub ewma_alpha: f64,
    /// Trip threshold (σ) for performance metrics — generous, wall-clock
    /// jitter on shared machines is real.
    pub perf_z: f64,
    /// Trip threshold (σ) for physics scalars.
    pub physics_z: f64,
    /// Steps absorbed before any detector arms.
    pub warmup: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 128,
            ewma_alpha: 0.2,
            perf_z: 12.0,
            physics_z: 6.0,
            warmup: 8,
        }
    }
}

/// One step's telemetry record.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepSample {
    pub step: u64,
    pub wall_seconds: f64,
    /// Halo receive-wait seconds attributed by `halo-exchange`.
    pub halo_wait_seconds: f64,
    /// Transport deltas over this step (world-level counters: exact on
    /// one rank, aggregate otherwise).
    pub p2p_messages: u64,
    pub p2p_bytes: u64,
    pub pool_allocations: u64,
    /// Owned wet T cells (static census; a change means the grid moved
    /// under us).
    pub wet_cells: u64,
    /// Mean surface temperature over owned wet surface cells.
    pub surface_mean_t: f64,
    /// Surface kinetic energy ½(u²+v²) summed over owned wet U cells.
    pub surface_ke: f64,
}

/// A drift detector tripping on one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftTrip {
    pub metric: &'static str,
    pub event: DriftEvent,
}

impl std::fmt::Display for DriftTrip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "telemetry drift on `{}`: value {:.6e} vs EWMA {:.6e} (z = {:.2})",
            self.metric, self.event.value, self.event.mean, self.event.z
        )
    }
}

impl std::error::Error for DriftTrip {}

/// What one step's observation produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepObservation {
    pub perf_trips: u64,
    pub physics_trips: u64,
    /// First physics trip of the step.
    pub physics_trip: Option<DriftTrip>,
}

/// The model's streaming telemetry monitor.
#[derive(Debug, Clone)]
pub struct StepMonitor {
    ring: RingBuffer<StepSample>,
    perf: DriftBank,
    physics: DriftBank,
    perf_trips: u64,
    physics_trips: u64,
}

impl StepMonitor {
    pub fn new(cfg: TelemetryConfig) -> Self {
        Self {
            ring: RingBuffer::new(cfg.ring_capacity),
            perf: DriftBank::new(
                DriftDetector::new(cfg.ewma_alpha, cfg.perf_z, cfg.warmup)
                    // Sub-5% wall jitter is never an anomaly, whatever the
                    // variance history says.
                    .with_rel_floor(0.05),
            ),
            physics: DriftBank::new(
                DriftDetector::new(cfg.ewma_alpha, cfg.physics_z, cfg.warmup).with_rel_floor(1e-6),
            ),
            perf_trips: 0,
            physics_trips: 0,
        }
    }

    /// Fold one step's sample into the ring and both drift banks.
    pub fn observe(&mut self, s: StepSample) -> StepObservation {
        let mut obs = StepObservation::default();
        let perf = |bank: &mut DriftBank, name: &'static str, v: f64| -> Option<DriftTrip> {
            bank.observe(name, v).map(|event| DriftTrip {
                metric: name,
                event,
            })
        };
        for (name, v) in [
            ("step_wall_seconds", s.wall_seconds),
            ("halo_wait_seconds", s.halo_wait_seconds),
            ("p2p_bytes", s.p2p_bytes as f64),
            ("pool_allocations", s.pool_allocations as f64),
        ] {
            if perf(&mut self.perf, name, v).is_some() {
                obs.perf_trips += 1;
            }
        }
        for (name, v) in [
            ("surface_mean_t", s.surface_mean_t),
            ("surface_ke", s.surface_ke),
        ] {
            if let Some(trip) = perf(&mut self.physics, name, v) {
                obs.physics_trips += 1;
                obs.physics_trip.get_or_insert(trip);
            }
        }
        self.perf_trips += obs.perf_trips;
        self.physics_trips += obs.physics_trips;
        self.ring.push(s);
        obs
    }

    pub fn ring(&self) -> &RingBuffer<StepSample> {
        &self.ring
    }

    pub fn perf_trips(&self) -> u64 {
        self.perf_trips
    }

    pub fn physics_trips(&self) -> u64 {
        self.physics_trips
    }

    /// Mean over the retained window of an arbitrary sample projection.
    pub fn window_mean(&self, f: impl Fn(&StepSample) -> f64) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        self.ring.iter().map(&f).sum::<f64>() / self.ring.len() as f64
    }

    /// Render a short window summary for reports, and which ISA the lane
    /// walkers ran under: a wall clock reads differently on either.
    pub fn render(&self) -> String {
        let isa = Isa::detect().name();
        if self.ring.is_empty() {
            return format!("telemetry: no samples\nisa = {isa}\n");
        }
        let wall = self.window_mean(|s| s.wall_seconds);
        let wait = self.window_mean(|s| s.halo_wait_seconds);
        format!(
            "telemetry over last {} steps ({} total): mean step {:.4}s, mean halo wait {:.4}s ({:.1}%), perf trips {}, physics trips {}\nisa = {isa}\n",
            self.ring.len(),
            self.ring.total_pushed(),
            wall,
            wait,
            if wall > 0.0 { 100.0 * wait / wall } else { 0.0 },
            self.perf_trips,
            self.physics_trips
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: u64, wall: f64, sst: f64) -> StepSample {
        StepSample {
            step,
            wall_seconds: wall,
            halo_wait_seconds: wall * 0.1,
            p2p_messages: 24,
            p2p_bytes: 4096,
            pool_allocations: 0,
            wet_cells: 1000,
            surface_mean_t: sst,
            surface_ke: 1.0e-3,
        }
    }

    #[test]
    fn steady_run_never_trips() {
        let mut m = StepMonitor::new(TelemetryConfig::default());
        for i in 0..100 {
            let o = m.observe(sample(i, 0.01 + 1e-4 * ((i % 5) as f64), 10.0));
            assert_eq!(o.perf_trips + o.physics_trips, 0, "tripped at step {i}");
        }
        assert_eq!(m.perf_trips(), 0);
        assert_eq!(m.physics_trips(), 0);
        assert!(m.render().contains("physics trips 0"));
        assert!(m
            .render()
            .ends_with(&format!("isa = {}\n", Isa::detect().name())));
    }

    #[test]
    fn physics_jump_trips_and_reports_metric() {
        let mut m = StepMonitor::new(TelemetryConfig::default());
        for i in 0..50 {
            m.observe(sample(i, 0.01, 10.0 + 1e-3 * ((i % 3) as f64)));
        }
        let o = m.observe(sample(50, 0.01, 60.0));
        assert!(o.physics_trips >= 1);
        let trip = o.physics_trip.expect("trip payload");
        assert_eq!(trip.metric, "surface_mean_t");
        assert!(trip.to_string().contains("surface_mean_t"));
    }

    #[test]
    fn perf_spike_trips_perf_bank_only() {
        let mut m = StepMonitor::new(TelemetryConfig::default());
        for i in 0..50 {
            m.observe(sample(i, 0.01 + 1e-4 * ((i % 5) as f64), 10.0));
        }
        let o = m.observe(StepSample {
            wall_seconds: 5.0,
            ..sample(50, 0.01, 10.0)
        });
        assert!(o.perf_trips >= 1, "50x wall spike must trip");
        assert_eq!(o.physics_trips, 0);
        assert!(o.physics_trip.is_none());
    }

    #[test]
    fn ring_is_bounded() {
        let cfg = TelemetryConfig {
            ring_capacity: 4,
            ..Default::default()
        };
        let mut m = StepMonitor::new(cfg);
        for i in 0..10 {
            m.observe(sample(i, 0.01, 10.0));
        }
        assert_eq!(m.ring().len(), 4);
        assert_eq!(m.ring().total_pushed(), 10);
        assert_eq!(m.ring().latest().unwrap().step, 9);
    }
}
