//! Cross-rank telemetry: load-imbalance attribution and streaming drift
//! detection.
//!
//! The profiler (PR 4) sees one rank at a time; the paper's scaling story
//! is about what happens *between* ranks — canuto land/sea imbalance,
//! halo volume at the tripolar cap. This module closes that gap in two
//! pieces:
//!
//! * [`gather_phases`] + [`ImbalanceReport`] — every rank contributes its
//!   `(phase, seconds)` profile through a deterministic `mpi-sim`
//!   allgather; the report computes max/mean and max/min ratios per
//!   phase, ranks the most imbalanced phases, and renders an ASCII
//!   per-rank heat map.
//! * [`RingBuffer`] + [`DriftDetector`] — a bounded per-step sample
//!   stream with an EWMA + z-score anomaly detector, generic over what
//!   the metric means (step wall, halo wait, physics scalars).

use mpi_sim::Comm;
use std::collections::BTreeMap;

/// One rank's `(phase name, seconds)` profile, e.g.
/// `licom::Timers::phase_seconds`.
pub type PhaseProfile = Vec<(String, f64)>;

/// Gather every rank's phase profile onto all ranks. Deterministic and
/// collective: every rank must call it in the same program order. The
/// result is indexed by rank.
pub fn gather_phases(comm: &Comm, local: PhaseProfile) -> Vec<PhaseProfile> {
    comm.allgather(local)
}

/// Per-phase cross-rank imbalance statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseImbalance {
    pub name: String,
    /// Per-rank seconds, indexed by rank (0 where a rank never ran it).
    pub per_rank: Vec<f64>,
    pub mean: f64,
    pub max: f64,
    pub min: f64,
    /// Rank holding the maximum — the phase's straggler.
    pub max_rank: usize,
    /// `max / mean` — 1.0 is perfectly balanced.
    pub max_over_mean: f64,
    /// `max / min` — ∞ when some rank never ran the phase.
    pub max_over_min: f64,
}

/// Cross-rank imbalance attribution over a set of per-rank phase
/// profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceReport {
    pub ranks: usize,
    /// Sorted by descending max seconds (heaviest phase first).
    pub phases: Vec<PhaseImbalance>,
    /// Σ over phases of each rank's seconds.
    pub rank_totals: Vec<f64>,
}

impl ImbalanceReport {
    /// Build from per-rank profiles (as returned by [`gather_phases`]).
    /// Phases absent on a rank count as zero seconds there.
    pub fn from_profiles(profiles: &[PhaseProfile]) -> Self {
        let ranks = profiles.len();
        assert!(ranks > 0, "imbalance report needs at least one rank");
        let mut by_phase: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (rank, profile) in profiles.iter().enumerate() {
            for (name, secs) in profile {
                by_phase
                    .entry(name.as_str())
                    .or_insert_with(|| vec![0.0; ranks])[rank] += secs;
            }
        }
        let mut phases: Vec<PhaseImbalance> = by_phase
            .into_iter()
            .map(|(name, per_rank)| {
                let sum: f64 = per_rank.iter().sum();
                let mean = sum / ranks as f64;
                let (mut max, mut min, mut max_rank) = (f64::NEG_INFINITY, f64::INFINITY, 0);
                for (r, &t) in per_rank.iter().enumerate() {
                    if t > max {
                        max = t;
                        max_rank = r;
                    }
                    min = min.min(t);
                }
                PhaseImbalance {
                    name: name.to_string(),
                    mean,
                    max,
                    min,
                    max_rank,
                    max_over_mean: if mean > 0.0 { max / mean } else { 1.0 },
                    max_over_min: if min > 0.0 { max / min } else { f64::INFINITY },
                    per_rank,
                }
            })
            .collect();
        phases.sort_by(|a, b| b.max.total_cmp(&a.max));
        let mut rank_totals = vec![0.0; ranks];
        for p in &phases {
            for (r, t) in p.per_rank.iter().enumerate() {
                rank_totals[r] += t;
            }
        }
        Self {
            ranks,
            phases,
            rank_totals,
        }
    }

    /// The `k` most imbalanced phases by `max_over_mean`, skipping phases
    /// whose max is below `min_seconds` (noise floor: a 2 µs phase with
    /// ratio 8 is not a finding).
    pub fn top_imbalanced(&self, k: usize, min_seconds: f64) -> Vec<&PhaseImbalance> {
        let mut v: Vec<&PhaseImbalance> = self
            .phases
            .iter()
            .filter(|p| p.max >= min_seconds)
            .collect();
        v.sort_by(|a, b| b.max_over_mean.total_cmp(&a.max_over_mean));
        v.truncate(k);
        v
    }

    /// ASCII heat map of per-rank total load, normalized to the busiest
    /// rank. One row per rank, one glyph per 2.5% of the maximum.
    pub fn heat_map(&self) -> String {
        let max = self
            .rank_totals
            .iter()
            .cloned()
            .fold(f64::MIN_POSITIVE, f64::max);
        let mut out = String::new();
        for (r, &t) in self.rank_totals.iter().enumerate() {
            let bars = ((t / max) * 40.0).round() as usize;
            out.push_str(&format!(
                "rank {r:>3} |{:<40}| {:>8.4}s\n",
                "#".repeat(bars.min(40)),
                t
            ));
        }
        out
    }

    /// Render the per-phase table + heat map.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cross-rank imbalance over {} ranks\n{:<20} {:>10} {:>10} {:>10} {:>9} {:>9} {:>5}\n",
            self.ranks, "phase", "mean (s)", "max (s)", "min (s)", "max/mean", "max/min", "@rank"
        );
        for p in &self.phases {
            out.push_str(&format!(
                "{:<20} {:>10.4} {:>10.4} {:>10.4} {:>9.3} {:>9.3} {:>5}\n",
                p.name, p.mean, p.max, p.min, p.max_over_mean, p.max_over_min, p.max_rank
            ));
        }
        out.push_str("\nper-rank load (all phases)\n");
        out.push_str(&self.heat_map());
        out
    }
}

/// Fixed-capacity ring buffer of per-step samples. Pushing past capacity
/// overwrites the oldest sample; iteration runs oldest → newest.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    total_pushed: u64,
}

impl<T> RingBuffer<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            total_pushed: 0,
        }
    }

    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total_pushed += 1;
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples ever pushed (≥ `len()` once the ring wraps).
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    pub fn latest(&self) -> Option<&T> {
        if self.buf.is_empty() {
            None
        } else if self.buf.len() < self.capacity {
            self.buf.last()
        } else {
            let idx = (self.head + self.capacity - 1) % self.capacity;
            self.buf.get(idx)
        }
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (wrapped, fresh) = self.buf.split_at(self.head);
        fresh.iter().chain(wrapped.iter())
    }
}

/// Why a drift detector tripped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// The observed value.
    pub value: f64,
    /// EWMA mean at observation time (before folding the value in).
    pub mean: f64,
    /// EWMA standard deviation at observation time.
    pub std: f64,
    /// `(value − mean) / std`.
    pub z: f64,
}

/// Streaming EWMA + z-score anomaly detector for one scalar metric.
///
/// Keeps an exponentially weighted mean and variance; once `warmup`
/// samples have been folded in, a sample more than `z_threshold`
/// standard deviations from the mean trips. The tripping sample is
/// still folded into the moments (a level shift re-baselines after a
/// few steps rather than tripping forever).
#[derive(Debug, Clone, Copy)]
pub struct DriftDetector {
    /// EWMA smoothing factor in (0, 1]; higher forgets faster.
    pub alpha: f64,
    /// Trip threshold in standard deviations.
    pub z_threshold: f64,
    /// Samples to absorb before arming.
    pub warmup: u64,
    /// Relative noise floor: |value − mean| below `floor · |mean|` never
    /// trips, so micro-jitter around a near-constant metric stays quiet.
    pub rel_floor: f64,
    seen: u64,
    mean: f64,
    var: f64,
}

impl DriftDetector {
    pub fn new(alpha: f64, z_threshold: f64, warmup: u64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(z_threshold > 0.0);
        Self {
            alpha,
            z_threshold,
            warmup,
            rel_floor: 1e-9,
            seen: 0,
            mean: 0.0,
            var: 0.0,
        }
    }

    pub fn with_rel_floor(mut self, floor: f64) -> Self {
        self.rel_floor = floor;
        self
    }

    /// Samples observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Current EWMA mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Fold one sample in; `Some` when it trips.
    pub fn observe(&mut self, value: f64) -> Option<DriftEvent> {
        if !value.is_finite() {
            // A NaN metric is always an anomaly.
            let ev = DriftEvent {
                value,
                mean: self.mean,
                std: self.var.sqrt(),
                z: f64::INFINITY,
            };
            self.seen += 1;
            return Some(ev);
        }
        let trip = if self.seen >= self.warmup {
            let std = self.var.sqrt();
            let dev = value - self.mean;
            if dev.abs() <= self.rel_floor * self.mean.abs() {
                None
            } else {
                let z = if std > 0.0 {
                    dev / std
                } else if dev == 0.0 {
                    0.0
                } else {
                    f64::INFINITY * dev.signum()
                };
                (z.abs() > self.z_threshold).then_some(DriftEvent {
                    value,
                    mean: self.mean,
                    std,
                    z,
                })
            }
        } else {
            None
        };
        if self.seen == 0 {
            self.mean = value;
            self.var = 0.0;
        } else {
            // Standard EWMA moment update (Welford-style cross term).
            let dev = value - self.mean;
            let incr = self.alpha * dev;
            self.mean += incr;
            self.var = (1.0 - self.alpha) * (self.var + dev * incr);
        }
        self.seen += 1;
        trip
    }
}

/// A bank of named drift detectors sharing one configuration — the shape
/// the per-step monitor uses (one detector per telemetry metric).
#[derive(Debug, Clone, Default)]
pub struct DriftBank {
    detectors: BTreeMap<&'static str, DriftDetector>,
    template: Option<DriftDetector>,
    trips: u64,
}

impl DriftBank {
    pub fn new(template: DriftDetector) -> Self {
        Self {
            detectors: BTreeMap::new(),
            template: Some(template),
            trips: 0,
        }
    }

    /// Observe metric `name`; detectors are created lazily from the
    /// template on first sight.
    pub fn observe(&mut self, name: &'static str, value: f64) -> Option<DriftEvent> {
        let template = self.template.expect("DriftBank::new not used");
        let det = self.detectors.entry(name).or_insert(template);
        let ev = det.observe(value);
        if ev.is_some() {
            self.trips += 1;
        }
        ev
    }

    /// Total trips across all metrics.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    pub fn detector(&self, name: &str) -> Option<&DriftDetector> {
        self.detectors.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::World;

    fn profiles() -> Vec<PhaseProfile> {
        vec![
            vec![("canuto".into(), 4.0), ("halo".into(), 1.0)],
            vec![("canuto".into(), 1.0), ("halo".into(), 1.0)],
            vec![("canuto".into(), 1.0), ("halo".into(), 2.0)],
            vec![("canuto".into(), 2.0), ("halo".into(), 0.0)],
        ]
    }

    #[test]
    fn imbalance_ratios_and_straggler_rank() {
        let r = ImbalanceReport::from_profiles(&profiles());
        assert_eq!(r.ranks, 4);
        let canuto = r.phases.iter().find(|p| p.name == "canuto").unwrap();
        assert_eq!(canuto.max, 4.0);
        assert_eq!(canuto.max_rank, 0);
        assert!((canuto.mean - 2.0).abs() < 1e-12);
        assert!((canuto.max_over_mean - 2.0).abs() < 1e-12);
        assert!((canuto.max_over_min - 4.0).abs() < 1e-12);
        let halo = r.phases.iter().find(|p| p.name == "halo").unwrap();
        assert!(halo.max_over_min.is_infinite(), "rank 3 never ran halo");
        // Heaviest phase sorts first.
        assert_eq!(r.phases[0].name, "canuto");
        assert_eq!(r.rank_totals, vec![5.0, 2.0, 3.0, 2.0]);
    }

    #[test]
    fn top_imbalanced_applies_noise_floor() {
        let mut profs = profiles();
        // A microscopic but wildly imbalanced phase must not outrank
        // canuto.
        profs[0].push(("noise".into(), 1e-7));
        profs[1].push(("noise".into(), 1e-9));
        let r = ImbalanceReport::from_profiles(&profs);
        let top = r.top_imbalanced(1, 1e-3);
        assert_eq!(top[0].name, "canuto");
    }

    #[test]
    fn render_contains_table_and_heat_map() {
        let r = ImbalanceReport::from_profiles(&profiles());
        let text = r.render();
        assert!(text.contains("max/mean"));
        assert!(text.contains("canuto"));
        assert!(text.contains("rank   0"));
        assert!(text.contains('#'));
    }

    #[test]
    fn gather_phases_is_rank_indexed() {
        World::run(3, |comm| {
            let local = vec![(format!("phase{}", comm.rank()), comm.rank() as f64)];
            let all = gather_phases(comm, local);
            assert_eq!(all.len(), 3);
            for (r, profile) in all.iter().enumerate() {
                assert_eq!(profile[0].0, format!("phase{r}"));
                assert_eq!(profile[0].1, r as f64);
            }
        });
    }

    #[test]
    fn ring_buffer_wraps_and_iterates_in_order() {
        let mut ring: RingBuffer<u64> = RingBuffer::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_pushed(), 5);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.latest(), Some(&4));
    }

    #[test]
    fn drift_detector_stays_quiet_on_steady_signal() {
        let mut d = DriftDetector::new(0.2, 4.0, 5);
        for i in 0..200 {
            let wobble = 1.0 + 0.01 * ((i % 7) as f64 - 3.0);
            assert!(d.observe(wobble).is_none(), "tripped at sample {i}");
        }
    }

    #[test]
    fn drift_detector_trips_on_level_shift_and_nan() {
        let mut d = DriftDetector::new(0.2, 4.0, 5);
        for i in 0..50 {
            let wobble = 1.0 + 0.01 * ((i % 7) as f64 - 3.0);
            d.observe(wobble);
        }
        let ev = d.observe(10.0).expect("10x level shift must trip");
        assert!(ev.z.abs() > 4.0);
        let mut d2 = DriftDetector::new(0.2, 4.0, 0);
        d2.observe(1.0);
        assert!(d2.observe(f64::NAN).is_some(), "NaN always trips");
    }

    #[test]
    fn drift_detector_warmup_suppresses_trips() {
        let mut d = DriftDetector::new(0.5, 1.0, 10);
        for i in 0..10 {
            assert!(
                d.observe(if i % 2 == 0 { 0.0 } else { 100.0 }).is_none(),
                "warmup sample {i} must not trip"
            );
        }
    }

    #[test]
    fn drift_bank_counts_trips_per_metric() {
        let mut bank = DriftBank::new(DriftDetector::new(0.2, 4.0, 3));
        for _ in 0..20 {
            assert!(bank.observe("wall", 1.0).is_none());
            assert!(bank.observe("bytes", 512.0).is_none());
        }
        assert!(bank.observe("wall", 50.0).is_some());
        assert!(bank.observe("bytes", 512.0).is_none());
        assert_eq!(bank.trips(), 1);
        assert!(bank.detector("wall").is_some());
        assert!(bank.detector("absent").is_none());
    }
}
