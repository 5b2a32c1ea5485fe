//! Cross-rank load-imbalance attribution.
//!
//! The profiler sees one rank at a time; the paper's scaling story is
//! about what happens *between* ranks — canuto land/sea imbalance, halo
//! volume at the tripolar cap. [`ImbalanceReport`] takes every rank's
//! `(phase, seconds)` profile (gathered with `mpi_sim::Comm::allgather`,
//! indexed by rank), computes max/mean and max/min ratios per phase, ranks
//! the most imbalanced phases, and renders an ASCII per-rank heat map.

use std::collections::BTreeMap;

/// One rank's `(phase name, seconds)` profile, e.g.
/// `licom::Timers::phase_seconds`.
pub type PhaseProfile = Vec<(String, f64)>;

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
    /// Build from per-rank profiles, indexed by rank.
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn render_contains_table_and_heat_map() {
        let r = ImbalanceReport::from_profiles(&profiles());
        let text = r.render();
        assert!(text.contains("max/mean"));
        assert!(text.contains("canuto"));
        assert!(text.contains("rank   0"));
        assert!(text.contains('#'));
    }
}
