//! SYPD and hotspot-share reporting in the paper's own vocabulary.
//!
//! The paper reports throughput as **SYPD** (simulated years per
//! wall-clock day) and breaks step cost into the shares of the baroclinic
//! solver, barotropic solver, tracer advection, canuto vertical mixing
//! and halo communication (Fig. 12 / §VI). [`sypd`] converts a stepped run
//! (model days + wall seconds) into that figure and [`hotspot_shares`] maps
//! the model's phase timers onto the same buckets so measured shares can
//! sit next to the paper's.

/// Hotspot buckets, in report order.
pub const BUCKETS: [&str; 6] = [
    "baroclinic",
    "barotropic",
    "advection",
    "canuto",
    "halo",
    "other",
];

/// Enclosing timers that must not be bucketed (they contain the phase
/// timers and would double-count).
const ENCLOSING: [&str; 2] = ["daily_loop", "step"];

/// `true` for enclosing timers ("daily_loop", "step") that contain the
/// leaf phases — telemetry consumers must drop them before summing or
/// attributing per-phase time, or every second counts three times.
pub fn is_enclosing(timer: &str) -> bool {
    ENCLOSING.contains(&timer)
}

/// Map one `licom` phase-timer name onto its paper bucket.
pub fn bucket_of(timer: &str) -> &'static str {
    match timer {
        "barotropic" => "barotropic",
        "advection_tracer" | "hdiff" => "advection",
        "canuto" => "canuto",
        t if t.starts_with("halo") => "halo",
        "eos" | "momentum" | "update_uv" | "vmix_momentum" | "vmix_tracer" | "forcing"
        | "asselin" | "guard" => "baroclinic",
        _ => "other",
    }
}

/// Simulated years per wall-clock day.
pub fn sypd(model_days: f64, wall_seconds: f64) -> f64 {
    if wall_seconds <= 0.0 {
        return 0.0;
    }
    (model_days / 365.0) * 86400.0 / wall_seconds
}

/// One bucket's share of the phase total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotRow {
    pub bucket: &'static str,
    pub seconds: f64,
    /// Fraction of the summed phase time, in [0, 1].
    pub share: f64,
}

/// Fold `(timer name, seconds)` pairs into bucket shares. Enclosing
/// timers (`daily_loop`, `step`) are skipped.
pub fn hotspot_shares(phases: &[(&str, f64)]) -> Vec<HotspotRow> {
    let mut totals = [0.0f64; BUCKETS.len()];
    for (name, secs) in phases {
        if ENCLOSING.contains(name) {
            continue;
        }
        let bucket = bucket_of(name);
        let idx = BUCKETS.iter().position(|b| *b == bucket).unwrap();
        totals[idx] += secs;
    }
    let sum: f64 = totals.iter().sum();
    BUCKETS
        .iter()
        .zip(totals)
        .map(|(bucket, seconds)| HotspotRow {
            bucket,
            seconds,
            share: if sum > 0.0 { seconds / sum } else { 0.0 },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sypd_matches_hand_calc() {
        // 10 model days in 100 s wall: (10/365) years / (100/86400) days
        // of wall = 23.67...
        let v = sypd(10.0, 100.0);
        assert!((v - (10.0 / 365.0) * 864.0).abs() < 1e-9);
        assert_eq!(sypd(10.0, 0.0), 0.0);
    }

    #[test]
    fn buckets_cover_model_phase_timers() {
        for name in [
            "eos",
            "momentum",
            "update_uv",
            "vmix_momentum",
            "vmix_tracer",
            "forcing",
            "asselin",
            "guard",
        ] {
            assert_eq!(bucket_of(name), "baroclinic", "{name}");
        }
        assert_eq!(bucket_of("barotropic"), "barotropic");
        assert_eq!(bucket_of("advection_tracer"), "advection");
        assert_eq!(bucket_of("hdiff"), "advection");
        assert_eq!(bucket_of("canuto"), "canuto");
        assert_eq!(bucket_of("halo_uv"), "halo");
        assert_eq!(bucket_of("halo_ts"), "halo");
        assert_eq!(bucket_of("something_new"), "other");
    }

    #[test]
    fn shares_sum_to_one_and_skip_enclosing() {
        let rows = hotspot_shares(&[
            ("daily_loop", 100.0), // must be ignored
            ("barotropic", 3.0),
            ("canuto", 1.0),
        ]);
        let total: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let bt = rows.iter().find(|r| r.bucket == "barotropic").unwrap();
        assert!((bt.share - 0.75).abs() < 1e-12);
    }
}
