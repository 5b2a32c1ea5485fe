//! GPTL-style named timers and event counters.
//!
//! "We primarily employed the GPTL and Chrono libraries as timers"
//! (§VI-C). This is the Rust equivalent: named, nesting-agnostic
//! accumulating timers with call counts, used for the per-kernel breakdown
//! in the experiment binaries and for the SYPD measurement (daily loop
//! wall-clock, I/O and initialization excluded). Named **counters**
//! accumulate non-time quantities the same way — halo messages/bytes and
//! buffer-pool allocations vs reuses, so a run can show its steady-state
//! allocation profile next to its time profile.
//!
//! One `Model` owns its `Timers` and changes them only through `&mut self`,
//! so they are plain ordered maps: a lookup is one `get`, and counters come
//! out sorted by name. Every `start`/`stop` also pushes/pops a Kokkos
//! profiling **region** of the same name, so when a profiler is attached
//! the model's phase structure appears in the chrome trace with kernels
//! nested inside their phases. With no profiler attached the region calls
//! are a single atomic load.

use std::collections::BTreeMap;
use std::time::Instant;

use kokkos_profiling::Stat;
use kokkos_rs::profiling as hooks;

/// A set of named accumulating timers and counters.
#[derive(Debug, Default)]
pub struct Timers {
    stats: BTreeMap<&'static str, Stat>,
    counters: BTreeMap<&'static str, u64>,
    running: BTreeMap<&'static str, Instant>,
}

impl Timers {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start timer `name` (GPTL `GPTLstart`). Also opens a profiling
    /// region of the same name when a tool is attached.
    pub fn start(&mut self, name: &'static str) {
        hooks::push_region(name);
        let prev = self.running.insert(name, Instant::now());
        assert!(prev.is_none(), "timer '{name}' started twice");
    }

    /// Stop timer `name` and accumulate (GPTL `GPTLstop`).
    pub fn stop(&mut self, name: &'static str) {
        let t0 = self
            .running
            .remove(name)
            .unwrap_or_else(|| panic!("timer '{name}' stopped without start"));
        let dt = t0.elapsed();
        self.stats
            .entry(name)
            .or_default()
            .fold(dt.as_nanos() as u64, 0, 0);
        hooks::pop_region(name);
    }

    /// Time a closure under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.start(name);
        let r = f();
        self.stop(name);
        r
    }

    /// Accumulated seconds of `name` (0 if never stopped).
    pub fn seconds(&self, name: &str) -> f64 {
        self.stats.get(name).map_or(0.0, Stat::total_seconds)
    }

    /// Call count of `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.stats.get(name).map_or(0, |s| s.count)
    }

    /// Accumulate `delta` into counter `name`.
    pub fn add_count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Every timer, heaviest first (ties by name).
    fn heaviest_first(&self) -> Vec<(&'static str, &Stat)> {
        let mut v: Vec<_> = self.stats.iter().map(|(k, s)| (*k, s)).collect();
        v.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_ns));
        v
    }

    /// `(name, seconds)` pairs for every timer, heaviest first: the rows of
    /// a [`kokkos_profiling::PhaseProfile`], `daily_loop` (which encloses
    /// the phases) included.
    pub fn phase_seconds(&self) -> Vec<(&'static str, f64)> {
        self.heaviest_first()
            .into_iter()
            .map(|(name, s)| (name, s.total_seconds()))
            .collect()
    }

    /// Render a breakdown table.
    pub fn report(&self) -> String {
        let mut out = format!(
            "{:<24} {:>10} {:>12} {:>12}\n",
            "timer", "calls", "total (s)", "max (ms)"
        );
        for (name, s) in self.heaviest_first() {
            out.push_str(&format!(
                "{:<24} {:>10} {:>12.4} {:>12.3}\n",
                name,
                s.count,
                s.total_seconds(),
                s.max_ns as f64 * 1e-6
            ));
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<24} {:>16}\n", "counter", "value"));
            for (name, c) in &self.counters {
                out.push_str(&format!("{name:<24} {c:>16}\n"));
            }
        }
        out
    }

    /// Reset everything (e.g. after warm-up steps).
    pub fn reset(&mut self) {
        assert!(
            self.running.is_empty(),
            "reset with running timers: {:?}",
            self.running.keys().collect::<Vec<_>>()
        );
        self.stats.clear();
        self.counters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn accumulates_calls_and_time() {
        let mut t = Timers::new();
        for _ in 0..3 {
            t.time("work", || std::thread::sleep(Duration::from_millis(2)));
        }
        assert_eq!(t.calls("work"), 3);
        assert!(t.seconds("work") >= 0.005);
        assert_eq!(t.calls("absent"), 0);
        assert_eq!(t.seconds("absent"), 0.0);
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn double_start_panics() {
        let mut t = Timers::new();
        t.start("a");
        t.start("a");
    }

    #[test]
    #[should_panic(expected = "stopped without start")]
    fn stop_without_start_panics() {
        let mut t = Timers::new();
        t.stop("a");
    }

    #[test]
    fn report_contains_names() {
        let mut t = Timers::new();
        t.time("advection_tracer", || {});
        let r = t.report();
        assert!(r.contains("advection_tracer"));
        assert!(r.contains("calls"));
    }

    #[test]
    fn reset_clears() {
        let mut t = Timers::new();
        t.time("x", || {});
        t.add_count("allocs", 3);
        t.reset();
        assert_eq!(t.calls("x"), 0);
        assert_eq!(t.count("allocs"), 0);
    }

    #[test]
    fn counters_accumulate_and_report() {
        let mut t = Timers::new();
        t.add_count("pool_allocs", 5);
        t.add_count("pool_allocs", 0);
        t.add_count("halo_bytes", 1024);
        assert_eq!(t.count("pool_allocs"), 5);
        assert_eq!(t.count("absent"), 0);
        assert_eq!(t.counters(), vec![("halo_bytes", 1024), ("pool_allocs", 5)]);
        let r = t.report();
        assert!(r.contains("pool_allocs"));
        assert!(r.contains("1024"));
    }

    #[test]
    fn phase_seconds_heaviest_first() {
        let mut t = Timers::new();
        t.time("fast", || {});
        t.time("barotropic", || {
            std::thread::sleep(Duration::from_millis(5))
        });
        let phases = t.phase_seconds();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "barotropic");
        assert_eq!(phases[0].1, t.seconds("barotropic"));
        assert!(phases[0].1 >= 0.005);
        assert_eq!(phases[1].0, "fast");
    }

    #[test]
    fn start_stop_emit_profiling_regions() {
        use std::sync::Arc;
        let _serial = kokkos_profiling::test_registry_lock();
        let prof = Arc::new(kokkos_profiling::Profiler::default());
        kokkos_profiling::attach(prof.clone());
        let mut t = Timers::new();
        t.time("timer_region_probe", || {});
        kokkos_profiling::detach();
        let regions = prof.region_table();
        assert!(
            regions
                .iter()
                .any(|(n, s)| *n == "timer_region_probe" && s.count == 1),
            "timer did not surface as a profiling region: {regions:?}"
        );
    }
}
