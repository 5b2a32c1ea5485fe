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
//! Internally the aggregation lives in `kokkos-profiling`'s lock-sharded
//! [`StatsTable`]/[`CounterTable`] — the same machinery behind the
//! profiler's kernel tables — and every `start`/`stop` additionally
//! pushes/pops a Kokkos profiling **region** of the same name, so when a
//! profiler is attached the model's phase structure appears in the
//! chrome trace with kernels nested inside their phases. With no
//! profiler attached the region calls are a single atomic load.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use kokkos_profiling::{CounterTable, StatsTable};
use kokkos_rs::profiling as hooks;

/// One timer's accumulated statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerStat {
    pub calls: u64,
    pub total: Duration,
    pub max: Duration,
}

/// A set of named accumulating timers and counters.
pub struct Timers {
    stats: StatsTable<&'static str>,
    counters: CounterTable<&'static str>,
    running: HashMap<&'static str, Instant>,
}

impl Default for Timers {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Timers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timers")
            .field("timers", &self.stats.len())
            .field("running", &self.running.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Timers {
    pub fn new() -> Self {
        Self {
            stats: StatsTable::new(),
            counters: CounterTable::new(),
            running: HashMap::new(),
        }
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
        self.stats.record(name, dt.as_nanos() as u64, 0, 0);
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
        // Keys are &'static str but lookups may arrive as &str; the
        // snapshot path below keeps the borrowed-key lookup working
        // without a HashMap borrow trick through the sharded table.
        self.stats
            .snapshot()
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, s)| s.total_ns as f64 * 1e-9)
            .unwrap_or(0.0)
    }

    /// Call count of `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.stats
            .snapshot()
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, s)| s.count)
            .unwrap_or(0)
    }

    /// Accumulate `delta` into counter `name`.
    pub fn add_count(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn count(&self, name: &str) -> u64 {
        self.counters
            .snapshot()
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut v = self.counters.snapshot();
        v.sort_by_key(|e| e.0);
        v
    }

    /// All stats, sorted by descending total time.
    pub fn sorted(&self) -> Vec<(&'static str, TimerStat)> {
        let mut v: Vec<(&'static str, TimerStat)> = self
            .stats
            .snapshot()
            .into_iter()
            .map(|(k, s)| {
                (
                    k,
                    TimerStat {
                        calls: s.count,
                        total: Duration::from_nanos(s.total_ns),
                        max: Duration::from_nanos(s.max_ns),
                    },
                )
            })
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1.total));
        v
    }

    /// `(name, seconds)` pairs for every timer, heaviest first: the rows of
    /// a [`kokkos_profiling::PhaseProfile`], `daily_loop` (which encloses
    /// the phases) included.
    pub fn phase_seconds(&self) -> Vec<(&'static str, f64)> {
        self.sorted()
            .into_iter()
            .map(|(name, s)| (name, s.total.as_secs_f64()))
            .collect()
    }

    /// Render a breakdown table.
    pub fn report(&self) -> String {
        let mut out = format!(
            "{:<24} {:>10} {:>12} {:>12}\n",
            "timer", "calls", "total (s)", "max (ms)"
        );
        for (name, s) in self.sorted() {
            out.push_str(&format!(
                "{:<24} {:>10} {:>12.4} {:>12.3}\n",
                name,
                s.calls,
                s.total.as_secs_f64(),
                s.max.as_secs_f64() * 1e3
            ));
        }
        let counters = self.counters();
        if !counters.is_empty() {
            out.push_str(&format!("{:<24} {:>16}\n", "counter", "value"));
            for (name, c) in counters {
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
    fn sorted_by_total() {
        let mut t = Timers::new();
        t.time("fast", || {});
        t.time("slow", || std::thread::sleep(Duration::from_millis(5)));
        let order: Vec<&str> = t.sorted().iter().map(|(n, _)| *n).collect();
        assert_eq!(order[0], "slow");
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
    fn phase_seconds_mirror_sorted() {
        let mut t = Timers::new();
        t.time("barotropic", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let phases = t.phase_seconds();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "barotropic");
        assert!(phases[0].1 > 0.0);
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
