//! What a workload's process hands back (`Record`), the one-line result
//! the driver reads, the result file `run` and `trace` write, and
//! `compare`.

use std::collections::BTreeMap;
use std::path::Path;

use kokkos_profiling::{parse_json, render_json, render_json_pretty, Json};

use crate::spec::{self, Better, Metric};
use crate::stats;

const SCHEMA: &str = "licom-bench-result-v1";

/// One workload's measurements from one process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// `std::thread::available_parallelism` of the host: every number
    /// that depends on threads depends on this.
    pub nproc: usize,
    /// Model workloads ignore the seed; only `ensemble_serve` draws from it.
    pub deterministic: bool,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Metric name → value; units and directions live in `spec`.
    pub metrics: BTreeMap<String, f64>,
    /// Per-episode values of end-to-end metrics: `compare` reads its
    /// own noise from their quartiles.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// What went wrong, and what a reader should know (tail percentiles
    /// with their sample counts).
    pub notes: Vec<String>,
}

fn num_map(m: &BTreeMap<String, f64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
}

impl Record {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            spec::metric(name).is_some(),
            "metric `{name}` is not in the registry"
        );
        self.metrics.insert(name.to_string(), value);
    }

    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The driver's line: exactly the keys `correct`, `attempted`,
    /// `failed`, `metrics`, and exactly the metrics of `list`. A per-layer
    /// metric this workload does not exercise reads 0.
    pub fn contract_line(&self, list: &[Metric]) -> String {
        let metrics = list
            .iter()
            .map(|m| {
                let value = self.metrics.get(m.name).copied().unwrap_or(0.0);
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", m.unit.into())]),
                )
            })
            .collect();
        render_json(&Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", self.workload.as_str().into()),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            ("traced", Json::Bool(self.traced)),
            ("nproc", self.nproc.into()),
            ("deterministic", Json::Bool(self.deterministic)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("correct", Json::Bool(self.correct)),
            ("metrics", num_map(&self.metrics)),
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| n.as_str().into()).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Record, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("record has no number `{k}`"))
        };
        let flag = |k: &str| match j.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("record has no flag `{k}`")),
        };
        let obj = |k: &str| match j.get(k) {
            Some(Json::Obj(m)) => Ok(m),
            _ => Err(format!("record has no table `{k}`")),
        };
        let mut r = Record {
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("record has no `workload`")?
                .to_string(),
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            traced: flag("traced")?,
            nproc: num("nproc")? as usize,
            deterministic: flag("deterministic")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            correct: flag("correct")?,
            ..Record::default()
        };
        for (k, v) in obj("metrics")? {
            let v = v
                .as_num()
                .ok_or_else(|| format!("metric {k}: not a number"))?;
            r.metrics.insert(k.clone(), v);
        }
        for (k, v) in obj("samples")? {
            let xs = v
                .as_arr()
                .ok_or_else(|| format!("samples {k}: not an array"))?
                .iter()
                .map(|x| {
                    x.as_num()
                        .ok_or_else(|| format!("samples {k}: not numbers"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            r.samples.insert(k.clone(), xs);
        }
        if let Some(notes) = j.get("notes").and_then(Json::as_arr) {
            r.notes = notes
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect();
        }
        Ok(r)
    }

    /// The human-readable block: every metric by name, with its unit.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} ({}; seed {}{}; {} s; nproc {})\n",
            self.workload,
            if self.traced { "traced" } else { "tracing off" },
            self.seed,
            if self.deterministic {
                ", unused: this workload is deterministic"
            } else {
                ""
            },
            self.seconds,
            self.nproc,
        );
        for (name, value) in &self.metrics {
            let unit = spec::metric(name).map_or("", |m| m.unit);
            out.push_str(&format!("  {name:<44} {value:>16.6} {unit}\n"));
        }
        out.push_str(&format!(
            "  attempted {} failed {} correct {}\n",
            self.attempted, self.failed, self.correct
        ));
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// A result file: every workload's record from one `run` or `trace`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultFile {
    pub records: Vec<Record>,
}

impl ResultFile {
    pub fn render(&self) -> String {
        render_json_pretty(&Json::obj([
            ("schema", SCHEMA.into()),
            (
                "workloads",
                Json::Arr(self.records.iter().map(Record::to_json).collect()),
            ),
        ]))
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let doc = parse_json(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} file"));
        }
        let records = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("result file has no `workloads`")?
            .iter()
            .map(Record::from_json)
            .collect::<Result<Vec<Record>, String>>()?;
        Ok(ResultFile { records })
    }

    pub fn read(path: &Path) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.render()).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The files' own episode-to-episode spread exceeds the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match m.better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

fn judge(m: &Metric, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    if m.exact {
        // One-sided: fewer simulated cycles is a gain, not a regression.
        return if worsening(m, a, b) > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
    }
    if spread > bound {
        Verdict::Unresolved
    } else if worsening(m, a, b) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compare two result files; the table, and whether any row is `worse`.
pub fn compare(a: &ResultFile, b: &ResultFile) -> (String, bool) {
    let mut out = format!(
        "{:<18} {:<38} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    let mut any_worse = false;
    for ra in &a.records {
        let Some(rb) = b.records.iter().find(|r| r.workload == ra.workload) else {
            out.push_str(&format!("{:<18} missing from B\n", ra.workload));
            any_worse = true;
            continue;
        };
        for (name, &va) in &ra.metrics {
            let Some(m) = spec::metric(name) else {
                continue;
            };
            // Bounded metrics always; of the unbounded ones only the
            // exact counts, which must repeat bit for bit.
            if m.bound.is_none() && !m.exact {
                continue;
            }
            let Some(&vb) = rb.metrics.get(name) else {
                out.push_str(&format!("{:<18} {name:<38} missing from B\n", ra.workload));
                any_worse = true;
                continue;
            };
            let verdict = match m.bound {
                // An exact count with no bound: identical or not.
                None if va == vb => Verdict::Ok,
                None => Verdict::Worse,
                Some(bound) => {
                    let spread = [ra, rb]
                        .iter()
                        .filter_map(|r| r.samples.get(name))
                        .map(|s| stats::spread(s))
                        .fold(0.0, f64::max);
                    judge(m, bound, va, vb, spread)
                }
            };
            any_worse |= verdict == Verdict::Worse;
            let rel = if va == 0.0 {
                if vb == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (vb - va) / va.abs()
            };
            let bound = m.bound_label();
            out.push_str(&format!(
                "{:<18} {name:<38} {va:>14.6} {vb:>14.6} {:>+8.2}% {bound:>7}  {}\n",
                ra.workload,
                rel * 100.0,
                verdict.word()
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, sypd: f64, samples: &[f64]) -> Record {
        let mut r = Record {
            workload: workload.to_string(),
            seed: 3,
            seconds: 10,
            nproc: 2,
            deterministic: true,
            attempted: 42,
            correct: true,
            notes: vec!["step_ms p90 = 4.5 over 420 samples".to_string()],
            ..Record::default()
        };
        r.set("sypd", sypd);
        r.set("failed_fraction", 0.0);
        r.set("sim_cycles_per_step", 66_849_106.0);
        r.samples.insert("sypd".to_string(), samples.to_vec());
        r
    }

    #[test]
    fn result_file_round_trips_through_the_repo_json_parser() {
        let f = ResultFile {
            records: vec![
                record("kernel_serial_1r", 2.568_312_345_678_9, &[2.5, 2.6, 2.55]),
                record("halo_serial_2r", 104.25, &[]),
            ],
        };
        let back = ResultFile::parse(&f.render()).unwrap();
        assert_eq!(back, f);
        assert!(ResultFile::parse("{\"schema\":\"x\"}").is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_listed_metrics() {
        let r = record("kernel_serial_1r", 2.5, &[]);
        let line = r.contract_line(&spec::END_TO_END);
        let doc = parse_json(&line).unwrap();
        let Json::Obj(top) = &doc else { panic!() };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        let Some(Json::Obj(ms)) = doc.get("metrics") else {
            panic!()
        };
        assert_eq!(ms.len(), spec::END_TO_END.len());
        let sypd = ms.get("sypd").unwrap();
        assert_eq!(sypd.get("value").unwrap().as_num(), Some(2.5));
        assert_eq!(sypd.get("unit").unwrap().as_str(), Some("1/d"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn compare_flags_worse_exact_and_unresolved() {
        let a = ResultFile {
            records: vec![record("w", 100.0, &[99.0, 100.0, 101.0, 100.5])],
        };
        // 5% slower: inside the 25% bound.
        let b = ResultFile {
            records: vec![record("w", 95.0, &[94.0, 95.0, 96.0, 95.5])],
        };
        let (table, worse) = compare(&a, &b);
        assert!(!worse, "{table}");
        assert!(table.contains("ok"));
        // 40% slower: worse.
        let c = ResultFile {
            records: vec![record("w", 60.0, &[59.0, 60.0, 61.0, 60.5])],
        };
        let (table, worse) = compare(&a, &c);
        assert!(worse && table.contains("worse"), "{table}");
        // 40% slower but its own episodes swing 60%: unresolved, not worse.
        let d = ResultFile {
            records: vec![record("w", 60.0, &[40.0, 60.0, 80.0, 50.0])],
        };
        let (table, worse) = compare(&a, &d);
        assert!(!worse && table.contains("unresolved"), "{table}");
        // One more simulated cycle: exact metrics regress on any increase.
        let mut e = a.clone();
        e.records[0].set("sim_cycles_per_step", 66_849_107.0);
        let (table, worse) = compare(&a, &e);
        assert!(worse, "{table}");
        // A workload missing from B is a failure, not a pass.
        let (_, worse) = compare(&a, &ResultFile::default());
        assert!(worse);
    }

    #[test]
    fn exact_counts_without_a_bound_must_be_identical() {
        let mut a = record("w", 1.0, &[]);
        a.set("mpi-sim.p2p_msgs_per_step", 270.0);
        a.set("mpi-sim.pingpong_ns", 900.0);
        let mut b = a.clone();
        b.set("mpi-sim.pingpong_ns", 1800.0); // host time: reported, not gated
        let fa = ResultFile { records: vec![a] };
        let (_, worse) = compare(
            &fa,
            &ResultFile {
                records: vec![b.clone()],
            },
        );
        assert!(!worse);
        b.set("mpi-sim.p2p_msgs_per_step", 269.0);
        let (table, worse) = compare(&fa, &ResultFile { records: vec![b] });
        assert!(worse, "{table}");
    }
}
