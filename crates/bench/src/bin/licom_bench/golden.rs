//! Output verification: the checksums every episode and every served job
//! must reproduce, committed beside the benchmark in `golden.json` and
//! regenerated only by `licom_bench bless`.
//!
//! The model is deterministic and bitwise identical across execution
//! spaces, so one golden per (grid, ranks, steps) — blessed on Serial —
//! also holds Threads, DeviceSim and SwAthread runs to the same bits.

use std::collections::BTreeMap;
use std::path::Path;

use kokkos_profiling::{parse_json, render_json_pretty, Json};
use licom::Model;
use licom_server::{JobSpec, Priority};
use mpi_sim::World;

use crate::spec::{
    Episode, Grid, Kind, SpaceKind, GRID_CPE, GRID_HALO, GRID_KERNEL, SERVE_GRIDS, SERVE_MAX_STEPS,
    SERVE_MIN_STEPS, WORKLOADS,
};

const SCHEMA: &str = "licom-bench-golden-v1";

/// The goldens compiled into the binary.
const COMMITTED: &str = include_str!("golden.json");

/// The cross-space check: 10 steps of 60×38×6 on one rank, every space.
pub const CROSS_SPACE: Episode = Episode {
    ranks: 1,
    space: SpaceKind::Serial,
    grid: GRID_HALO,
    warmup: 0,
    steps: 10,
};

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Goldens {
    /// `"180x115x30:r1:s17"` → one checksum per rank.
    episodes: BTreeMap<String, Vec<u64>>,
    /// `"30x19x4:12"` → the `Completed{checksum}` of that job.
    jobs: BTreeMap<String, u64>,
}

fn episode_key(ep: &Episode) -> String {
    format!(
        "{}:r{}:s{}",
        ep.grid.label(),
        ep.ranks,
        ep.warmup + ep.steps
    )
}

fn job_key(grid: Grid, steps: u64) -> String {
    format!("{}:{steps}", grid.label())
}

/// Checksums travel as hex strings: JSON numbers are doubles and would
/// round a 64-bit fingerprint.
fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn unhex(j: &Json) -> Result<u64, String> {
    let s = j.as_str().ok_or("checksum is not a string")?;
    u64::from_str_radix(s, 16).map_err(|e| format!("checksum {s:?}: {e}"))
}

impl Goldens {
    pub fn committed() -> Result<Goldens, String> {
        Self::parse(COMMITTED)
    }

    pub fn parse(text: &str) -> Result<Goldens, String> {
        let doc = parse_json(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("golden file is not {SCHEMA}"));
        }
        let table = |key: &str| match doc.get(key) {
            Some(Json::Obj(m)) => Ok(m),
            _ => Err(format!("golden file has no `{key}` table")),
        };
        let mut g = Goldens::default();
        for (k, v) in table("episodes")? {
            let sums = v
                .as_arr()
                .ok_or_else(|| format!("episode {k}: not an array"))?
                .iter()
                .map(unhex)
                .collect::<Result<Vec<u64>, String>>()?;
            g.episodes.insert(k.clone(), sums);
        }
        for (k, v) in table("jobs")? {
            g.jobs.insert(k.clone(), unhex(v)?);
        }
        Ok(g)
    }

    pub fn render(&self) -> String {
        let episodes = self
            .episodes
            .iter()
            .map(|(k, v)| (k.clone(), Json::Arr(v.iter().copied().map(hex).collect())))
            .collect();
        let jobs = self
            .jobs
            .iter()
            .map(|(k, v)| (k.clone(), hex(*v)))
            .collect();
        render_json_pretty(&Json::obj([
            ("schema", SCHEMA.into()),
            ("episodes", Json::Obj(episodes)),
            ("jobs", Json::Obj(jobs)),
        ]))
    }

    /// `Ok` when `checksums` (one per rank) are the blessed ones.
    pub fn check_episode(&self, ep: &Episode, checksums: &[u64]) -> Result<(), String> {
        let key = episode_key(ep);
        match self.episodes.get(&key) {
            None => Err(format!(
                "no golden for episode {key} (run `licom_bench bless`)"
            )),
            Some(want) if want == checksums => Ok(()),
            Some(want) => Err(format!(
                "episode {key} on {}: checksums {checksums:016x?} differ from golden {want:016x?}",
                ep.space.name()
            )),
        }
    }

    pub fn check_job(&self, grid: Grid, steps: u64, checksum: u64) -> Result<(), String> {
        let key = job_key(grid, steps);
        match self.jobs.get(&key) {
            None => Err(format!("no golden for job {key} (run `licom_bench bless`)")),
            Some(want) if *want == checksum => Ok(()),
            Some(want) => Err(format!(
                "job {key}: checksum {checksum:016x} differs from golden {want:016x}"
            )),
        }
    }
}

/// Every episode shape the benchmark verifies: each workload's timed and
/// traced episodes and the cross-space check.
pub fn verified_episodes() -> Vec<Episode> {
    let mut eps = vec![CROSS_SPACE];
    for w in WORKLOADS {
        if let Kind::Model(ep) = w.kind {
            eps.push(ep);
            eps.push(Episode {
                steps: w.traced_steps,
                ..ep
            });
        }
    }
    eps
}

/// Regenerate every golden by running the model on Serial, and hold each
/// grid to its recorded stability horizon while at it. Never called by
/// `run`.
pub fn bless(path: &Path, work_dir: &Path) -> Result<(), String> {
    let mut g = Goldens::default();
    for ep in verified_episodes() {
        ep.preflight()?;
        let key = episode_key(&ep);
        if g.episodes.contains_key(&key) {
            continue;
        }
        eprintln!("bless: episode {key}");
        let serial = Episode {
            space: SpaceKind::Serial,
            ..ep
        };
        let out = crate::episode::run(&serial, work_dir, std::time::Instant::now());
        if let Some(e) = out.errors.first() {
            return Err(format!("blessing {key}: {e}"));
        }
        g.episodes.insert(key, out.checksums);
    }
    let mut grids = vec![GRID_KERNEL, GRID_CPE];
    grids.extend(SERVE_GRIDS);
    for grid in grids {
        eprintln!("bless: {} for {} steps", grid.label(), grid.horizon);
        // The server builds its models on a solo world with
        // `JobSpec::model_options`; bless job checksums the same way.
        let spec = JobSpec {
            tenant: "bless".to_string(),
            priority: Priority::Normal,
            cfg: grid.cfg(),
            space: kokkos_rs::Space::serial(),
            steps: grid.horizon,
            checkpoint: None,
        };
        let opts = licom::ModelOptions {
            flight_dir: Some(work_dir.join("flight")),
            ..spec.model_options()
        };
        let mut m = Model::new(&World::solo(), spec.cfg.clone(), spec.space.clone(), opts);
        for step in 1..=grid.horizon {
            m.try_step().map_err(|e| {
                format!(
                    "{} fails at step {step}, inside its recorded horizon of {}: {e}",
                    grid.label(),
                    grid.horizon
                )
            })?;
            if SERVE_GRIDS.contains(&grid) && (SERVE_MIN_STEPS..=SERVE_MAX_STEPS).contains(&step) {
                g.jobs.insert(job_key(grid, step), m.checksum());
            }
        }
    }
    std::fs::write(path, g.render()).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_goldens_parse_and_cover_every_verified_shape() {
        let g = Goldens::committed().unwrap();
        for ep in verified_episodes() {
            let sums = g.episodes.get(&episode_key(&ep));
            assert_eq!(sums.map(Vec::len), Some(ep.ranks), "{}", episode_key(&ep));
        }
        for grid in SERVE_GRIDS {
            for steps in SERVE_MIN_STEPS..=SERVE_MAX_STEPS {
                assert!(g.jobs.contains_key(&job_key(grid, steps)));
            }
        }
    }

    #[test]
    fn render_round_trips_64_bit_checksums() {
        let mut g = Goldens::default();
        g.episodes.insert(
            "60x38x6:r2:s9".into(),
            vec![u64::MAX, 0x8000_0000_0000_0001],
        );
        g.jobs.insert("30x19x4:8".into(), 0xdead_beef_0bad_f00d);
        assert_eq!(Goldens::parse(&g.render()).unwrap(), g);
    }

    #[test]
    fn mismatch_and_missing_goldens_are_errors() {
        let mut g = Goldens::default();
        g.episodes.insert(episode_key(&CROSS_SPACE), vec![1]);
        assert!(g.check_episode(&CROSS_SPACE, &[1]).is_ok());
        assert!(g
            .check_episode(&CROSS_SPACE, &[2])
            .unwrap_err()
            .contains("differ"));
        assert!(g
            .check_job(GRID_HALO, 8, 1)
            .unwrap_err()
            .contains("no golden"));
        assert!(Goldens::parse("{\"schema\":\"other\"}").is_err());
    }
}
