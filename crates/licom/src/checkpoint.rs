//! CRC-protected checkpoint ring and rollback-and-replay recovery.
//!
//! The restart files in [`crate::io`] assume a clean shutdown. This module
//! is the *in-campaign* safety net: a ring of K per-rank checkpoints, each
//! field protected by a CRC32, written atomically (tmp + fsync + rename)
//! so a crash mid-write can never destroy the previous good slot. When a
//! step fails — a halo strip unrecoverable after retries, a physics guard
//! trip — [`crate::Model::run_steps_resilient`] agrees collectively on the
//! newest checkpoint *every* rank can verify, restores it, and replays.
//! Replay is deterministic (same seeds, same reduction order on every
//! backend), so a recovered run is bitwise identical to a fault-free one.
//!
//! The serialized image is a plain byte buffer (see [`encode`]/[`decode`])
//! so corruption handling can be tested without a model: `decode` returns
//! a typed [`CheckpointError`] on any malformed input and never panics.

use std::io::Write;
use std::path::PathBuf;

use mpi_sim::{crc32_f64, ReduceOp};

use crate::model::{Model, StepError};
use crate::timers::Timers;

const MAGIC: &[u8; 8] = b"LICOMCKP";
const VERSION: u64 = 1;
/// Sanity cap on field-name length; real names are < 16 bytes.
const MAX_NAME: usize = 256;

/// Errors from checkpoint encode/decode/restore. Malformed or corrupt
/// input always surfaces here — never as a panic.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    /// Not a checkpoint, wrong version, or structurally malformed.
    Format(String),
    /// Structure is intact but a field's CRC does not match.
    Corrupt {
        field: String,
    },
    /// Valid checkpoint for a different geometry/rank layout.
    Mismatch(String),
    /// No slot that every rank can verify exists.
    NoUsableCheckpoint,
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
            CheckpointError::Corrupt { field } => {
                write!(f, "checkpoint field '{field}' failed CRC verification")
            }
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::NoUsableCheckpoint => {
                write!(f, "no checkpoint verifiable on every rank")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// In-memory image of one rank's checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    /// Global grid extents and rank layout: `[nx, ny, nz, rank, size]`.
    pub geometry: [u64; 5],
    /// Model step count the state corresponds to.
    pub step: u64,
    /// Named prognostic arrays, in a fixed order.
    pub fields: Vec<(String, Vec<f64>)>,
}

/// Serialize a checkpoint image. Layout (little-endian): magic, version,
/// geometry, step, field count, then per field
/// `[name_len][name][len][crc32][data…]`.
pub fn encode(ck: &CheckpointData) -> Vec<u8> {
    encode_fields(ck.geometry, ck.step, &ck.fields)
}

/// [`encode`] over owned or borrowed fields: a save streams the model's
/// own arrays into the image, so it never holds a second copy of the state.
fn encode_fields<N: AsRef<str>, D: AsRef<[f64]>>(
    geometry: [u64; 5],
    step: u64,
    fields: &[(N, D)],
) -> Vec<u8> {
    let payload: usize = fields
        .iter()
        .map(|(n, d)| 8 + n.as_ref().len() + 16 + 8 * d.as_ref().len())
        .sum();
    let mut out = Vec::with_capacity(8 + 8 * 8 + payload);
    out.extend_from_slice(MAGIC);
    for v in [VERSION]
        .iter()
        .chain(geometry.iter())
        .chain([step, fields.len() as u64].iter())
    {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for (name, data) in fields {
        let (name, data) = (name.as_ref(), data.as_ref());
        out.extend_from_slice(&(name.len() as u64).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(&(crc32_f64(data) as u64).to_le_bytes());
        for &x in data {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Format(format!(
                "truncated at byte {} (need {n} more)",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Deserialize and fully verify a checkpoint image. Every field's CRC is
/// checked; any structural damage yields a typed error, never a panic or
/// an unbounded allocation.
pub fn decode(buf: &[u8]) -> Result<CheckpointData, CheckpointError> {
    let mut c = Cursor { buf, pos: 0 };
    if c.take(8)? != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = c.u64()?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let mut geometry = [0u64; 5];
    for g in geometry.iter_mut() {
        *g = c.u64()?;
    }
    let step = c.u64()?;
    let nfields = c.u64()? as usize;
    // Each field needs ≥ 24 bytes of framing; reject absurd counts before
    // reserving anything.
    if nfields > c.remaining() / 24 + 1 {
        return Err(CheckpointError::Format(format!(
            "field count {nfields} impossible for {} remaining bytes",
            c.remaining()
        )));
    }
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let name_len = c.u64()? as usize;
        if name_len > MAX_NAME {
            return Err(CheckpointError::Format(format!(
                "field name length {name_len} exceeds cap {MAX_NAME}"
            )));
        }
        let name = String::from_utf8_lossy(c.take(name_len)?).into_owned();
        let len = c.u64()? as usize;
        let crc = c.u64()?;
        // Length is validated against the actual remaining bytes before
        // the data allocation happens inside take().
        let raw =
            c.take(len.checked_mul(8).ok_or_else(|| {
                CheckpointError::Format(format!("field '{name}' length overflow"))
            })?)?;
        let data: Vec<f64> = raw
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        if crc32_f64(&data) as u64 != crc {
            return Err(CheckpointError::Corrupt { field: name });
        }
        fields.push((name, data));
    }
    if c.remaining() != 0 {
        return Err(CheckpointError::Format(format!(
            "{} trailing bytes",
            c.remaining()
        )));
    }
    Ok(CheckpointData {
        geometry,
        step,
        fields,
    })
}

/// `[nx, ny, nz, rank, size]` of the model a checkpoint belongs to.
fn geometry(m: &Model) -> [u64; 5] {
    [
        m.cfg.nx as u64,
        m.cfg.ny as u64,
        m.cfg.nz as u64,
        m.comm().rank() as u64,
        m.comm().size() as u64,
    ]
}

/// The prognostic fields a checkpoint carries, in file order — the same set
/// as the restart files (leapfrog roles of u/v/t/s/eta plus barotropic
/// ubt/vbt) — as slices of the model's own arrays.
fn fields(m: &Model) -> Vec<(String, &[f64])> {
    let st = &m.state;
    let mut fields = Vec::with_capacity(17);
    for (role, lev) in [("old", st.old()), ("cur", st.cur()), ("new", st.new_lev())] {
        fields.push((format!("u_{role}"), st.u[lev].as_slice()));
        fields.push((format!("v_{role}"), st.v[lev].as_slice()));
        fields.push((format!("t_{role}"), st.t[lev].as_slice()));
        fields.push((format!("s_{role}"), st.s[lev].as_slice()));
        fields.push((format!("eta_{role}"), st.eta[lev].as_slice()));
    }
    fields.push(("ubt".into(), st.ubt.as_slice()));
    fields.push(("vbt".into(), st.vbt.as_slice()));
    fields
}

/// Load a verified image back into the model's prognostic state. The
/// caller is responsible for [`Model::reset_transients`] afterwards.
fn apply(m: &mut Model, ck: &CheckpointData) -> Result<(), CheckpointError> {
    let want = geometry(m);
    if ck.geometry != want {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint geometry {:?} vs model {:?}",
            ck.geometry, want
        )));
    }
    let expect = fields(m);
    if ck.fields.len() != expect.len() {
        return Err(CheckpointError::Mismatch(format!(
            "{} fields, model expects {}",
            ck.fields.len(),
            expect.len()
        )));
    }
    // Validate all names/lengths first so a mismatch cannot leave the
    // state half-restored.
    for ((name, data), (want_name, want_data)) in ck.fields.iter().zip(expect.iter()) {
        if name != want_name || data.len() != want_data.len() {
            return Err(CheckpointError::Mismatch(format!(
                "field '{name}' ({} values) where '{want_name}' ({}) expected",
                data.len(),
                want_data.len()
            )));
        }
    }
    let mut it = ck.fields.iter();
    for (role, lev) in [
        ("old", m.state.old()),
        ("cur", m.state.cur()),
        ("new", m.state.new_lev()),
    ] {
        let _ = role;
        m.state.u[lev].copy_from_slice(&it.next().unwrap().1);
        m.state.v[lev].copy_from_slice(&it.next().unwrap().1);
        m.state.t[lev].copy_from_slice(&it.next().unwrap().1);
        m.state.s[lev].copy_from_slice(&it.next().unwrap().1);
        m.state.eta[lev].copy_from_slice(&it.next().unwrap().1);
    }
    m.state.ubt.copy_from_slice(&it.next().unwrap().1);
    m.state.vbt.copy_from_slice(&it.next().unwrap().1);
    Ok(())
}

/// A bounded ring of atomic per-rank checkpoints.
pub struct CheckpointManager {
    dir: PathBuf,
    ring: usize,
    next_slot: usize,
    written: u64,
}

impl CheckpointManager {
    /// Checkpoints go to `dir`, cycling through `ring` slots (≥ 1).
    pub fn new(dir: impl Into<PathBuf>, ring: usize) -> Self {
        Self {
            dir: dir.into(),
            ring: ring.max(1),
            next_slot: 0,
            written: 0,
        }
    }

    /// Checkpoints written so far through this manager.
    pub fn checkpoints_written(&self) -> u64 {
        self.written
    }

    fn slot_path(&self, slot: usize, rank: usize) -> PathBuf {
        self.dir.join(format!("ckpt_slot{slot}_rank{rank:05}.bin"))
    }

    /// Write this rank's checkpoint into the next ring slot: tmp file,
    /// fsync, atomic rename. A crash at any point leaves either the old
    /// slot or the new one — never a torn file.
    pub fn save(&mut self, m: &Model) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(&self.dir)?;
        let bytes = encode_fields(geometry(m), m.steps_taken(), &fields(m));
        let path = self.slot_path(self.next_slot, m.comm().rank());
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        m.flight_note(
            mpi_sim::flight::FlightEventKind::CheckpointSave,
            m.steps_taken(),
            self.next_slot as u64,
            bytes.len() as u64,
        );
        self.next_slot = (self.next_slot + 1) % self.ring;
        self.written += 1;
        Ok(())
    }

    /// Newest step this rank can fully verify (decode + CRC + geometry),
    /// with the slot image. Unreadable or corrupt slots are skipped, not
    /// errors — that is the failure mode the ring exists for.
    fn latest_good(&self, m: &Model) -> Option<CheckpointData> {
        let mut best: Option<CheckpointData> = None;
        for slot in 0..self.ring {
            let path = self.slot_path(slot, m.comm().rank());
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            let Ok(ck) = decode(&bytes) else { continue };
            if best.as_ref().is_none_or(|b| ck.step > b.step) {
                best = Some(ck);
            }
        }
        best
    }

    /// Collectively restore the newest checkpoint step that **every**
    /// rank can verify, returning that step. Uses a min-allreduce so all
    /// ranks agree even when some have newer (or corrupted) slots.
    pub fn restore_latest_collective(&self, m: &mut Model) -> Result<u64, CheckpointError> {
        let local = self.latest_good(m);
        let local_step = local.as_ref().map_or(-1.0, |ck| ck.step as f64);
        let agreed = m.comm().allreduce_f64(local_step, ReduceOp::Min);
        if agreed < 0.0 {
            return Err(CheckpointError::NoUsableCheckpoint);
        }
        let step = agreed as u64;
        // The agreed step may be older than this rank's newest slot; find
        // the matching one.
        let ck = if local.as_ref().map(|ck| ck.step) == Some(step) {
            local.unwrap()
        } else {
            (0..self.ring)
                .filter_map(|slot| {
                    std::fs::read(self.slot_path(slot, m.comm().rank()))
                        .ok()
                        .and_then(|b| decode(&b).ok())
                })
                .find(|ck| ck.step == step)
                .ok_or(CheckpointError::NoUsableCheckpoint)?
        };
        apply(m, &ck)?;
        m.reset_transients();
        m.set_steps_taken(step);
        m.flight_note(
            mpi_sim::flight::FlightEventKind::CheckpointRestore,
            step,
            0,
            0,
        );
        Ok(step)
    }
}

/// When to checkpoint and how hard to try before giving up.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Write a checkpoint every this many completed steps.
    pub checkpoint_every: u64,
    /// Rollbacks tolerated across the whole run before surfacing failure.
    pub max_rollbacks: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            checkpoint_every: 5,
            max_rollbacks: 8,
        }
    }
}

/// What a resilient run did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    pub steps_completed: u64,
    pub rollbacks: u32,
    pub steps_replayed: u64,
    pub halo_errors: u64,
    pub guard_trips: u64,
    /// Physics drift trips escalated by the telemetry monitor
    /// ([`crate::telemetry::TelemetryConfig::escalate`]).
    pub drift_trips: u64,
    pub checkpoints_written: u64,
}

/// A resilient run that could not reach its target.
#[derive(Debug)]
pub enum RecoveryError {
    /// `max_rollbacks` exceeded; the last step error is attached.
    RollbackBudgetExhausted {
        stats: RecoveryStats,
        last: Option<StepError>,
    },
    /// Rollback itself failed (no usable checkpoint, I/O error, …).
    Checkpoint(CheckpointError),
}

impl From<CheckpointError> for RecoveryError {
    fn from(e: CheckpointError) -> Self {
        RecoveryError::Checkpoint(e)
    }
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::RollbackBudgetExhausted { stats, last } => write!(
                f,
                "rollback budget exhausted after {} rollbacks (last error: {})",
                stats.rollbacks,
                last.as_ref().map_or("none".into(), |e| e.to_string())
            ),
            RecoveryError::Checkpoint(e) => write!(f, "recovery failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

fn publish(timers: &mut Timers, stats: &RecoveryStats) {
    timers.add_count("rollbacks", stats.rollbacks as u64);
    timers.add_count("steps_replayed", stats.steps_replayed);
    timers.add_count("halo_errors", stats.halo_errors);
    timers.add_count("guard_trips", stats.guard_trips);
    timers.add_count("escalated_drift_trips", stats.drift_trips);
    timers.add_count("checkpoints_written", stats.checkpoints_written);
}

impl Model {
    /// Advance to `target` total steps, surviving step failures by
    /// rolling back to the newest collectively-verified checkpoint and
    /// replaying. A baseline checkpoint is written before the first step
    /// so rollback is always possible.
    ///
    /// Every step ends with a one-value status vote (min-allreduce over
    /// ok/fail): either *all* ranks commit the step or *all* roll back,
    /// so a failure on one rank can never fork the ensemble. Requires
    /// integrity framing ([`crate::model::ModelOptions::integrity`]) so a
    /// mid-step abort on one rank times out — not deadlocks — its peers.
    pub fn run_steps_resilient(
        &mut self,
        target: u64,
        mgr: &mut CheckpointManager,
        policy: &RecoveryPolicy,
    ) -> Result<RecoveryStats, RecoveryError> {
        assert!(
            self.opts.integrity,
            "run_steps_resilient requires ModelOptions::integrity"
        );
        let mut stats = RecoveryStats::default();
        let mut last_err: Option<StepError> = None;
        // Window every monotone counter against its value at entry: the
        // manager and the transport both outlive this call, so a resumed
        // run re-publishing their lifetime totals would double-count
        // earlier windows in the timers report.
        let t0 = self.comm().traffic();
        let ckpt0 = mgr.checkpoints_written();
        if self.steps_taken() < target {
            mgr.save(self)?;
        }
        let mut since_ckpt: u64 = 0;
        let mut replaying_to: u64 = 0;
        while self.steps_taken() < target {
            // Pin the step number being attempted *before* stepping: a
            // rank whose own try_step succeeds (its carried exchanges
            // completed before a peer aborted) has already advanced
            // steps_taken when the vote fails, and using the advanced
            // value would overcount its replay window by one.
            let attempted = self.steps_taken() + 1;
            let res = self.try_step();
            let ok = match &res {
                Ok(()) => true,
                Err(e) => {
                    match e {
                        StepError::Halo(_) => stats.halo_errors += 1,
                        StepError::Guard(_) => stats.guard_trips += 1,
                        StepError::Drift(_) => stats.drift_trips += 1,
                    }
                    last_err = Some(res.unwrap_err());
                    false
                }
            };
            // Status vote: the step is committed only if every rank
            // finished it cleanly. Min over {0,1} = logical AND.
            let all_ok = self
                .comm()
                .allreduce_f64(if ok { 1.0 } else { 0.0 }, ReduceOp::Min)
                > 0.5;
            if all_ok {
                stats.steps_completed += 1;
                if self.steps_taken() < replaying_to {
                    stats.steps_replayed += 1;
                }
                since_ckpt += 1;
                if since_ckpt >= policy.checkpoint_every && self.steps_taken() < target {
                    mgr.save(self)?;
                    since_ckpt = 0;
                }
            } else {
                stats.rollbacks += 1;
                // The flight recorder black-boxes both rollback exits:
                // budget exhaustion is a terminal failure edge, and even
                // a recoverable rollback is worth a bundle (claim-once
                // per world means only the first incident writes).
                self.flight_note(
                    mpi_sim::flight::FlightEventKind::Rollback,
                    attempted,
                    u64::from(stats.rollbacks),
                    0,
                );
                if stats.rollbacks > policy.max_rollbacks {
                    self.dump_flight("rollback-budget-exhausted");
                    stats.checkpoints_written = mgr.checkpoints_written() - ckpt0;
                    publish(&mut self.timers, &stats);
                    self.fold_traffic_window(&t0);
                    return Err(RecoveryError::RollbackBudgetExhausted {
                        stats,
                        last: last_err,
                    });
                }
                self.dump_flight("rollback");
                replaying_to = replaying_to.max(attempted);
                mgr.restore_latest_collective(self)?;
                since_ckpt = 0;
            }
        }
        stats.checkpoints_written = mgr.checkpoints_written() - ckpt0;
        publish(&mut self.timers, &stats);
        self.fold_traffic_window(&t0);
        Ok(stats)
    }

    /// Fold the transport's fault/recovery counters accumulated since the
    /// `t0` snapshot into the timers so one report shows the whole story.
    /// Runs on both the success and the budget-exhausted exit of
    /// [`Model::run_steps_resilient`] — skipping it on the error path
    /// would silently lose the failed window's retries from the report.
    fn fold_traffic_window(&mut self, t0: &mpi_sim::TrafficSnapshot) {
        let w = self.comm().traffic().delta(t0);
        self.timers
            .add_count("faults_injected", w.faults_injected());
        self.timers.add_count("crc_failures", w.crc_failures);
        self.timers.add_count("halo_retries", w.halo_retries);
        self.timers.add_count("resends_served", w.resends_served);
        self.timers.add_count("recv_timeouts", w.recv_timeouts);
        self.timers.add_count("rank_stalls", w.rank_stalls);
    }
}

/// Convenience: `slot_path` naming, exposed for tests and tooling.
pub fn slot_file_name(slot: usize, rank: usize) -> String {
    format!("ckpt_slot{slot}_rank{rank:05}.bin")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        CheckpointData {
            geometry: [16, 10, 5, 0, 1],
            step: 42,
            fields: vec![
                ("u_cur".into(), vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE]),
                ("eta_cur".into(), vec![0.125; 7]),
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrips() {
        let ck = sample();
        assert_eq!(decode(&encode(&ck)).unwrap(), ck);
    }

    #[test]
    fn payload_corruption_is_typed_not_panic() {
        let mut bytes = encode(&sample());
        let n = bytes.len();
        bytes[n - 3] ^= 0x40; // inside the last field's data
        match decode(&bytes) {
            Err(CheckpointError::Corrupt { field }) => assert_eq!(field, "eta_cur"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_garbage_are_typed_not_panic() {
        let bytes = encode(&sample());
        for cut in [0, 1, 7, 8, 20, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must error");
        }
        assert!(decode(b"not a checkpoint at all").is_err());
        // Absurd field count must not allocate or panic.
        let mut evil = bytes.clone();
        let nfields_off = 8 + 8 * 7;
        evil[nfields_off..nfields_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&evil).is_err());
    }
}
