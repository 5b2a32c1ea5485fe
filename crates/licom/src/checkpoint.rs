//! Recovery: one state image on disk, one step-vote-commit loop.
//!
//! **One image.** A rank's prognostic state is serialized one way
//! ([`encode`] / [`decode`]): a versioned header, then every field by
//! leapfrog role, each under its own CRC32. It is always written the same
//! way — tmp file, fsync, atomic rename — so a crash mid-write can never
//! destroy the previous good file, and always read the same way: decoded
//! and CRC-checked in full, then every name and length held against the
//! model, before the first byte of state changes. A restart file
//! ([`Model::save_restart`]) is that image under a stable name; the
//! in-campaign ring ([`CheckpointManager`]) is K of them. `decode` returns
//! a typed [`CheckpointError`] on any input and never panics or reserves
//! more than a small multiple of what it was handed.
//!
//! **One loop.** [`drive`] is the only place besides [`Model::step`] that
//! steps the model: try the step, vote, and either *every* rank commits it
//! or *every* rank rolls back to the newest checkpoint all of them can
//! verify and replays. Replay is deterministic (same seeds, same reduction
//! order on every backend), so a recovered run is bitwise identical to a
//! fault-free one. Both votes — the step's and the restore's — are the one
//! deadline-bounded [`vote`], so a dead or silent rank is a typed error
//! and never a hang. [`Model::run_steps_resilient`] and
//! [`crate::elastic::run_elastic`] are its two callers.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kokkos_rs::{View2, View3};
use mpi_sim::flight::FlightEventKind;
use mpi_sim::{crc32_f64, Comm, CommError, RetryPolicy};

use crate::model::{Model, StepError};
use crate::state::State;

const MAGIC: &[u8; 8] = b"LICOMCKP";
/// 3: two roles (`old`, `cur`) and no `new` — 12 fields. Version 2 also
/// carried `u_new`, `v_new` and `eta_new` (15 fields), version 1 the
/// tracers' `new` as well (17).
const VERSION: u64 = 3;
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
    /// The restore vote could not finish: a peer died, or stayed silent
    /// past the deadline.
    Vote(CommError),
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CommError> for CheckpointError {
    fn from(e: CommError) -> Self {
        CheckpointError::Vote(e)
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
            CheckpointError::Vote(e) => write!(f, "checkpoint restore vote failed: {e}"),
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

/// A role's name, its leapfrog level of `u` and `v`, and its buffers of
/// the two-level fields: `[t, s]` and `eta`.
type Role<'s> = (&'static str, usize, [&'s View3<f64>; 2], &'s View2<f64>);

/// The image's layout by role: the leapfrog level of `u` and `v` and the
/// buffers of `t`, `s` and `eta` in the `old` and `cur` roles. A two-level
/// field's `old` is the buffer its next step writes, which holds the
/// previous current level between steps ([`crate::state::TwoLevel`]). The
/// new velocity level is no role: a step writes it before it reads it,
/// and a restore zeroes it ([`Model::reset_transients`]).
fn roles(st: &State) -> [Role<'_>; 2] {
    [
        ("old", st.old(), [st.t.old(), st.s.old()], st.eta.old()),
        ("cur", st.cur(), [st.t.cur(), st.s.cur()], st.eta.cur()),
    ]
}

/// The prognostic fields an image carries, in file order — by role, u/v,
/// t/s, eta; then barotropic ubt/vbt: 12 fields — as slices of the model's
/// own arrays.
fn fields(m: &Model) -> Vec<(String, &[f64])> {
    let st = &m.state;
    let mut fields = Vec::with_capacity(12);
    for (role, lev, tracers, eta) in roles(st) {
        fields.push((format!("u_{role}"), st.u[lev].as_slice()));
        fields.push((format!("v_{role}"), st.v[lev].as_slice()));
        for (name, q) in ["t", "s"].into_iter().zip(tracers) {
            fields.push((format!("{name}_{role}"), q.as_slice()));
        }
        fields.push((format!("eta_{role}"), eta.as_slice()));
    }
    fields.push(("ubt".into(), st.ubt.as_slice()));
    fields.push(("vbt".into(), st.vbt.as_slice()));
    fields
}

/// Write `m`'s image to `path` — tmp file, fsync, atomic rename, directory
/// fsync ([`kokkos_profiling::durable::replace`]): a crash at any point
/// leaves either the old file or the new one, never a torn one. Returns the
/// image's size in bytes.
fn write_image(m: &Model, path: &Path) -> Result<u64, CheckpointError> {
    let bytes = encode_fields(geometry(m), m.steps_taken(), &fields(m));
    kokkos_profiling::durable::replace(path, "tmp", &bytes)?;
    Ok(bytes.len() as u64)
}

/// Load a verified image into the model: geometry, field count and every
/// name and length are held against the model **before** the first byte of
/// state changes, so an image that does not fit leaves the model as it was.
/// Work arrays are reset ([`Model::reset_transients`]) and the step counter
/// set, so the model is indistinguishable from a fresh one given this state.
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
    for ((name, data), (want_name, want_data)) in ck.fields.iter().zip(expect.iter()) {
        if name != want_name || data.len() != want_data.len() {
            return Err(CheckpointError::Mismatch(format!(
                "field '{name}' ({} values) where '{want_name}' ({}) expected",
                data.len(),
                want_data.len()
            )));
        }
    }
    let st = &m.state;
    let mut it = ck.fields.iter().map(|(_, data)| data.as_slice());
    let mut next = || it.next().expect("field count checked above");
    for (_, lev, tracers, eta) in roles(st) {
        st.u[lev].copy_from_slice(next());
        st.v[lev].copy_from_slice(next());
        for q in tracers {
            q.copy_from_slice(next());
        }
        eta.copy_from_slice(next());
    }
    st.ubt.copy_from_slice(next());
    st.vbt.copy_from_slice(next());
    m.reset_transients();
    m.set_steps_taken(ck.step);
    Ok(())
}

impl Model {
    /// Path of this rank's restart file under `dir`.
    pub fn restart_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("restart_{:05}.bin", self.comm().rank()))
    }

    /// Write this rank's restart file: the checkpoint image under a stable
    /// name — a ring of one slot. Each rank writes its own file; no
    /// communication.
    pub fn save_restart(&self, dir: &Path) -> Result<(), CheckpointError> {
        write_image(self, &self.restart_path(dir)).map(|_| ())
    }

    /// Resume from a file written by [`Model::save_restart`] with the same
    /// configuration and rank count; the continued run is bitwise identical
    /// to an uninterrupted one. The file is verified in full — format, CRC
    /// of every field, geometry, names, lengths — before any state changes:
    /// on `Err` the model is exactly as it was.
    pub fn load_restart(&mut self, dir: &Path) -> Result<(), CheckpointError> {
        let ck = decode(&std::fs::read(self.restart_path(dir))?)?;
        apply(self, &ck)
    }
}

/// Tag salts of the two votes, far above the model's tag space.
const STEP_VOTE: u64 = 0x7C56_0000_0000_0000;
const RESTORE_VOTE: u64 = 0x7C55_0000_0000_0000;

/// The one bounded vote: every rank's ballot in rank order, or a typed
/// error as soon as a participant is known dead or once `4 ×
/// retry.budget()` has passed — a full retry budget on top of whatever the
/// slowest rank's halo retries may already have consumed. Ballots are `u8`s
/// in collective messages, which the fault plan never touches; `salt`
/// namespaces the wire tag so a failed vote's stragglers cannot match a
/// later one.
fn vote(
    comm: &Comm,
    salt: u64,
    ballot: Vec<u8>,
    retry: &RetryPolicy,
) -> Result<Vec<Vec<u8>>, CommError> {
    comm.try_allgather(salt, ballot, retry.budget() * 4)
}

/// Slot file naming, exposed for tests and tooling.
pub fn slot_file_name(slot: usize, rank: usize) -> String {
    format!("ckpt_slot{slot}_rank{rank:05}.bin")
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

    /// Write this rank's image into the next ring slot.
    pub fn save(&mut self, m: &Model) -> Result<(), CheckpointError> {
        let path = self
            .dir
            .join(slot_file_name(self.next_slot, m.comm().rank()));
        let bytes = write_image(m, &path)?;
        m.flight_note(
            FlightEventKind::CheckpointSave,
            m.steps_taken(),
            self.next_slot as u64,
            bytes,
        );
        self.next_slot = (self.next_slot + 1) % self.ring;
        self.written += 1;
        Ok(())
    }

    /// Collectively restore the newest checkpoint step that **every** rank
    /// can verify, returning that step. Each slot is read and decoded once;
    /// unreadable or corrupt slots are skipped, not errors — that is the
    /// failure mode the ring exists for. The ranks agree on the minimum of
    /// their newest verified steps through the bounded [`vote`] (salted by
    /// the saves so far, which every rank of a run has made alike): a peer
    /// that died, or never entered, is a [`CheckpointError::Vote`] within
    /// the deadline, not a blocked collective.
    pub fn restore_latest_collective(&self, m: &mut Model) -> Result<u64, CheckpointError> {
        let rank = m.comm().rank();
        let good: Vec<CheckpointData> = (0..self.ring)
            .filter_map(|slot| std::fs::read(self.dir.join(slot_file_name(slot, rank))).ok())
            .filter_map(|bytes| decode(&bytes).ok())
            .collect();
        // Ballot: this rank's newest verified step, or nothing; `None`
        // sorts below every step, so one rank without a slot decides.
        let newest = good.iter().map(|ck| ck.step).max();
        let ballots = vote(
            m.comm(),
            RESTORE_VOTE ^ self.written,
            newest.map_or(Vec::new(), |step| step.to_le_bytes().to_vec()),
            &m.opts.retry,
        )?;
        let agreed = ballots
            .iter()
            .map(|b| b.as_slice().try_into().ok().map(u64::from_le_bytes))
            .min()
            .flatten();
        // The agreed step may be older than this rank's newest slot.
        let ck = good
            .iter()
            .find(|ck| Some(ck.step) == agreed)
            .ok_or(CheckpointError::NoUsableCheckpoint)?;
        apply(m, ck)?;
        m.flight_note(FlightEventKind::CheckpointRestore, ck.step, 0, 0);
        Ok(ck.step)
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

/// What the commit loop did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Steps committed, replays included.
    pub steps_completed: u64,
    /// Steps voted down and rolled back (message faults, guard trips).
    pub rollbacks: u32,
    /// Committed steps that had been committed once before — what
    /// rollbacks and rank deaths cost (bounded by the checkpoint interval
    /// per incident).
    pub steps_replayed: u64,
    pub halo_errors: u64,
    pub guard_trips: u64,
    pub checkpoints_written: u64,
}

/// Why the commit loop stopped short of its target.
#[derive(Debug)]
pub enum RecoveryError {
    /// `max_rollbacks` exceeded; the last step error is attached.
    RollbackBudgetExhausted {
        stats: RecoveryStats,
        last: Option<StepError>,
    },
    /// Saving or restoring a checkpoint failed (no usable slot, I/O
    /// error, a restore vote that could not finish, …).
    Checkpoint(CheckpointError),
    /// Rank `peer` of the model's communicator died while step
    /// `attempted` was being tried or voted on — this rank itself when
    /// `peer` is its own rank. `detect` is the wall-clock from entering the
    /// step to the typed observation.
    PeerDead {
        peer: usize,
        attempted: u64,
        detect: Duration,
    },
    /// The step vote failed for another reason (a stalled-but-alive rank
    /// outlasting the vote deadline).
    Vote(CommError),
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
            RecoveryError::PeerDead {
                peer, attempted, ..
            } => write!(f, "rank {peer} died at step {attempted}"),
            RecoveryError::Vote(e) => write!(f, "step vote failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Step `model` to `target` total steps. A baseline checkpoint is written
/// before the first step, so rollback is always possible, and one every
/// `policy.checkpoint_every` commits after it. Every step ends with a
/// one-byte status [`vote`] salted by the step number: either *all* ranks
/// commit the step or *all* roll back to the newest checkpoint every one of
/// them can verify, so a failure on one rank can never fork the ensemble.
///
/// `stats` is added to, and `replaying_to` is the highest step committed
/// before the caller's last incident (commits at or below it count as
/// replays): [`crate::elastic::run_elastic`] carries both across its
/// recovery rounds. Whatever the exit, `stats` and the transport's
/// fault/recovery counters since entry are published to the model's
/// timers; the callers pair a fresh `stats` with a resumed model
/// ([`Model::run_steps_resilient`]) or a carried `stats` with a rebuilt
/// one (`run_elastic`), so neither double-counts an earlier window.
pub(crate) fn drive(
    model: &mut Model,
    mgr: &mut CheckpointManager,
    target: u64,
    policy: &RecoveryPolicy,
    replaying_to: u64,
    stats: &mut RecoveryStats,
) -> Result<(), RecoveryError> {
    let t0 = model.comm().traffic();
    let res = commit_steps(model, mgr, target, policy, replaying_to, stats);
    // One report shows the whole story: what the loop did, and what the
    // transport survived since entry.
    let w = model.comm().traffic().delta(&t0);
    for (name, count) in [
        ("rollbacks", u64::from(stats.rollbacks)),
        ("steps_replayed", stats.steps_replayed),
        ("halo_errors", stats.halo_errors),
        ("guard_trips", stats.guard_trips),
        ("checkpoints_written", stats.checkpoints_written),
        ("faults_injected", w.faults_injected()),
        ("crc_failures", w.crc_failures),
        ("halo_retries", w.halo_retries),
        ("resends_served", w.resends_served),
        ("recv_timeouts", w.recv_timeouts),
        ("rank_stalls", w.rank_stalls),
    ] {
        model.timers.add_count(name, count);
    }
    res
}

fn commit_steps(
    model: &mut Model,
    mgr: &mut CheckpointManager,
    target: u64,
    policy: &RecoveryPolicy,
    mut replaying_to: u64,
    stats: &mut RecoveryStats,
) -> Result<(), RecoveryError> {
    let mut last: Option<StepError> = None;
    if model.steps_taken() < target {
        mgr.save(model)?;
        stats.checkpoints_written += 1;
    }
    let mut since_ckpt: u64 = 0;
    while model.steps_taken() < target {
        // Pin the step number being attempted *before* stepping: a rank
        // whose own try_step succeeds (its carried exchanges completed
        // before a peer aborted) has already advanced steps_taken when the
        // vote fails.
        let attempted = model.steps_taken() + 1;
        let t_step = Instant::now();
        let ok = match model.try_step() {
            Ok(()) => true,
            Err(e) => {
                match e {
                    StepError::Halo(_) => stats.halo_errors += 1,
                    StepError::Guard(_) => stats.guard_trips += 1,
                }
                last = Some(e);
                false
            }
        };
        let dead = |peer: usize| RecoveryError::PeerDead {
            peer,
            attempted,
            detect: t_step.elapsed(),
        };
        if model.comm().self_failed() {
            return Err(dead(model.comm().rank()));
        }
        let ballots = match vote(
            model.comm(),
            STEP_VOTE ^ attempted,
            vec![u8::from(ok)],
            &model.opts.retry,
        ) {
            Ok(ballots) => ballots,
            Err(CommError::PeerDead { peer, .. }) => {
                // Every survivor's vote fails the same way, so every
                // survivor's ring carries its own PeerDead observation —
                // what the post-mortem acceptance check looks for.
                model.flight_note(FlightEventKind::PeerDead, peer as u64, attempted, 0);
                return Err(dead(peer));
            }
            Err(e) => return Err(RecoveryError::Vote(e)),
        };
        if ballots.iter().all(|b| b == &[1]) {
            stats.steps_completed += 1;
            if attempted <= replaying_to {
                stats.steps_replayed += 1;
            }
            since_ckpt += 1;
            if since_ckpt >= policy.checkpoint_every && attempted < target {
                mgr.save(model)?;
                stats.checkpoints_written += 1;
                since_ckpt = 0;
            }
        } else {
            // Every rank is alive and some rank's step failed: roll back
            // and replay. The flight recorder black-boxes both exits —
            // budget exhaustion is a terminal failure edge, and even a
            // recoverable rollback is worth a bundle (claim-once per world
            // means only the first incident writes).
            stats.rollbacks += 1;
            model.flight_note(
                FlightEventKind::Rollback,
                attempted,
                u64::from(stats.rollbacks),
                0,
            );
            if stats.rollbacks > policy.max_rollbacks {
                model.dump_flight("rollback-budget-exhausted");
                return Err(RecoveryError::RollbackBudgetExhausted {
                    stats: *stats,
                    last,
                });
            }
            model.dump_flight("rollback");
            replaying_to = replaying_to.max(attempted - 1);
            mgr.restore_latest_collective(model)?;
            since_ckpt = 0;
        }
    }
    Ok(())
}

impl Model {
    /// Advance to `target` total steps through [`drive`], surviving step
    /// failures — an unrecoverable halo message, a guard trip — by rollback
    /// and replay. A rank death, this rank's own included, or a vote that
    /// outlasts its deadline comes back as a typed [`RecoveryError`]; with
    /// spare ranks to adopt the dead role, [`crate::elastic::run_elastic`]
    /// recovers from it. Every halo message is CRC-framed with bounded retry,
    /// so a mid-step abort on one rank times out — not deadlocks — its
    /// peers.
    pub fn run_steps_resilient(
        &mut self,
        target: u64,
        mgr: &mut CheckpointManager,
        policy: &RecoveryPolicy,
    ) -> Result<RecoveryStats, RecoveryError> {
        let mut stats = RecoveryStats::default();
        drive(self, mgr, target, policy, 0, &mut stats).map(|()| stats)
    }
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
