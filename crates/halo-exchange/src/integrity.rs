//! End-to-end message integrity for halo messages.
//!
//! At the paper's machine scale a halo payload can arrive corrupted,
//! truncated, duplicated, stale — or not at all. When integrity is
//! enabled on a [`crate::Halo2D`]/[`crate::Halo3D`] (it is opt-in so the
//! bare exchange keeps its exact byte counts), every message travels as a
//! *frame*:
//!
//! ```text
//! word 0   MAGIC ^ tag            (routing check)
//! word 1   epoch << 16 | ordinal  (which step, which exchange in it)
//! word 2   payload length (words)
//! word 3   CRC32 of the payload bit patterns
//! word 4.. payload
//! ```
//!
//! Header words are `u64` values carried as `f64` bit patterns, so a
//! frame is still one pooled `f64` message and the steady-state path
//! stays allocation-free. The CRC is folded in right after the pack
//! fills the buffer, while the payload is cache-hot.
//!
//! The receiver verifies the frame before unpacking. A mismatched
//! `(epoch, ordinal)` marks a *stale* frame (leftover from an aborted,
//! rolled-back step — discarded free of charge, since a deterministic
//! replay regenerates identical traffic). A bad magic, length or CRC
//! marks a *corrupt* frame; corrupt frames and receive timeouts trigger
//! the bounded retry protocol: ask the transport's escrow for a
//! retransmission ([`mpi_sim::Comm::fetch_resend`]), then wait again with
//! a capped-exponential, jittered deadline from the shared
//! [`RetryPolicy`], up to its retry limit before surfacing a typed
//! [`HaloError`] for the model's checkpoint/rollback layer to handle.
//! A *dead* peer short-circuits all of that: the retry loop exists to
//! outwait transient loss, and a fail-stop rank is not transient —
//! [`HaloError::PeerDead`] surfaces on the first attempt so recovery can
//! start immediately instead of burning the full retry budget.

use mpi_sim::flight::{self, FlightEventKind};
use mpi_sim::{crc32c_f64, Comm, CommError, RetryPolicy};

/// Number of header words prepended to a framed payload.
pub const HDR: usize = 4;

/// Frame magic, XOR-folded with the message tag in word 0.
const MAGIC: u64 = 0x4C49_434F_4D48_414C; // "LICOMHAL"

/// Retry policy for integrity-checked receives: the workspace-wide
/// [`RetryPolicy`] schedule plus the one knob specific to framing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityConfig {
    /// Timeout/backoff/jitter schedule shared with every other
    /// deadline-bounded wait in the stack.
    pub retry: RetryPolicy,
    /// Stale frames tolerated per receive before giving up (guards
    /// against a flood of leftovers, not a realistic failure mode).
    pub max_stale: u32,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::default(),
            max_stale: 64,
        }
    }
}

impl IntegrityConfig {
    /// Tight deadlines for fault-injection tests (see
    /// [`RetryPolicy::test_small`]).
    pub fn test_small() -> Self {
        Self {
            retry: RetryPolicy::test_small(),
            max_stale: 64,
        }
    }

    /// Build from an existing schedule (e.g. the one threaded through
    /// `ModelOptions`).
    pub fn with_retry(retry: RetryPolicy) -> Self {
        Self {
            retry,
            ..Self::default()
        }
    }
}

/// Typed halo-exchange failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaloError {
    /// No verifiable frame for `(src, tag)` arrived within
    /// `attempts` tries; `last` describes the final failure.
    RetriesExhausted {
        src: usize,
        tag: u64,
        attempts: u32,
        last: FrameFault,
    },
    /// The sending rank halted permanently: no number of retries can
    /// produce the frame, so the retry loop is skipped entirely.
    PeerDead { src: usize, tag: u64 },
}

impl std::fmt::Display for HaloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HaloError::RetriesExhausted {
                src,
                tag,
                attempts,
                last,
            } => write!(
                f,
                "halo message from rank {src} tag {tag} unrecoverable after {attempts} attempts (last: {last:?})"
            ),
            HaloError::PeerDead { src, tag } => write!(
                f,
                "halo message from rank {src} tag {tag} can never arrive: peer is dead"
            ),
        }
    }
}

impl std::error::Error for HaloError {}

/// Why a received frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Shorter than the header, or payload length disagrees with the
    /// length word / the expected message size.
    Truncated,
    /// Word 0 does not carry the expected magic/tag.
    BadMagic,
    /// Payload checksum mismatch.
    BadCrc,
    /// Header is intact but `(epoch, ordinal)` is not the one awaited —
    /// a leftover from an aborted step.
    Stale,
    /// No frame arrived before the deadline.
    Timeout,
}

/// Epoch/ordinal pair packed into header word 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSeq {
    pub epoch: u64,
    pub ordinal: u64,
}

impl FrameSeq {
    fn packed(self) -> u64 {
        (self.epoch << 16) | (self.ordinal & 0xFFFF)
    }
}

/// Write the frame header into `buf[..HDR]` for a payload already packed
/// into `buf[HDR..]`, folding the payload CRC in while it is cache-hot.
pub fn seal_frame(buf: &mut [f64], tag: u64, seq: FrameSeq) {
    debug_assert!(buf.len() >= HDR);
    let payload_len = buf.len() - HDR;
    let crc = crc32c_f64(&buf[HDR..]);
    buf[0] = f64::from_bits(MAGIC ^ tag);
    buf[1] = f64::from_bits(seq.packed());
    buf[2] = f64::from_bits(payload_len as u64);
    buf[3] = f64::from_bits(crc as u64);
}

/// Verify a frame and return its payload slice.
pub fn verify_frame(
    buf: &[f64],
    tag: u64,
    seq: FrameSeq,
    expect_len: usize,
) -> Result<&[f64], FrameFault> {
    if buf.len() < HDR {
        return Err(FrameFault::Truncated);
    }
    if buf[0].to_bits() != MAGIC ^ tag {
        return Err(FrameFault::BadMagic);
    }
    let payload = &buf[HDR..];
    let len_word = buf[2].to_bits() as usize;
    if len_word != payload.len() || payload.len() != expect_len {
        return Err(FrameFault::Truncated);
    }
    if buf[3].to_bits() as u32 != crc32c_f64(payload) {
        return Err(FrameFault::BadCrc);
    }
    if buf[1].to_bits() != seq.packed() {
        return Err(FrameFault::Stale);
    }
    Ok(payload)
}

/// Send `len` payload words to `dst` as an integrity frame. `fill` packs
/// the payload exactly as it would for an unframed send; the header is
/// sealed around it in the same pooled buffer.
pub fn send_framed(
    comm: &Comm,
    dst: usize,
    tag: u64,
    seq: FrameSeq,
    len: usize,
    fill: impl FnOnce(&mut [f64]),
) {
    comm.send_into(dst, tag, HDR + len, |buf| {
        fill(&mut buf[HDR..]);
        seal_frame(buf, tag, seq);
    });
    flight::record(
        FlightEventKind::HaloSend,
        seq.packed(),
        dst as u64,
        len as u64,
    );
}

/// Receive and verify an integrity frame from `src`, retrying per `cfg`.
/// `unpack` runs exactly once, on the verified payload.
pub fn recv_framed(
    comm: &Comm,
    cfg: &IntegrityConfig,
    src: usize,
    tag: u64,
    seq: FrameSeq,
    expect_len: usize,
    unpack: impl Fn(&[f64]),
) -> Result<(), HaloError> {
    let mut attempt: u32 = 0;
    let mut stale: u32 = 0;
    let mut last;
    // Per-(rank, peer, tag) jitter salt: after a shared stall, each wait
    // draws a different deadline, so retries do not re-synchronize into
    // a storm.
    let salt = RetryPolicy::salt(comm.rank(), src, tag);
    loop {
        let res = comm.recv_into_deadline(src, tag, cfg.retry.timeout_for(attempt, salt), |buf| {
            match verify_frame(buf, tag, seq, expect_len) {
                Ok(payload) => {
                    unpack(payload);
                    Ok(())
                }
                Err(fault) => Err(fault),
            }
        });
        match res {
            Ok(Ok(())) => {
                flight::record(
                    FlightEventKind::HaloRecv,
                    seq.packed(),
                    src as u64,
                    expect_len as u64,
                );
                return Ok(());
            }
            Ok(Err(FrameFault::Stale)) => {
                // Leftover traffic from an aborted step: discard and keep
                // waiting on the same attempt's budget.
                stale += 1;
                if stale > cfg.max_stale {
                    return Err(HaloError::RetriesExhausted {
                        src,
                        tag,
                        attempts: attempt + 1,
                        last: FrameFault::Stale,
                    });
                }
                continue;
            }
            Ok(Err(fault)) => {
                comm.note_crc_failure();
                flight::record(FlightEventKind::CrcFailure, seq.packed(), src as u64, 0);
                last = fault;
            }
            Err(CommError::PeerDead { .. }) => {
                // Fail-stop is permanent: no retry or escrow fetch can
                // help, and burning the budget only delays recovery.
                return Err(HaloError::PeerDead { src, tag });
            }
            Err(_) => {
                last = FrameFault::Timeout;
            }
        }
        // Corrupt frame or timeout: ask the transport for a
        // retransmission before burning another wait.
        if let Some(frame) = comm.fetch_resend(src, tag) {
            if let Ok(payload) = verify_frame(&frame, tag, seq, expect_len) {
                unpack(payload);
                flight::record(
                    FlightEventKind::HaloRecv,
                    seq.packed(),
                    src as u64,
                    expect_len as u64,
                );
                return Ok(());
            }
            // A stale or unrelated escrow entry: fall through to retry.
        }
        comm.note_halo_retry();
        flight::record(
            FlightEventKind::IntegrityRetry,
            seq.packed(),
            src as u64,
            attempt as u64 + 1,
        );
        attempt += 1;
        if attempt > cfg.retry.max_retries {
            return Err(HaloError::RetriesExhausted {
                src,
                tag,
                attempts: attempt,
                last,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEQ: FrameSeq = FrameSeq {
        epoch: 7,
        ordinal: 3,
    };

    fn frame(payload: &[f64]) -> Vec<f64> {
        let mut buf = vec![0.0; HDR + payload.len()];
        buf[HDR..].copy_from_slice(payload);
        seal_frame(&mut buf, 42, SEQ);
        buf
    }

    #[test]
    fn seal_then_verify_roundtrips() {
        let payload = [1.5, -2.5, 0.0, f64::MIN_POSITIVE];
        let buf = frame(&payload);
        let got = verify_frame(&buf, 42, SEQ, payload.len()).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn verify_rejects_each_corruption_mode() {
        let payload = [1.0, 2.0, 3.0];
        let clean = frame(&payload);

        // Payload bit flip -> BadCrc.
        let mut bad = clean.clone();
        bad[HDR + 1] = f64::from_bits(bad[HDR + 1].to_bits() ^ 1);
        assert_eq!(verify_frame(&bad, 42, SEQ, 3), Err(FrameFault::BadCrc));

        // Truncation -> Truncated.
        assert_eq!(
            verify_frame(&clean[..HDR + 2], 42, SEQ, 3),
            Err(FrameFault::Truncated)
        );
        assert_eq!(
            verify_frame(&clean[..2], 42, SEQ, 3),
            Err(FrameFault::Truncated)
        );

        // Wrong tag -> BadMagic.
        assert_eq!(verify_frame(&clean, 43, SEQ, 3), Err(FrameFault::BadMagic));

        // Wrong epoch/ordinal -> Stale.
        let other = FrameSeq {
            epoch: 8,
            ordinal: 3,
        };
        assert_eq!(verify_frame(&clean, 42, other, 3), Err(FrameFault::Stale));

        // Wrong expected length -> Truncated.
        assert_eq!(verify_frame(&clean, 42, SEQ, 4), Err(FrameFault::Truncated));
    }

    #[test]
    fn header_bitflip_is_detected() {
        let payload = [4.0; 8];
        let clean = frame(&payload);
        for w in 0..HDR {
            let mut bad = clean.clone();
            bad[w] = f64::from_bits(bad[w].to_bits() ^ (1 << 11));
            assert!(
                verify_frame(&bad, 42, SEQ, 8).is_err(),
                "flip in header word {w} must be caught"
            );
        }
    }

    #[test]
    fn retry_schedule_comes_from_shared_policy() {
        // The backoff constants live in RetryPolicy now; IntegrityConfig
        // only adds the framing-specific stale tolerance.
        let cfg = IntegrityConfig::test_small();
        assert_eq!(cfg.retry, RetryPolicy::test_small());
        assert_eq!(cfg.max_stale, 64);
        let threaded = IntegrityConfig::with_retry(RetryPolicy::default());
        assert_eq!(threaded.retry, RetryPolicy::default());
    }

    #[test]
    fn peer_dead_error_formats_and_sources() {
        let e = HaloError::PeerDead { src: 3, tag: 830 };
        let msg = format!("{e}");
        assert!(msg.contains("rank 3") && msg.contains("dead"), "{msg}");
        use std::error::Error;
        assert!(e.source().is_none());
    }

    /// Satellite coverage: a stale-epoch frame delivered *after* the
    /// receiver's timeout-triggered re-request must be discarded — not
    /// unpacked, not counted against the retry budget — and the fresh
    /// frame behind it accepted.
    #[test]
    fn stale_frame_after_timeout_rerequest_is_discarded() {
        use mpi_sim::World;
        let cfg = IntegrityConfig::test_small();
        World::run(2, move |comm| {
            if comm.rank() == 0 {
                // Outlast rank 1's first wait so it re-requests, then
                // deliver a leftover frame from an aborted prior step
                // followed by the real one.
                std::thread::sleep(cfg.retry.base_timeout * 2);
                let stale = FrameSeq {
                    epoch: 6,
                    ordinal: 3,
                };
                send_framed(comm, 1, 42, stale, 4, |b| b.fill(9.0));
                send_framed(comm, 1, 42, SEQ, 4, |b| {
                    b.copy_from_slice(&[1.0, 2.0, 3.0, 4.0])
                });
            } else {
                let got = std::cell::RefCell::new(Vec::new());
                let calls = std::cell::Cell::new(0u32);
                recv_framed(comm, &cfg, 0, 42, SEQ, 4, |p| {
                    calls.set(calls.get() + 1);
                    *got.borrow_mut() = p.to_vec();
                })
                .expect("fresh frame must be accepted after the stale one");
                assert_eq!(calls.get(), 1, "unpack must run once, on the fresh frame");
                assert_eq!(got.into_inner(), vec![1.0, 2.0, 3.0, 4.0]);
            }
        });
    }
}
