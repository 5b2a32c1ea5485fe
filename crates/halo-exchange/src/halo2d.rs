//! The per-rank halo context on the tripolar block decomposition, and the
//! 2-D face of the exchange engine.
//!
//! Layout of a local field (padded views, `H = 2`):
//!
//! ```text
//! rows    [0, H)            south ghost (closed wall or neighbor data)
//! rows    [H, H+ny)         owned; of these [H, H+2) and [H+ny-2, H+ny)
//!                           are the *real halo* sent to neighbors
//! rows    [H+ny, H+ny+2H?)  north ghost (neighbor or fold data)
//! ```
//! and likewise in `i`. Every ghost rectangle — west, east, south, north
//! over the owned extent, and the four `H × H` corners — is a copy of
//! cells one rank owns, so an update is one round: each rank sends every
//! peer one message holding all the rectangles that peer's ghosts are
//! images of ([`crate::route`]).
//!
//! The **north fold**: the tripolar seam maps the ghost row above global
//! row `nyg-1-…` onto row `nyg-1-d` *mirrored in longitude*; vector
//! fields additionally flip sign. The north ghost of the block at column
//! `cx` is an image of the block at `px-1-cx` (possibly itself), its
//! corners of that block's zonal neighbors. A clean mirror requires equal
//! block widths, so fold exchanges assert `nxg % px == 0`.
//!
//! [`Halo2D`] owns what one rank needs to run that protocol — geometry,
//! the route table, persistent scratch for the self routes, frame
//! sequencing for the integrity layer, and the send/receive chokepoints
//! every message goes through — and [`crate::Pending`] runs it. A 2-D
//! exchange is the one-level case: [`Halo2D::try_exchange`] is a one-field
//! [`Halo2D::begin_exchange_many`] finished on the spot. Exchanges are
//! allocation-free in steady state: messages round-trip through the
//! per-rank buffer pools of `mpi-sim` ([`mpi_sim::Comm::send_into`] /
//! [`mpi_sim::Comm::try_recv_into`]) and pack/unpack copy contiguous runs
//! (`strip`). The freshly allocating, two-round element-wise reference
//! survives as [`Halo2D::exchange_alloc`] — the bitwise-identity oracle.

use std::cell::{Cell, RefCell, RefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use kokkos_rs::{Space, View2};
use mpi_sim::{CartComm, CommError, Dir, Neighbor};

use crate::halo3d::Strategy3D;
use crate::integrity::{self, FrameFault, FrameSeq, HaloError, IntegrityConfig};
use crate::pending::{self, Pending};
use crate::route::{self, Peer};
use crate::strip;
use crate::HALO as H;

/// Below this many elements a 2-D strip copy stays on the MPE: a kernel
/// launch costs on the order of a microsecond, which a host `memcpy` at
/// tens of GB/s spends moving a few thousand f64 — dispatching smaller
/// strips to CPEs (or the thread pool) would pay more in overhead than the
/// copy itself. Kilometer-scale blocks clear this easily; the coarse test
/// grids fall back to the serial runs.
const STRIP_DISPATCH_MIN: usize = 4096;

/// How a field transforms across the north fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldKind {
    /// Tracers, SSH: copied as-is (mirrored in `i`).
    Scalar,
    /// Velocity components on the B grid: mirrored and sign-flipped.
    Vector,
}

impl FoldKind {
    pub(crate) fn sign(self) -> f64 {
        match self {
            FoldKind::Scalar => 1.0,
            FoldKind::Vector => -1.0,
        }
    }
}

/// How one exchange's messages are framed: its sequence and the retry
/// policy that verifies it, together — a sequence never exists without
/// the configuration it implies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Framing {
    pub seq: FrameSeq,
    pub cfg: IntegrityConfig,
}

/// Per-rank halo exchange context for one decomposition.
#[derive(Clone)]
pub struct Halo2D {
    cart: CartComm,
    /// Global grid extents.
    pub nxg: usize,
    pub nyg: usize,
    /// This rank's owned block.
    pub x0: usize,
    pub y0: usize,
    pub nx: usize,
    pub ny: usize,
    /// Who this rank trades ghost rectangles with, and which, and the
    /// rectangles that are its own cells (built once; see
    /// [`crate::route`]).
    peers: Vec<Peer>,
    local: Option<Peer>,
    /// Execution space strip pack/unpack dispatches on (serial by
    /// default; the model passes its own so staging runs on CPEs).
    space: Space,
    /// Minimum 2-D strip elements before pack/unpack leaves the MPE
    /// ([`STRIP_DISPATCH_MIN`]; tests shrink it to force dispatch).
    strip_dispatch_min: usize,
    /// Persistent scratch the self routes pass through. Grow-once.
    scratch: RefCell<Vec<f64>>,
    /// End-to-end integrity framing + retry (None = raw messages, the
    /// default — existing byte-count expectations stay exact).
    integrity: Option<IntegrityConfig>,
    /// Current epoch (model step) and per-step exchange ordinal for frame
    /// sequencing. All ranks call the exchanges collectively in the same
    /// order, so sender and receiver agree on both without negotiation.
    epoch: Cell<u64>,
    ordinal: Cell<u64>,
    /// Nanoseconds this rank spent inside receive calls — the wait/unpack
    /// side of every networked message, whether the exchange was finished
    /// on the spot or carried across compute. Shared across clones
    /// (`Halo3D` wraps a clone of the model's 2-D context) so one counter
    /// sees both 2-D and 3-D traffic.
    wait_ns: Arc<AtomicU64>,
    /// Nanoseconds of exchange *span* — begin-to-done, which for a carried
    /// exchange covers whatever compute ran while the messages were in
    /// flight. Concurrent pending spans sum additively, so this counts
    /// comm·seconds in flight; dividing a step's delta by wall time
    /// measures how much communication the step kept airborne per wall
    /// second. Shared across clones like `wait_ns`.
    inflight_ns: Arc<AtomicU64>,
}

impl Halo2D {
    /// Build the context and its route table from the topology. Panics if
    /// any block is too small to carry a 2-wide real halo, or if a fold is
    /// present with unequal block widths.
    pub fn new(cart: &CartComm, nxg: usize, nyg: usize) -> Self {
        let (x0, nx) = cart.local_x(nxg);
        let (y0, ny) = cart.local_y(nyg);
        let (px, py) = (cart.px(), cart.py());
        // The smallest block of the split, not only this rank's: the route
        // table is built from every block.
        assert!(
            nxg / px >= H && nyg / py >= H,
            "a block of {nxg}x{nyg} over {px}x{py} ranks is smaller than halo {H}"
        );
        if matches!(cart.neighbor(Dir::North), Neighbor::Fold(_)) {
            assert_eq!(
                nxg % cart.px(),
                0,
                "north-fold exchange requires equal block widths (nxg % px == 0)"
            );
        }
        let (peers, local) = route::peers(cart, nxg, nyg);
        Self {
            cart: cart.clone(),
            nxg,
            nyg,
            x0,
            y0,
            nx,
            ny,
            peers,
            local,
            space: Space::serial(),
            strip_dispatch_min: STRIP_DISPATCH_MIN,
            scratch: Default::default(),
            integrity: None,
            epoch: Cell::new(0),
            ordinal: Cell::new(0),
            wait_ns: Arc::new(AtomicU64::new(0)),
            inflight_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Cumulative nanoseconds spent waiting in halo receives (wait +
    /// unpack) on this rank, over every exchange routed through this
    /// context or any clone of it. Monotone; sample before/after a step
    /// and subtract for per-step attribution.
    pub fn halo_wait_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }

    /// Cumulative exchange-span nanoseconds (see the `inflight_ns` field
    /// docs): comm·time in flight, summed over every exchange routed
    /// through this context or any clone of it.
    pub fn halo_inflight_ns(&self) -> u64 {
        self.inflight_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn add_inflight(&self, ns: u64) {
        self.inflight_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Dispatch strip pack/unpack over `space` instead of serial MPE
    /// loops (paper §V-D: halo staging runs on the CPEs so wide strips
    /// stop round-tripping through MPE memory). 2-D strips smaller than
    /// `STRIP_DISPATCH_MIN` elements still stay on the MPE — launch
    /// overhead would dominate the copy.
    pub fn with_space(mut self, space: Space) -> Self {
        // Idempotent; makes the strip kernel launchable on SwAthread.
        strip::register_strip_copy();
        self.space = space;
        self
    }

    /// The execution space strip staging dispatches on.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Whether a 2-D strip of `elems` elements is worth a kernel launch.
    pub(crate) fn dispatch_strips(&self, elems: usize) -> bool {
        elems >= self.strip_dispatch_min && !matches!(self.space, Space::Serial)
    }

    /// Enable CRC32 frame integrity + bounded retry on every networked
    /// message (see [`crate::integrity`]).
    pub fn with_integrity(mut self, cfg: IntegrityConfig) -> Self {
        self.integrity = Some(cfg);
        self
    }

    /// The active integrity configuration, if any.
    pub fn integrity(&self) -> Option<&IntegrityConfig> {
        self.integrity.as_ref()
    }

    /// Start a new epoch (model step): frame sequencing restarts so a
    /// rolled-back, replayed step regenerates identical frame headers.
    /// Collective — every rank must call it with the same `epoch`.
    pub fn begin_step(&self, epoch: u64) {
        self.epoch.set(epoch);
        self.ordinal.set(0);
    }

    /// Claim the next frame sequence for one collective exchange call
    /// (None when integrity is off).
    pub(crate) fn next_framing(&self) -> Option<Framing> {
        let cfg = self.integrity?;
        let ordinal = self.ordinal.get();
        self.ordinal.set(ordinal + 1);
        Some(Framing {
            seq: FrameSeq {
                epoch: self.epoch.get(),
                ordinal,
            },
            cfg,
        })
    }

    /// Send one message, framed when integrity is on.
    pub(crate) fn send_msg(
        &self,
        dst: usize,
        tag: u64,
        framing: Option<Framing>,
        len: usize,
        fill: impl FnOnce(&mut [f64]),
    ) {
        let _r = kokkos_rs::profiling::region("halo:pack");
        let comm = self.cart.comm();
        match framing {
            Some(f) => integrity::send_framed(comm, dst, tag, f.seq, len, fill),
            None => comm.send_into(dst, tag, len, fill),
        }
    }

    /// Receive one message of `len` words, verifying + retrying when
    /// integrity is on. A message that can never arrive, or a raw one of
    /// the wrong length, is a typed error: raw messages wait out the
    /// world's own receive bound, once.
    pub(crate) fn recv_msg(
        &self,
        src: usize,
        tag: u64,
        framing: Option<Framing>,
        len: usize,
        unpack: impl Fn(&[f64]),
    ) -> Result<(), HaloError> {
        let _r = kokkos_rs::profiling::region("halo:unpack");
        let t0 = Instant::now();
        let comm = self.cart.comm();
        let raw = |last| HaloError::RetriesExhausted {
            src,
            tag,
            attempts: 1,
            last,
        };
        let out = match framing {
            Some(f) => integrity::recv_framed(comm, &f.cfg, src, tag, f.seq, len, unpack),
            None => match comm.try_recv_into(src, tag, |buf| {
                let whole = buf.len() == len;
                if whole {
                    unpack(buf);
                }
                whole
            }) {
                Ok(true) => Ok(()),
                Ok(false) => Err(raw(FrameFault::Truncated)),
                Err(CommError::PeerDead { .. }) => Err(HaloError::PeerDead { src, tag }),
                Err(CommError::Timeout { .. }) => Err(raw(FrameFault::Timeout)),
            },
        };
        self.wait_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Padded local extents `(ny_pad, nx_pad)` a field must have.
    pub fn padded(&self) -> (usize, usize) {
        (self.ny + 2 * H, self.nx + 2 * H)
    }

    /// The underlying Cartesian topology.
    pub fn cart(&self) -> &CartComm {
        &self.cart
    }

    /// Whether an exchange waits on a message: some remote peer's cells are
    /// the image of a ghost of this rank's. Fixed by the route table; when
    /// false (self routes only) every exchange lands where it is posted.
    pub fn awaits_messages(&self) -> bool {
        self.peers.iter().any(|p| !p.recvs.is_empty())
    }

    /// This rank's remote peers and what it trades with each, in rank
    /// order.
    pub(crate) fn peers(&self) -> &[Peer] {
        &self.peers
    }

    /// The ghost rectangles that are images of this rank's own cells.
    pub(crate) fn local_routes(&self) -> Option<&Peer> {
        self.local.as_ref()
    }

    /// Borrow the persistent scratch with at least `len` elements
    /// (grow-once).
    pub(crate) fn scratch(&self, len: usize) -> RefMut<'_, Vec<f64>> {
        let mut buf = self.scratch.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        buf
    }

    // -- the update ---------------------------------------------------------

    /// Blocking 2-layer halo update of `field`. Allocation-free in steady
    /// state; bitwise identical to [`Halo2D::exchange_alloc`].
    ///
    /// `tag_base` namespaces the messages so several fields can be updated
    /// back to back; callers use distinct bases per field per step.
    ///
    /// # Panics
    /// If a message is unrecoverable; use [`Halo2D::try_exchange`] to
    /// handle that as a value.
    pub fn exchange(&self, field: &View2<f64>, kind: FoldKind, tag_base: u64) {
        self.try_exchange(field, kind, tag_base)
            .unwrap_or_else(|e| panic!("halo exchange failed: {e}"));
    }

    /// Fallible exchange: a message that cannot arrive — its sender is dead,
    /// or the integrity layer's bounded retries ran out — surfaces as a
    /// typed [`HaloError`].
    pub fn try_exchange(
        &self,
        field: &View2<f64>,
        kind: FoldKind,
        tag_base: u64,
    ) -> Result<(), HaloError> {
        self.try_exchange_many(&[(field, kind)], tag_base)
    }

    /// Blocking batched update: all `fields` share one message per peer
    /// (each ghost rectangle's segments in field order), cutting the
    /// message count by the batch factor. Bitwise identical to updating
    /// each field separately with [`Halo2D::try_exchange`].
    pub fn try_exchange_many(
        &self,
        fields: &[(&View2<f64>, FoldKind)],
        tag_base: u64,
    ) -> Result<(), HaloError> {
        pending::exchange_many(self, 1, Strategy3D::HorizontalMajor, fields, tag_base)
    }

    /// Split-phase batched update: posts every message of the exchange and
    /// returns a [`Pending`] that the caller drives with [`Pending::poll`]
    /// between compute launches and [`Pending::finish`] once the ghosts
    /// are needed. The field contents on completion are bitwise identical
    /// to the blocking [`Halo2D::try_exchange_many`] (which is begin +
    /// finish).
    ///
    /// At most one pending exchange may be outstanding per `tag_base`; the
    /// caller must finish it within the same epoch it was begun.
    pub fn begin_exchange_many(
        &self,
        fields: &[(&View2<f64>, FoldKind)],
        tag_base: u64,
    ) -> Result<Pending<'_, View2<f64>>, HaloError> {
        Ok(Pending::begin(
            self,
            1,
            Strategy3D::HorizontalMajor,
            fields,
            tag_base,
        ))
    }

    /// The original implementation: two rounds (east/west, then
    /// north/south over the full padded width, which carries the corners)
    /// of element-wise packs into freshly allocated message vectors. Kept
    /// as the bitwise-identity reference for the engine and as the
    /// baseline in the benches.
    pub fn exchange_alloc(&self, field: &View2<f64>, kind: FoldKind, tag_base: u64) {
        let fields = [(field, kind)];
        pending::exchange_many_alloc(self, 1, Strategy3D::HorizontalMajor, &fields, tag_base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos_rs::View;
    use mpi_sim::World;

    /// Global reference field, defined on owned cells.
    fn g(j: usize, i: usize) -> f64 {
        (j * 10_000 + i) as f64 + 0.25
    }

    /// Fill a rank's owned cells from the global function.
    fn fill_owned(h: &Halo2D, f: &View2<f64>) {
        for j in 0..h.ny {
            for i in 0..h.nx {
                f.set_at(H + j, H + i, g(h.y0 + j, h.x0 + i));
            }
        }
    }

    /// Expected value of any padded cell after a full exchange (None =
    /// unspecified: closed southern ghost).
    fn expected(h: &Halo2D, jl: usize, il: usize, kind: FoldKind) -> Option<f64> {
        let nxg = h.nxg as i64;
        let nyg = h.nyg as i64;
        let jg = h.y0 as i64 + jl as i64 - H as i64;
        let ig = h.x0 as i64 + il as i64 - H as i64;
        let iw = ig.rem_euclid(nxg) as usize;
        if jg < 0 {
            return None; // closed southern wall
        }
        if jg < nyg {
            return Some(g(jg as usize, iw));
        }
        // North fold: ghost row nyg+d mirrors row nyg-1-d, i -> nxg-1-i.
        let d = jg - nyg;
        if d >= H as i64 {
            return None;
        }
        let src_j = (nyg - 1 - d) as usize;
        let src_i = (nxg - 1 - ig).rem_euclid(nxg) as usize;
        Some(kind.sign() * g(src_j, src_i))
    }

    fn check_all(h: &Halo2D, f: &View2<f64>, kind: FoldKind) {
        let (pj, pi) = h.padded();
        for jl in 0..pj {
            for il in 0..pi {
                if let Some(want) = expected(h, jl, il, kind) {
                    let got = f.at(jl, il);
                    assert_eq!(
                        got, want,
                        "rank block ({},{}) cell (jl={jl}, il={il}) got {got} want {want}",
                        h.x0, h.y0
                    );
                }
            }
        }
    }

    fn run_case(nranks: usize, px: usize, py: usize, nxg: usize, nyg: usize, kind: FoldKind) {
        World::run(nranks, |comm| {
            let cart = CartComm::new(comm.clone(), px, py, true);
            let h = Halo2D::new(&cart, nxg, nyg);
            let (pj, pi) = h.padded();
            let f: View2<f64> = View::host("f", [pj, pi]);
            f.fill(-1e30); // poison ghosts
            fill_owned(&h, &f);
            h.exchange(&f, kind, 100);
            check_all(&h, &f, kind);
        });
    }

    #[test]
    fn single_rank_periodic_and_fold() {
        run_case(1, 1, 1, 12, 8, FoldKind::Scalar);
    }

    #[test]
    fn single_rank_vector_fold_flips_sign() {
        run_case(1, 1, 1, 12, 8, FoldKind::Vector);
    }

    #[test]
    fn four_zonal_ranks() {
        run_case(4, 4, 1, 16, 6, FoldKind::Scalar);
    }

    #[test]
    fn two_by_two() {
        run_case(4, 2, 2, 12, 10, FoldKind::Scalar);
    }

    #[test]
    fn four_by_three_vector() {
        run_case(12, 4, 3, 24, 12, FoldKind::Vector);
    }

    #[test]
    fn uneven_rows_ok_without_fold_constraint_violation() {
        // ny not divisible by py is fine; only nx % px matters for the fold.
        run_case(6, 2, 3, 8, 11, FoldKind::Scalar);
    }

    #[test]
    fn geometries_the_friendly_cases_avoid() {
        // (px, py, nxg, nyg): prime rank counts in either direction, a fold
        // that crosses ranks under py > 1, blocks exactly HALO wide and
        // tall (every owned cell is real halo), and both at once.
        for (px, py, nxg, nyg) in [
            (3, 1, 9, 5),
            (5, 1, 20, 4),
            (7, 1, 14, 3),
            (1, 3, 6, 9),
            (1, 5, 4, 11),
            (3, 2, 12, 7),
            (2, 3, 8, 7),
            (2, 1, 2 * H, H),
            (3, 3, 3 * H, 3 * H),
            (1, 1, H, H),
        ] {
            for kind in [FoldKind::Scalar, FoldKind::Vector] {
                run_case(px * py, px, py, nxg, nyg, kind);
            }
        }
    }

    #[test]
    fn cpe_dispatched_strips_match_serial_bitwise() {
        // Force every strip through the execution-space path (threshold 0)
        // and require bitwise identity with the serial helpers, fold and
        // sign-flip included.
        for space in [
            Space::threads(),
            Space::sw_athread_with(sunway_sim::CgConfig::test_small()),
        ] {
            for kind in [FoldKind::Scalar, FoldKind::Vector] {
                World::run(4, |comm| {
                    let cart = CartComm::new(comm.clone(), 2, 2, true);
                    let serial = Halo2D::new(&cart, 12, 10);
                    let mut cpe = Halo2D::new(&cart, 12, 10).with_space(space.clone());
                    cpe.strip_dispatch_min = 0;
                    let (pj, pi) = serial.padded();
                    let a: View2<f64> = View::host("a", [pj, pi]);
                    let b: View2<f64> = View::host("b", [pj, pi]);
                    a.fill(-1e30);
                    b.fill(-1e30);
                    fill_owned(&serial, &a);
                    fill_owned(&cpe, &b);
                    serial.exchange(&a, kind, 0);
                    cpe.exchange(&b, kind, 40);
                    check_all(&cpe, &b, kind);
                    assert_eq!(
                        a.to_vec(),
                        b.to_vec(),
                        "serial vs {} strips, {kind:?}",
                        space.name()
                    );
                });
            }
        }
    }

    #[test]
    fn pooled_matches_allocating_reference() {
        for kind in [FoldKind::Scalar, FoldKind::Vector] {
            World::run(4, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 2, true);
                let h = Halo2D::new(&cart, 12, 10);
                let (pj, pi) = h.padded();
                let a: View2<f64> = View::host("a", [pj, pi]);
                let b: View2<f64> = View::host("b", [pj, pi]);
                a.fill(0.0);
                b.fill(0.0);
                fill_owned(&h, &a);
                fill_owned(&h, &b);
                h.exchange(&a, kind, 0);
                h.exchange_alloc(&b, kind, 40);
                assert_eq!(a.to_vec(), b.to_vec(), "pooled vs allocating, {kind:?}");
            });
        }
    }

    #[test]
    fn steady_state_exchanges_do_not_allocate() {
        let allocs = |iters: u64| {
            let (_, t) = World::run_traced(4, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 2, true);
                let h = Halo2D::new(&cart, 12, 10);
                let (pj, pi) = h.padded();
                let f: View2<f64> = View::host("f", [pj, pi]);
                f.fill(0.0);
                fill_owned(&h, &f);
                for it in 0..iters {
                    h.exchange(&f, FoldKind::Scalar, it * 100);
                }
            });
            t
        };
        let warm = allocs(3);
        let long = allocs(20);
        assert_eq!(
            warm.pool_allocations, long.pool_allocations,
            "steady-state exchanges must reuse pooled buffers"
        );
    }

    #[test]
    fn carried_exchange_fills_ghosts_like_the_reference() {
        // Begin, compute on the interior, finish: the ghosts must match the
        // analytic oracle and the allocating reference bit for bit.
        World::run(4, |comm| {
            let cart = CartComm::new(comm.clone(), 2, 2, true);
            let h = Halo2D::new(&cart, 12, 10);
            let (pj, pi) = h.padded();
            let a: View2<f64> = View::host("a", [pj, pi]);
            let b: View2<f64> = View::host("b", [pj, pi]);
            a.fill(0.0);
            b.fill(0.0);
            fill_owned(&h, &a);
            fill_owned(&h, &b);
            h.exchange_alloc(&a, FoldKind::Scalar, 200);
            let p = h
                .begin_exchange_many(&[(&b, FoldKind::Scalar)], 300)
                .unwrap();
            // An interior cell no strip covers: written while in flight.
            let (jc, ic) = (H + h.ny / 2, H + 2);
            b.set_at(jc, ic, b.at(jc, ic));
            p.finish().unwrap();
            check_all(&h, &b, FoldKind::Scalar);
            assert_eq!(a.to_vec(), b.to_vec(), "carried vs reference");
        });
    }

    #[test]
    fn split_phase_batch_matches_oracle_and_per_field_reference() {
        for kind in [FoldKind::Scalar, FoldKind::Vector] {
            World::run(4, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 2, true);
                let h = Halo2D::new(&cart, 12, 10);
                let (pj, pi) = h.padded();
                let mk = |name: &str, salt: f64| {
                    let f: View2<f64> = View::host(name, [pj, pi]);
                    f.fill(0.0);
                    fill_owned(&h, &f);
                    for j in 0..h.ny {
                        for i in 0..h.nx {
                            f.set_at(H + j, H + i, f.at(H + j, H + i) + salt);
                        }
                    }
                    f
                };
                // Field 1 is the unsalted oracle field; field 2 proves the
                // batch keeps its segments apart.
                let (a1, a2) = (mk("a1", 0.0), mk("a2", 7.0));
                let (b1, b2) = (mk("b1", 0.0), mk("b2", 7.0));
                h.exchange_alloc(&a1, kind, 0);
                h.exchange_alloc(&a2, kind, 10);
                let mut p = h
                    .begin_exchange_many(&[(&b1, kind), (&b2, kind)], 40)
                    .unwrap();
                // Poll a few times (may or may not complete), then finish.
                for _ in 0..3 {
                    let _ = p.poll().unwrap();
                }
                p.finish().unwrap();
                check_all(&h, &b1, kind);
                assert_eq!(a1.to_vec(), b1.to_vec(), "{kind:?} field 1");
                assert_eq!(a2.to_vec(), b2.to_vec(), "{kind:?} field 2");
            });
        }
    }

    #[test]
    fn split_phase_single_rank_self_paths() {
        World::run(1, |comm| {
            let cart = CartComm::new(comm.clone(), 1, 1, true);
            let h = Halo2D::new(&cart, 12, 8);
            let (pj, pi) = h.padded();
            let a: View2<f64> = View::host("a", [pj, pi]);
            let b: View2<f64> = View::host("b", [pj, pi]);
            a.fill(0.0);
            b.fill(0.0);
            fill_owned(&h, &a);
            fill_owned(&h, &b);
            h.exchange(&a, FoldKind::Vector, 0);
            let p = h
                .begin_exchange_many(&[(&b, FoldKind::Vector)], 50)
                .unwrap();
            p.finish().unwrap();
            assert_eq!(a.to_vec(), b.to_vec());
        });
    }

    #[test]
    fn south_ghost_untouched() {
        World::run(2, |comm| {
            let cart = CartComm::new(comm.clone(), 2, 1, true);
            let h = Halo2D::new(&cart, 8, 6);
            let (pj, pi) = h.padded();
            let f: View2<f64> = View::host("f", [pj, pi]);
            f.fill(7.5);
            fill_owned(&h, &f);
            h.exchange(&f, FoldKind::Scalar, 0);
            // Closed wall: the poison value survives in south ghost rows.
            for r in 0..H {
                for i in 0..pi {
                    assert_eq!(f.at(r, i), 7.5);
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "north-fold exchange requires equal block widths")]
    fn fold_requires_divisible_width() {
        World::run(3, |comm| {
            let cart = CartComm::new(comm.clone(), 3, 1, true);
            let _ = Halo2D::new(&cart, 10, 6); // 10 % 3 != 0
        });
    }

    #[test]
    fn repeated_exchanges_are_idempotent() {
        World::run(4, |comm| {
            let cart = CartComm::new(comm.clone(), 2, 2, true);
            let h = Halo2D::new(&cart, 12, 10);
            let (pj, pi) = h.padded();
            let f: View2<f64> = View::host("f", [pj, pi]);
            f.fill(0.0);
            fill_owned(&h, &f);
            h.exchange(&f, FoldKind::Scalar, 0);
            let first = f.to_vec();
            h.exchange(&f, FoldKind::Scalar, 5);
            assert_eq!(f.to_vec(), first, "second exchange must be a fixpoint");
        });
    }
}
