//! The one exchange protocol: east/west over owned rows, then north/south
//! (or the tripolar fold) over the full padded width.
//!
//! [`Pending`] is that protocol as a split-phase state machine — every
//! exchange in the crate, 2-D or 3-D, blocking or overlapped, one field or
//! a batch, is a `Pending` begun and then polled or finished. The second
//! leg is posted only once the zonal ghosts are fresh, which is how the
//! four corner blocks fill without diagonal messages. All fields of a
//! batch share one message per direction, each packing straight into its
//! segment of the pooled buffer.
//!
//! [`exchange_many_alloc`] spells the same protocol a second time on
//! purpose: element-wise packs into freshly allocated vectors over the
//! plain `isend` / `recv` — the bitwise reference the property tests and
//! the benches hold the engine against.

use std::time::Instant;

use mpi_sim::Comm;

use crate::field::{self, HaloField};
use crate::halo2d::{FoldKind, Halo2D, NorthPath, StripPlan};
use crate::halo3d::Strategy3D;
use crate::integrity::{FrameSeq, HaloError};
use crate::strip::Rect;
use crate::HALO as H;

/// Tag offsets by direction of travel, above `tag_base +`
/// [`HaloField::TAG`].
const T_WEST: u64 = 0;
const T_EAST: u64 = 1;
const T_SOUTH: u64 = 2;
const T_NORTH: u64 = 3;
const T_FOLD: u64 = 4;

/// Progress state of a split-phase exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// East/west strips posted; waiting on both zonal receives.
    EwPosted,
    /// North/south strips posted; waiting on the meridional receives.
    NsPosted,
    /// All ghosts filled.
    Done,
}

/// Where a received strip lands.
#[derive(Debug, Clone, Copy)]
enum Ghost {
    /// Copied as sent into this rectangle.
    Rect(Rect),
    /// Mirrored (and sign-flipped per field) into the north ghost rows.
    Fold,
}

impl Ghost {
    /// The strip as its sender packed it.
    fn packed(self, h: &Halo2D) -> Rect {
        match self {
            Ghost::Rect(rect) => rect,
            Ghost::Fold => h.fold_rows(),
        }
    }
}

/// A batched halo exchange in flight (see
/// [`Halo2D::begin_exchange_many`] / [`crate::Halo3D::begin_exchange_many`]).
/// Holds clones of the field views — `View` is a shared handle, so the
/// caller keeps using its own — and borrows the context so frame
/// sequencing stays collective. Drive with [`Pending::poll`] between
/// compute launches; [`Pending::finish`] blocks for the remainder.
pub struct Pending<'a, F: HaloField> {
    h: &'a Halo2D,
    /// Levels per field (1 for a 2-D field) and their buffer order.
    nz: usize,
    order: Strategy3D,
    fields: Vec<(F, FoldKind)>,
    /// `tag_base + F::TAG`; the five direction offsets go on top.
    tag0: u64,
    seq: Option<FrameSeq>,
    plan: StripPlan,
    stage: Stage,
    t0: Instant,
}

fn check_shape<F: HaloField>(h: &Halo2D, nz: usize, f: &F) {
    let (pj, pi) = h.padded();
    assert_eq!(f.block_dims(), [nz, pj, pi], "field shape != padded block");
}

impl<'a, F: HaloField> Pending<'a, F> {
    /// Check the batch, claim its frame ordinal and post the first leg.
    pub(crate) fn begin(
        h: &'a Halo2D,
        nz: usize,
        order: Strategy3D,
        fields: &[(&F, FoldKind)],
        tag_base: u64,
    ) -> Self {
        for (f, _) in fields {
            check_shape(h, nz, *f);
        }
        // An empty batch claims no frame ordinal, matching a zero-length
        // run of per-field exchanges.
        let seq = if fields.is_empty() {
            None
        } else {
            h.next_seq()
        };
        let mut p = Pending {
            h,
            nz,
            order,
            fields: fields.iter().map(|(f, k)| ((*f).clone(), *k)).collect(),
            tag0: tag_base + F::TAG,
            seq,
            plan: h.plan(),
            stage: Stage::EwPosted,
            t0: Instant::now(),
        };
        p.post_ew();
        p
    }

    /// Elements of `rect` over the whole batch.
    fn batch_len(&self, rect: Rect) -> usize {
        self.fields.len() * self.nz * rect.cells()
    }

    /// Every field packs `rect` into its segment of `out`.
    fn pack_all(&self, rect: Rect, out: &mut [f64]) {
        let seg = self.nz * rect.cells();
        for ((f, _), out) in self.fields.iter().zip(out.chunks_exact_mut(seg)) {
            field::pack(self.h, self.order, f, rect, out);
        }
    }

    /// Every field unpacks its segment of `buf` into `ghost`.
    fn unpack_all(&self, ghost: Ghost, buf: &[f64]) {
        let seg = self.nz * ghost.packed(self.h).cells();
        for ((f, kind), buf) in self.fields.iter().zip(buf.chunks_exact(seg)) {
            match ghost {
                Ghost::Rect(rect) => field::unpack(self.h, self.order, f, rect, buf),
                Ghost::Fold => field::unpack_fold(self.h, self.order, f, buf, *kind),
            }
        }
    }

    /// One message to `dst`: `rect` of every field.
    fn send(&self, dst: usize, dir: u64, rect: Rect) {
        let comm = self.h.cart().comm();
        self.h.send_strip(
            comm,
            dst,
            self.tag0 + dir,
            self.seq,
            self.batch_len(rect),
            |buf| self.pack_all(rect, buf),
        );
    }

    /// Post the east/west leg (or run it locally when px == 1, in which
    /// case the north/south leg is posted immediately too).
    fn post_ew(&mut self) {
        if self.fields.is_empty() {
            self.stage = Stage::Done;
            return;
        }
        let h = self.h;
        let (west, east) = (h.cols(H), h.cols(h.nx));
        if self.plan.ew_self {
            // Periodic wrap within the block, through scratch.
            let len = self.batch_len(west);
            let (mut wb, mut eb) = (h.scratch(0, len), h.scratch(1, len));
            self.pack_all(west, &mut wb[..len]);
            self.pack_all(east, &mut eb[..len]);
            self.unpack_all(Ghost::Rect(h.cols(H + h.nx)), &wb[..len]);
            self.unpack_all(Ghost::Rect(h.cols(0)), &eb[..len]);
            drop((wb, eb));
            self.post_ns();
        } else {
            self.send(self.plan.west, T_WEST, west);
            self.send(self.plan.east, T_EAST, east);
        }
    }

    /// Post the north/south leg. Runs after the zonal ghosts are fresh —
    /// the row strips span the full padded width, which is how corners
    /// propagate without diagonal messages. Self-folds complete here.
    fn post_ns(&mut self) {
        let h = self.h;
        // Southward strips fill the south neighbor's north ghost.
        if let Some(s) = self.plan.south {
            self.send(s, T_SOUTH, h.rows(H));
        }
        match self.plan.north {
            NorthPath::Interior(nb) => self.send(nb, T_NORTH, h.rows(h.ny)),
            NorthPath::FoldOther(p) => self.send(p, T_FOLD, h.fold_rows()),
            NorthPath::FoldSelf => {
                let len = self.batch_len(h.fold_rows());
                let mut fb = h.scratch(0, len);
                self.pack_all(h.fold_rows(), &mut fb[..len]);
                self.unpack_all(Ghost::Fold, &fb[..len]);
            }
            NorthPath::Closed => {}
        }
        self.stage = Stage::NsPosted;
        // With no meridional receives outstanding the exchange is already
        // complete (single-rank column with a self-fold or closed wall).
        if self.owed().iter().all(Option::is_none) {
            self.complete();
        }
    }

    fn complete(&mut self) {
        self.stage = Stage::Done;
        self.h.add_inflight(self.t0.elapsed().as_nanos() as u64);
    }

    /// The strips the current stage waits on, in receive order: source,
    /// tag, and where each lands. A neighbor's westward strip is my east
    /// ghost; its southward strip my north ghost.
    fn owed(&self) -> [Option<(usize, u64, Ghost)>; 2] {
        let (h, plan) = (self.h, &self.plan);
        let strip = |src, dir, rect| Some((src, self.tag0 + dir, Ghost::Rect(rect)));
        match self.stage {
            Stage::EwPosted => [
                strip(plan.east, T_WEST, h.cols(H + h.nx)),
                strip(plan.west, T_EAST, h.cols(0)),
            ],
            Stage::NsPosted => [
                match plan.north {
                    NorthPath::Interior(nb) => strip(nb, T_SOUTH, h.rows(H + h.ny)),
                    NorthPath::FoldOther(p) => Some((p, self.tag0 + T_FOLD, Ghost::Fold)),
                    NorthPath::FoldSelf | NorthPath::Closed => None,
                },
                plan.south.and_then(|s| strip(s, T_NORTH, h.rows(0))),
            ],
            Stage::Done => [None, None],
        }
    }

    /// Have all receives the current stage is waiting on arrived? Probes
    /// without consuming, so `poll` only commits to receives it can
    /// satisfy immediately. Allocation-free (polls run in hot loops).
    fn stage_ready(&self, comm: &Comm) -> bool {
        self.owed()
            .iter()
            .flatten()
            .all(|&(src, tag, _)| comm.has_message(src, tag))
    }

    /// Is any strip the current stage waits on owed by a dead rank with
    /// nothing queued? Queued pre-death strips still count as arriving
    /// (drain-first), so only a truly unfillable wait reports death.
    fn stage_dead_peer(&self, comm: &Comm) -> Option<(usize, u64)> {
        self.owed()
            .iter()
            .flatten()
            .map(|&(src, tag, _)| (src, tag))
            .find(|&(src, tag)| !comm.is_alive(src) && !comm.has_message(src, tag))
    }

    fn advance(&mut self, blocking: bool) -> Result<bool, HaloError> {
        let comm = self.h.cart().comm();
        while self.stage != Stage::Done {
            if !blocking && !self.stage_ready(comm) {
                // A dead neighbor can never make the stage ready: surface
                // the typed error instead of letting the caller's drain
                // loop spin on `Ok(false)` forever.
                return match self.stage_dead_peer(comm) {
                    Some((src, tag)) => Err(HaloError::PeerDead { src, tag }),
                    None => Ok(false),
                };
            }
            for (src, tag, ghost) in self.owed().into_iter().flatten() {
                let len = self.batch_len(ghost.packed(self.h));
                self.h.recv_strip(comm, src, tag, self.seq, len, |buf| {
                    self.unpack_all(ghost, buf)
                })?;
            }
            match self.stage {
                Stage::EwPosted => self.post_ns(),
                Stage::NsPosted => self.complete(),
                Stage::Done => unreachable!("the loop exits on Done"),
            }
        }
        Ok(true)
    }

    /// Non-blocking progress: consume whatever strips have arrived and
    /// advance the protocol. Returns `Ok(true)` once the exchange is
    /// complete. Never waits — if the next strip has not arrived, it
    /// returns `Ok(false)` immediately.
    pub fn poll(&mut self) -> Result<bool, HaloError> {
        self.advance(false)
    }

    /// Block until the exchange completes.
    pub fn finish(mut self) -> Result<(), HaloError> {
        self.advance(true).map(|_| ())
    }

    /// True once every ghost cell is filled.
    pub fn is_done(&self) -> bool {
        self.stage == Stage::Done
    }
}

/// Blocking exchange: begin, then finish on the spot, inside the profiling
/// region of the field's rank.
pub(crate) fn exchange_many<F: HaloField>(
    h: &Halo2D,
    nz: usize,
    order: Strategy3D,
    fields: &[(&F, FoldKind)],
    tag_base: u64,
) -> Result<(), HaloError> {
    let _r = kokkos_rs::profiling::region(F::REGION);
    Pending::begin(h, nz, order, fields, tag_base).finish()
}

/// The allocating reference: the protocol of [`Pending`] run to completion
/// with element-wise packs into fresh vectors and the plain `isend` /
/// `recv` — no pool, no strip kernel, no framing. Bitwise identical to the
/// engine by contract.
pub(crate) fn exchange_many_alloc<F: HaloField>(
    h: &Halo2D,
    nz: usize,
    order: Strategy3D,
    fields: &[(&F, FoldKind)],
    tag_base: u64,
) {
    for (f, _) in fields {
        check_shape(h, nz, *f);
    }
    if fields.is_empty() {
        return;
    }
    let comm = h.cart().comm();
    let plan = h.plan();
    let tag = |dir: u64| tag_base + F::TAG + dir;
    let pack = |rect: Rect| -> Vec<f64> {
        fields
            .iter()
            .flat_map(|(f, _)| field::pack_ref(order, *f, rect))
            .collect()
    };
    let unpack = |ghost: Ghost, buf: Vec<f64>| {
        let seg = nz * ghost.packed(h).cells();
        for ((f, kind), buf) in fields.iter().zip(buf.chunks_exact(seg)) {
            match ghost {
                Ghost::Rect(rect) => field::unpack_ref(order, *f, rect, buf),
                Ghost::Fold => field::unpack_fold(h, order, *f, buf, *kind),
            }
        }
    };
    let (west, east) = (pack(h.cols(H)), pack(h.cols(h.nx)));
    let (from_east, from_west) = if plan.ew_self {
        (west, east)
    } else {
        comm.isend(plan.west, tag(T_WEST), west);
        comm.isend(plan.east, tag(T_EAST), east);
        (
            comm.recv::<f64>(plan.east, tag(T_WEST)),
            comm.recv::<f64>(plan.west, tag(T_EAST)),
        )
    };
    unpack(Ghost::Rect(h.cols(H + h.nx)), from_east);
    unpack(Ghost::Rect(h.cols(0)), from_west);
    if let Some(s) = plan.south {
        comm.isend(s, tag(T_SOUTH), pack(h.rows(H)));
    }
    match plan.north {
        NorthPath::Interior(nb) => {
            comm.isend(nb, tag(T_NORTH), pack(h.rows(h.ny)));
            unpack(Ghost::Rect(h.rows(H + h.ny)), comm.recv(nb, tag(T_SOUTH)));
        }
        NorthPath::FoldOther(p) => {
            comm.isend(p, tag(T_FOLD), pack(h.fold_rows()));
            unpack(Ghost::Fold, comm.recv(p, tag(T_FOLD)));
        }
        NorthPath::FoldSelf => unpack(Ghost::Fold, pack(h.fold_rows())),
        NorthPath::Closed => {}
    }
    if let Some(s) = plan.south {
        unpack(Ghost::Rect(h.rows(0)), comm.recv(s, tag(T_NORTH)));
    }
}
