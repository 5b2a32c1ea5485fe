//! The one exchange protocol: one round, one message per peer.
//!
//! [`Pending`] is that protocol as a split-phase state machine — every
//! exchange in the crate, 2-D or 3-D, blocking or overlapped, one field or
//! a batch, is a `Pending` begun and then polled or finished. `begin`
//! packs, for each peer, every ghost rectangle of the peer's that is an
//! image of this rank's cells — edges and corners alike, in the order of
//! the route table ([`crate::route`]) — into one message, and runs the
//! self routes as local copies. Nothing a message carries depends on a
//! ghost, so there is no second leg: `poll` and `finish` receive one
//! message per peer, in any order. All fields of a batch share each
//! message, each packing straight into its segment of the pooled buffer.
//! A rectangle some field of the batch does not hold
//! ([`HaloField::holds`]: a [`crate::RowBand`]'s east/west strips) is left
//! out of it on both sides, and a peer left with none is sent nothing and
//! waited on for nothing.
//!
//! [`exchange_many_alloc`] spells the original two-round protocol on
//! purpose: east/west over the owned rows, then north/south or the fold
//! over the full padded width (which carries the corners), as element-wise
//! packs into freshly allocated vectors over the plain `send` / `recv` —
//! the bitwise reference the tests and the benches hold the engine
//! against.

use std::time::Instant;

use mpi_sim::{Dir, Neighbor};

use crate::field::{self, HaloField};
use crate::halo2d::{FoldKind, Framing, Halo2D};
use crate::halo3d::Strategy3D;
use crate::integrity::HaloError;
use crate::route::Peer;
use crate::strip::Rect;
use crate::HALO as H;

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
    /// `tag_base + F::TAG`: one message per peer, so one tag an exchange.
    tag: u64,
    framing: Option<Framing>,
    /// Every ghost filled.
    done: bool,
    t0: Instant,
}

fn check_shape<F: HaloField>(h: &Halo2D, nz: usize, f: &F) {
    let (pj, pi) = h.padded();
    assert_eq!(f.block_dims(), [nz, pj, pi], "field shape != padded block");
}

impl<'a, F: HaloField> Pending<'a, F> {
    /// Check the batch, claim its frame ordinal, send one message to each
    /// peer and run the self routes.
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
        let mut p = Pending {
            h,
            nz,
            order,
            fields: fields.iter().map(|(f, k)| ((*f).clone(), *k)).collect(),
            tag: tag_base + F::TAG,
            // An empty batch claims no frame ordinal, matching a
            // zero-length run of per-field exchanges.
            framing: None,
            done: fields.is_empty(),
            t0: Instant::now(),
        };
        if !p.done {
            p.framing = h.next_framing();
            for peer in h.peers() {
                let len = p.len(&peer.sends);
                if len > 0 {
                    h.send_msg(peer.rank, p.tag, p.framing, len, |buf| {
                        p.pack_all(&peer.sends, buf)
                    });
                }
            }
            if let Some(me) = h.local_routes() {
                p.copy_local(me);
            }
            if p.owed().next().is_none() {
                p.complete();
            }
        }
        p
    }

    /// Does every field of the batch hold `rect`?
    fn holds(&self, rect: &Rect) -> bool {
        let (lo, hi) = rect.rows();
        self.fields.iter().all(|(f, _)| f.holds(lo, hi))
    }

    /// The peers whose messages this exchange waits on, in rank order.
    fn owed(&self) -> impl Iterator<Item = &'a Peer> + '_ {
        let h: &'a Halo2D = self.h;
        let owes = |q: &&Peer| q.recvs.iter().any(|(ghost, _)| self.holds(ghost));
        h.peers().iter().filter(owes)
    }

    /// Elements of the held rectangles of `rects` over the whole batch.
    fn len<'r>(&self, rects: impl IntoIterator<Item = &'r Rect>) -> usize {
        let held = rects.into_iter().filter(|r| self.holds(r));
        self.fields.len() * self.nz * held.map(Rect::cells).sum::<usize>()
    }

    /// Every held rectangle of `rects`, every field's segment of it in
    /// turn, packed into `out`.
    fn pack_all(&self, rects: &[Rect], out: &mut [f64]) {
        let mut at = 0;
        for &rect in rects.iter().filter(|r| self.holds(r)) {
            let seg = self.nz * rect.cells();
            for (f, _) in &self.fields {
                field::pack(self.h, self.order, f, rect, &mut out[at..at + seg]);
                at += seg;
            }
        }
    }

    /// Inverse of [`Pending::pack_all`] into the ghost rectangles `recvs`;
    /// an image across the fold lands mirrored, sign-flipped per field.
    fn unpack_all(&self, recvs: &[(Rect, bool)], buf: &[f64]) {
        let mut at = 0;
        for &(ghost, fold) in recvs.iter().filter(|(ghost, _)| self.holds(ghost)) {
            let seg = self.nz * ghost.cells();
            for (f, kind) in &self.fields {
                let part = &buf[at..at + seg];
                if fold {
                    field::unpack_fold(self.order, f, ghost, part, *kind);
                } else {
                    field::unpack(self.h, self.order, f, ghost, part);
                }
                at += seg;
            }
        }
    }

    /// The self routes: this rank's own cells into its ghosts, through
    /// the context's scratch.
    fn copy_local(&self, me: &Peer) {
        let len = self.len(&me.sends);
        let mut buf = self.h.scratch(len);
        self.pack_all(&me.sends, &mut buf[..len]);
        self.unpack_all(&me.recvs, &buf[..len]);
    }

    fn complete(&mut self) {
        self.done = true;
        self.h.add_inflight(self.t0.elapsed().as_nanos() as u64);
    }

    /// Receive every owed message, in rank order — when `blocking`, or
    /// once all of them are queued: a poll commits only to receives it can
    /// satisfy at once, and buffers return to the pool in one order
    /// whatever the timing.
    fn advance(&mut self, blocking: bool) -> Result<bool, HaloError> {
        if self.done {
            return Ok(true);
        }
        let (comm, tag) = (self.h.cart().comm(), self.tag);
        if !blocking && !self.owed().all(|q| comm.has_message(q.rank, tag)) {
            // A dead peer can never deliver: surface the typed error
            // instead of letting the caller's drain loop spin on
            // `Ok(false)` forever. A message queued before the death still
            // counts as arriving (drain-first).
            return match self
                .owed()
                .find(|q| !comm.is_alive(q.rank) && !comm.has_message(q.rank, tag))
            {
                Some(q) => Err(HaloError::PeerDead { src: q.rank, tag }),
                None => Ok(false),
            };
        }
        for peer in self.owed() {
            let len = self.len(peer.recvs.iter().map(|(ghost, _)| ghost));
            self.h.recv_msg(peer.rank, tag, self.framing, len, |buf| {
                self.unpack_all(&peer.recvs, buf)
            })?;
        }
        self.complete();
        Ok(true)
    }

    /// Non-blocking progress: receive and unpack the owed messages if all
    /// have arrived. Returns `Ok(true)` once the exchange is complete.
    /// Never waits for a message that has not arrived.
    pub fn poll(&mut self) -> Result<bool, HaloError> {
        self.advance(false)
    }

    /// Block until the exchange completes.
    pub fn finish(mut self) -> Result<(), HaloError> {
        self.advance(true).map(|_| ())
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

/// The allocating reference: the original two-round protocol with
/// element-wise packs into fresh vectors and the plain `send` / `recv` —
/// no route table, no pool, no strip kernel, no framing. The second round
/// sends full padded-width rows whose ends the first round filled, which
/// is how its corners arrive. Bitwise identical to the engine by contract.
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
    let (cart, comm) = (h.cart(), h.cart().comm());
    let ((cx, cy), px) = (cart.coords(), cart.px());
    let (west, east) = (
        cart.rank_of((cx + px - 1) % px, cy),
        cart.rank_of((cx + 1) % px, cy),
    );
    // Tag offsets by direction of travel.
    let tag = |dir: u64| tag_base + F::TAG + dir;
    let (t_west, t_east, t_south, t_north, t_fold) = (tag(0), tag(1), tag(2), tag(3), tag(4));
    // Columns `[i0, i0+H)` over the owned rows; rows `[j0, j0+H)` over the
    // full padded width; and the rows that cross the fold, descending from
    // the northernmost owned one.
    let cols = |i0| Rect {
        j0: H,
        nj: h.ny,
        i0,
        ni: H,
        rev: false,
    };
    let rows = |j0| Rect {
        j0,
        nj: H,
        i0: 0,
        ni: h.padded().1,
        rev: false,
    };
    let fold_rows = Rect {
        j0: H + h.ny - 1,
        rev: true,
        ..rows(0)
    };
    let pack = |rect: Rect| -> Vec<f64> {
        fields
            .iter()
            .flat_map(|(f, _)| field::pack_ref(order, *f, rect))
            .collect()
    };
    let unpack = |ghost: Rect, fold: bool, buf: Vec<f64>| {
        let seg = nz * ghost.cells();
        for ((f, kind), buf) in fields.iter().zip(buf.chunks_exact(seg)) {
            if fold {
                field::unpack_fold(order, *f, ghost, buf, *kind);
            } else {
                field::unpack_ref(order, *f, ghost, buf);
            }
        }
    };
    let (to_west, to_east) = (pack(cols(H)), pack(cols(h.nx)));
    let (from_east, from_west) = if west == comm.rank() {
        (to_west, to_east)
    } else {
        comm.send(west, t_west, to_west);
        comm.send(east, t_east, to_east);
        (
            comm.recv::<f64>(east, t_west),
            comm.recv::<f64>(west, t_east),
        )
    };
    unpack(cols(H + h.nx), false, from_east);
    unpack(cols(0), false, from_west);
    let south = match cart.neighbor(Dir::South) {
        Neighbor::Interior(s) => Some(s),
        _ => None,
    };
    if let Some(s) = south {
        comm.send(s, t_south, pack(rows(H)));
    }
    let north = rows(H + h.ny);
    match cart.neighbor(Dir::North) {
        Neighbor::Interior(nb) => {
            comm.send(nb, t_north, pack(rows(h.ny)));
            unpack(north, false, comm.recv(nb, t_south));
        }
        Neighbor::Fold(p) if p == comm.rank() => unpack(north, true, pack(fold_rows)),
        Neighbor::Fold(p) => {
            comm.send(p, t_fold, pack(fold_rows));
            unpack(north, true, comm.recv(p, t_fold));
        }
        Neighbor::Closed => {}
    }
    if let Some(s) = south {
        unpack(rows(0), false, comm.recv(s, t_north));
    }
}
