//! The route table: where every ghost rectangle of a block comes from.
//!
//! A padded block has eight ghost rectangles around its owned cells — the
//! west/east columns and the south/north rows over the owned extent, and
//! the four `H × H` corners. Each one is a copy of cells a single rank
//! owns: the zonal wrap is periodic, the southern wall is closed, and the
//! tripolar seam maps a north ghost row onto an owned row mirrored in
//! longitude (sign-flipped for vector fields). Every block is at least `H`
//! wide and tall, and a fold needs equal block widths, so each rectangle's
//! image lies inside one block.
//!
//! [`peers`] works that out once, for every rank of the decomposition, and
//! keeps what this rank trades with each peer: the owned rectangles it
//! packs for the peer and the ghost rectangles the peer fills, both in the
//! receiver's order, so one message per peer carries them all in one
//! round.

use mpi_sim::CartComm;

use crate::strip::Rect;
use crate::HALO as H;

/// What one rank trades with one peer — possibly itself, when a ghost's
/// image is its own cells (the zonal wrap at `px = 1`, a self-fold).
#[derive(Clone)]
pub(crate) struct Peer {
    pub rank: usize,
    /// Owned rectangles packed for the peer, in the peer's route order.
    /// A fold image packs its rows descending from the top owned row.
    pub sends: Vec<Rect>,
    /// Ghost rectangles the peer's message fills, in this rank's route
    /// order; `true` marks an image across the fold (columns mirrored).
    pub recvs: Vec<(Rect, bool)>,
}

/// One ghost rectangle of a block, and where its image sits in the
/// owner's block.
struct Route {
    ghost: Rect,
    fold: bool,
    owner: usize,
    src: Rect,
}

/// Global extents of the block at `(cx, cy)`: `((x0, nx), (y0, ny))`.
fn block(cart: &CartComm, nxg: usize, nyg: usize, cx: usize, cy: usize) -> [(usize, usize); 2] {
    [
        CartComm::partition(nxg, cart.px(), cx),
        CartComm::partition(nyg, cart.py(), cy),
    ]
}

/// The part of [`CartComm::partition`]'s `parts`-way split of `n` that
/// holds index `g`: the first `n % parts` parts are one longer.
fn part_of(n: usize, parts: usize, g: usize) -> usize {
    let (base, extra) = (n / parts, n % parts);
    let long = extra * (base + 1);
    if g < long {
        g / (base + 1)
    } else {
        extra + (g - long) / base
    }
}

/// The routes of the block at `(cx, cy)`, row-major over the 3 × 3 grid
/// of rectangles around (and skipping) the owned cells. A ghost beyond a
/// closed wall has no route and keeps whatever it held.
fn routes(cart: &CartComm, nxg: usize, nyg: usize, cx: usize, cy: usize) -> Vec<Route> {
    let [(x0, nx), (y0, ny)] = block(cart, nxg, nyg, cx, cy);
    let (nxg_i, nyg_i) = (nxg as i64, nyg as i64);
    let mut out = Vec::with_capacity(8);
    for (lj, nj) in [(0, H), (H, ny), (H + ny, H)] {
        for (li, ni) in [(0, H), (H, nx), (H + nx, H)] {
            if (lj, li) == (H, H) {
                continue;
            }
            // Global row and (unwrapped) column of the ghost's first cell.
            let jg = (y0 + lj) as i64 - H as i64;
            let ig = (x0 + li) as i64 - H as i64;
            let fold = jg >= nyg_i;
            if jg < 0 || (fold && !cart.north_fold()) {
                continue;
            }
            // The image's first row and column: ghost row `nyg + d` folds
            // onto row `nyg - 1 - d`, column `i` onto `nxg - 1 - i`.
            let (row0, col0) = if fold {
                (2 * nyg_i - 1 - jg, nxg_i - ig - ni as i64)
            } else {
                (jg, ig)
            };
            let (row0, col0) = (row0 as usize, col0.rem_euclid(nxg_i) as usize);
            let (ox, oy) = (part_of(nxg, cart.px(), col0), part_of(nyg, cart.py(), row0));
            let [(ox0, onx), (oy0, ony)] = block(cart, nxg, nyg, ox, oy);
            let src = Rect {
                j0: H + row0 - oy0,
                nj,
                i0: H + col0 - ox0,
                ni,
                rev: fold,
            };
            debug_assert!(
                col0 + ni <= ox0 + onx && (fold || row0 + nj <= oy0 + ony),
                "a ghost image spans two blocks"
            );
            out.push(Route {
                ghost: Rect {
                    j0: lj,
                    nj,
                    i0: li,
                    ni,
                    rev: false,
                },
                fold,
                owner: oy * cart.px() + ox,
                src,
            });
        }
    }
    out
}

/// This rank's remote peers, in rank order — for each, what it packs for
/// the peer and what the peer's message fills — and its self routes.
/// Built from every rank's routes, so sender and receiver agree on the
/// layout of each message without negotiation.
pub(crate) fn peers(cart: &CartComm, nxg: usize, nyg: usize) -> (Vec<Peer>, Option<Peer>) {
    fn entry(peers: &mut Vec<Peer>, rank: usize) -> &mut Peer {
        let at = match peers.iter().position(|p| p.rank == rank) {
            Some(at) => at,
            None => {
                peers.push(Peer {
                    rank,
                    sends: Vec::new(),
                    recvs: Vec::new(),
                });
                peers.len() - 1
            }
        };
        &mut peers[at]
    }
    let me = cart.comm().rank();
    let mut peers = Vec::new();
    for rank in 0..cart.px() * cart.py() {
        for r in routes(cart, nxg, nyg, rank % cart.px(), rank / cart.px()) {
            if r.owner == me {
                entry(&mut peers, rank).sends.push(r.src);
            }
            if rank == me {
                entry(&mut peers, r.owner).recvs.push((r.ghost, r.fold));
            }
        }
    }
    peers.sort_by_key(|p| p.rank);
    let local = (peers.iter().position(|p| p.rank == me)).map(|at| peers.remove(at));
    (peers, local)
}
