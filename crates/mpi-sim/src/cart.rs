//! 2-D Cartesian rank topology for the LICOM block decomposition.
//!
//! "LICOM divides the Earth into horizontal two-dimensional (2D) grid
//! blocks, with each MPI rank handling one block" (§V-D). The topology is
//! zonally periodic (the ocean wraps in longitude), closed at the southern
//! wall (Antarctica), and — because the grid is **tripolar** — the northern
//! boundary folds onto itself: the block at column `cx` in the top row
//! exchanges its north halo with the block at column `px-1-cx` of the same
//! row, with the data reversed in the zonal direction. This crate provides
//! the neighbor identities; the data transforms live in `halo-exchange`.

use crate::comm::Comm;

/// Direction of a halo exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    West,
    East,
    South,
    North,
}

impl Dir {
    /// All four directions, in the exchange order used by the model
    /// (x-direction first, then y, as LICOM does).
    pub const ALL: [Dir; 4] = [Dir::West, Dir::East, Dir::South, Dir::North];

    /// The direction a matching message arrives from on the peer.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::West => Dir::East,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::North => Dir::South,
        }
    }
}

/// Identity of the neighbor in one direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Neighbor {
    /// Ordinary neighbor: exchange halos normally.
    Interior(usize),
    /// Tripolar north-fold partner: exchange with zonal reversal.
    /// May be this very rank (self-fold) when `cx == px-1-cx`.
    Fold(usize),
    /// Closed boundary (southern wall): no exchange.
    Closed,
}

/// A Cartesian view over a [`Comm`]: `px × py` ranks, row-major
/// (`rank = cy * px + cx`), x = zonal (periodic), y = meridional.
#[derive(Clone)]
pub struct CartComm {
    comm: Comm,
    px: usize,
    py: usize,
    north_fold: bool,
}

impl CartComm {
    /// Build the topology. `px * py` must equal the world size.
    pub fn new(comm: Comm, px: usize, py: usize, north_fold: bool) -> Self {
        assert_eq!(
            px * py,
            comm.size(),
            "cartesian dims {px}x{py} != world size {}",
            comm.size()
        );
        Self {
            comm,
            px,
            py,
            north_fold,
        }
    }

    /// Underlying communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    pub fn px(&self) -> usize {
        self.px
    }

    pub fn py(&self) -> usize {
        self.py
    }

    /// Whether the northern boundary is the tripolar fold (else closed).
    pub fn north_fold(&self) -> bool {
        self.north_fold
    }

    /// This rank's `(cx, cy)` coordinates.
    pub fn coords(&self) -> (usize, usize) {
        let r = self.comm.rank();
        (r % self.px, r / self.px)
    }

    /// Rank id at `(cx, cy)`.
    pub fn rank_of(&self, cx: usize, cy: usize) -> usize {
        assert!(cx < self.px && cy < self.py);
        cy * self.px + cx
    }

    /// Neighbor identity in `dir` for this rank.
    pub fn neighbor(&self, dir: Dir) -> Neighbor {
        let (cx, cy) = self.coords();
        match dir {
            Dir::West => Neighbor::Interior(self.rank_of((cx + self.px - 1) % self.px, cy)),
            Dir::East => Neighbor::Interior(self.rank_of((cx + 1) % self.px, cy)),
            Dir::South => {
                if cy == 0 {
                    Neighbor::Closed
                } else {
                    Neighbor::Interior(self.rank_of(cx, cy - 1))
                }
            }
            Dir::North => {
                if cy + 1 < self.py {
                    Neighbor::Interior(self.rank_of(cx, cy + 1))
                } else if self.north_fold {
                    Neighbor::Fold(self.rank_of(self.px - 1 - cx, cy))
                } else {
                    Neighbor::Closed
                }
            }
        }
    }

    /// Balanced 1-D partition: element range of part `idx` among `parts`
    /// parts of an `n`-element axis (first `n % parts` parts get one extra).
    pub fn partition(n: usize, parts: usize, idx: usize) -> (usize, usize) {
        assert!(idx < parts);
        let base = n / parts;
        let extra = n % parts;
        let len = base + usize::from(idx < extra);
        let start = idx * base + idx.min(extra);
        (start, len)
    }

    /// This rank's global x-range (start, len) of an `nx`-wide grid.
    pub fn local_x(&self, nx: usize) -> (usize, usize) {
        let (cx, _) = self.coords();
        Self::partition(nx, self.px, cx)
    }

    /// This rank's global y-range (start, len) of an `ny`-tall grid.
    pub fn local_y(&self, ny: usize) -> (usize, usize) {
        let (_, cy) = self.coords();
        Self::partition(ny, self.py, cy)
    }

    /// Choose a near-square factorisation `px * py = n` with `px >= py`
    /// (LICOM prefers more zonal blocks since nx > ny).
    pub fn choose_dims(n: usize) -> (usize, usize) {
        assert!(n > 0);
        let mut best = (n, 1);
        let mut py = 1;
        while py * py <= n {
            if n.is_multiple_of(py) {
                best = (n / py, py);
            }
            py += 1;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;

    #[test]
    fn coords_roundtrip() {
        World::run(6, |comm| {
            let cart = CartComm::new(comm.clone(), 3, 2, true);
            let (cx, cy) = cart.coords();
            assert_eq!(cart.rank_of(cx, cy), comm.rank());
        });
    }

    #[test]
    fn zonal_periodicity() {
        World::run(4, |comm| {
            let cart = CartComm::new(comm.clone(), 4, 1, false);
            let (cx, _) = cart.coords();
            if cx == 0 {
                assert_eq!(cart.neighbor(Dir::West), Neighbor::Interior(3));
            }
            if cx == 3 {
                assert_eq!(cart.neighbor(Dir::East), Neighbor::Interior(0));
            }
        });
    }

    #[test]
    fn south_is_closed_north_folds() {
        World::run(8, |comm| {
            let cart = CartComm::new(comm.clone(), 4, 2, true);
            let (cx, cy) = cart.coords();
            if cy == 0 {
                assert_eq!(cart.neighbor(Dir::South), Neighbor::Closed);
            }
            if cy == 1 {
                // top row: fold partner is mirrored column, same row
                let expect = cart.rank_of(4 - 1 - cx, 1);
                assert_eq!(cart.neighbor(Dir::North), Neighbor::Fold(expect));
            }
        });
    }

    #[test]
    fn fold_can_be_self() {
        World::run(3, |comm| {
            let cart = CartComm::new(comm.clone(), 3, 1, true);
            let (cx, _) = cart.coords();
            if cx == 1 {
                // middle column mirrors onto itself
                assert_eq!(cart.neighbor(Dir::North), Neighbor::Fold(comm.rank()));
            }
        });
    }

    #[test]
    fn no_fold_means_closed_north() {
        World::run(2, |comm| {
            let cart = CartComm::new(comm.clone(), 2, 1, false);
            assert_eq!(cart.neighbor(Dir::North), Neighbor::Closed);
        });
    }

    #[test]
    fn partition_is_balanced_and_covers() {
        for n in [1usize, 7, 100, 360, 3600] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut total = 0;
                let mut expected_start = 0;
                let mut lens = Vec::new();
                for idx in 0..parts {
                    let (start, len) = CartComm::partition(n, parts, idx);
                    assert_eq!(start, expected_start, "n={n} parts={parts} idx={idx}");
                    expected_start += len;
                    total += len;
                    lens.push(len);
                }
                assert_eq!(total, n);
                let min = lens.iter().min().unwrap();
                let max = lens.iter().max().unwrap();
                assert!(max - min <= 1, "imbalance >1 for n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn choose_dims_factorises() {
        assert_eq!(CartComm::choose_dims(1), (1, 1));
        assert_eq!(CartComm::choose_dims(12), (4, 3));
        assert_eq!(CartComm::choose_dims(16), (4, 4));
        assert_eq!(CartComm::choose_dims(7), (7, 1));
        let (px, py) = CartComm::choose_dims(36);
        assert_eq!(px * py, 36);
        assert!(px >= py);
    }

    #[test]
    fn opposite_directions() {
        assert_eq!(Dir::West.opposite(), Dir::East);
        assert_eq!(Dir::North.opposite(), Dir::South);
    }
}
