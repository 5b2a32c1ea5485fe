//! Reusable message-buffer pool.
//!
//! Every halo exchange of every field of every step moves `Vec<f64>`
//! payloads through the mailboxes. Allocating those vectors fresh each time
//! is exactly the steady-state churn the paper's §V-D optimization removes;
//! this pool lets payload storage round-trip: a send borrows a buffer, the
//! matching [`crate::Comm::recv_into`] returns the same storage to the free
//! list, and after a spin-up step the free list is warm enough that no
//! further heap allocation happens ([`crate::stats::Traffic`] counts hits
//! and misses so tests can assert exactly that).

use parking_lot::Mutex;

use crate::stats::Traffic;

/// World-shared free list of `f64` payload buffers.
#[derive(Default)]
pub(crate) struct BufferPool {
    free: Mutex<Vec<Vec<f64>>>,
}

impl BufferPool {
    /// Borrow a buffer of exactly `len` elements (contents unspecified).
    /// Reuses the smallest free buffer whose capacity suffices; only a miss
    /// touches the heap. Best fit, not first: a rank that sends messages
    /// of several sizes would otherwise spend a large buffer on a small
    /// message, ship it to a peer, and allocate again for its own large
    /// one — capacity drifting between ranks step after step.
    pub(crate) fn acquire(&self, len: usize, traffic: &Traffic) -> Vec<f64> {
        let mut free = self.free.lock();
        let fit = (free.iter().enumerate())
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(pos, _)| pos);
        if let Some(pos) = fit {
            let mut buf = free.swap_remove(pos);
            traffic.add(|t| &t.pool_reuses, 1);
            buf.clear();
            buf.resize(len, 0.0);
            return buf;
        }
        drop(free);
        traffic.add(|t| &t.pool_allocations, 1);
        vec![0.0; len]
    }

    /// Return a buffer's storage to the free list. Buffers that arrived
    /// from outside the pool (plain `send`) are adopted the same way.
    pub(crate) fn release(&self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        self.free.lock().push(buf);
    }

    /// Number of buffers currently parked in the free list.
    #[cfg(test)]
    pub(crate) fn idle(&self) -> usize {
        self.free.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip_reuses_storage() {
        let pool = BufferPool::default();
        let traffic = Traffic::default();
        let a = pool.acquire(100, &traffic);
        let ptr = a.as_ptr();
        pool.release(a);
        let b = pool.acquire(80, &traffic);
        assert_eq!(b.as_ptr(), ptr, "smaller request must reuse storage");
        assert_eq!(b.len(), 80);
        let s = traffic.snapshot();
        assert_eq!(s.pool_allocations, 1);
        assert_eq!(s.pool_reuses, 1);
    }

    #[test]
    fn too_small_buffers_are_skipped() {
        let pool = BufferPool::default();
        let traffic = Traffic::default();
        pool.release(vec![0.0; 10]);
        let big = pool.acquire(1000, &traffic);
        assert_eq!(big.len(), 1000);
        assert_eq!(traffic.snapshot().pool_allocations, 1);
        assert_eq!(pool.idle(), 1, "small buffer stays parked");
    }

    #[test]
    fn acquired_buffers_are_zeroed_to_len() {
        let pool = BufferPool::default();
        let traffic = Traffic::default();
        let mut a = pool.acquire(4, &traffic);
        a.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        pool.release(a);
        let b = pool.acquire(4, &traffic);
        assert_eq!(b, vec![0.0; 4], "reused buffers must arrive zeroed");
    }
}
