//! Offline stand-in for the `rayon` crate.
//!
//! The build environment cannot reach a cargo registry, so this shim vendors
//! the exact surface the workspace uses: `(a..b).into_par_iter().for_each(f)`
//! and [`current_num_threads`].
//!
//! Execution runs on a **persistent worker pool** (started lazily, sized from
//! `RAYON_NUM_THREADS` or `available_parallelism`). `kokkos-rs` launches
//! kernels hundreds of times per model step, many of them microseconds long,
//! so dispatch is **work-first**:
//!
//! 1. *Join on claim.* The submitter publishes the job, rings the workers and
//!    starts claiming chunks at once. A worker counts itself into the job
//!    under the state lock, and only while the job is still published. When
//!    the submitter runs out of chunks it unpublishes the job and waits only
//!    for workers that joined — a launch it finishes alone costs one lock and
//!    one notify, and never waits for a sleeping thread to be scheduled.
//! 2. *Busy pool ⇒ run here.* The pool serves one launch at a time. A caller
//!    that finds it taken (another model, rank or server worker is mid-launch,
//!    or this is a nested launch) runs its whole range on its own thread, in
//!    the same chunk order. Callers never queue behind each other.
//!
//! Chunks are handed out by an atomic counter. A panic inside a chunk is
//! caught where it happens, the rest of the range is dropped, and the panic
//! is re-thrown on the caller once every participant has left — the same
//! observable behavior as rayon.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, TryLockError};

type PanicPayload = Box<dyn Any + Send + 'static>;

pub mod prelude {
    pub use crate::IntoParallelIterator;
}

/// Number of threads the pool runs (workers + the calling thread).
pub fn current_num_threads() -> usize {
    pool().workers + 1
}

pub trait IntoParallelIterator {
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        pool().launch(self.range, &|lo, hi| (lo..hi).for_each(&f));
    }
}

// ---------------------------------------------------------------------------
// Work-first pool
// ---------------------------------------------------------------------------

type Body<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// One launch, as the participants see it: pointers into the stack frame of
/// the [`Pool::launch`] call that built it.
// SAFETY: the contract of `Job`. The pointers are valid for as long as
// `launch` has not returned. A thread may dereference them only
// (a) inside that `launch` call itself, or
// (b) on a worker that copied the job out of `PoolState::job` and added
//     itself to `PoolState::running` in one critical section of
//     `Pool::state`, until it subtracts itself again.
// `launch` takes the job out of `PoolState::job` under the same lock and then
// blocks until `running` is zero, so every worker under (b) is done before
// the frame dies, and a worker that wakes later finds `None` (or a newer job)
// and never sees the dead one.
#[derive(Clone, Copy)]
struct Job {
    body: *const (dyn Fn(usize, usize) + Sync + 'static),
    counter: *const AtomicUsize,
    end: usize,
    grain: usize,
    panic_slot: *const Mutex<Option<PanicPayload>>,
}
// SAFETY: `body` points at a `Sync` closure and `counter` / `panic_slot` at
// `Sync` values, so sharing them between the launch's participants is sound;
// the lifetime half of the argument is the contract above.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped per published job, so a worker joins each job at most once.
    epoch: u64,
    job: Option<Job>,
    /// Workers inside the published (or just unpublished) job.
    running: usize,
}

struct Pool {
    workers: usize,
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Held by the one launch the workers are serving.
    submit: Mutex<()>,
    #[cfg(test)]
    hooks: tests::Hooks,
}

/// Every critical section of the pool's mutexes leaves the data valid (plain
/// stores of whole values), so a poisoned lock is recovered, not propagated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            });
        Pool::start(threads)
    })
}

impl Pool {
    /// A pool of `threads` threads: `threads - 1` workers (at most 63) plus
    /// whichever thread is launching. Workers live as long as the process.
    fn start(threads: usize) -> &'static Pool {
        let workers = threads.saturating_sub(1).min(63);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            workers,
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                running: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submit: Mutex::new(()),
            #[cfg(test)]
            hooks: Default::default(),
        }));
        for w in 0..workers {
            std::thread::Builder::new()
                .name(format!("par-worker-{w}"))
                .spawn(move || pool.worker_loop())
                .expect("spawn pool worker");
        }
        pool
    }

    fn worker_loop(&self) {
        let mut seen = 0u64;
        let mut st = lock(&self.state);
        loop {
            let Some(job) = st.job.filter(|_| st.epoch != seen) else {
                st = self.work_cv.wait(st).unwrap_or_else(|p| p.into_inner());
                #[cfg(test)]
                {
                    // A waker the OS schedules late: woken, but yet to look
                    // at the state.
                    drop(st);
                    self.hooks.woken();
                    st = lock(&self.state);
                }
                continue;
            };
            seen = st.epoch;
            st.running += 1;
            drop(st);
            // SAFETY: joined under the state lock while the job was
            // published — case (b) of the `Job` contract.
            unsafe { run_job(job) };
            st = lock(&self.state);
            st.running -= 1;
            if st.running == 0 {
                self.done_cv.notify_all();
            }
        }
    }

    /// Run `body(lo, hi)` over disjoint chunks covering `range`, on the
    /// calling thread plus whichever workers join in time. Returns after
    /// every chunk is done; re-throws the first panic a chunk raised.
    fn launch(&self, range: Range<usize>, body: Body<'_>) {
        let len = range.len();
        if len == 0 {
            return;
        }
        if self.workers == 0 || len == 1 {
            body(range.start, range.end);
            return;
        }
        let grain = (len / ((self.workers + 1) * 4)).max(1);
        let counter = AtomicUsize::new(range.start);
        let panic_slot: Mutex<Option<PanicPayload>> = Mutex::new(None);
        // SAFETY: only the lifetime is erased; the `Job` contract keeps
        // every use of the pointer inside this call.
        let body_static: &(dyn Fn(usize, usize) + Sync + 'static) =
            unsafe { std::mem::transmute(body) };
        let job = Job {
            body: body_static as *const _,
            counter: &counter,
            end: range.end,
            grain,
            panic_slot: &panic_slot,
        };
        let serving = match self.submit.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            // Another launch owns the workers: this one runs here, alone.
            Err(TryLockError::WouldBlock) => None,
        };
        if serving.is_some() {
            let mut st = lock(&self.state);
            st.epoch += 1;
            st.job = Some(job);
            drop(st);
            self.work_cv.notify_all();
        }
        // Work first. A panicking chunk is caught inside `run_job`, so this
        // thread always reaches the wait below while workers still hold
        // pointers into its frame.
        // SAFETY: case (a) of the `Job` contract.
        unsafe { run_job(job) };
        if serving.is_some() {
            let mut st = lock(&self.state);
            st.job = None;
            while st.running > 0 {
                st = self.done_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
        drop(serving);
        let payload = lock(&panic_slot).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

/// Claim and run chunks of `job` until none are left.
///
/// # Safety
/// The caller must be a participant of `job` under case (a) or (b) of the
/// [`Job`] contract for the whole call.
unsafe fn run_job(job: Job) {
    // SAFETY: the caller's participation keeps the launch frame alive.
    let (counter, body, panic_slot) = unsafe { (&*job.counter, &*job.body, &*job.panic_slot) };
    loop {
        let lo = counter.fetch_add(job.grain, Ordering::Relaxed);
        if lo >= job.end {
            break;
        }
        let hi = (lo + job.grain).min(job.end);
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(lo, hi))) {
            lock(panic_slot).get_or_insert(payload);
            // Drop the rest of the range so the region terminates promptly.
            counter.store(job.end, Ordering::Relaxed);
            break;
        }
    }
}

#[cfg(test)]
mod tests;
