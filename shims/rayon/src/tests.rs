//! Pool tests. The protocol's properties are checked under interleaving
//! pressure (many submitters, panics, nesting) and with one forced
//! interleaving (a late waker); private pools stand in for
//! `RAYON_NUM_THREADS` = 1, 2, 4 and 8, the global pool follows the
//! environment.

use super::*;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering::SeqCst};
use std::thread;

/// Test-only control of the instant between a worker being woken and its
/// next look at the pool state.
#[derive(Default)]
pub(crate) struct Hooks {
    hold: AtomicBool,
    held: AtomicUsize,
}

impl Hooks {
    pub(crate) fn woken(&self) {
        if !self.hold.load(SeqCst) {
            return;
        }
        self.held.fetch_add(1, SeqCst);
        while self.hold.load(SeqCst) {
            thread::yield_now();
        }
        self.held.fetch_sub(1, SeqCst);
    }
}

fn for_each(pool: &Pool, range: Range<usize>, f: impl Fn(usize) + Sync) {
    pool.launch(range, &|lo, hi| (lo..hi).for_each(&f));
}

/// xorshift64*: the shim has no `rand`.
struct Rng(u64);
impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

fn assert_each_index_once(pool: &Pool, n: usize) {
    let hits: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
    for_each(pool, 0..n, |i| {
        hits[i].fetch_add(1, SeqCst);
    });
    assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
}

#[test]
fn public_surface_visits_every_index_once() {
    use super::prelude::*;
    let hits: Vec<AtomicU8> = (0..10_000).map(|_| AtomicU8::new(0)).collect();
    (0..hits.len()).into_par_iter().for_each(|i| {
        hits[i].fetch_add(1, SeqCst);
    });
    assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
    (0..0).into_par_iter().for_each(|_| panic!("must not run"));
    (7..8).into_par_iter().for_each(|i| assert_eq!(i, 7));
    assert!(current_num_threads() >= 1);
}

/// 8 submitters × 5 000 launches of 1–64 chunks on one pool. Every launch
/// writes an array on its own stack: each index exactly once, nothing past
/// its length — a participant that ever used another launch's counter, body
/// or range would break that. Every 97th launch throws in a random chunk:
/// the payload names the launch, reaches that launch's submitter and no
/// other, and the pool serves the next launch.
fn stress(pool: &'static Pool) {
    const SUBMITTERS: usize = 8;
    const LAUNCHES: usize = 5_000;
    thread::scope(|s| {
        for id in 0..SUBMITTERS {
            s.spawn(move || {
                let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (id as u64 + 1));
                for n in 0..LAUNCHES {
                    let len = 1 + rng.below(64);
                    let start = rng.below(1_000);
                    let bomb = (n % 97 == 96).then(|| rng.below(len));
                    let hits: [AtomicU8; 64] = std::array::from_fn(|_| AtomicU8::new(0));
                    let thrown = panic::catch_unwind(AssertUnwindSafe(|| {
                        for_each(pool, start..start + len, |i| {
                            hits[i - start].fetch_add(1, SeqCst);
                            if bomb == Some(i - start) {
                                // Not `panic!`: no hook output, 400 times over.
                                panic::resume_unwind(Box::new((id, n)));
                            }
                        })
                    }));
                    let count = |i: usize| hits[i].load(SeqCst);
                    match (bomb, thrown) {
                        (None, Ok(())) => assert!((0..len).all(|i| count(i) == 1)),
                        (Some(b), Err(payload)) => {
                            assert_eq!(payload.downcast_ref(), Some(&(id, n)));
                            assert_eq!(count(b), 1);
                            assert!((0..len).all(|i| count(i) <= 1));
                        }
                        (bomb, thrown) => panic!(
                            "submitter {id} launch {n}: bomb {bomb:?}, outcome {:?}",
                            thrown.map_err(|p| p.downcast_ref::<(usize, usize)>().copied())
                        ),
                    }
                    assert!((len..64).all(|i| count(i) == 0));
                }
            });
        }
    });
    let st = lock(&pool.state);
    assert!(st.job.is_none() && st.running == 0);
}

#[test]
fn stress_1_thread() {
    stress(Pool::start(1));
}

#[test]
fn stress_2_threads() {
    stress(Pool::start(2));
}

#[test]
fn stress_8_threads() {
    stress(Pool::start(8));
}

#[test]
fn stress_global_pool() {
    stress(pool());
}

#[test]
fn nested_launch_completes() {
    for pool in [Pool::start(1), Pool::start(4), pool()] {
        let total = AtomicUsize::new(0);
        for_each(pool, 0..32, |_| {
            for_each(pool, 0..32, |_| {
                total.fetch_add(1, SeqCst);
            })
        });
        assert_eq!(total.load(SeqCst), 32 * 32);
    }
}

#[test]
fn busy_pool_runs_the_launch_on_the_caller_in_chunk_order() {
    let pool = Pool::start(4);
    let _another_launch = lock(&pool.submit);
    let me = thread::current().id();
    let order = Mutex::new(Vec::new());
    for_each(pool, 10..74, |i| {
        assert_eq!(thread::current().id(), me);
        lock(&order).push(i);
    });
    assert_eq!(*lock(&order), (10..74).collect::<Vec<_>>());
    assert_eq!(lock(&pool.state).epoch, 0, "nothing was published");

    let thrown = panic::catch_unwind(|| {
        for_each(pool, 0..64, |i| {
            if i == 5 {
                panic::resume_unwind(Box::new("chunk 5"));
            }
            assert!(i < 5, "the range is dropped after a panic");
        })
    });
    assert_eq!(thrown.unwrap_err().downcast_ref(), Some(&"chunk 5"));
}

/// The forced interleaving: every worker has been woken but has yet to look
/// at the pool when a launch is published, run and retired.
#[test]
fn late_waker_never_runs_a_cleared_job() {
    let pool = Pool::start(4);
    pool.hooks.hold.store(true, SeqCst);
    while pool.hooks.held.load(SeqCst) < pool.workers {
        pool.work_cv.notify_all();
        thread::yield_now();
    }

    // Outlives the launch, so a worker that did run the retired job's body
    // would be counted rather than lost.
    let runs: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(0)));
    let me = thread::current().id();
    for_each(pool, 0..64, |_| {
        assert_eq!(thread::current().id(), me);
        runs.fetch_add(1, SeqCst);
    });
    // Returned without waiting for any of them.
    assert_eq!(pool.hooks.held.load(SeqCst), pool.workers);
    assert_eq!(runs.load(SeqCst), 64);
    {
        let st = lock(&pool.state);
        assert!(st.job.is_none() && st.running == 0 && st.epoch == 1);
    }

    // The wakers look now, find no job and sleep again; the next launches
    // are served as usual.
    pool.hooks.hold.store(false, SeqCst);
    while pool.hooks.held.load(SeqCst) > 0 {
        thread::yield_now();
    }
    for _ in 0..100 {
        assert_each_index_once(pool, 4_096);
    }
    assert_eq!(runs.load(SeqCst), 64);
}
