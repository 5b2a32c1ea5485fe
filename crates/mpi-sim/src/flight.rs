//! Always-on flight recorder: per-rank lock-free event rings with a
//! Lamport clock carried in the message path.
//!
//! Profiler aggregation and scrape-time telemetry are *survivor-biased*:
//! when a rank dies or a guard trips, the evidence of the final
//! milliseconds is gone with the rank. This module is the black box —
//! a fixed-capacity ring of compact structured events per rank, cheap
//! enough to leave armed for the whole run, that a post-mortem dump can
//! snapshot after the fact:
//!
//! * [`FlightRing`] — a lock-free multi-producer ring of
//!   [`FlightEvent`]s. Writers claim a slot with one `fetch_add` and
//!   publish through a per-slot seqlock; readers ([`FlightRing::snapshot`])
//!   copy slots and discard torn ones, so snapshotting a live ring from
//!   another thread never blocks a writer. When the ring is full the
//!   oldest events are overwritten — a flight recorder keeps the *last*
//!   N events, not the first.
//! * [`LamportClock`] — one logical clock per rank. Every recorded event
//!   ticks it; every message send stamps the current tick into the wire
//!   [`Message`](crate::comm) and every receive merges
//!   (`max(local, msg) + 1`), so events from different ranks can be
//!   merged into a single causal order after the fact: a receive is
//!   always ordered after its send, whatever the wall clocks say.
//! * [`enter`] / [`record`] — thread-local arming. A rank thread enters
//!   a [`FlightCtx`] scope (ring + clock) and every `record` call from
//!   that thread lands in its ring. With no scope armed anywhere in the
//!   process, `record` is a single relaxed atomic load.
//!
//! The consumer side (causal merge, post-mortem bundles, chrome-trace
//! export) lives in `kokkos-profiling::flight`; this module is the
//! dependency-free core the transport and the halo/model layers emit
//! into.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

/// Schema tag of serialized post-mortem bundles built from these events.
pub const FLIGHT_SCHEMA: &str = "licomkpp-flight-v1";

/// Default per-rank ring capacity (events retained).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Declares [`FlightEventKind`] once: the enum, [`FlightEventKind::ALL`],
/// and the code and name each kind carries on the wire, both ways.
macro_rules! event_kinds {
    ($(#[$doc:meta])* pub enum FlightEventKind {
        $($(#[$kdoc:meta])* $kind:ident = $code:literal,)*
    }) => {
        $(#[$doc])*
        #[repr(u8)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum FlightEventKind {
            $($(#[$kdoc])* $kind = $code,)*
        }

        const KINDS: usize = [$(stringify!($kind)),*].len();

        impl FlightEventKind {
            /// Every kind, in code order (for validators and exhaustive tests).
            pub const ALL: [FlightEventKind; KINDS] = [$(FlightEventKind::$kind),*];

            pub fn code(self) -> u8 {
                self as u8
            }

            pub fn from_code(code: u64) -> Option<FlightEventKind> {
                match code {
                    $($code => Some(FlightEventKind::$kind),)*
                    _ => None,
                }
            }

            /// Stable name used in serialized bundles and reports.
            pub fn name(self) -> &'static str {
                match self {
                    $(FlightEventKind::$kind => stringify!($kind),)*
                }
            }

            pub fn from_name(name: &str) -> Option<FlightEventKind> {
                match name {
                    $(stringify!($kind) => Some(FlightEventKind::$kind),)*
                    _ => None,
                }
            }
        }
    };
}

event_kinds! {
    /// What happened. The `a`/`b`/`c` payload words are kind-specific:
    ///
    /// | kind               | a                  | b                | c          |
    /// |--------------------|--------------------|------------------|------------|
    /// | `StepBegin`/`End`  | epoch (step)       | —                | —          |
    /// | `KernelBegin`      | kernel id          | name hash        | work items |
    /// | `KernelEnd`        | kernel id          | —                | —          |
    /// | `MsgSend`/`Recv`   | peer world rank    | wire tag         | f64 words  |
    /// | `HaloSend`/`Recv`  | packed (epoch,ord) | peer rank        | words      |
    /// | `IntegrityRetry`   | packed (epoch,ord) | peer rank        | attempt    |
    /// | `EscrowResend`     | peer rank          | wire tag         | words      |
    /// | `CrcFailure`       | packed (epoch,ord) | peer rank        | —          |
    /// | `GuardTrip`        | step               | field ordinal    | —          |
    /// | `Drift`            | step               | kind ordinal     | —          |
    /// | `CheckpointSave`   | step               | —                | —          |
    /// | `CheckpointRestore`| step               | —                | —          |
    /// | `Rollback`         | from step          | to step          | —          |
    /// | `ConsensusRound`   | round              | survivors        | —          |
    /// | `PeerDead`         | peer world rank    | wire tag         | —          |
    /// | `RankDeath`        | world rank         | death epoch      | —          |
    /// | `SchedDecision`    | job id             | steps done       | —          |
    /// | `JobFail`          | job id             | steps done       | —          |
    pub enum FlightEventKind {
        StepBegin = 1,
        StepEnd = 2,
        KernelBegin = 3,
        KernelEnd = 4,
        MsgSend = 5,
        MsgRecv = 6,
        HaloSend = 7,
        HaloRecv = 8,
        IntegrityRetry = 9,
        EscrowResend = 10,
        CrcFailure = 11,
        GuardTrip = 12,
        /// No recorder emits it any more (drift trips are counted, not
        /// escalated); the code stays for `licomkpp-flight-v1` bundles
        /// already written.
        Drift = 13,
        CheckpointSave = 14,
        CheckpointRestore = 15,
        Rollback = 16,
        ConsensusRound = 17,
        PeerDead = 18,
        RankDeath = 19,
        SchedDecision = 20,
        JobFail = 21,
    }
}

/// One recorded event. 48 bytes, `Copy` — the ring stores it as seven
/// atomic words so snapshots from other threads are race-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the process trace epoch ([`now_ns`]).
    pub t_ns: u64,
    /// Lamport timestamp at the recording rank.
    pub lamport: u64,
    /// World rank that recorded the event.
    pub rank: i64,
    pub kind: FlightEventKind,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

/// Nanoseconds since the process-wide trace epoch (first call wins).
/// `kokkos-profiling`'s span clock delegates here, so flight events and
/// chrome-trace spans share one timeline.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Per-rank logical clock (Lamport). Relaxed atomics: the clock orders
/// *events*, not memory — the mailbox mutexes already provide the
/// happens-before edges messages need.
#[derive(Debug, Default)]
pub struct LamportClock(AtomicU64);

impl LamportClock {
    /// Advance for a local event; returns the new timestamp.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Merge a timestamp observed on an incoming message, then tick:
    /// the returned stamp is `> max(local, seen)`, ordering the receive
    /// after the send.
    #[inline]
    pub fn observe(&self, seen: u64) -> u64 {
        self.0.fetch_max(seen, Ordering::Relaxed);
        self.tick()
    }

    /// Current value without advancing.
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Slot layout: a seqlock generation word plus the six payload words of
/// one event (t_ns, lamport, kind, a, b, c; the rank is a property of
/// the ring). `seq == 2*i + 1` means "index `i` being written",
/// `2*i + 2` means "index `i` published".
struct Slot {
    seq: AtomicU64,
    w: [AtomicU64; 6],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            w: [const { AtomicU64::new(0) }; 6],
        }
    }
}

/// Lock-free fixed-capacity event ring for one rank (see module docs).
///
/// Multi-producer: the serving layer's scheduler thread and whichever
/// worker holds the instance may record concurrently. Overwrite-oldest:
/// when full, a new event reclaims the oldest slot. A writer that
/// stalls for an entire lap can race the reclaiming writer; the seqlock
/// detects the tear and the snapshot drops that slot — a flight
/// recorder prefers losing one event to blocking the hot path.
pub struct FlightRing {
    rank: i64,
    cap: u64,
    /// Total events ever recorded; `head % cap` is the next slot.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl FlightRing {
    pub fn new(rank: i64, capacity: usize) -> Arc<FlightRing> {
        let cap = capacity.max(2);
        Arc::new(FlightRing {
            rank,
            cap: cap as u64,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::empty()).collect(),
        })
    }

    pub fn rank(&self) -> i64 {
        self.rank
    }

    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Total events ever recorded (including ones already evicted).
    pub fn total_recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one event stamped with an explicit Lamport timestamp.
    #[inline]
    pub fn record_stamped(&self, kind: FlightEventKind, lamport: u64, a: u64, b: u64, c: u64) {
        let t = now_ns();
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i % self.cap) as usize];
        slot.seq.store(2 * i + 1, Ordering::Relaxed);
        slot.w[0].store(t, Ordering::Relaxed);
        slot.w[1].store(lamport, Ordering::Relaxed);
        slot.w[2].store(kind.code() as u64, Ordering::Relaxed);
        slot.w[3].store(a, Ordering::Relaxed);
        slot.w[4].store(b, Ordering::Relaxed);
        slot.w[5].store(c, Ordering::Relaxed);
        slot.seq.store(2 * i + 2, Ordering::Release);
    }

    /// Record one event, ticking `clock` for the Lamport stamp.
    #[inline]
    pub fn record(&self, clock: &LamportClock, kind: FlightEventKind, a: u64, b: u64, c: u64) {
        self.record_stamped(kind, clock.tick(), a, b, c);
    }

    fn read_slot(&self, index: u64) -> Option<FlightEvent> {
        let slot = &self.slots[(index % self.cap) as usize];
        let expect = 2 * index + 2;
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 != expect {
            return None; // empty, mid-write, or already lapped
        }
        let w: [u64; 6] = std::array::from_fn(|k| slot.w[k].load(Ordering::Relaxed));
        std::sync::atomic::fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != s1 {
            return None; // torn by a concurrent overwrite
        }
        Some(FlightEvent {
            t_ns: w[0],
            lamport: w[1],
            rank: self.rank,
            kind: FlightEventKind::from_code(w[2])?,
            a: w[3],
            b: w[4],
            c: w[5],
        })
    }

    /// Copy the retained events, oldest first. Safe against concurrent
    /// writers: slots overwritten or mid-write during the copy are
    /// skipped rather than returned torn.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(self.cap);
        let mut out = Vec::with_capacity(n as usize);
        for i in (head - n)..head {
            if let Some(ev) = self.read_slot(i) {
                out.push(ev);
            }
        }
        out
    }
}

/// A rank's recording context: its ring and its (world-shared) clock.
#[derive(Clone)]
pub struct FlightCtx {
    pub ring: Arc<FlightRing>,
    pub clock: Arc<LamportClock>,
}

/// Count of threads with an armed [`FlightCtx`] — the [`record`] fast
/// path is one relaxed load of this when nothing is armed anywhere.
static ARMED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide arm/disarm observer (e.g. to mirror the armed state
/// into `kokkos-rs`'s dispatch-site flag). Called with `true` on the
/// 0→1 armed-thread transition and `false` on 1→0.
static ARM_OBSERVER: OnceLock<fn(bool)> = OnceLock::new();

thread_local! {
    /// Stack of contexts armed on this thread (scopes nest; the
    /// innermost receives [`record`] calls).
    static CTX: RefCell<Vec<FlightCtx>> = const { RefCell::new(Vec::new()) };
}

/// Install the arm/disarm observer (first install wins). If recording
/// is already armed, the observer is called immediately with `true`.
pub fn set_arm_observer(f: fn(bool)) {
    if ARM_OBSERVER.set(f).is_ok() && ARMED_THREADS.load(Ordering::Relaxed) > 0 {
        f(true);
    }
}

/// RAII guard for a thread's recording scope (see [`enter`]).
pub struct FlightScope {
    /// `!Send`: the scope must drop on the thread that entered it.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Arm flight recording on this thread: until the guard drops, every
/// [`record`] from this thread lands in `ctx.ring` stamped by
/// `ctx.clock`.
pub fn enter(ctx: FlightCtx) -> FlightScope {
    CTX.with(|c| c.borrow_mut().push(ctx));
    if ARMED_THREADS.fetch_add(1, Ordering::Relaxed) == 0 {
        if let Some(f) = ARM_OBSERVER.get() {
            f(true);
        }
    }
    FlightScope {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for FlightScope {
    fn drop(&mut self) {
        CTX.with(|c| {
            c.borrow_mut().pop();
        });
        if ARMED_THREADS.fetch_sub(1, Ordering::Relaxed) == 1 {
            if let Some(f) = ARM_OBSERVER.get() {
                f(false);
            }
        }
    }
}

/// Is any thread in the process currently armed?
#[inline(always)]
pub fn any_armed() -> bool {
    ARMED_THREADS.load(Ordering::Relaxed) > 0
}

/// Record an event into this thread's armed ring (no-op when disarmed;
/// the disarmed cost is a single relaxed atomic load).
#[inline]
pub fn record(kind: FlightEventKind, a: u64, b: u64, c: u64) {
    if !any_armed() {
        return;
    }
    CTX.with(|stack| {
        if let Some(ctx) = stack.borrow().last() {
            ctx.ring.record(&ctx.clock, kind, a, b, c);
        }
    });
}

/// Like [`record`] but with an explicit Lamport stamp (used by the
/// message path, which shares one tick between the wire stamp and the
/// send event).
#[inline]
pub fn record_stamped(kind: FlightEventKind, lamport: u64, a: u64, b: u64, c: u64) {
    if !any_armed() {
        return;
    }
    CTX.with(|stack| {
        if let Some(ctx) = stack.borrow().last() {
            ctx.ring.record_stamped(kind, lamport, a, b, c);
        }
    });
}

/// Per-world flight state: one clock per rank (always live, so Lamport
/// stamps flow through the wire even before any ring is armed), a ring
/// registry filled in by [`crate::Comm::flight_ctx`], and the
/// dump-once latch post-mortem writers claim.
pub struct FlightWorld {
    clocks: Vec<Arc<LamportClock>>,
    rings: Mutex<Vec<Option<Arc<FlightRing>>>>,
    dump_claimed: AtomicBool,
}

impl FlightWorld {
    pub fn new(n: usize) -> FlightWorld {
        FlightWorld {
            clocks: (0..n).map(|_| Arc::new(LamportClock::default())).collect(),
            rings: Mutex::new(vec![None; n]),
            dump_claimed: AtomicBool::new(false),
        }
    }

    pub fn clock(&self, world_rank: usize) -> &Arc<LamportClock> {
        &self.clocks[world_rank]
    }

    /// The ring registered for `world_rank`, if one has been created.
    pub fn ring(&self, world_rank: usize) -> Option<Arc<FlightRing>> {
        self.rings.lock()[world_rank].clone()
    }

    /// Get-or-create the ring for `world_rank`. Re-arming (e.g. a model
    /// rebuilt after elastic recovery) reuses the existing ring so the
    /// pre-failure history is retained.
    pub fn ring_or_create(&self, world_rank: usize, capacity: usize) -> Arc<FlightRing> {
        let mut rings = self.rings.lock();
        rings[world_rank]
            .get_or_insert_with(|| FlightRing::new(world_rank as i64, capacity))
            .clone()
    }

    /// Every ring registered in this world (rank order) — "all reachable
    /// rings" for a post-mortem dump.
    pub fn all_rings(&self) -> Vec<Arc<FlightRing>> {
        self.rings.lock().iter().flatten().cloned().collect()
    }

    /// Claim the (single) post-mortem dump for this world. The first
    /// failure edge to claim writes the bundle; later edges of the same
    /// incident skip, so one incident produces one bundle.
    pub fn claim_dump(&self) -> bool {
        !self.dump_claimed.swap(true, Ordering::SeqCst)
    }

    /// Record into `world_rank`'s ring directly, bypassing thread-local
    /// arming — for emission sites that run outside any scope (e.g. the
    /// fail-stop transition marking a rank dead).
    pub fn record_direct(&self, world_rank: usize, kind: FlightEventKind, a: u64, b: u64, c: u64) {
        if let Some(ring) = self.ring(world_rank) {
            ring.record(&self.clocks[world_rank], kind, a, b, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_last_capacity_events_in_order() {
        let ring = FlightRing::new(0, 8);
        let clock = LamportClock::default();
        for i in 0..20u64 {
            ring.record(&clock, FlightEventKind::StepBegin, i, 0, 0);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        let got: Vec<u64> = snap.iter().map(|e| e.a).collect();
        assert_eq!(got, (12..20).collect::<Vec<_>>());
        assert_eq!(ring.total_recorded(), 20);
        // Lamport stamps strictly increase down the ring.
        for w in snap.windows(2) {
            assert!(w[0].lamport < w[1].lamport);
        }
    }

    #[test]
    fn snapshot_of_partially_filled_ring() {
        let ring = FlightRing::new(3, 16);
        let clock = LamportClock::default();
        ring.record(&clock, FlightEventKind::GuardTrip, 7, 1, 0);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].kind, FlightEventKind::GuardTrip);
        assert_eq!(snap[0].rank, 3);
        assert_eq!((snap[0].a, snap[0].b), (7, 1));
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let ring = FlightRing::new(0, 64);
        let clock = Arc::new(LamportClock::default());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                let clock = Arc::clone(&clock);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        // Writer-tagged payload: a == b == c must hold in
                        // every snapshotted event or a tear leaked through.
                        let v = t * 1_000_000 + i;
                        ring.record(&clock, FlightEventKind::MsgSend, v, v, v);
                    }
                });
            }
            for _ in 0..50 {
                for ev in ring.snapshot() {
                    assert_eq!(ev.a, ev.b);
                    assert_eq!(ev.b, ev.c);
                }
            }
        });
        assert_eq!(ring.total_recorded(), 8000);
    }

    #[test]
    fn lamport_observe_orders_after_sender() {
        let a = LamportClock::default();
        let b = LamportClock::default();
        for _ in 0..10 {
            a.tick();
        }
        let sent = a.tick(); // 11
        let recv = b.observe(sent);
        assert!(recv > sent);
        // And b's later local events stay ahead of the merged stamp.
        assert!(b.tick() > recv);
    }

    #[test]
    fn record_is_noop_without_scope() {
        record(FlightEventKind::StepBegin, 1, 2, 3); // must not panic
        let ring = FlightRing::new(0, 8);
        let clock = Arc::new(LamportClock::default());
        {
            let _scope = enter(FlightCtx {
                ring: Arc::clone(&ring),
                clock,
            });
            assert!(any_armed());
            record(FlightEventKind::StepEnd, 9, 0, 0);
        }
        record(FlightEventKind::StepBegin, 4, 5, 6); // after disarm: dropped
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].kind, FlightEventKind::StepEnd);
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in FlightEventKind::ALL {
            assert_eq!(FlightEventKind::from_code(k.code() as u64), Some(k));
            assert_eq!(FlightEventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FlightEventKind::from_code(0), None);
        assert_eq!(FlightEventKind::from_code(255), None);
    }

    /// The codes and names `licomkpp-flight-v1` bundles already hold: a
    /// kind may be added after the last code, never renumbered or renamed.
    #[test]
    fn wire_table_is_pinned() {
        const WIRE: [(u8, &str); 21] = [
            (1, "StepBegin"),
            (2, "StepEnd"),
            (3, "KernelBegin"),
            (4, "KernelEnd"),
            (5, "MsgSend"),
            (6, "MsgRecv"),
            (7, "HaloSend"),
            (8, "HaloRecv"),
            (9, "IntegrityRetry"),
            (10, "EscrowResend"),
            (11, "CrcFailure"),
            (12, "GuardTrip"),
            (13, "Drift"),
            (14, "CheckpointSave"),
            (15, "CheckpointRestore"),
            (16, "Rollback"),
            (17, "ConsensusRound"),
            (18, "PeerDead"),
            (19, "RankDeath"),
            (20, "SchedDecision"),
            (21, "JobFail"),
        ];
        let table: Vec<(u8, &str)> = FlightEventKind::ALL
            .iter()
            .map(|k| (k.code(), k.name()))
            .collect();
        assert_eq!(table, WIRE);
        for (code, name) in WIRE {
            let kind = FlightEventKind::from_code(code as u64);
            assert_eq!(kind.map(FlightEventKind::name), Some(name));
            assert_eq!(FlightEventKind::from_name(name), kind);
        }
    }

    #[test]
    fn world_registry_reuses_rings_and_claims_dump_once() {
        let w = FlightWorld::new(2);
        let r0 = w.ring_or_create(0, 32);
        let again = w.ring_or_create(0, 64);
        assert!(Arc::ptr_eq(&r0, &again), "re-arm must reuse the ring");
        assert_eq!(w.all_rings().len(), 1);
        w.record_direct(0, FlightEventKind::RankDeath, 0, 3, 0);
        w.record_direct(1, FlightEventKind::RankDeath, 1, 3, 0); // no ring: dropped
        assert_eq!(r0.snapshot().len(), 1);
        assert!(w.claim_dump());
        assert!(!w.claim_dump());
    }
}
