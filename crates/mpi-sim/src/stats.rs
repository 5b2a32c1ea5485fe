//! Communication traffic accounting.
//!
//! The performance model needs message counts and byte volumes to feed its
//! alpha-beta network model (latency per message + bytes over bandwidth),
//! and the paper's scalability analysis (§VII-D reason 3: "communication
//! overhead ... substantially increases") is quantified from exactly these
//! numbers.
//!
//! The counter list is written once, in the `counters!` invocation below:
//! it declares [`Traffic`], [`TrafficSnapshot`], [`Traffic::snapshot`],
//! [`TrafficSnapshot::fields`] and [`TrafficSnapshot::delta`] together, so
//! a new counter cannot be left out of one of them.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Shared, lock-free traffic counters for one world. All ranks update
        /// the same instance through [`Traffic::add`]; snapshot after the run
        /// with [`Traffic::snapshot`].
        #[derive(Debug, Default)]
        pub struct Traffic {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// Plain-data snapshot of [`Traffic`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TrafficSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        const COUNTERS: usize = [$(stringify!($name)),*].len();

        impl Traffic {
            /// Copy the counters out.
            pub fn snapshot(&self) -> TrafficSnapshot {
                TrafficSnapshot { $($name: self.$name.load(Ordering::Relaxed),)* }
            }
        }

        impl TrafficSnapshot {
            /// Every counter as a `(name, value)` pair in declaration order —
            /// the enumeration the Prometheus exposition walks, so a new
            /// counter flows through without touching it.
            pub fn fields(&self) -> [(&'static str, u64); COUNTERS] {
                [$((stringify!($name), self.$name),)*]
            }

            /// Field-wise `self − earlier`, saturating at zero. The counters
            /// are monotone over a world's lifetime, so windowed accounting
            /// (e.g. per-resilient-run deltas in `licom::checkpoint`) must
            /// subtract a baseline snapshot rather than re-publish lifetime
            /// totals.
            pub fn delta(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
                TrafficSnapshot { $($name: self.$name.saturating_sub(earlier.$name),)* }
            }
        }
    };
}

counters! {
    /// Point-to-point messages sent.
    p2p_messages,
    /// Point-to-point payload bytes sent.
    p2p_bytes,
    /// Collective operations entered (counted once per op, not per rank).
    collectives,
    /// Payload bytes contributed to collectives, summed over ranks.
    collective_bytes,
    /// Barriers crossed (counted once per barrier).
    barriers,
    /// Message buffers the pool had to heap-allocate (pool misses). A
    /// steady-state time step should leave this unchanged — that is the
    /// zero-allocation claim, and tests assert it via snapshot deltas.
    pool_allocations,
    /// Message buffers served from the pool's free list (pool hits).
    pool_reuses,
    /// Payload bytes that traveled through pooled buffers.
    pooled_bytes,
    // -- fault injection (what the plan did to the wire) -------------------
    /// Messages discarded by a drop rule.
    faults_dropped,
    /// Messages delivered twice by a duplicate rule.
    faults_duplicated,
    /// Messages held back (reordered) by a delay rule.
    faults_delayed,
    /// Messages with one payload bit flipped.
    faults_bitflipped,
    /// Messages with trailing payload words chopped off.
    faults_truncated,
    /// Simulated rank stalls entered.
    rank_stalls,
    // -- detection and recovery (what the receivers did about it) ----------
    /// Integrity-framed messages rejected on receive (bad CRC, bad header,
    /// wrong length).
    crc_failures,
    /// Receive attempts that had to be retried (corrupt frame or timeout).
    halo_retries,
    /// Pristine payloads served from the retransmission escrow.
    resends_served,
    /// Bytes served from the retransmission escrow.
    resend_bytes,
    /// Bounded receives that expired without a matching message.
    recv_timeouts,
    // -- rank failure (fail-stop deaths and their fallout) ------------------
    /// Ranks that halted permanently (fail-stop, counted once per death).
    rank_deaths,
    /// Receives that returned `PeerDead` instead of blocking forever.
    peer_dead_errors,
    /// Sends silently suppressed because an endpoint was dead.
    sends_suppressed,
}

impl TrafficSnapshot {
    /// Total faults the plan injected into the message stream.
    pub fn faults_injected(&self) -> u64 {
        self.faults_dropped
            + self.faults_duplicated
            + self.faults_delayed
            + self.faults_bitflipped
            + self.faults_truncated
    }
}

impl Traffic {
    /// Add `n` to one counter: `traffic.add(|t| &t.barriers, 1)`.
    pub fn add(&self, counter: fn(&Self) -> &AtomicU64, n: usize) {
        counter(self).fetch_add(n as u64, Ordering::Relaxed);
    }

    /// One point-to-point message of `bytes` payload.
    pub fn record_p2p(&self, bytes: usize) {
        self.add(|t| &t.p2p_messages, 1);
        self.add(|t| &t.p2p_bytes, bytes);
    }

    /// One payload of `bytes` served from the retransmission escrow.
    pub fn record_resend_served(&self, bytes: usize) {
        self.add(|t| &t.resends_served, 1);
        self.add(|t| &t.resend_bytes, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Counter = fn(&Traffic) -> &AtomicU64;

    /// Every counter, in declaration order, with the accessor the recording
    /// path takes. Written out by hand so a counter the declaration drops
    /// from one generated piece fails the test below.
    const ALL: [(&str, Counter); 22] = [
        ("p2p_messages", |t| &t.p2p_messages),
        ("p2p_bytes", |t| &t.p2p_bytes),
        ("collectives", |t| &t.collectives),
        ("collective_bytes", |t| &t.collective_bytes),
        ("barriers", |t| &t.barriers),
        ("pool_allocations", |t| &t.pool_allocations),
        ("pool_reuses", |t| &t.pool_reuses),
        ("pooled_bytes", |t| &t.pooled_bytes),
        ("faults_dropped", |t| &t.faults_dropped),
        ("faults_duplicated", |t| &t.faults_duplicated),
        ("faults_delayed", |t| &t.faults_delayed),
        ("faults_bitflipped", |t| &t.faults_bitflipped),
        ("faults_truncated", |t| &t.faults_truncated),
        ("rank_stalls", |t| &t.rank_stalls),
        ("crc_failures", |t| &t.crc_failures),
        ("halo_retries", |t| &t.halo_retries),
        ("resends_served", |t| &t.resends_served),
        ("resend_bytes", |t| &t.resend_bytes),
        ("recv_timeouts", |t| &t.recv_timeouts),
        ("rank_deaths", |t| &t.rank_deaths),
        ("peer_dead_errors", |t| &t.peer_dead_errors),
        ("sends_suppressed", |t| &t.sends_suppressed),
    ];

    /// Counter `i` (declaration order) recorded to `scale * (i + 1)`.
    fn distinct(scale: usize) -> Traffic {
        let t = Traffic::default();
        for (i, (_, counter)) in ALL.iter().enumerate() {
            t.add(*counter, scale * (i + 1));
        }
        t
    }

    #[test]
    fn every_counter_flows_through_snapshot_fields_and_delta() {
        let s = distinct(1).snapshot();
        assert_eq!(
            s,
            TrafficSnapshot {
                p2p_messages: 1,
                p2p_bytes: 2,
                collectives: 3,
                collective_bytes: 4,
                barriers: 5,
                pool_allocations: 6,
                pool_reuses: 7,
                pooled_bytes: 8,
                faults_dropped: 9,
                faults_duplicated: 10,
                faults_delayed: 11,
                faults_bitflipped: 12,
                faults_truncated: 13,
                rank_stalls: 14,
                crc_failures: 15,
                halo_retries: 16,
                resends_served: 17,
                resend_bytes: 18,
                recv_timeouts: 19,
                rank_deaths: 20,
                peer_dead_errors: 21,
                sends_suppressed: 22,
            }
        );
        assert_eq!(s.faults_injected(), 9 + 10 + 11 + 12 + 13);

        // Names unique (an exporter keys on them), in declaration order.
        let fields = s.fields();
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
        for (i, ((name, value), (want, _))) in fields.iter().zip(ALL).enumerate() {
            assert_eq!((*name, *value), (want, i as u64 + 1));
        }

        // Field by field, saturating at zero.
        let later = distinct(101).snapshot();
        for (i, (_, value)) in later.delta(&s).fields().iter().enumerate() {
            assert_eq!(*value, 100 * (i as u64 + 1));
        }
        assert_eq!(s.delta(&s), TrafficSnapshot::default());
        assert_eq!(s.delta(&later), TrafficSnapshot::default());
    }

    #[test]
    fn pair_helpers_bump_count_and_bytes() {
        let t = Traffic::default();
        t.record_p2p(100);
        t.record_p2p(50);
        t.record_resend_served(128);
        let s = t.snapshot();
        assert_eq!((s.p2p_messages, s.p2p_bytes), (2, 150));
        assert_eq!((s.resends_served, s.resend_bytes), (1, 128));
    }
}
