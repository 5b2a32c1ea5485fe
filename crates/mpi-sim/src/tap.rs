//! Global traffic-event tap.
//!
//! [`crate::stats::Traffic`] answers *how much* moved; a profiler also
//! needs *when*. The tap is the event-stream counterpart of the counters:
//! an observer installed with [`set_tap`] receives one [`CommEvent`] per
//! send, matched receive, fault injection, served retransmission and
//! receive timeout, emitted from the same funnels that update the
//! counters (`Comm::post`, `send_into`, `take_message_for`, `fetch_resend`). The
//! `kokkos-profiling` crate bridges these onto per-rank chrome-trace
//! comm tracks, interleaved with kernel spans.
//!
//! With no tap installed the cost per event site is one relaxed atomic
//! load — the same discipline as the kernel-hook registry, so the model's
//! zero-allocation steady state is unaffected.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// What happened on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommEventKind {
    /// A payload was enqueued (`send`, `send_into` and collective messages).
    Send,
    /// A blocking/bounded receive matched a message.
    Recv,
    /// Fault plan discarded a message.
    FaultDropped,
    /// Fault plan delivered a message twice.
    FaultDuplicated,
    /// Fault plan held a message back.
    FaultDelayed,
    /// Fault plan flipped one payload bit.
    FaultBitflipped,
    /// Fault plan chopped trailing payload words.
    FaultTruncated,
    /// A pristine payload was served from the retransmission escrow.
    ResendServed,
    /// A bounded receive expired without a matching message.
    RecvTimeout,
}

impl CommEventKind {
    pub fn name(self) -> &'static str {
        match self {
            CommEventKind::Send => "send",
            CommEventKind::Recv => "recv",
            CommEventKind::FaultDropped => "fault:drop",
            CommEventKind::FaultDuplicated => "fault:duplicate",
            CommEventKind::FaultDelayed => "fault:delay",
            CommEventKind::FaultBitflipped => "fault:bitflip",
            CommEventKind::FaultTruncated => "fault:truncate",
            CommEventKind::ResendServed => "resend",
            CommEventKind::RecvTimeout => "timeout",
        }
    }
}

/// One observed traffic event. `rank` is the rank at which the event was
/// observed (the sender for sends/faults, the receiver for the rest).
#[derive(Debug, Clone, Copy)]
pub struct CommEvent {
    pub kind: CommEventKind,
    pub rank: usize,
    pub peer: usize,
    pub tag: u64,
    /// Payload bytes, when the site knows them (0 otherwise).
    pub bytes: u64,
}

/// An installed traffic observer.
pub trait CommTap: Send + Sync {
    fn on_event(&self, ev: &CommEvent);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TAP: Mutex<Option<Arc<dyn CommTap>>> = Mutex::new(None);

/// Install a process-global traffic tap. Replaces any previous tap.
pub fn set_tap(tap: Arc<dyn CommTap>) {
    *TAP.lock() = Some(tap);
    ENABLED.store(true, Ordering::Release);
}

/// Remove the installed tap.
pub fn clear_tap() {
    ENABLED.store(false, Ordering::Release);
    *TAP.lock() = None;
}

/// Whether a tap is currently attached.
#[inline(always)]
pub fn tap_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Emit one event to the installed tap (no-op when none is attached).
#[inline]
pub(crate) fn emit(ev: CommEvent) {
    if !tap_enabled() {
        return;
    }
    let tap = TAP.lock().clone();
    if let Some(tap) = tap {
        tap.on_event(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;

    #[derive(Default)]
    struct Recorder {
        events: Mutex<Vec<CommEvent>>,
    }

    impl CommTap for Recorder {
        fn on_event(&self, ev: &CommEvent) {
            self.events.lock().push(*ev);
        }
    }

    #[test]
    fn tap_sees_sends_and_recvs() {
        let rec = Arc::new(Recorder::default());
        set_tap(rec.clone());
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 77, vec![1.0f64, 2.0]);
            } else {
                let _ = comm.recv::<f64>(0, 77);
            }
        });
        clear_tap();
        // The tap is process-global and tests run concurrently; keep only
        // this test's tag.
        let events: Vec<CommEvent> = rec
            .events
            .lock()
            .iter()
            .filter(|e| e.tag == 77)
            .copied()
            .collect();
        let sends: Vec<_> = events
            .iter()
            .filter(|e| e.kind == CommEventKind::Send)
            .collect();
        let recvs: Vec<_> = events
            .iter()
            .filter(|e| e.kind == CommEventKind::Recv)
            .collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(recvs.len(), 1);
        assert_eq!(sends[0].rank, 0);
        assert_eq!(sends[0].peer, 1);
        assert_eq!(sends[0].bytes, 16);
        assert_eq!(recvs[0].rank, 1);
        assert_eq!(recvs[0].peer, 0);
    }

    #[test]
    fn no_tap_means_no_observer_calls() {
        clear_tap();
        assert!(!tap_enabled());
        // Emitting with no tap attached must be a silent no-op.
        emit(CommEvent {
            kind: CommEventKind::Send,
            rank: 0,
            peer: 1,
            tag: 0,
            bytes: 0,
        });
    }
}
