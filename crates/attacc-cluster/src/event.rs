//! The deterministic event queue driving the cluster simulation.
//!
//! Events are totally ordered by `(time, kind rank, sequence number)`:
//! ties at the same virtual time resolve fault transitions first (a node
//! that crashes at `t` is already down for an arrival at `t`), then
//! arrivals before deliveries before resilience timers before node
//! wake-ups before scale ticks (mirroring the single-node open-loop
//! scheduler, which moves due arrivals into the queue *before*
//! admitting), and equal-kind ties resolve in insertion order. The order
//! is therefore a pure function of the inserted events — no wall clock,
//! no hash iteration, no thread interleaving — which is what makes the
//! whole simulator replayable.
//!
//! The fault-transition kinds (`NodeDown`, `NodeUp`) enter the queue
//! only when a run pre-loads a crash schedule, and a `Timer` only when a
//! policy arms one; a fault-free run never emits them, so they cannot
//! perturb it.

use attacc_model::Request;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// What happens at an event's virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A node crashes: its queued and active requests lose their KV state
    /// and return to the front door (fault runs only).
    NodeDown {
        /// The crashing node.
        node: usize,
    },
    /// A crashed node recovers: capacity is restored, state is not
    /// (fault runs only).
    NodeUp {
        /// The recovering node.
        node: usize,
    },
    /// A request reaches the front door and must be routed.
    Arrival {
        /// The arriving request.
        request: Request,
    },
    /// A routed request lands in a node's admission queue (after any
    /// prompt-shipping / KV-migration delay).
    Deliver {
        /// Destination node index.
        node: usize,
        /// Time the request originally arrived at the front door, for
        /// TTFT / queue-wait accounting.
        arrival_s: f64,
        /// The delivered request.
        request: Request,
        /// Whether the request arrives with a shipped KV image and skips
        /// its Sum stage (prefill hand-offs and KV-migration recovery;
        /// always `false` in a fault-free monolithic run).
        warm: bool,
    },
    /// A policy timer fires: a retry timeout or hedge delay for one
    /// logical request, or (attempt 0) a storm-guard re-dispatch of
    /// crash-displaced work.
    Timer {
        /// The logical request id the timer watches; for attempt 0, the
        /// parked re-dispatch's slot.
        id: u64,
        /// The dispatch attempt that armed the timer (0 = storm guard).
        attempt: u32,
        /// `true` for a hedge timer, `false` for a retry timeout.
        hedge: bool,
    },
    /// A node finished its scheduling round (or was idle and poked) and
    /// should try to run another.
    NodeReady {
        /// The node to wake.
        node: usize,
    },
    /// The autoscaler's periodic evaluation point (autoscaled fleets
    /// only). Ranked after `NodeReady` so a tick at the same virtual time
    /// observes the fleet *after* every round that completes at that
    /// instant — ticks cannot perturb any other event ordering.
    ScaleTick,
}

impl EventKind {
    /// Tie-break rank at equal virtual time (lower runs first). The rank
    /// is a `u16` so it can never be confused with a node index: node
    /// identity lives in the payload, and clusters of any size (512+
    /// nodes) order identically.
    fn rank(&self) -> u16 {
        match self {
            EventKind::NodeDown { .. } => 0,
            EventKind::NodeUp { .. } => 1,
            EventKind::Arrival { .. } => 2,
            EventKind::Deliver { .. } => 3,
            EventKind::Timer { .. } => 4,
            EventKind::NodeReady { .. } => 5,
            EventKind::ScaleTick => 6,
        }
    }
}

/// An event in the queue.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual time the event fires.
    pub time_s: f64,
    /// Insertion sequence number (assigned by [`EventQueue::push`]).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

/// Low bits of a pop key holding the insertion sequence number; the kind
/// rank takes the four bits above them, room for 16 ranks. 2^60 pushes
/// would take decades at one per nanosecond.
const SEQ_BITS: u32 = 60;

/// A queued event: its kind under one integer pop key (see
/// [`EventQueue`]), which also carries its time and sequence number.
#[derive(Debug)]
struct Entry {
    key: u128,
    kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// `time_s` as a `u64` that sorts the way [`f64::total_cmp`] does: a
/// negative time has every bit flipped, any other only its sign bit, so
/// `-0.0` sorts just below `+0.0` and negative times below both.
fn time_key(time_s: f64) -> u64 {
    let bits = time_s.to_bits();
    if bits >> 63 == 1 { !bits } else { bits | (1 << 63) }
}

/// The time a [`time_key`] encodes.
fn key_time(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ (1 << 63) } else { !key })
}

/// A min-priority queue over [`Event`]s with deterministic tie-breaking:
/// a binary heap over one `u128` pop key per event, the `time_key` in
/// the high 64 bits, then the kind rank, then the insertion sequence
/// number. Sifts compare plain integers, never floats, and `seq` is
/// unique, so the key is a total order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `kind` at `time_s`.
    ///
    /// # Panics
    /// Panics if `time_s` is not finite — a non-finite event time means a
    /// cost model diverged and the simulation would silently stall.
    pub fn push(&mut self, time_s: f64, kind: EventKind) {
        assert!(time_s.is_finite(), "event time must be finite, got {time_s}");
        let key = (u128::from(time_key(time_s)) << 64)
            | (u128::from(kind.rank()) << SEQ_BITS)
            | u128::from(self.next_seq);
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { key, kind }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let Reverse(Entry { key, kind }) = self.heap.pop()?;
        let seq = key as u64 & ((1 << SEQ_BITS) - 1);
        Some(Event { time_s: key_time((key >> 64) as u64), seq, kind })
    }

    /// Virtual time of the next event to pop, without removing it.
    ///
    /// The pop-order-first event minimizes `(time, rank, seq)`
    /// lexicographically, so the returned time is also the minimum (by
    /// `total_cmp`) over every pending event.
    #[must_use]
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(entry)| key_time((entry.key >> 64) as u64))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::NodeReady { node: 0 });
        q.push(0.5, EventKind::NodeReady { node: 1 });
        q.push(1.0, EventKind::NodeReady { node: 2 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time_s).collect();
        assert_eq!(order, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn equal_times_resolve_by_kind_then_sequence() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::NodeReady { node: 9 });
        q.push(
            1.0,
            EventKind::Deliver {
                node: 1,
                arrival_s: 0.0,
                request: Request::new(0, 1, 1),
                warm: false,
            },
        );
        q.push(1.0, EventKind::Arrival { request: Request::new(1, 1, 1) });
        q.push(1.0, EventKind::NodeReady { node: 7 });
        // The observation key is u64-wide: node indices must never be
        // squeezed through a narrow rank integer (a u8 encoding here
        // aborted at ≥ 254 nodes).
        let kinds: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Arrival { .. } => 0,
                EventKind::Deliver { .. } => 1,
                EventKind::NodeReady { node } => 2 + node as u64,
                _ => unreachable!("not pushed in this test"),
            })
            .collect();
        // Arrival first, then the delivery, then node-readies in insertion
        // order (9 before 7).
        assert_eq!(kinds, vec![0, 1, 11, 9]);
    }

    #[test]
    fn fault_transitions_run_before_work_at_equal_time() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::NodeReady { node: 0 });
        q.push(1.0, EventKind::Arrival { request: Request::new(0, 1, 1) });
        q.push(1.0, EventKind::Timer { id: 0, attempt: 1, hedge: false });
        q.push(1.0, EventKind::NodeUp { node: 0 });
        q.push(1.0, EventKind::NodeDown { node: 0 });
        let ranks: Vec<u16> = std::iter::from_fn(|| q.pop())
            .map(|e| e.kind.rank())
            .collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted, "fault events must precede work events");
        assert_eq!(ranks[0], 0, "NodeDown first");
        assert_eq!(ranks[1], 1, "NodeUp next");
        assert_eq!(*ranks.last().unwrap(), 5, "NodeReady last");
    }

    #[test]
    fn node_ready_ordering_survives_512_nodes() {
        // Regression: the rank key must not fold node indices into a u8 —
        // at 512 nodes that panicked and aborted the simulation.
        let mut q = EventQueue::new();
        for node in (0..512).rev() {
            q.push(1.0, EventKind::NodeReady { node });
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::NodeReady { node } => node,
                _ => unreachable!(),
            })
            .collect();
        // Equal time and kind: insertion order (511 down to 0) wins.
        assert_eq!(popped.len(), 512);
        assert!(popped.windows(2).all(|w| w[0] == w[1] + 1));
        assert_eq!(popped[0], 511);
        assert_eq!(popped[511], 0);
    }

    #[test]
    fn events_beyond_every_wheel_horizon_pop_in_order() {
        // Times from sub-millisecond to hours apart, pushed out of order.
        let mut q = EventQueue::new();
        for (i, &t) in [50.0, 0.5, 7.25, 0.0002, 1e4, 3.0].iter().enumerate() {
            q.push(t, EventKind::Timer { id: i as u64, attempt: 0, hedge: false });
        }
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time_s).collect();
        assert_eq!(order, vec![0.0002, 0.5, 3.0, 7.25, 50.0, 1e4]);
    }

    #[test]
    fn pushes_behind_the_cursor_pop_immediately() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::NodeReady { node: 0 });
        q.push(2.0, EventKind::NodeReady { node: 1 });
        assert_eq!(q.pop().expect("pending").time_s, 1.0);
        // A straggler behind the last pop's time must still come out
        // before the pending t=2.0 event.
        q.push(0.25, EventKind::NodeReady { node: 2 });
        assert_eq!(q.pop().expect("pending").time_s, 0.25);
        assert_eq!(q.pop().expect("pending").time_s, 2.0);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn next_time_previews_every_pop_without_consuming() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        // Pushed out of order, so every peek must find the minimum.
        for &t in &[7.25, 0.5, 1e4, 50.0, 0.0002] {
            q.push(t, EventKind::NodeReady { node: 0 });
        }
        while let Some(nt) = q.next_time() {
            let before = q.len();
            assert_eq!(q.next_time(), Some(nt), "peek must not consume");
            assert_eq!(q.len(), before);
            assert_eq!(q.pop().expect("peeked non-empty").time_s, nt);
        }
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_times_are_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::INFINITY, EventKind::NodeReady { node: 0 });
    }
}
