//! The deterministic event queue driving the cluster simulation.
//!
//! Events are totally ordered by `(time, kind rank, sequence number)`:
//! ties at the same virtual time resolve fault transitions first (a node
//! that crashes at `t` is already down for an arrival at `t`), then
//! arrivals before deliveries before resilience timers before node
//! wake-ups (mirroring the single-node open-loop scheduler, which moves
//! due arrivals into the queue *before* admitting), and equal-kind ties
//! resolve in insertion order. The order is therefore a pure function
//! of the inserted events — no wall clock, no hash iteration, no thread
//! interleaving — which is what makes the whole simulator replayable.
//!
//! The fault-transition kinds (`NodeDown`, `NodeUp`, `Slowdown`,
//! `LinkFactor`) enter the queue only when a run pre-loads a fault
//! schedule, and a `Timer` only when a policy arms one; a fault-free run
//! never emits them, so they cannot perturb it.

use attacc_model::Request;
use std::cmp::Ordering;
use std::collections::VecDeque;

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
    /// A node's execution slows down by a multiplicative factor
    /// (straggler start at `factor > 1`, end at `factor = 1`; fault runs
    /// only).
    Slowdown {
        /// The straggling node.
        node: usize,
        /// Multiplier applied to every stage latency from now on.
        factor: f64,
    },
    /// The front-door interconnect degrades: every transfer delay is
    /// multiplied by `factor` (degradation start at `factor > 1`, end at
    /// `factor = 1`; fault runs only).
    LinkFactor {
        /// Multiplier applied to every interconnect transfer from now on.
        factor: f64,
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
            EventKind::Slowdown { .. } => 2,
            EventKind::LinkFactor { .. } => 3,
            EventKind::Arrival { .. } => 4,
            EventKind::Deliver { .. } => 5,
            EventKind::Timer { .. } => 6,
            EventKind::NodeReady { .. } => 7,
            EventKind::ScaleTick => 8,
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

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest event pops
        // first.
        other
            .time_s
            .total_cmp(&self.time_s)
            .then_with(|| other.kind.rank().cmp(&self.kind.rank()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Seconds of virtual time per near-wheel slot. Decode iterations land a
/// few milliseconds to tens of milliseconds apart, so 4 ms buckets keep
/// slots to a handful of events each while consecutive rounds stay within
/// one block (block transitions, not slot hops, are the expensive step).
const SLOT_S: f64 = 4e-3;
/// Slots in the near wheel; one block covers 1.024 s of virtual time.
const NEAR_SLOTS: u64 = 256;
/// Block buckets in the far wheel; its horizon reaches 262 s past the
/// cursor before events fall through to the sorted overflow level.
const FAR_BLOCKS: u64 = 256;

/// The near-wheel slot a virtual time maps to (saturating: negative
/// times clamp to slot 0, far-future times to `u64::MAX`). Saturation
/// cannot reorder anything — within a bucket the full `(time, rank,
/// seq)` sort decides, and the mapping is monotone in time.
fn slot_of(time_s: f64) -> u64 {
    (time_s / SLOT_S) as u64
}

/// A min-priority queue over [`Event`]s with deterministic tie-breaking.
///
/// Internally a two-level hierarchical time-wheel: a 256-slot *near*
/// wheel over the block of virtual time being drained, a 256-bucket
/// *far* wheel holding whole blocks up to 262 s ahead, and a
/// lazily-sorted *overflow* vector for events beyond that horizon.
/// Near buckets are kept in exact `(time, rank, seq)` pop order (a
/// sorted insert on push; pushes in time order append in O(1)), so the
/// pop sequence is identical to a binary heap over the same order — the
/// property tests in `tests/event_queue_props.rs` pin this against a
/// reference heap model. Bucket deques are reused as the cursor laps
/// the wheel, so steady-state operation allocates nothing.
#[derive(Debug)]
pub struct EventQueue {
    /// Slot buckets of the block under the cursor; index = slot % 256.
    /// Each deque is kept in pop order: the earliest event at the front.
    near: Vec<VecDeque<Event>>,
    /// Occupancy bitmap over the near slots (bit i = `near[i]` non-empty):
    /// the cursor jumps to the next occupied slot with a word scan instead
    /// of walking empty buckets one by one.
    near_occ: [u64; (NEAR_SLOTS / 64) as usize],
    /// Events in the current block still unpopped.
    near_len: usize,
    /// Block buckets within the far horizon; index = block % 256. All
    /// events in one bucket belong to the same block.
    far: Vec<Vec<Event>>,
    /// Earliest absolute slot in each far bucket (`u64::MAX` when empty),
    /// so a block transition scans occupied buckets instead of every far
    /// event.
    far_min: Vec<u64>,
    /// Occupancy bitmap over the far buckets (bit i = `far[i]` non-empty):
    /// the block-transition minimum visits only occupied buckets.
    far_occ: [u64; (FAR_BLOCKS / 64) as usize],
    /// Events beyond the far horizon, lazily sorted latest-first.
    overflow: Vec<Event>,
    overflow_sorted: bool,
    /// Absolute slot currently being drained; never decreases.
    cursor: u64,
    len: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> EventQueue {
        EventQueue {
            near: (0..NEAR_SLOTS).map(|_| VecDeque::new()).collect(),
            near_occ: [0; (NEAR_SLOTS / 64) as usize],
            near_len: 0,
            far: (0..FAR_BLOCKS).map(|_| Vec::new()).collect(),
            far_min: vec![u64::MAX; FAR_BLOCKS as usize],
            far_occ: [0; (FAR_BLOCKS / 64) as usize],
            overflow: Vec::new(),
            overflow_sorted: true,
            cursor: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `kind` at `time_s`.
    ///
    /// # Panics
    /// Panics if `time_s` is not finite — a non-finite event time means a
    /// cost model diverged and the simulation would silently stall.
    pub fn push(&mut self, time_s: f64, kind: EventKind) {
        assert!(time_s.is_finite(), "event time must be finite, got {time_s}");
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Event { time_s, seq, kind };
        // An event at or before the cursor lands in the cursor's slot:
        // the reference heap would pop it next too, and the in-bucket
        // `(time, rank, seq)` sort puts it ahead of everything later.
        let slot = slot_of(time_s).max(self.cursor);
        let block = slot / NEAR_SLOTS;
        let cur_block = self.cursor / NEAR_SLOTS;
        if block == cur_block {
            self.near_insert((slot % NEAR_SLOTS) as usize, ev);
        } else if block - cur_block <= FAR_BLOCKS {
            let i = (block % FAR_BLOCKS) as usize;
            self.far[i].push(ev);
            self.far_min[i] = self.far_min[i].min(slot);
            self.far_occ[i / 64] |= 1u64 << (i % 64);
        } else {
            self.overflow.push(ev);
            self.overflow_sorted = self.overflow.len() <= 1;
        }
        self.len += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        loop {
            let i = (self.cursor % NEAR_SLOTS) as usize;
            if !self.near[i].is_empty() {
                let ev = self.near[i].pop_front().expect("checked non-empty");
                if self.near[i].is_empty() {
                    self.near_occ[i / 64] &= !(1u64 << (i % 64));
                }
                self.near_len -= 1;
                self.len -= 1;
                return Some(ev);
            }
            self.advance();
        }
    }

    /// Moves the cursor to the next occupied slot, cascading far/overflow
    /// levels down when the current block is drained. Requires `len > 0`.
    fn advance(&mut self) {
        if self.near_len > 0 {
            // A later slot of the current block is occupied; jump to it
            // via the occupancy bitmap.
            let start = (self.cursor % NEAR_SLOTS) as usize + 1;
            let base = self.cursor - self.cursor % NEAR_SLOTS;
            for w in (start / 64)..self.near_occ.len() {
                let mut word = self.near_occ[w];
                if w == start / 64 {
                    word &= !0u64 << (start % 64);
                }
                if word != 0 {
                    self.cursor = base + (w as u64) * 64 + u64::from(word.trailing_zeros());
                    return;
                }
            }
            unreachable!("occupied slot must lie within the current block");
        }
        // Block drained: jump straight to the earliest occupied slot in
        // the far wheel, or failing that the overflow level.
        let mut best = u64::MAX;
        for (w, &occ) in self.far_occ.iter().enumerate() {
            let mut occ = occ;
            while occ != 0 {
                let i = w * 64 + occ.trailing_zeros() as usize;
                best = best.min(self.far_min[i]);
                occ &= occ - 1;
            }
        }
        if !self.overflow.is_empty() {
            if !self.overflow_sorted {
                self.overflow.sort_unstable();
                self.overflow_sorted = true;
            }
            best = best.min(slot_of(self.overflow.last().expect("checked non-empty").time_s));
        }
        assert!(best != u64::MAX, "len > 0 with an empty near wheel implies far/overflow events");
        self.cursor = best;
        let cur_block = self.cursor / NEAR_SLOTS;
        // Distribute the target block's far bucket across the near wheel
        // (each far bucket holds exactly one block, so this takes it all).
        let far_i = (cur_block % FAR_BLOCKS) as usize;
        let bucket = std::mem::take(&mut self.far[far_i]);
        self.far_min[far_i] = u64::MAX;
        self.far_occ[far_i / 64] &= !(1u64 << (far_i % 64));
        for ev in bucket {
            let i = (slot_of(ev.time_s) % NEAR_SLOTS) as usize;
            self.near_insert(i, ev);
        }
        // Overflow events that entered the far horizon cascade down
        // (latest-first sort ⇒ popping from the back walks earliest-first).
        while let Some(last) = self.overflow.last() {
            let block = slot_of(last.time_s) / NEAR_SLOTS;
            if block > cur_block.saturating_add(FAR_BLOCKS) {
                break;
            }
            let ev = self.overflow.pop().expect("checked non-empty");
            if block == cur_block {
                let i = (slot_of(ev.time_s) % NEAR_SLOTS) as usize;
                self.near_insert(i, ev);
            } else {
                let i = (block % FAR_BLOCKS) as usize;
                self.far_min[i] = self.far_min[i].min(slot_of(ev.time_s));
                self.far_occ[i / 64] |= 1u64 << (i % 64);
                self.far[i].push(ev);
            }
        }
    }

    /// Inserts `ev` into near bucket `i` at its pop-order position,
    /// maintaining the occupancy bitmap and the block population count.
    /// The bucket holds the earliest event at the front — descending in
    /// the inverted [`Ord`], where greater pops first — so an event later
    /// than everything queued (the common case: times only move forward)
    /// appends at the back without a search.
    fn near_insert(&mut self, i: usize, ev: Event) {
        let bucket = &mut self.near[i];
        if bucket.back().is_none_or(|b| *b > ev) {
            bucket.push_back(ev);
        } else {
            // `(time, rank, seq)` is a total order (seq is unique), so
            // the events popping before `ev` form an exact prefix.
            let pos = bucket.partition_point(|e| *e > ev);
            bucket.insert(pos, ev);
        }
        self.near_occ[i / 64] |= 1u64 << (i % 64);
        self.near_len += 1;
    }

    /// Virtual time of the next event to pop, without removing it.
    ///
    /// The pop-order-first event minimizes `(time, rank, seq)`
    /// lexicographically, so the returned time is also the minimum (by
    /// `total_cmp`) over every pending event. Takes `&mut self` because
    /// locating the front may advance the wheel cursor — cascading far
    /// and overflow blocks into the near wheel exactly as the next
    /// [`EventQueue::pop`] would — which never changes the pop sequence.
    pub fn next_time(&mut self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        loop {
            let i = (self.cursor % NEAR_SLOTS) as usize;
            if let Some(front) = self.near[i].front() {
                return Some(front.time_s);
            }
            self.advance();
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        q.push(1.0, EventKind::LinkFactor { factor: 2.0 });
        q.push(1.0, EventKind::Slowdown { node: 0, factor: 4.0 });
        let ranks: Vec<u16> = std::iter::from_fn(|| q.pop())
            .map(|e| e.kind.rank())
            .collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted, "fault events must precede work events");
        assert_eq!(ranks[0], 0, "NodeDown first");
        assert_eq!(*ranks.last().unwrap(), 7, "NodeReady last");
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
        // Times spanning the near block, the far wheel, and the overflow
        // level, pushed out of order.
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
        // The cursor sits at t=1.0's slot now; a straggler behind it must
        // still come out before the pending t=2.0 event — exactly what a
        // heap would do with a past-time push.
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
        // Spread across the near wheel, the far wheel, and the overflow
        // level so the peek has to cascade blocks exactly like a pop.
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
