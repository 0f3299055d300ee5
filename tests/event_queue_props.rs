//! Property tests pinning the event queue to a reference binary-heap
//! model.
//!
//! The cluster/chaos simulators' determinism contract rests on the
//! event queue popping in exactly the `(time, kind rank, sequence)`
//! order, times compared by `f64::total_cmp`. The queue compares plain
//! integers instead — each time mapped to a `u64` — so a slip in that
//! mapping (a sign bug on negative times or on the two zeros) must never
//! leak into the pop sequence. These tests replay seeded push/pop
//! interleavings against an independent reference model that compares
//! the floats directly and demand an identical trace, including rank
//! ties at equal times (fault transitions must keep running before
//! work).

use attacc::cluster::{splitmix64, Event, EventKind, EventQueue};
use attacc::model::Request;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The tie-break rank the queue documents: fault transitions first,
/// then arrivals, deliveries, timers, node wake-ups, and scale ticks
/// last (reimplemented here so the test cannot accidentally share code
/// with the queue).
fn rank(kind: &EventKind) -> u16 {
    match kind {
        EventKind::NodeDown { .. } => 0,
        EventKind::NodeUp { .. } => 1,
        EventKind::Arrival { .. } => 2,
        EventKind::Deliver { .. } => 3,
        EventKind::Timer { .. } => 4,
        EventKind::NodeReady { .. } => 5,
        EventKind::ScaleTick => 6,
    }
}

/// Reference model key: a min-heap over `(time, rank, seq)` via
/// `Reverse`, with `total_cmp` float ordering like the real queue.
#[derive(Debug, PartialEq)]
struct Key {
    time_s: f64,
    rank: u16,
    seq: u64,
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time_s
            .total_cmp(&other.time_s)
            .then_with(|| self.rank.cmp(&other.rank))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A deterministic stream of pseudo-random `u64`s.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }
}

/// One of the seven event kinds, chosen by `pick` (covers every rank,
/// including the payload-carrying arrival/delivery kinds).
fn kind_of(pick: u64) -> EventKind {
    match pick % 7 {
        0 => EventKind::NodeDown { node: (pick / 8 % 5) as usize },
        1 => EventKind::NodeUp { node: (pick / 8 % 5) as usize },
        2 => EventKind::Arrival { request: Request::new(pick, 64, 8) },
        3 => EventKind::Deliver {
            node: (pick / 8 % 5) as usize,
            arrival_s: 0.0,
            request: Request::new(pick, 64, 8),
            warm: pick % 16 >= 8,
        },
        4 => EventKind::Timer {
            id: pick / 8,
            attempt: (pick % 3) as u32,
            hedge: pick.is_multiple_of(2),
        },
        5 => EventKind::NodeReady { node: (pick / 8 % 5) as usize },
        _ => EventKind::ScaleTick,
    }
}

/// Drives the real queue and the reference heap through the same
/// seeded interleaving of pushes and pops, asserting every popped
/// event matches the model bit-for-bit on `(time, rank, seq)`.
///
/// `time_of` maps a random draw and the latest pop's time to the next
/// push's virtual time (possibly past, far-future or negative).
fn check_interleaving(seed: u64, steps: u32, time_of: impl Fn(&mut Rng, f64) -> f64) {
    let mut rng = Rng(seed);
    let mut q = EventQueue::new();
    let mut model: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
    let mut next_seq = 0u64;
    let mut now = 0.0f64;

    let drain = |q: &mut EventQueue, model: &mut BinaryHeap<Reverse<Key>>, now: &mut f64| {
        let peek = q.next_time();
        let want_peek = model.peek().map(|Reverse(k)| k.time_s);
        assert_eq!(peek, want_peek, "next_time diverged from reference heap (seed {seed})");
        let ev: Event = q.pop().expect("model non-empty implies queue non-empty");
        let Reverse(want) = model.pop().expect("queue non-empty implies model non-empty");
        let got = Key { time_s: ev.time_s, rank: rank(&ev.kind), seq: ev.seq };
        assert_eq!(got, want, "pop diverged from reference heap (seed {seed})");
        *now = now.max(ev.time_s);
    };

    for _ in 0..steps {
        let r = rng.next();
        // ~2/3 pushes, ~1/3 pops, so the population grows.
        if r % 3 < 2 || model.is_empty() {
            let t = time_of(&mut rng, now);
            let kind = kind_of(rng.next());
            model.push(Reverse(Key { time_s: t, rank: rank(&kind), seq: next_seq }));
            next_seq += 1;
            q.push(t, kind);
            assert_eq!(q.len(), model.len());
        } else {
            drain(&mut q, &mut model, &mut now);
        }
    }
    while !model.is_empty() {
        drain(&mut q, &mut model, &mut now);
    }
    assert!(q.is_empty(), "queue must drain exactly when the model does");
}

#[test]
fn pop_order_matches_reference_heap_on_decode_scale_times() {
    // Times in the few-milliseconds-per-round regime the simulators
    // live in.
    for seed in 0..32 {
        check_interleaving(seed, 500, |rng, now| {
            now + 1e-3 * (rng.next() % 50) as f64
        });
    }
}

#[test]
fn pop_order_matches_reference_heap_across_wheel_horizons() {
    // Times from milliseconds to over 1,000 s ahead, plus occasional
    // pushes *behind* the current time, which must still pop first.
    for seed in 0..32 {
        check_interleaving(seed, 400, |rng, now| match rng.next() % 8 {
            0..=2 => now + 1e-3 * (rng.next() % 30) as f64,
            3..=4 => now + 0.5 + 0.037 * (rng.next() % 100) as f64,
            5 => now + 300.0 + (rng.next() % 1000) as f64,
            6 => (now - 0.25).max(0.0),
            _ => now,
        });
    }
}

#[test]
fn rank_ties_resolve_fault_first_in_insertion_order() {
    // Many events at *identical* times: order must fall back to kind
    // rank (faults before arrivals before deliveries before timers
    // before wake-ups) and then to insertion order, exactly like the
    // reference heap.
    for seed in 0..16 {
        check_interleaving(seed, 300, |rng, now| {
            now + 1e-3 * (rng.next() % 3) as f64
        });
    }
}

#[test]
fn pop_order_matches_reference_heap_on_negative_and_signed_zero_times() {
    // Every other interleaving pushes times >= 0. The queue's integer
    // time key must also keep `total_cmp` order below zero: negative
    // times by value, and `-0.0` before `+0.0`.
    for seed in 0..32 {
        check_interleaving(seed, 400, |rng, _| match rng.next() % 4 {
            0 => -0.0,
            1 => 0.0,
            _ => -1e-3 * (rng.next() % 50) as f64,
        });
    }
}
