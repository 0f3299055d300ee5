//! Seeded, declarative crash timelines.
//!
//! A [`FaultSchedule`] is a plain list of node crashes, each with a
//! repair time, fixed *before* the simulation starts. The schedule is
//! either built by hand (tests, targeted what-ifs) or drawn from a
//! [`FaultSpec`] by [`FaultSchedule::generate`], which samples
//! exponential inter-crash gaps from a SplitMix64 stream per node: no
//! wall clock, no global RNG, so the same `(spec, seed)` always yields
//! the same timeline on every platform and thread count.
//!
//! At simulation start the schedule is lowered into `NodeDown` /
//! `NodeUp` [`EventKind`] transitions on the cluster's [`EventQueue`],
//! where the event ranks guarantee fault transitions at time `t` are
//! observed by every arrival, delivery, and round at `t`.

use attacc_cluster::{splitmix64, EventKind, EventQueue};

/// A tiny deterministic RNG: a counter fed through SplitMix64. Good
/// enough to space fault events; never used for anything security-like.
#[derive(Debug, Clone, Copy)]
struct SeededRng {
    state: u64,
}

impl SeededRng {
    fn new(seed: u64) -> SeededRng {
        SeededRng { state: seed }
    }

    /// Exponential with the given mean, via inverse transform of a
    /// uniform draw in `[0, 1)` with 53 bits of mantissa.
    fn next_exp(&mut self, mean_s: f64) -> f64 {
        self.state = self.state.wrapping_add(1);
        let u = (splitmix64(self.state) >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        // u < 1 always, so ln(1-u) is finite and negative.
        -mean_s * (1.0 - u).ln()
    }
}

/// One fault in the timeline: node `node` crashes at `at_s` and recovers
/// `mttr_s` later. Its queued and active requests lose their KV state at
/// the crash instant; recovery restores capacity, not state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// The crashing node.
    pub node: usize,
    /// Crash instant (s).
    pub at_s: f64,
    /// Mean-time-to-repair: the node is back `mttr_s` after `at_s`.
    pub mttr_s: f64,
}

/// Crash-process parameters for [`FaultSchedule::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-node mean time between crashes (s); `f64::INFINITY` disables
    /// crashes.
    pub mtbf_s: f64,
    /// Repair time after each crash (s).
    pub mttr_s: f64,
}

impl FaultSpec {
    /// Per-node crashes with mean time between them `mtbf_s` and a fixed
    /// repair time `mttr_s` — the axis the `chaos_sim` MTBF sweep varies.
    #[must_use]
    pub fn crashes_only(mtbf_s: f64, mttr_s: f64) -> FaultSpec {
        FaultSpec { mtbf_s, mttr_s }
    }

    /// Checks the spec up front: the MTBF must not be NaN and, when
    /// crashes are enabled, must be positive with a finite, positive
    /// MTTR. An invalid spec fails loudly instead of producing a
    /// non-monotone or NaN timeline.
    ///
    /// # Panics
    /// Panics on the first violated constraint.
    pub fn validate(&self) {
        assert!(!self.mtbf_s.is_nan(), "crash MTBF must not be NaN");
        if self.mtbf_s.is_finite() {
            assert!(self.mtbf_s > 0.0, "crash MTBF must be positive");
            check_mttr(self.mttr_s);
        }
    }
}

/// Shared repair-time check: every crash must pair with a future
/// recovery or the cluster could dead-end.
fn check_mttr(mttr_s: f64) {
    assert!(mttr_s.is_finite() && mttr_s > 0.0, "MTTR must be finite and positive");
}

/// A declarative fault timeline, replayed identically on every run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    faults: Vec<Fault>,
}

impl FaultSchedule {
    /// The empty schedule: zero faults. A chaos run under this schedule
    /// (with the resilience policy off) is bit-exact with
    /// `simulate_cluster`.
    #[must_use]
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// The faults, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the schedule contains no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a crash at `at_s` repaired after `mttr_s`. Crashes of one
    /// node may overlap: the node stays down until every one of them is
    /// repaired.
    ///
    /// # Panics
    /// Panics unless `at_s ≥ 0` and `mttr_s > 0` are finite (every crash
    /// must pair with a future recovery or the cluster could dead-end).
    pub fn crash(&mut self, node: usize, at_s: f64, mttr_s: f64) -> &mut FaultSchedule {
        assert!(at_s.is_finite() && at_s >= 0.0, "crash time must be finite and non-negative");
        check_mttr(mttr_s);
        self.faults.push(Fault { node, at_s, mttr_s });
        self
    }

    /// Draws a schedule over `[0, horizon_s)` for an `n_nodes` cluster
    /// from `spec`, seeded by `seed`. Each node's crash process uses its
    /// own SplitMix64 stream derived from the seed, so adding nodes never
    /// reshuffles the faults of existing ones. Crash windows on one node
    /// never overlap: the next crash is sampled after the previous
    /// repair. (A hand-built schedule may overlap them; the serving loop
    /// keeps a node down until its last open crash is repaired.)
    ///
    /// # Panics
    /// Panics if `n_nodes` is zero, `horizon_s` is not finite and
    /// positive, or [`FaultSpec::validate`] rejects `spec` (NaN or
    /// non-positive MTBF, non-positive MTTR).
    #[must_use]
    pub fn generate(n_nodes: usize, horizon_s: f64, spec: &FaultSpec, seed: u64) -> FaultSchedule {
        assert!(n_nodes > 0, "need at least one node");
        assert!(horizon_s.is_finite() && horizon_s > 0.0, "horizon must be finite and positive");
        spec.validate();
        let mut s = FaultSchedule::none();
        if spec.mtbf_s.is_finite() {
            for node in 0..n_nodes {
                // The `1 << 56` tag is part of the stream seed that every
                // golden's and benchmark digest's crash times were drawn
                // from.
                let mut rng = SeededRng::new(splitmix64(seed ^ (1 << 56) ^ node as u64));
                let mut t = rng.next_exp(spec.mtbf_s);
                while t < horizon_s {
                    s.crash(node, t, spec.mttr_s);
                    t += spec.mttr_s + rng.next_exp(spec.mtbf_s);
                }
            }
        }
        s
    }

    /// Lowers the schedule onto the event queue as paired `NodeDown` /
    /// `NodeUp` transitions and returns the number of events pushed.
    ///
    /// # Panics
    /// Panics if a fault names a node outside `0..n_nodes`.
    pub fn inject(&self, q: &mut EventQueue, n_nodes: usize) -> u64 {
        for &Fault { node, at_s, mttr_s } in &self.faults {
            assert!(node < n_nodes, "crash names node {node} of {n_nodes}");
            q.push(at_s, EventKind::NodeDown { node });
            q.push(at_s + mttr_s, EventKind::NodeUp { node });
        }
        2 * self.faults.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_a_pure_function_of_seed() {
        let spec = FaultSpec::crashes_only(50.0, 5.0);
        let a = FaultSchedule::generate(4, 1000.0, &spec, 42);
        let b = FaultSchedule::generate(4, 1000.0, &spec, 42);
        assert_eq!(a, b);
        let c = FaultSchedule::generate(4, 1000.0, &spec, 43);
        assert_ne!(a, c, "different seed, different timeline");
        assert!(!a.is_empty(), "1000 s horizon at 50 s MTBF must produce crashes");
    }

    #[test]
    fn adding_nodes_preserves_existing_streams() {
        let spec = FaultSpec::crashes_only(50.0, 5.0);
        let four = FaultSchedule::generate(4, 500.0, &spec, 7);
        let eight = FaultSchedule::generate(8, 500.0, &spec, 7);
        let node_faults = |s: &FaultSchedule, n: usize| -> Vec<Fault> {
            s.faults().iter().copied().filter(|f| f.node == n).collect()
        };
        for n in 0..4 {
            assert_eq!(node_faults(&four, n), node_faults(&eight, n));
        }
    }

    #[test]
    fn crash_windows_never_overlap_per_node() {
        let spec = FaultSpec::crashes_only(10.0, 8.0);
        let s = FaultSchedule::generate(2, 2000.0, &spec, 1);
        for node in 0..2 {
            let mut windows: Vec<(f64, f64)> = s
                .faults()
                .iter()
                .filter(|f| f.node == node)
                .map(|f| (f.at_s, f.at_s + f.mttr_s))
                .collect();
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert!(windows.len() > 10);
            assert!(windows.windows(2).all(|w| w[0].1 <= w[1].0));
        }
    }

    #[test]
    fn inject_pairs_every_transition() {
        let mut s = FaultSchedule::none();
        s.crash(0, 1.0, 2.0).crash(1, 3.0, 4.0).crash(0, 5.0, 1.0);
        let mut q = EventQueue::new();
        let pushed = s.inject(&mut q, 2);
        assert_eq!(pushed, 6);
        let events: Vec<(f64, EventKind)> =
            std::iter::from_fn(|| q.pop()).map(|e| (e.time_s, e.kind)).collect();
        assert_eq!(
            events,
            [
                (1.0, EventKind::NodeDown { node: 0 }),
                // Equal times: the crash ranks before the repair.
                (3.0, EventKind::NodeDown { node: 1 }),
                (3.0, EventKind::NodeUp { node: 0 }),
                (5.0, EventKind::NodeDown { node: 0 }),
                (6.0, EventKind::NodeUp { node: 0 }),
                (7.0, EventKind::NodeUp { node: 1 }),
            ]
        );
    }

    #[test]
    fn infinite_mtbf_disables_every_process() {
        let spec = FaultSpec::crashes_only(f64::INFINITY, 1.0);
        assert!(FaultSchedule::generate(8, 10_000.0, &spec, 9).is_empty());
    }

    #[test]
    #[should_panic(expected = "MTTR must be finite and positive")]
    fn crash_without_recovery_is_rejected() {
        FaultSchedule::none().crash(0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "MTTR must be finite and positive")]
    fn generate_rejects_nan_mttr_up_front() {
        // Pre-fix, a NaN MTTR only blew up when (if) the first crash was
        // sampled inside the horizon; validate() rejects it always.
        let spec = FaultSpec::crashes_only(1e12, f64::NAN);
        let _ = FaultSchedule::generate(2, 1.0, &spec, 0);
    }

    #[test]
    #[should_panic(expected = "MTTR must be finite and positive")]
    fn generate_rejects_negative_mttr() {
        let spec = FaultSpec::crashes_only(10.0, -1.0);
        let _ = FaultSchedule::generate(2, 100.0, &spec, 0);
    }

    #[test]
    #[should_panic(expected = "crash MTBF must not be NaN")]
    fn generate_rejects_nan_mtbf() {
        let spec = FaultSpec::crashes_only(f64::NAN, 1.0);
        let _ = FaultSchedule::generate(2, 100.0, &spec, 0);
    }

    #[test]
    #[should_panic(expected = "crash MTBF must be positive")]
    fn generate_rejects_non_positive_mtbf() {
        let spec = FaultSpec::crashes_only(0.0, 1.0);
        let _ = FaultSchedule::generate(2, 100.0, &spec, 0);
    }
}
