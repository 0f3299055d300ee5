//! Seeded, declarative fault timelines.
//!
//! A [`FaultSchedule`] is a plain list of faults — node crashes with a
//! repair time, straggler windows with a slowdown factor, interconnect
//! degradation windows — fixed *before* the simulation starts. The
//! schedule is either built by hand (tests, targeted what-ifs) or drawn
//! from a [`FaultSpec`] by [`FaultSchedule::generate`], which samples
//! exponential inter-fault gaps from a SplitMix64 stream: no wall clock,
//! no global RNG, so the same `(spec, seed)` always yields the same
//! timeline on every platform and thread count.
//!
//! At simulation start the schedule is lowered into first-class
//! [`EventKind`] transitions on the cluster's [`EventQueue`], where the
//! event ranks guarantee fault transitions at time `t` are observed by
//! every arrival, delivery, and round at `t`.

use attacc_cluster::{splitmix64, EventKind, EventQueue};

/// A tiny deterministic RNG: a counter fed through SplitMix64. Good
/// enough to space fault events; never used for anything security-like.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeededRng {
    state: u64,
}

impl SeededRng {
    pub(crate) fn new(seed: u64) -> SeededRng {
        SeededRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(1);
        splitmix64(self.state)
    }

    /// Uniform in `[0, 1)` with 53 bits of mantissa.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Exponential with the given mean, via inverse transform.
    fn next_exp(&mut self, mean_s: f64) -> f64 {
        let u = self.next_f64();
        // u < 1 always, so ln(1-u) is finite and negative.
        -mean_s * (1.0 - u).ln()
    }
}

/// One fault in the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Node `node` crashes at `at_s` and recovers `mttr_s` later. Its
    /// queued and active requests lose their KV state at the crash
    /// instant; recovery restores capacity, not state.
    Crash {
        /// The crashing node.
        node: usize,
        /// Crash instant (s).
        at_s: f64,
        /// Mean-time-to-repair: the node is back `mttr_s` after `at_s`.
        mttr_s: f64,
    },
    /// Node `node` runs `factor`× slower (every stage latency multiplied)
    /// from `at_s` for `duration_s`.
    Straggle {
        /// The straggling node.
        node: usize,
        /// Window start (s).
        at_s: f64,
        /// Window length (s).
        duration_s: f64,
        /// Latency multiplier (> 1 slows the node down).
        factor: f64,
    },
    /// Every front-door transfer takes `factor`× longer from `at_s` for
    /// `duration_s` (congestion / partial partition of the shared link).
    LinkDegrade {
        /// Window start (s).
        at_s: f64,
        /// Window length (s).
        duration_s: f64,
        /// Transfer-delay multiplier (> 1 degrades the link).
        factor: f64,
    },
}

/// Fault-process parameters for [`FaultSchedule::generate`]. Any process
/// whose MTBF is infinite (or non-positive duration) is disabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-node mean time between crashes (s); `f64::INFINITY` disables
    /// crashes.
    pub mtbf_s: f64,
    /// Repair time after each crash (s).
    pub mttr_s: f64,
    /// Per-node mean time between straggler windows (s);
    /// `f64::INFINITY` disables stragglers.
    pub straggler_mtbf_s: f64,
    /// Length of each straggler window (s).
    pub straggler_duration_s: f64,
    /// Straggler latency multiplier.
    pub straggler_factor: f64,
    /// Mean time between link-degradation windows (s);
    /// `f64::INFINITY` disables them.
    pub link_mtbf_s: f64,
    /// Length of each link-degradation window (s).
    pub link_duration_s: f64,
    /// Link transfer-delay multiplier during a window.
    pub link_factor: f64,
    /// Correlated zone failures: the fleet is partitioned into this many
    /// contiguous zones of global node indices (a rack / power domain /
    /// availability zone). Must be ≥ 1 when the zone process is enabled.
    pub zones: usize,
    /// Mean time between correlated zone outages (s), fleet-wide;
    /// `f64::INFINITY` disables the zone process. Each outage takes
    /// *every* node of one uniformly drawn zone down at once — the
    /// failure mode that defeats naive per-node redundancy.
    pub zone_mtbf_s: f64,
    /// Repair time of a zone outage (s): the whole zone is down this
    /// long.
    pub zone_mttr_s: f64,
}

impl FaultSpec {
    /// Crashes only: per-node MTBF + fixed MTTR, no stragglers, no link
    /// trouble, no zone outages — the axis the `chaos_sim` MTBF sweep
    /// varies.
    #[must_use]
    pub fn crashes_only(mtbf_s: f64, mttr_s: f64) -> FaultSpec {
        FaultSpec {
            mtbf_s,
            mttr_s,
            straggler_mtbf_s: f64::INFINITY,
            straggler_duration_s: 0.0,
            straggler_factor: 1.0,
            link_mtbf_s: f64::INFINITY,
            link_duration_s: 0.0,
            link_factor: 1.0,
            zones: 1,
            zone_mtbf_s: f64::INFINITY,
            zone_mttr_s: 0.0,
        }
    }

    /// Adds a correlated zone-outage process to `self`: `zones`
    /// partitions, mean time `zone_mtbf_s` between outages, each lasting
    /// `zone_mttr_s`.
    #[must_use]
    pub fn with_zones(mut self, zones: usize, zone_mtbf_s: f64, zone_mttr_s: f64) -> FaultSpec {
        self.zones = zones;
        self.zone_mtbf_s = zone_mtbf_s;
        self.zone_mttr_s = zone_mttr_s;
        self
    }

    /// Checks every enabled process up front: MTBFs must not be NaN,
    /// enabled MTTRs/durations must be finite and positive, factors ≥ 1,
    /// and the zone process needs at least one zone. Shared by
    /// [`FaultSchedule::generate`] and (via the same helper asserts) the
    /// manual `add_*` constructors, so an invalid spec fails loudly
    /// instead of producing a non-monotone or NaN timeline.
    ///
    /// # Panics
    /// Panics on the first violated constraint.
    pub fn validate(&self) {
        assert!(!self.mtbf_s.is_nan(), "crash MTBF must not be NaN");
        if self.mtbf_s.is_finite() {
            assert!(self.mtbf_s > 0.0, "crash MTBF must be positive");
            check_mttr(self.mttr_s);
        }
        assert!(!self.straggler_mtbf_s.is_nan(), "straggler MTBF must not be NaN");
        if self.straggler_mtbf_s.is_finite() {
            assert!(self.straggler_mtbf_s > 0.0, "straggler MTBF must be positive");
            check_window(self.straggler_duration_s);
            check_factor(self.straggler_factor, "straggler");
        }
        assert!(!self.link_mtbf_s.is_nan(), "link MTBF must not be NaN");
        if self.link_mtbf_s.is_finite() {
            assert!(self.link_mtbf_s > 0.0, "link MTBF must be positive");
            check_window(self.link_duration_s);
            check_factor(self.link_factor, "link");
        }
        assert!(!self.zone_mtbf_s.is_nan(), "zone MTBF must not be NaN");
        if self.zone_mtbf_s.is_finite() {
            assert!(self.zone_mtbf_s > 0.0, "zone MTBF must be positive");
            assert!(self.zones >= 1, "zone process needs at least one zone");
            check_mttr(self.zone_mttr_s);
        }
    }
}

/// Shared repair-time check: every crash must pair with a future
/// recovery or the cluster could dead-end.
fn check_mttr(mttr_s: f64) {
    assert!(mttr_s.is_finite() && mttr_s > 0.0, "MTTR must be finite and positive");
}

/// Shared fault-window length check.
fn check_window(duration_s: f64) {
    assert!(duration_s.is_finite() && duration_s > 0.0, "window must have positive length");
}

/// Shared slowdown/degradation factor check.
fn check_factor(factor: f64, what: &str) {
    assert!(factor.is_finite() && factor >= 1.0, "{what} factor must be ≥ 1");
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

    /// Adds a crash at `at_s` repaired after `mttr_s`.
    ///
    /// # Panics
    /// Panics unless `at_s ≥ 0` and `mttr_s > 0` are finite (every crash
    /// must pair with a future recovery or the cluster could dead-end).
    pub fn crash(&mut self, node: usize, at_s: f64, mttr_s: f64) -> &mut FaultSchedule {
        assert!(at_s.is_finite() && at_s >= 0.0, "crash time must be finite and non-negative");
        check_mttr(mttr_s);
        self.faults.push(Fault::Crash { node, at_s, mttr_s });
        self
    }

    /// Adds a straggler window: `factor`× slower from `at_s` for
    /// `duration_s`.
    ///
    /// # Panics
    /// Panics unless times are finite/non-negative and `factor ≥ 1`.
    pub fn straggle(
        &mut self,
        node: usize,
        at_s: f64,
        duration_s: f64,
        factor: f64,
    ) -> &mut FaultSchedule {
        assert!(at_s.is_finite() && at_s >= 0.0, "window start must be finite and non-negative");
        check_window(duration_s);
        check_factor(factor, "straggler");
        self.faults.push(Fault::Straggle { node, at_s, duration_s, factor });
        self
    }

    /// Adds a link-degradation window: every transfer `factor`× slower
    /// from `at_s` for `duration_s`.
    ///
    /// # Panics
    /// Panics unless times are finite/non-negative and `factor ≥ 1`.
    pub fn degrade_link(
        &mut self,
        at_s: f64,
        duration_s: f64,
        factor: f64,
    ) -> &mut FaultSchedule {
        assert!(at_s.is_finite() && at_s >= 0.0, "window start must be finite and non-negative");
        check_window(duration_s);
        check_factor(factor, "link");
        self.faults.push(Fault::LinkDegrade { at_s, duration_s, factor });
        self
    }

    /// Draws a schedule over `[0, horizon_s)` for an `n_nodes` cluster
    /// from `spec`, seeded by `seed`. Each node's crash and straggler
    /// processes and the global link and zone processes use independent
    /// SplitMix64 streams derived from the seed, so adding nodes never
    /// reshuffles the faults of existing ones. Crash windows on one node
    /// never overlap: the next crash is sampled after the previous
    /// repair. (A zone outage *may* overlap a per-node crash window —
    /// they are independent processes; the simulators treat overlapping
    /// down windows idempotently.)
    ///
    /// Zone outages partition the global node indices into
    /// `spec.zones` contiguous chunks (clamped to `n_nodes`); each
    /// outage draws one zone uniformly and crashes every node in it for
    /// `spec.zone_mttr_s`.
    ///
    /// # Panics
    /// Panics if `n_nodes` is zero, `horizon_s` is not finite and
    /// positive, or [`FaultSpec::validate`] rejects `spec` (NaN MTBF,
    /// non-positive MTTR/duration, factor below 1, zero zones).
    #[must_use]
    pub fn generate(n_nodes: usize, horizon_s: f64, spec: &FaultSpec, seed: u64) -> FaultSchedule {
        assert!(n_nodes > 0, "need at least one node");
        assert!(horizon_s.is_finite() && horizon_s > 0.0, "horizon must be finite and positive");
        spec.validate();
        let mut s = FaultSchedule::none();
        let stream = |kind: u64, node: usize| {
            SeededRng::new(splitmix64(seed ^ (kind << 56) ^ node as u64))
        };
        if spec.mtbf_s.is_finite() {
            for node in 0..n_nodes {
                let mut rng = stream(1, node);
                let mut t = rng.next_exp(spec.mtbf_s);
                while t < horizon_s {
                    s.crash(node, t, spec.mttr_s);
                    t += spec.mttr_s + rng.next_exp(spec.mtbf_s);
                }
            }
        }
        if spec.straggler_mtbf_s.is_finite() {
            for node in 0..n_nodes {
                let mut rng = stream(2, node);
                let mut t = rng.next_exp(spec.straggler_mtbf_s);
                while t < horizon_s {
                    s.straggle(node, t, spec.straggler_duration_s, spec.straggler_factor);
                    t += spec.straggler_duration_s + rng.next_exp(spec.straggler_mtbf_s);
                }
            }
        }
        if spec.link_mtbf_s.is_finite() {
            let mut rng = stream(3, 0);
            let mut t = rng.next_exp(spec.link_mtbf_s);
            while t < horizon_s {
                s.degrade_link(t, spec.link_duration_s, spec.link_factor);
                t += spec.link_duration_s + rng.next_exp(spec.link_mtbf_s);
            }
        }
        if spec.zone_mtbf_s.is_finite() {
            let zones = spec.zones.min(n_nodes);
            let mut rng = stream(4, 0);
            let mut t = rng.next_exp(spec.zone_mtbf_s);
            while t < horizon_s {
                let z = ((rng.next_f64() * zones as f64) as usize).min(zones - 1);
                // Contiguous partition: zone z covers global nodes
                // [z·n/zones, (z+1)·n/zones).
                for node in (z * n_nodes / zones)..((z + 1) * n_nodes / zones) {
                    s.crash(node, t, spec.zone_mttr_s);
                }
                t += spec.zone_mttr_s + rng.next_exp(spec.zone_mtbf_s);
            }
        }
        s
    }

    /// Lowers the schedule onto the event queue as paired transitions
    /// (down/up, slow/restore, degrade/restore) and returns the number of
    /// events pushed.
    ///
    /// # Panics
    /// Panics if a fault names a node outside `0..n_nodes`.
    pub fn inject(&self, q: &mut EventQueue, n_nodes: usize) -> u64 {
        let mut pushed = 0u64;
        for f in &self.faults {
            match *f {
                Fault::Crash { node, at_s, mttr_s } => {
                    assert!(node < n_nodes, "crash names node {node} of {n_nodes}");
                    q.push(at_s, EventKind::NodeDown { node });
                    q.push(at_s + mttr_s, EventKind::NodeUp { node });
                }
                Fault::Straggle { node, at_s, duration_s, factor } => {
                    assert!(node < n_nodes, "straggle names node {node} of {n_nodes}");
                    q.push(at_s, EventKind::Slowdown { node, factor });
                    q.push(at_s + duration_s, EventKind::Slowdown { node, factor: 1.0 });
                }
                Fault::LinkDegrade { at_s, duration_s, factor } => {
                    q.push(at_s, EventKind::LinkFactor { factor });
                    q.push(at_s + duration_s, EventKind::LinkFactor { factor: 1.0 });
                }
            }
            pushed += 2;
        }
        pushed
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
            s.faults()
                .iter()
                .copied()
                .filter(|f| matches!(f, Fault::Crash { node, .. } if *node == n))
                .collect()
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
                .filter_map(|f| match *f {
                    Fault::Crash { node: n, at_s, mttr_s } if n == node => {
                        Some((at_s, at_s + mttr_s))
                    }
                    _ => None,
                })
                .collect();
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert!(windows.len() > 10);
            assert!(windows.windows(2).all(|w| w[0].1 <= w[1].0));
        }
    }

    #[test]
    fn inject_pairs_every_transition() {
        let mut s = FaultSchedule::none();
        s.crash(0, 1.0, 2.0).straggle(1, 3.0, 4.0, 2.5).degrade_link(5.0, 1.0, 3.0);
        let mut q = EventQueue::new();
        let pushed = s.inject(&mut q, 2);
        assert_eq!(pushed, 6);
        assert_eq!(q.len(), 6);
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
    fn zone_outages_crash_whole_zones_at_once() {
        // 8 nodes, 4 zones of 2: every zone outage must produce exactly
        // one pair of crashes at the same instant with the same MTTR.
        let spec = FaultSpec::crashes_only(f64::INFINITY, 1.0).with_zones(4, 20.0, 2.0);
        let s = FaultSchedule::generate(8, 400.0, &spec, 11);
        assert!(!s.is_empty(), "400 s at 20 s zone MTBF must produce outages");
        let crashes: Vec<(usize, f64)> = s
            .faults()
            .iter()
            .filter_map(|f| match *f {
                Fault::Crash { node, at_s, mttr_s } => {
                    assert_eq!(mttr_s, 2.0);
                    Some((node, at_s))
                }
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len() % 2, 0, "zones of 2 crash in pairs");
        for pair in crashes.chunks(2) {
            assert_eq!(pair[0].1, pair[1].1, "zone members go down at the same instant");
            assert_eq!(pair[0].0 / 2, pair[1].0 / 2, "both crashes are in the same zone");
        }
    }

    #[test]
    fn zone_process_is_seed_deterministic_and_disabled_by_default() {
        let spec = FaultSpec::crashes_only(f64::INFINITY, 1.0).with_zones(2, 50.0, 5.0);
        let a = FaultSchedule::generate(4, 500.0, &spec, 3);
        let b = FaultSchedule::generate(4, 500.0, &spec, 3);
        assert_eq!(a, b);
        let off = FaultSpec::crashes_only(f64::INFINITY, 1.0);
        assert!(FaultSchedule::generate(4, 500.0, &off, 3).is_empty());
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

    #[test]
    #[should_panic(expected = "window must have positive length")]
    fn generate_rejects_zero_straggler_window() {
        let mut spec = FaultSpec::crashes_only(f64::INFINITY, 1.0);
        spec.straggler_mtbf_s = 10.0;
        spec.straggler_duration_s = 0.0;
        spec.straggler_factor = 2.0;
        let _ = FaultSchedule::generate(2, 100.0, &spec, 0);
    }

    #[test]
    #[should_panic(expected = "straggler factor must be ≥ 1")]
    fn generate_rejects_sub_unit_straggler_factor() {
        let mut spec = FaultSpec::crashes_only(f64::INFINITY, 1.0);
        spec.straggler_mtbf_s = 10.0;
        spec.straggler_duration_s = 1.0;
        spec.straggler_factor = 0.5;
        let _ = FaultSchedule::generate(2, 100.0, &spec, 0);
    }

    #[test]
    #[should_panic(expected = "window must have positive length")]
    fn generate_rejects_nan_link_window() {
        let mut spec = FaultSpec::crashes_only(f64::INFINITY, 1.0);
        spec.link_mtbf_s = 10.0;
        spec.link_duration_s = f64::NAN;
        spec.link_factor = 2.0;
        let _ = FaultSchedule::generate(2, 100.0, &spec, 0);
    }

    #[test]
    #[should_panic(expected = "zone process needs at least one zone")]
    fn generate_rejects_zero_zones() {
        let spec = FaultSpec::crashes_only(f64::INFINITY, 1.0).with_zones(0, 10.0, 1.0);
        let _ = FaultSchedule::generate(2, 100.0, &spec, 0);
    }

    #[test]
    #[should_panic(expected = "MTTR must be finite and positive")]
    fn generate_rejects_zero_zone_mttr() {
        let spec = FaultSpec::crashes_only(f64::INFINITY, 1.0).with_zones(2, 10.0, 0.0);
        let _ = FaultSchedule::generate(2, 100.0, &spec, 0);
    }
}
