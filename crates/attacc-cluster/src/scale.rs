//! The fleet autoscaler: per-pool scale-out/in decisions.
//!
//! The autoscaler is a *pure policy object*: at every `ScaleTick` the
//! fleet driver hands it one [`PoolObservation`] per pool and it answers
//! with at most one single-step [`ScaleDirection`] per pool. All state it
//! keeps — last action times for hysteresis, the EWMA load estimate — is
//! plain `f64` arithmetic over the observation sequence, so decisions are
//! a pure function of the (deterministic) simulation history: same trace,
//! same config → byte-identical scale events at any thread count.
//!
//! Three signals are available:
//!
//! - **Queue depth** — backlog per active node against out/in
//!   watermarks; the classic reactive policy.
//! - **KV occupancy** — fraction of pooled KV capacity reserved; scales
//!   on memory pressure before queueing even builds (the signal that
//!   matters on PIM decode nodes, where capacity is KV-bound).
//! - **EWMA-predicted load** — an exponentially-weighted arrival-rate
//!   estimate against per-node rate watermarks; reacts to trends rather
//!   than instantaneous spikes, trading lag for stability.
//!
//! Two guards apply to every signal: pool bounds (`[min, max]` nodes,
//! set by each pool's [`crate::PoolConfig`]) and a *hysteresis window* —
//! after a scale-out, scale-in is forbidden for `cooldown_s` seconds and
//! vice versa, so an oscillating signal cannot flap nodes. Newly scaled
//! out nodes pay `cold_start_s` before the router may send them work
//! (model weights load, caches warm); the driver enforces this via the
//! `warm_at` time the decision carries.

/// Which pool a decision concerns (monolithic fleets only use
/// [`PoolKind::Decode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// The xPU-heavy prefill pool (Sum stages only).
    Prefill,
    /// The PIM-heavy decode pool (Gen stages; the whole lifecycle in a
    /// monolithic fleet).
    Decode,
}

impl PoolKind {
    /// Human-readable pool name for tables and logs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PoolKind::Prefill => "prefill",
            PoolKind::Decode => "decode",
        }
    }

    /// Index into per-pool state arrays.
    pub(crate) fn idx(self) -> usize {
        match self {
            PoolKind::Prefill => 0,
            PoolKind::Decode => 1,
        }
    }
}

/// Which way a scale action moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    /// Activate one node (it accepts work after the cold-start delay).
    Out,
    /// Deactivate one node (it drains; no new work is routed to it).
    In,
}

/// The load signal the autoscaler watches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleSignal {
    /// Backlog (in-flight + queued + active requests) per active node.
    QueueDepth {
        /// Scale out when backlog per node exceeds this.
        out_per_node: f64,
        /// Scale in when backlog per node falls below this.
        in_per_node: f64,
    },
    /// Fraction of the pool's total KV capacity currently reserved.
    /// Inert (never fires) when the scheduler has unlimited KV.
    KvOccupancy {
        /// Scale out above this reserved fraction.
        out_frac: f64,
        /// Scale in below this reserved fraction.
        in_frac: f64,
    },
    /// EWMA-smoothed arrival rate (requests/s routed to the pool) per
    /// active node.
    PredictedLoad {
        /// Smoothing factor in (0, 1]: 1 = no smoothing (last interval
        /// only), small values average over many intervals.
        alpha: f64,
        /// Scale out when the predicted per-node rate exceeds this.
        out_rate_per_node: f64,
        /// Scale in when the predicted per-node rate falls below this.
        in_rate_per_node: f64,
    },
}

impl ScaleSignal {
    /// Short signal name for tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ScaleSignal::QueueDepth { .. } => "queue-depth",
            ScaleSignal::KvOccupancy { .. } => "kv-occupancy",
            ScaleSignal::PredictedLoad { .. } => "ewma-load",
        }
    }
}

/// Autoscaler tuning knobs, shared by both pools.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Seconds between scale evaluations (the `ScaleTick` period).
    pub interval_s: f64,
    /// Seconds a newly activated node needs before it may accept work
    /// (weights load, caches warm). Charged from the scale-out instant.
    pub cold_start_s: f64,
    /// Hysteresis window: after an action in one direction, the opposite
    /// direction is forbidden for this many seconds.
    pub cooldown_s: f64,
    /// The load signal driving decisions.
    pub signal: ScaleSignal,
}

impl AutoscalerConfig {
    /// A reactive queue-depth policy: evaluate every `interval_s`, scale
    /// out above 4 outstanding requests per node, in below 1, with a
    /// cold start of 2× the interval and a cooldown of 3× (out/in must
    /// never chase one burst).
    #[must_use]
    pub fn queue_depth(interval_s: f64) -> AutoscalerConfig {
        AutoscalerConfig {
            interval_s,
            cold_start_s: 2.0 * interval_s,
            cooldown_s: 3.0 * interval_s,
            signal: ScaleSignal::QueueDepth { out_per_node: 4.0, in_per_node: 1.0 },
        }
    }

    /// Validates the knobs (positive interval, non-negative delays,
    /// sensible watermarks).
    ///
    /// # Panics
    /// Panics with a description of the offending knob.
    pub fn validate(&self) {
        assert!(
            self.interval_s.is_finite() && self.interval_s > 0.0,
            "scale interval must be positive, got {}",
            self.interval_s
        );
        assert!(
            self.cold_start_s.is_finite() && self.cold_start_s >= 0.0,
            "cold start must be non-negative, got {}",
            self.cold_start_s
        );
        assert!(
            self.cooldown_s.is_finite() && self.cooldown_s >= 0.0,
            "cooldown must be non-negative, got {}",
            self.cooldown_s
        );
        match self.signal {
            ScaleSignal::QueueDepth { out_per_node, in_per_node } => {
                assert!(
                    in_per_node <= out_per_node,
                    "queue-depth in watermark must not exceed the out watermark"
                );
            }
            ScaleSignal::KvOccupancy { out_frac, in_frac } => {
                assert!(
                    (0.0..=1.0).contains(&in_frac)
                        && (0.0..=1.0).contains(&out_frac)
                        && in_frac <= out_frac,
                    "kv-occupancy watermarks must satisfy 0 <= in <= out <= 1"
                );
            }
            ScaleSignal::PredictedLoad { alpha, out_rate_per_node, in_rate_per_node } => {
                assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
                assert!(
                    in_rate_per_node <= out_rate_per_node,
                    "predicted-load in watermark must not exceed the out watermark"
                );
            }
        }
    }
}

/// What the autoscaler sees about one pool at a tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolObservation {
    /// Nodes currently active (routable) in the pool.
    pub active_nodes: usize,
    /// Sum of the relative throughput weights of the active nodes (a
    /// heterogeneous pool's capacity in `dgx-base`-equivalents). `0.0`
    /// means "homogeneous" and the per-node watermarks divide by
    /// `active_nodes` instead — for unit weights the two are identical.
    pub active_weight: f64,
    /// Outstanding requests across the pool: in flight + queued + active
    /// (draining deactivated nodes included — their work still exists).
    pub backlog: u64,
    /// Reserved fraction of the pool's total KV capacity over active
    /// nodes (0 when the scheduler is KV-unlimited).
    pub kv_frac: f64,
    /// Requests routed to this pool since the previous tick.
    pub arrivals_since_tick: u64,
}

/// One applied scale action, logged for reports and the property tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Virtual time of the decision.
    pub t_s: f64,
    /// The pool acted on.
    pub pool: PoolKind,
    /// Direction of the action.
    pub direction: ScaleDirection,
    /// Active node count before the action.
    pub from_nodes: usize,
    /// Active node count after the action.
    pub to_nodes: usize,
    /// The global node index activated or deactivated.
    pub node: usize,
    /// For scale-out: when the node may first accept work
    /// (`t_s + cold_start_s`). Equal to `t_s` for scale-in.
    pub warm_at_s: f64,
}

/// The autoscaler's mutable decision state (per pool: hysteresis clocks
/// and the EWMA estimate).
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    /// Time of the last scale-out per pool (−∞ = never).
    last_out_s: [f64; 2],
    /// Time of the last scale-in per pool (−∞ = never).
    last_in_s: [f64; 2],
    /// EWMA arrival-rate estimate per pool (requests/s).
    ewma_rate: [f64; 2],
}

impl Autoscaler {
    /// A fresh autoscaler under `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`AutoscalerConfig::validate`].
    #[must_use]
    pub fn new(cfg: AutoscalerConfig) -> Autoscaler {
        cfg.validate();
        Autoscaler {
            cfg,
            last_out_s: [f64::NEG_INFINITY; 2],
            last_in_s: [f64::NEG_INFINITY; 2],
            ewma_rate: [0.0; 2],
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &AutoscalerConfig {
        &self.cfg
    }

    /// Evaluates one pool at tick time `t_s` and returns the direction to
    /// move, if any. `(min_nodes, max_nodes)` bound the pool; the caller
    /// applies the action (this object only updates its hysteresis clocks
    /// and EWMA state).
    pub fn decide(
        &mut self,
        t_s: f64,
        pool: PoolKind,
        obs: &PoolObservation,
        min_nodes: usize,
        max_nodes: usize,
    ) -> Option<ScaleDirection> {
        let p = pool.idx();
        // The EWMA estimate advances every tick regardless of whether an
        // action fires — a prediction that only updates on actions is no
        // prediction at all.
        if let ScaleSignal::PredictedLoad { alpha, .. } = self.cfg.signal {
            let rate = obs.arrivals_since_tick as f64 / self.cfg.interval_s;
            self.ewma_rate[p] = alpha * rate + (1.0 - alpha) * self.ewma_rate[p];
        }
        // Watermarks are per unit of capacity: in a heterogeneous pool
        // that is the summed throughput weight, in a homogeneous pool
        // (weight 0.0 = unreported) the node count — identical when
        // every weight is 1.0, so the homogeneous path is unchanged.
        let n = if obs.active_weight > 0.0 {
            obs.active_weight.max(1.0)
        } else {
            obs.active_nodes.max(1) as f64
        };
        let (wants_out, wants_in) = match self.cfg.signal {
            ScaleSignal::QueueDepth { out_per_node, in_per_node } => {
                let per = obs.backlog as f64 / n;
                (per > out_per_node, per < in_per_node)
            }
            ScaleSignal::KvOccupancy { out_frac, in_frac } => {
                (obs.kv_frac > out_frac, obs.kv_frac < in_frac)
            }
            ScaleSignal::PredictedLoad { out_rate_per_node, in_rate_per_node, .. } => {
                let per = self.ewma_rate[p] / n;
                (per > out_rate_per_node, per < in_rate_per_node)
            }
        };
        if wants_out && obs.active_nodes < max_nodes && t_s - self.last_in_s[p] >= self.cfg.cooldown_s
        {
            self.last_out_s[p] = t_s;
            return Some(ScaleDirection::Out);
        }
        if wants_in && obs.active_nodes > min_nodes && t_s - self.last_out_s[p] >= self.cfg.cooldown_s
        {
            self.last_in_s[p] = t_s;
            return Some(ScaleDirection::In);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(active: usize, backlog: u64) -> PoolObservation {
        PoolObservation {
            active_nodes: active,
            active_weight: 0.0,
            backlog,
            kv_frac: 0.0,
            arrivals_since_tick: 0,
        }
    }

    #[test]
    fn weighted_pool_scales_on_capacity_not_node_count() {
        let mut a = Autoscaler::new(AutoscalerConfig::queue_depth(1.0));
        // 2 nodes carrying 12 outstanding: 6 per node fires the out
        // watermark (4), but if those nodes are together worth 4
        // dgx-base-equivalents the per-capacity backlog is only 3.
        let mut o = obs(2, 12);
        assert_eq!(a.decide(0.0, PoolKind::Decode, &o, 1, 8), Some(ScaleDirection::Out));
        let mut b = Autoscaler::new(AutoscalerConfig::queue_depth(1.0));
        o.active_weight = 4.0;
        assert_eq!(b.decide(0.0, PoolKind::Decode, &o, 1, 8), None, "3 per capacity unit < 4");
    }

    #[test]
    fn queue_depth_scales_out_above_and_in_below_watermarks() {
        let mut a = Autoscaler::new(AutoscalerConfig::queue_depth(1.0));
        // 2 nodes, 20 outstanding → 10 per node, way over the watermark.
        assert_eq!(a.decide(0.0, PoolKind::Decode, &obs(2, 20), 1, 8), Some(ScaleDirection::Out));
        // Empty pool → under the in watermark; cooldown (3 s) blocks the
        // flip until t = 3.0.
        assert_eq!(a.decide(1.0, PoolKind::Decode, &obs(3, 0), 1, 8), None);
        assert_eq!(a.decide(2.0, PoolKind::Decode, &obs(3, 0), 1, 8), None);
        assert_eq!(a.decide(3.0, PoolKind::Decode, &obs(3, 0), 1, 8), Some(ScaleDirection::In));
    }

    #[test]
    fn bounds_cap_both_directions() {
        let mut a = Autoscaler::new(AutoscalerConfig::queue_depth(1.0));
        assert_eq!(a.decide(0.0, PoolKind::Decode, &obs(4, 400), 1, 4), None, "at max");
        assert_eq!(a.decide(1.0, PoolKind::Decode, &obs(1, 0), 1, 4), None, "at min");
    }

    #[test]
    fn pools_keep_independent_hysteresis_clocks() {
        let mut a = Autoscaler::new(AutoscalerConfig::queue_depth(1.0));
        assert_eq!(a.decide(0.0, PoolKind::Prefill, &obs(2, 20), 1, 8), Some(ScaleDirection::Out));
        // The prefill scale-out must not block a decode scale-in.
        assert_eq!(a.decide(0.0, PoolKind::Decode, &obs(2, 0), 1, 8), Some(ScaleDirection::In));
    }

    #[test]
    fn kv_occupancy_signal_fires_on_fraction() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            interval_s: 1.0,
            cold_start_s: 0.0,
            cooldown_s: 0.0,
            signal: ScaleSignal::KvOccupancy { out_frac: 0.8, in_frac: 0.2 },
        });
        let mut o = obs(2, 0);
        o.kv_frac = 0.9;
        assert_eq!(a.decide(0.0, PoolKind::Decode, &o, 1, 8), Some(ScaleDirection::Out));
        o.kv_frac = 0.1;
        assert_eq!(a.decide(1.0, PoolKind::Decode, &o, 1, 8), Some(ScaleDirection::In));
    }

    #[test]
    fn ewma_load_reacts_to_sustained_rate_not_one_spike() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            interval_s: 1.0,
            cold_start_s: 0.0,
            cooldown_s: 0.0,
            signal: ScaleSignal::PredictedLoad {
                alpha: 0.3,
                out_rate_per_node: 5.0,
                in_rate_per_node: 0.5,
            },
        });
        let mut o = obs(1, 0);
        o.arrivals_since_tick = 20;
        // One 20 req/s spike: EWMA = 0.3·20 = 6 > 5 → fires only because
        // the spike is large; a 10 req/s spike would not.
        let mut small = o;
        small.arrivals_since_tick = 10;
        let mut b = Autoscaler::new(*a.config());
        assert_eq!(b.decide(0.0, PoolKind::Decode, &small, 1, 8), None, "3 < 5: no action");
        assert_eq!(a.decide(0.0, PoolKind::Decode, &o, 1, 8), Some(ScaleDirection::Out));
    }

    #[test]
    #[should_panic(expected = "scale interval")]
    fn zero_interval_rejected() {
        let _ = Autoscaler::new(AutoscalerConfig { interval_s: 0.0, ..AutoscalerConfig::queue_depth(1.0) });
    }
}
