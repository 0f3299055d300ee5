//! Front-door request routing across nodes.
//!
//! The router sees every arrival in time order and picks a destination
//! from a deterministic snapshot of cluster load: per-node backlog
//! (in-flight + queued + active requests) and committed KV footprint
//! (tokens pledged by every request routed to the node and not yet
//! retired). Ties always break toward the lowest node index, so routing
//! is a pure function of the arrival sequence — no randomness, no clock.

/// Which node an arriving request is dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterPolicy {
    /// Everything to node 0 — the single-node equivalence configuration;
    /// bypasses the interconnect entirely.
    PassThrough,
    /// Cycle through nodes in arrival order.
    #[default]
    RoundRobin,
    /// Fewest outstanding requests (in-flight + queued + active).
    JoinShortestQueue,
    /// Smallest committed KV footprint in tokens — KV-aware placement:
    /// long-context requests spread by *bytes*, not request count.
    LeastKvBytes,
    /// Requests hash to a home node by id (sticky sessions keep their KV
    /// cache local). When the home node's backlog exceeds
    /// `spill_backlog`, the request spills to the shortest queue and pays
    /// a KV-migration transfer for its `l_in`-token cached prefix.
    SessionAffinity {
        /// Backlog above which the home node is considered overloaded and
        /// the session spills.
        spill_backlog: u64,
    },
    /// Throughput-normalized least load for heterogeneous pools: argmin
    /// of `(backlog + 1) / weight` where `weight` is the node's relative
    /// decode throughput (see [`Router::route_by`]). With unit
    /// weights this ranks nodes exactly like
    /// [`RouterPolicy::JoinShortestQueue`]; with a mixed fleet it sends a
    /// 2×-faster node 2× the queue before considering it equally loaded.
    WeightedLeastLoad,
}

impl RouterPolicy {
    /// Human-readable policy name for tables and reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RouterPolicy::PassThrough => "pass-through",
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::JoinShortestQueue => "join-shortest-queue",
            RouterPolicy::LeastKvBytes => "least-kv-bytes",
            RouterPolicy::SessionAffinity { .. } => "session-affinity",
            RouterPolicy::WeightedLeastLoad => "weighted-least-load",
        }
    }
}

/// One node's load as the router sees it at an arrival instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeLoad {
    /// Outstanding requests: in flight to the node + queued + active.
    pub backlog: u64,
    /// Committed KV tokens: `final_len` of everything routed to the node
    /// and not yet retired or abandoned.
    pub kv_tokens: u64,
}

/// The routing decision for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Destination node.
    pub node: usize,
    /// Whether the request moved away from its session's home node and
    /// must pay a KV-migration transfer (session-affinity spill only).
    pub migrated: bool,
}

/// Router state: the policy plus its round-robin cursor.
#[derive(Debug, Clone)]
pub struct Router {
    policy: RouterPolicy,
    rr_next: usize,
}

/// SplitMix64: a fixed, platform-independent avalanche hash so session
/// placement never depends on `DefaultHasher` internals.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const NONE_ELIGIBLE: &str = "at least one node must be eligible";

/// Lowest-index argmin over the eligible nodes. The scan asks for a
/// node's eligibility only when its key beats the best so far, not for
/// every node.
///
/// # Panics
/// Panics if no node is eligible.
fn argmin_among(
    loads: &[NodeLoad],
    eligible: impl Fn(usize) -> bool,
    key: impl Fn(&NodeLoad) -> u64,
) -> usize {
    let mut best: Option<(usize, u64)> = None;
    for (i, load) in loads.iter().enumerate() {
        let k = key(load);
        if best.is_none_or(|(_, b)| k < b) && eligible(i) {
            best = Some((i, k));
        }
    }
    best.expect(NONE_ELIGIBLE).0
}

impl Router {
    /// A router with the given policy.
    #[must_use]
    pub fn new(policy: RouterPolicy) -> Router {
        Router { policy, rr_next: 0 }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Picks a destination for request `id` given the per-node `loads`.
    ///
    /// # Panics
    /// Panics if `loads` is empty.
    pub fn route(&mut self, id: u64, loads: &[NodeLoad]) -> RouteDecision {
        self.route_by(id, loads, |_| true, &[])
    }

    /// Picks a destination for request `id` among the nodes `i` with
    /// `eligible(i)`, given per-node relative throughput `weights`
    /// (empty = all weigh 1.0). The serving loop masks out cold, down and
    /// degraded nodes; the predicate is asked during the scan, so JSQ,
    /// least-KV and weighted least-load route in one pass. With an
    /// always-`true` predicate and no weights this is exactly
    /// [`Router::route`].
    ///
    /// Eligible-set semantics per policy:
    /// - pass-through: lowest eligible index;
    /// - round-robin: next eligible node at or after the cursor;
    /// - JSQ / least-KV: argmin over eligible nodes, low index on ties;
    /// - weighted least-load: argmin of `(backlog + 1) / weight` over
    ///   eligible nodes, low index on ties; the only policy that reads
    ///   `weights`, so passing them through a homogeneous pool is
    ///   byte-identical to not passing them;
    /// - session-affinity: the home node is the `splitmix64(id) % k`-th
    ///   *eligible* node in ascending index order (`k` = eligible count),
    ///   so a session remaps deterministically — and returns home — as
    ///   the healthy set shrinks and regrows.
    ///
    /// # Panics
    /// Panics if `loads` is empty, `weights` is neither empty nor
    /// `loads.len()` long, or no node is eligible.
    pub fn route_by(
        &mut self,
        id: u64,
        loads: &[NodeLoad],
        eligible: impl Fn(usize) -> bool,
        weights: &[f64],
    ) -> RouteDecision {
        assert!(!loads.is_empty(), "cluster needs at least one node");
        assert!(
            weights.is_empty() || weights.len() == loads.len(),
            "one throughput weight per node (or none)"
        );
        let n = loads.len();
        match self.policy {
            RouterPolicy::PassThrough => {
                let node = (0..n).find(|&i| eligible(i)).expect(NONE_ELIGIBLE);
                RouteDecision { node, migrated: false }
            }
            RouterPolicy::RoundRobin => {
                let start = self.rr_next % n;
                let node = (start..n).chain(0..start).find(|&i| eligible(i)).expect(NONE_ELIGIBLE);
                self.rr_next = (node + 1) % n;
                RouteDecision { node, migrated: false }
            }
            RouterPolicy::JoinShortestQueue => {
                RouteDecision { node: argmin_among(loads, eligible, |l| l.backlog), migrated: false }
            }
            RouterPolicy::LeastKvBytes => RouteDecision {
                node: argmin_among(loads, eligible, |l| l.kv_tokens),
                migrated: false,
            },
            RouterPolicy::WeightedLeastLoad => {
                // Lowest-index argmin of normalized queue length. The
                // +1 counts the arrival being placed, so an idle slow
                // node still loses to an idle fast node on weight alone.
                let mut best: Option<(usize, f64)> = None;
                for (i, load) in loads.iter().enumerate() {
                    let w = weights.get(i).copied().unwrap_or(1.0);
                    let key = (load.backlog + 1) as f64 / w;
                    if best.is_none_or(|(_, b)| key.total_cmp(&b).is_lt()) && eligible(i) {
                        best = Some((i, key));
                    }
                }
                let (node, _) = best.expect(NONE_ELIGIBLE);
                RouteDecision { node, migrated: false }
            }
            RouterPolicy::SessionAffinity { spill_backlog } => {
                let k = (0..n).filter(|&i| eligible(i)).count();
                assert!(k > 0, "{NONE_ELIGIBLE}");
                let pick = usize::try_from(splitmix64(id) % k as u64).expect("node fits usize");
                let home = (0..n)
                    .filter(|&i| eligible(i))
                    .nth(pick)
                    .expect("pick is within eligible count");
                if loads[home].backlog > spill_backlog {
                    let node = argmin_among(loads, eligible, |l| l.backlog);
                    RouteDecision { node, migrated: node != home }
                } else {
                    RouteDecision { node: home, migrated: false }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(backlogs: &[u64]) -> Vec<NodeLoad> {
        backlogs.iter().map(|&b| NodeLoad { backlog: b, kv_tokens: b * 100 }).collect()
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = Router::new(RouterPolicy::RoundRobin);
        let view = loads(&[0, 0, 0]);
        let picks: Vec<usize> = (0..6).map(|i| r.route(i, &view).node).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn jsq_prefers_emptiest_and_ties_break_low() {
        let mut r = Router::new(RouterPolicy::JoinShortestQueue);
        assert_eq!(r.route(0, &loads(&[2, 2, 2])).node, 0, "ties break low");
        assert_eq!(r.route(1, &loads(&[2, 1, 2])).node, 1);
        assert_eq!(r.route(2, &loads(&[2, 1, 0])).node, 2);
    }

    #[test]
    fn least_kv_spreads_by_tokens_not_count() {
        let mut r = Router::new(RouterPolicy::LeastKvBytes);
        // Node 0 holds one giant context, node 1 many small ones: the
        // KV-aware policy picks by bytes, JSQ would pick by count.
        let view = vec![
            NodeLoad { backlog: 1, kv_tokens: 20_000 },
            NodeLoad { backlog: 5, kv_tokens: 500 },
        ];
        assert_eq!(r.route(0, &view).node, 1);
        let mut jsq = Router::new(RouterPolicy::JoinShortestQueue);
        assert_eq!(jsq.route(0, &view).node, 0);
    }

    #[test]
    fn affinity_is_sticky_until_spill() {
        let mut r = Router::new(RouterPolicy::SessionAffinity { spill_backlog: 2 });
        let idle = loads(&[0, 0, 0, 0]);
        let home = r.route(42, &idle).node;
        assert_eq!(r.route(42, &idle).node, home, "same id → same node");
        // Overload the home node: the session spills and pays migration.
        let mut hot = loads(&[0, 0, 0, 0]);
        hot[home].backlog = 3;
        let spilled = r.route(42, &hot);
        assert_ne!(spilled.node, home);
        assert!(spilled.migrated);
        assert!(!r.route(42, &idle).migrated, "calm again → home, no migration");
    }

    #[test]
    fn pass_through_always_node_zero() {
        let mut r = Router::new(RouterPolicy::PassThrough);
        let view = loads(&[9, 0]);
        assert!((0..10).all(|i| r.route(i, &view).node == 0));
    }

    #[test]
    fn route_among_skips_ineligible_nodes() {
        let view = loads(&[0, 0, 0, 0]);
        let mask = [true, false, true, false];
        let up = |i: usize| mask[i];
        let mut rr = Router::new(RouterPolicy::RoundRobin);
        let picks: Vec<usize> = (0..4).map(|i| rr.route_by(i, &view, up, &[]).node).collect();
        assert_eq!(picks, vec![0, 2, 0, 2], "round-robin cycles eligible nodes only");
        let mut jsq = Router::new(RouterPolicy::JoinShortestQueue);
        let hot = loads(&[5, 0, 3, 0]);
        assert_eq!(jsq.route_by(0, &hot, up, &[]).node, 2, "node 1 is down despite backlog 0");
        let mut pt = Router::new(RouterPolicy::PassThrough);
        assert_eq!(pt.route_by(0, &view, |i| i > 0, &[]).node, 1);
    }

    #[test]
    fn route_among_all_true_matches_route() {
        for policy in [
            RouterPolicy::PassThrough,
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvBytes,
            RouterPolicy::SessionAffinity { spill_backlog: 1 },
        ] {
            let mut a = Router::new(policy);
            let mut b = Router::new(policy);
            let view = loads(&[3, 1, 2, 0, 2]);
            for id in 0..64 {
                assert_eq!(
                    a.route(id, &view),
                    b.route_by(id, &view, |_| true, &[]),
                    "policy {} id {id}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn affinity_remaps_deterministically_when_healthy_set_shrinks() {
        let mut r = Router::new(RouterPolicy::SessionAffinity { spill_backlog: 100 });
        let view = loads(&[0, 0, 0, 0]);
        let home = r.route(7, &view).node;
        // Take the home node down: the session lands on an eligible node,
        // the same one every time.
        let remapped = r.route_by(7, &view, |i| i != home, &[]).node;
        assert_ne!(remapped, home);
        assert_eq!(r.route_by(7, &view, |i| i != home, &[]).node, remapped);
        // Healthy again: the session returns to its original home.
        assert_eq!(r.route(7, &view).node, home);
    }

    #[test]
    fn weighted_least_load_with_unit_weights_matches_jsq() {
        let mut wll = Router::new(RouterPolicy::WeightedLeastLoad);
        let mut jsq = Router::new(RouterPolicy::JoinShortestQueue);
        let view = loads(&[3, 1, 2, 1, 0, 4]);
        for id in 0..32 {
            assert_eq!(
                wll.route(id, &view),
                jsq.route(id, &view),
                "unit-weight WLL must rank exactly like JSQ"
            );
        }
    }

    #[test]
    fn weighted_least_load_sends_fast_nodes_proportionally_more() {
        let mut r = Router::new(RouterPolicy::WeightedLeastLoad);
        // Node 1 is 4× faster: a 2-deep queue there normalizes below
        // node 0's empty queue, and a 3-deep queue exactly ties it
        // (ties break toward the lower index).
        let w = [1.0, 4.0];
        let view = vec![
            NodeLoad { backlog: 0, kv_tokens: 0 },
            NodeLoad { backlog: 2, kv_tokens: 0 },
        ];
        assert_eq!(r.route_by(0, &view, |_| true, &w).node, 1, "(2+1)/4 < (0+1)/1");
        let tied = vec![
            NodeLoad { backlog: 0, kv_tokens: 0 },
            NodeLoad { backlog: 3, kv_tokens: 0 },
        ];
        assert_eq!(r.route_by(1, &tied, |_| true, &w).node, 0, "exact tie breaks low");
    }

    #[test]
    fn weighted_least_load_respects_eligibility() {
        let mut r = Router::new(RouterPolicy::WeightedLeastLoad);
        let view = loads(&[0, 5]);
        assert_eq!(r.route_by(0, &view, |i| i == 1, &[10.0, 0.1]).node, 1);
    }

    #[test]
    fn splitmix_spreads_sessions() {
        // 256 consecutive ids over 8 nodes: every node gets some sessions.
        let mut seen = [false; 8];
        for id in 0..256u64 {
            seen[usize::try_from(splitmix64(id) % 8).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
