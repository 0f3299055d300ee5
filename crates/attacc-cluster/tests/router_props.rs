//! Property tests for health-masked routing.
//!
//! The serving loop routes every request through [`Router::route_by`]
//! with an eligibility predicate that excludes down and degraded nodes. Whatever the policy, the mask, or the loads, the
//! router must never select an excluded node — a single violation would
//! dispatch work to a crashed node — and session placement must remap
//! deterministically (and return home) as the healthy set shrinks and
//! regrows.

use attacc_cluster::{NodeLoad, Router, RouterPolicy};
use proptest::prelude::*;

/// Every policy the cluster exposes, parameterized where applicable.
fn policies(spill_backlog: u64) -> [RouterPolicy; 5] {
    [
        RouterPolicy::PassThrough,
        RouterPolicy::RoundRobin,
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::LeastKvBytes,
        RouterPolicy::SessionAffinity { spill_backlog },
    ]
}

fn to_loads(backlogs: &[u64]) -> Vec<NodeLoad> {
    backlogs
        .iter()
        .map(|&b| NodeLoad { backlog: b, kv_tokens: b.wrapping_mul(97) })
        .collect()
}

/// A mask with at least one eligible node, derived from `mask_bits`.
fn to_mask(n: usize, mask_bits: u16, fallback: usize) -> Vec<bool> {
    let mut eligible: Vec<bool> = (0..n).map(|i| mask_bits & (1 << i) != 0).collect();
    if !eligible.iter().any(|&e| e) {
        eligible[fallback % n] = true;
    }
    eligible
}

proptest! {
    /// No policy ever routes to an excluded (down/degraded) node, and
    /// with every node eligible the masked entry point is the unmasked
    /// `route`: two fresh routers fed the same id stream, one through
    /// each, make the same decision at every step.
    #[test]
    fn no_policy_selects_an_excluded_node(
        n in 1usize..12,
        mask_bits in 0u16..4096,
        backlogs in proptest::collection::vec(0u64..50, 12..13),
        ids in proptest::collection::vec(0u64..100_000, 1..24),
        spill in 0u64..8,
    ) {
        let loads = to_loads(&backlogs[..n]);
        let eligible = to_mask(n, mask_bits, ids[0] as usize);
        for policy in policies(spill) {
            let mut masked = Router::new(policy);
            let mut unmasked = Router::new(policy);
            let mut all_true = Router::new(policy);
            // A request *stream* (not one arrival) so the round-robin
            // cursor walks through masked regions of the ring, and any
            // cursor motion `route` skipped would show on a later step.
            for &id in &ids {
                let d = masked.route_by(id, &loads, |i| eligible[i], &[]);
                prop_assert!(
                    eligible[d.node],
                    "{} routed request {} to excluded node {} (mask {:?})",
                    policy.name(), id, d.node, eligible
                );
                let free = unmasked.route(id, &loads);
                let free_masked = all_true.route_by(id, &loads, |_| true, &[]);
                prop_assert!(
                    free == free_masked,
                    "{} request {}: route gave {:?}, the all-true route_by {:?}",
                    policy.name(), id, free, free_masked
                );
            }
        }
    }

    /// JSQ under a mask picks exactly the lowest-index minimum-backlog
    /// eligible node — masking changes the candidate set, not the rule.
    #[test]
    fn jsq_picks_min_backlog_among_eligible(
        n in 1usize..12,
        mask_bits in 0u16..4096,
        backlogs in proptest::collection::vec(0u64..50, 12..13),
        id in 0u64..100_000,
    ) {
        let loads = to_loads(&backlogs[..n]);
        let eligible = to_mask(n, mask_bits, id as usize);
        let d = Router::new(RouterPolicy::JoinShortestQueue)
            .route_by(id, &loads, |i| eligible[i], &[]);
        let best = (0..n)
            .filter(|&i| eligible[i])
            .min_by_key(|&i| (loads[i].backlog, i))
            .expect("mask has an eligible node");
        prop_assert_eq!(d.node, best);
    }

    /// Session affinity with a shrinking healthy set: the remapped home
    /// is a pure function of (id, mask) — two fresh routers agree — and
    /// when the original home comes back the session returns to it.
    #[test]
    fn affinity_remaps_deterministically_and_returns_home(
        n in 2usize..12,
        id in 0u64..100_000,
        backlogs in proptest::collection::vec(0u64..4, 12..13),
    ) {
        // spill_backlog above any generated backlog: placement is pure
        // hashing, never load spill.
        let policy = RouterPolicy::SessionAffinity { spill_backlog: 64 };
        let loads = to_loads(&backlogs[..n]);
        let full = vec![true; n];
        let home = Router::new(policy).route_by(id, &loads, |i| full[i], &[]).node;

        let mut shrunk = full.clone();
        shrunk[home] = false;
        let a = Router::new(policy).route_by(id, &loads, |i| shrunk[i], &[]).node;
        let b = Router::new(policy).route_by(id, &loads, |i| shrunk[i], &[]).node;
        prop_assert_eq!(a, b);
        prop_assert!(shrunk[a], "remapped home must be eligible");
        prop_assert!(a != home, "remap must leave the down node");

        // Healthy set regrows: the session returns to its original home.
        let back = Router::new(policy).route_by(id, &loads, |i| full[i], &[]).node;
        prop_assert_eq!(back, home);
    }
}
