//! Fault-run reporting: what survived, what it cost.
//!
//! A [`ChaosReport`] wraps the engine-level
//! [`attacc_cluster::ClusterReport`] (which counts every dispatched
//! *copy* of a request, duplicated work included) with request-level
//! accounting from the chaos layer's trackers: unique completions,
//! first-completion-wins SLO attainment, and the failure economics —
//! tokens lost to crashes, recomputed by re-prefill, or re-shipped by KV
//! migration.

pub use attacc_cluster::RequestOutcome;
use attacc_cluster::{ClusterReport, FleetReport};
use attacc_sim::Table;

/// Outcome of a chaos simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Resilience-policy name (e.g. `retry+hedge+health+kv-migrate`).
    pub policy: String,
    /// Recovery-mode name (`reprefill` / `kv-migrate`).
    pub recovery: String,
    /// Engine-level aggregate — identical in shape (and, under zero
    /// faults with the policy off, identical in bytes) to
    /// `simulate_cluster`'s report. Counts every copy of duplicated work.
    pub cluster: ClusterReport,
    /// Fault-transition events injected into the queue.
    pub faults_injected: u64,
    /// Node crashes that fired.
    pub crashes: u64,
    /// `1 − Σ downtime / (nodes × makespan)`, downtime clamped to the
    /// makespan.
    pub availability: f64,
    /// Per-node downtime within the makespan (s).
    pub node_downtime_s: Vec<f64>,
    /// Retry re-dispatches issued.
    pub retries: u64,
    /// Hedged duplicate dispatches issued.
    pub hedges: u64,
    /// Requests whose retry budget ran out while waiting (they still
    /// complete whenever a parked copy finally runs).
    pub timeouts_exhausted: u64,
    /// Output tokens destroyed by crashes (generated, then lost with the
    /// KV state).
    pub lost_tokens: u64,
    /// Context tokens recomputed by re-prefill recovery.
    pub recomputed_tokens: u64,
    /// Context tokens re-shipped by KV-migration recovery.
    pub migrated_kv_tokens: u64,
    /// Logical requests that completed at least once.
    pub unique_completed: u64,
    /// Completions beyond the first per request — pure duplicated work
    /// from retries and hedges.
    pub duplicate_completions: u64,
    /// Unique requests whose earliest first token met the TTFT SLO.
    pub requests_in_slo: u64,
    /// Output tokens of SLO-met unique requests per second of makespan —
    /// the goodput that survived the faults.
    pub goodput_under_failure_tokens_per_s: f64,
    /// One entry per completed logical request, in request-id order.
    pub request_outcomes: Vec<RequestOutcome>,
}

impl ChaosReport {
    /// The chaos summary as a two-column table (the cluster-level tables
    /// remain available through [`ChaosReport::cluster`]).
    #[must_use]
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Chaos summary ({} nodes, {}, policy {})",
                self.cluster.nodes.len(),
                self.cluster.policy,
                self.policy
            ),
            &["quantity", "value"],
        );
        t.push_row(vec!["resilience policy".into(), self.policy.clone()]);
        t.push_row(vec!["recovery mode".into(), self.recovery.clone()]);
        t.push_row(vec!["faults injected".into(), self.faults_injected.to_string()]);
        t.push_row(vec!["crashes".into(), self.crashes.to_string()]);
        t.push_row(vec!["availability %".into(), Table::num(self.availability * 100.0)]);
        t.push_row(vec!["retries / hedges".into(), format!("{} / {}", self.retries, self.hedges)]);
        t.push_row(vec!["timeouts exhausted".into(), self.timeouts_exhausted.to_string()]);
        t.push_row(vec!["lost tokens".into(), self.lost_tokens.to_string()]);
        t.push_row(vec!["recomputed tokens".into(), self.recomputed_tokens.to_string()]);
        t.push_row(vec!["migrated KV tokens".into(), self.migrated_kv_tokens.to_string()]);
        t.push_row(vec![
            "unique / duplicate completions".into(),
            format!("{} / {}", self.unique_completed, self.duplicate_completions),
        ]);
        t.push_row(vec![
            "requests in TTFT SLO".into(),
            format!("{} / {}", self.requests_in_slo, self.unique_completed),
        ]);
        t.push_row(vec![
            "goodput under failure (tokens/s)".into(),
            Table::num(self.goodput_under_failure_tokens_per_s),
        ]);
        t.push_row(vec!["makespan (s)".into(), Table::num(self.cluster.makespan_s)]);
        t
    }

    /// Per-node downtime table.
    #[must_use]
    pub fn downtime_table(&self) -> Table {
        let mut t = Table::new(
            format!("Per-node downtime (availability {:.2} %)", self.availability * 100.0),
            &["node", "downtime (s)", "down %"],
        );
        for (node, &d) in self.node_downtime_s.iter().enumerate() {
            let pct = if self.cluster.makespan_s > 0.0 {
                d / self.cluster.makespan_s * 100.0
            } else {
                0.0
            };
            t.push_row(vec![node.to_string(), Table::num(d), Table::num(pct)]);
        }
        t
    }
}

/// Outcome of a fleet-scale chaos simulation
/// ([`crate::simulate_fleet_chaos`]): the autoscaled, possibly
/// disaggregated [`FleetReport`] plus the failure economics layered on
/// top of it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetChaosReport {
    /// The fleet-level report — identical in shape (and, under zero
    /// faults with the degrade policy off, identical in bytes) to
    /// `simulate_fleet_mix`'s. Its node-second meters already include
    /// fault downtime (down nodes are not billed) so it flows through
    /// `attacc-provision`'s `CostBook` unchanged.
    pub fleet: FleetReport,
    /// Recovery-mode name (`reprefill` / `kv-migrate`).
    pub recovery: String,
    /// Degrade-policy name (`off`, `shed+brownout+guard`, …).
    pub degrade: String,
    /// Fault-transition events injected into the queue.
    pub faults_injected: u64,
    /// Node crashes that fired.
    pub crashes: u64,
    /// `1 − Σ downtime / (nodes × makespan)`, downtime clamped to the
    /// makespan. Counts pool-inactive nodes too (a crash of a scaled-in
    /// node costs no capacity but still shows in this hardware view).
    pub availability: f64,
    /// Per-global-node downtime within the makespan (s).
    pub node_downtime_s: Vec<f64>,
    /// Output tokens destroyed by crashes (generated, then lost with the
    /// KV state).
    pub lost_tokens: u64,
    /// Context tokens recomputed by re-prefill recovery.
    pub recomputed_tokens: u64,
    /// Context tokens re-shipped warm by KV-migration recovery.
    pub migrated_kv_tokens: u64,
    /// Crash-recovery warm re-dispatches (distinct from the prefill →
    /// decode `kv_ships` of normal disaggregated operation).
    pub recovery_reships: u64,
    /// Bytes moved by recovery re-ships.
    pub recovery_reshipped_bytes: u64,
    /// Arrivals rejected by admission control.
    pub shed_requests: u64,
    /// Output tokens the shed arrivals would have generated.
    pub shed_tokens: u64,
    /// Arrivals admitted with a brownout-shrunk decode length.
    pub browned_out_requests: u64,
    /// Crash-displaced re-dispatches deferred by the storm guard.
    pub deferred_redispatches: u64,
    /// Logical requests that completed.
    pub unique_completed: u64,
    /// Completed requests whose first token met their TTFT SLO
    /// (brownout-relaxed for browned-out admissions).
    pub requests_in_slo: u64,
    /// Output tokens of SLO-met completed requests per second of
    /// makespan — the goodput that survived the faults.
    pub goodput_under_failure_tokens_per_s: f64,
}

impl FleetChaosReport {
    /// The fleet-chaos summary as a two-column table (fleet-level tables
    /// remain available through [`FleetChaosReport::fleet`]).
    #[must_use]
    pub fn summary_table(&self) -> Table {
        let f = &self.fleet;
        let mut t = Table::new(
            format!(
                "Fleet-chaos summary ({} nodes{}, recovery {}, degrade {})",
                self.node_downtime_s.len(),
                if f.disaggregated { ", disaggregated" } else { "" },
                self.recovery,
                self.degrade
            ),
            &["quantity", "value"],
        );
        t.push_row(vec!["recovery mode".into(), self.recovery.clone()]);
        t.push_row(vec!["degrade policy".into(), self.degrade.clone()]);
        t.push_row(vec!["faults injected".into(), self.faults_injected.to_string()]);
        t.push_row(vec!["crashes".into(), self.crashes.to_string()]);
        t.push_row(vec!["availability %".into(), Table::num(self.availability * 100.0)]);
        t.push_row(vec!["lost tokens".into(), self.lost_tokens.to_string()]);
        t.push_row(vec!["recomputed tokens".into(), self.recomputed_tokens.to_string()]);
        t.push_row(vec!["migrated KV tokens".into(), self.migrated_kv_tokens.to_string()]);
        t.push_row(vec![
            "recovery re-ships / bytes".into(),
            format!("{} / {}", self.recovery_reships, self.recovery_reshipped_bytes),
        ]);
        t.push_row(vec![
            "shed requests / tokens".into(),
            format!("{} / {}", self.shed_requests, self.shed_tokens),
        ]);
        t.push_row(vec!["browned-out requests".into(), self.browned_out_requests.to_string()]);
        t.push_row(vec![
            "deferred re-dispatches".into(),
            self.deferred_redispatches.to_string(),
        ]);
        t.push_row(vec![
            "requests in TTFT SLO".into(),
            format!("{} / {}", self.requests_in_slo, self.unique_completed),
        ]);
        t.push_row(vec![
            "goodput under failure (tokens/s)".into(),
            Table::num(self.goodput_under_failure_tokens_per_s),
        ]);
        t.push_row(vec!["node-seconds billed".into(), Table::num(f.node_seconds)]);
        t.push_row(vec!["cold-start node-s".into(), Table::num(f.cold_start_node_s)]);
        t.push_row(vec!["scale events".into(), f.scale_events.len().to_string()]);
        t.push_row(vec!["makespan (s)".into(), Table::num(f.cluster.makespan_s)]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacc_serving::LatencyStats;

    fn sample() -> ChaosReport {
        ChaosReport {
            policy: "retry+health".into(),
            recovery: "reprefill".into(),
            cluster: ClusterReport {
                policy: "join-shortest-queue".into(),
                completed: 42,
                abandoned: 0,
                makespan_s: 10.0,
                energy_j: 100.0,
                tokens_per_s: 50.0,
                ttft: LatencyStats::from_samples(vec![0.1]),
                tbt: LatencyStats::from_samples(vec![0.01]),
                queue_wait: LatencyStats::from_samples(vec![0.0]),
                goodput: attacc_cluster::GoodputReport::default(),
                nodes: vec![],
            },
            faults_injected: 4,
            crashes: 2,
            availability: 0.93,
            node_downtime_s: vec![0.7, 0.0],
            retries: 3,
            hedges: 1,
            timeouts_exhausted: 0,
            lost_tokens: 17,
            recomputed_tokens: 250,
            migrated_kv_tokens: 0,
            unique_completed: 40,
            duplicate_completions: 2,
            requests_in_slo: 38,
            goodput_under_failure_tokens_per_s: 45.5,
            request_outcomes: vec![RequestOutcome { id: 0, l_out: 16, in_slo: true }],
        }
    }

    #[test]
    fn tables_render_and_serialize() {
        let r = sample();
        let s = r.summary_table();
        assert!(s.to_string().contains("goodput under failure"));
        let d = r.downtime_table();
        assert_eq!(d.rows.len(), 2);
        assert_eq!(d.rows[0][0], "0");
    }
}
