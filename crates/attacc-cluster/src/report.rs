//! Cluster-level reporting: the numbers a fleet operator monitors.
//!
//! Everything renders through the `attacc-sim` report layer
//! ([`attacc_sim::Table`]), so cluster results serialize to the same
//! text / JSON forms as the per-figure drivers and plug into the
//! golden-table regression suite unchanged.

use attacc_serving::{LatencyStats, NodeEngine, OpenLoopReport};
use attacc_sim::Table;

/// Latency service-level objectives for goodput accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Time-to-first-token bound (s).
    pub ttft_s: f64,
    /// Time-between-tokens bound (s), checked against the cluster p99.
    pub tbt_s: f64,
}

impl SloSpec {
    /// The interactive-chatbot SLO used by the frontier sweeps: 2 s TTFT,
    /// 100 ms between tokens.
    #[must_use]
    pub fn chatbot() -> SloSpec {
        SloSpec { ttft_s: 2.0, tbt_s: 0.100 }
    }
}

/// SLO attainment of one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GoodputReport {
    /// Completed requests whose TTFT met the SLO.
    pub requests_in_slo: u64,
    /// Output tokens from SLO-met requests divided by the makespan —
    /// throughput that actually counts.
    pub goodput_tokens_per_s: f64,
    /// Whether the cluster-wide TBT p99 met the SLO.
    pub tbt_p99_in_slo: bool,
}

/// Per-node outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Requests fully served here.
    pub completed: u64,
    /// Requests abandoned here (queue head could never fit).
    pub abandoned: u64,
    /// Output tokens produced here.
    pub tokens: u64,
    /// Seconds this node spent executing rounds.
    pub busy_s: f64,
    /// `busy_s / makespan` — the utilization bar in the report.
    pub utilization: f64,
    /// Energy spent here (J).
    pub energy_j: f64,
    /// Peak KV reservation in tokens.
    pub peak_kv_tokens: u64,
    /// Time-weighted mean KV reservation in tokens.
    pub mean_kv_tokens: f64,
    /// `(time, reserved KV tokens)` at every reservation change — the
    /// KV-occupancy timeline.
    pub kv_timeline: Vec<(f64, u64)>,
}

/// Outcome of a cluster simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Router policy name.
    pub policy: String,
    /// Requests fully served.
    pub completed: u64,
    /// Requests abandoned (infeasible under node capacity).
    pub abandoned: u64,
    /// Virtual time from t = 0, not from the first arrival, to the last
    /// work event — normally the last round's end (s).
    pub makespan_s: f64,
    /// Total energy (J).
    pub energy_j: f64,
    /// Achieved output tokens per second.
    pub tokens_per_s: f64,
    /// Time from front-door arrival to first token.
    pub ttft: LatencyStats,
    /// Gen-iteration latencies across all nodes.
    pub tbt: LatencyStats,
    /// Front-door arrival to admission.
    pub queue_wait: LatencyStats,
    /// SLO attainment.
    pub goodput: GoodputReport,
    /// Per-node detail.
    pub nodes: Vec<NodeReport>,
}

impl ClusterReport {
    /// Aggregates per-node engine state into the cluster report, in node
    /// order so the 1-node projection is the identity. The serving loop
    /// aggregates every entry point's run here, so identical inputs
    /// produce bit-identical reports: the float accumulation order is
    /// fixed here, once.
    #[must_use]
    pub fn from_engines(
        policy_name: &str,
        engines: &mut [NodeEngine<'_>],
        makespan_s: f64,
        slo: &SloSpec,
    ) -> ClusterReport {
        // Pre-size the aggregates to their exact final lengths: on a
        // 10^5-request trace repeated doubling would otherwise copy each
        // sample vector O(log n) times.
        let mut ttft = Vec::with_capacity(engines.iter().map(|e| e.metrics().ttft.len()).sum());
        let mut ttft_tokens =
            Vec::with_capacity(engines.iter().map(|e| e.metrics().ttft_tokens.len()).sum());
        let mut tbt = Vec::with_capacity(engines.iter().map(|e| e.metrics().tbt.len()).sum());
        let mut queue_wait =
            Vec::with_capacity(engines.iter().map(|e| e.metrics().queue_wait.len()).sum());
        let mut energy = 0.0f64;
        let mut tokens = 0u64;
        let mut completed = 0u64;
        let mut abandoned = 0u64;
        for m in engines.iter().map(NodeEngine::metrics) {
            ttft.extend_from_slice(&m.ttft);
            ttft_tokens.extend_from_slice(&m.ttft_tokens);
            tbt.extend_from_slice(&m.tbt);
            queue_wait.extend_from_slice(&m.queue_wait);
            energy += m.energy_j;
            tokens += m.tokens;
            completed += m.completed;
            abandoned += m.abandoned;
        }

        let tbt_stats = LatencyStats::from_samples(tbt);
        let mut requests_in_slo = 0u64;
        let mut goodput_tokens = 0u64;
        for (t, &l_out) in ttft.iter().zip(&ttft_tokens) {
            if *t <= slo.ttft_s {
                requests_in_slo += 1;
                goodput_tokens += l_out;
            }
        }
        let goodput = GoodputReport {
            requests_in_slo,
            goodput_tokens_per_s: if makespan_s > 0.0 {
                goodput_tokens as f64 / makespan_s
            } else {
                0.0
            },
            tbt_p99_in_slo: tbt_stats.p99_s <= slo.tbt_s,
        };

        let nodes: Vec<NodeReport> = engines
            .iter_mut()
            .enumerate()
            .map(|(i, e)| {
                let (peak, mean) = e.finish_kv(makespan_s);
                let m = e.metrics();
                NodeReport {
                    node: i,
                    completed: m.completed,
                    abandoned: m.abandoned,
                    tokens: m.tokens,
                    busy_s: m.busy_s,
                    utilization: if makespan_s > 0.0 { m.busy_s / makespan_s } else { 0.0 },
                    energy_j: m.energy_j,
                    peak_kv_tokens: peak,
                    mean_kv_tokens: mean,
                    kv_timeline: m.kv_timeline.clone(),
                }
            })
            .collect();

        ClusterReport {
            policy: policy_name.to_string(),
            completed,
            abandoned,
            makespan_s,
            energy_j: energy,
            tokens_per_s: if makespan_s > 0.0 { tokens as f64 / makespan_s } else { 0.0 },
            ttft: LatencyStats::from_samples(ttft),
            tbt: tbt_stats,
            queue_wait: LatencyStats::from_samples(queue_wait),
            goodput,
            nodes,
        }
    }

    /// Projects the cluster run onto the single-node open-loop report
    /// shape. For a 1-node cluster behind a pass-through router over an
    /// ideal interconnect this equals [`attacc_serving::simulate_open_loop`]'s
    /// output bit-for-bit.
    #[must_use]
    pub fn to_open_loop_report(&self) -> OpenLoopReport {
        OpenLoopReport {
            completed: self.completed,
            makespan_s: self.makespan_s,
            energy_j: self.energy_j,
            tokens_per_s: self.tokens_per_s,
            ttft: self.ttft,
            tbt: self.tbt,
            queue_wait: self.queue_wait,
        }
    }

    /// Mean node utilization.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.utilization).sum::<f64>() / self.nodes.len() as f64
    }

    /// The cluster summary as a two-column table.
    #[must_use]
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            format!("Cluster summary ({} nodes, {})", self.nodes.len(), self.policy),
            &["quantity", "value"],
        );
        let ms = |v: f64| format!("{:.2}", v * 1e3);
        t.push_row(vec!["completed".into(), self.completed.to_string()]);
        t.push_row(vec!["abandoned".into(), self.abandoned.to_string()]);
        t.push_row(vec!["makespan (s)".into(), Table::num(self.makespan_s)]);
        t.push_row(vec!["tokens/s".into(), Table::num(self.tokens_per_s)]);
        t.push_row(vec!["energy (kJ)".into(), Table::num(self.energy_j / 1e3)]);
        t.push_row(vec!["TTFT p50/p99/p99.9 (ms)".into(), format!(
            "{} / {} / {}",
            ms(self.ttft.p50_s),
            ms(self.ttft.p99_s),
            ms(self.ttft.p999_s)
        )]);
        t.push_row(vec!["TBT p50/p99/p99.9 (ms)".into(), format!(
            "{} / {} / {}",
            ms(self.tbt.p50_s),
            ms(self.tbt.p99_s),
            ms(self.tbt.p999_s)
        )]);
        t.push_row(vec!["queue wait p99 (ms)".into(), ms(self.queue_wait.p99_s)]);
        t.push_row(vec![
            "goodput (tokens/s in SLO)".into(),
            Table::num(self.goodput.goodput_tokens_per_s),
        ]);
        t.push_row(vec![
            "requests in TTFT SLO".into(),
            format!("{} / {}", self.goodput.requests_in_slo, self.completed),
        ]);
        t.push_row(vec![
            "TBT p99 in SLO".into(),
            if self.goodput.tbt_p99_in_slo { "yes".into() } else { "no".into() },
        ]);
        t.push_row(vec![
            "mean node utilization %".into(),
            Table::num(self.mean_utilization() * 100.0),
        ]);
        t
    }

    /// Per-node utilization / KV-occupancy table.
    #[must_use]
    pub fn per_node_table(&self) -> Table {
        let mut t = Table::new(
            format!("Per-node report ({})", self.policy),
            &[
                "node",
                "completed",
                "abandoned",
                "tokens",
                "util %",
                "energy (kJ)",
                "peak KV tokens",
                "mean KV tokens",
            ],
        );
        for nr in &self.nodes {
            t.push_row(vec![
                nr.node.to_string(),
                nr.completed.to_string(),
                nr.abandoned.to_string(),
                nr.tokens.to_string(),
                Table::num(nr.utilization * 100.0),
                Table::num(nr.energy_j / 1e3),
                nr.peak_kv_tokens.to_string(),
                Table::num(nr.mean_kv_tokens),
            ]);
        }
        t
    }

    /// The KV-occupancy timeline resampled onto `buckets` uniform time
    /// buckets (last observation carried forward), one column per node —
    /// compact enough to print, faithful enough to spot imbalance.
    ///
    /// # Panics
    /// Panics if `buckets` is zero.
    #[must_use]
    pub fn kv_timeline_table(&self, buckets: usize) -> Table {
        assert!(buckets > 0, "need at least one bucket");
        let mut headers: Vec<String> = vec!["t (s)".into()];
        headers.extend(self.nodes.iter().map(|n| format!("node{} KV tokens", n.node)));
        let mut t = Table::new(
            format!("KV occupancy timeline ({} buckets)", buckets),
            &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        for b in 0..buckets {
            // Sample at the *end* of each bucket so the final row reflects
            // the drained cluster.
            let at = self.makespan_s * (b + 1) as f64 / buckets as f64;
            let mut row = vec![Table::num(at)];
            for nr in &self.nodes {
                let v = nr
                    .kv_timeline
                    .iter()
                    .take_while(|&&(ts, _)| ts <= at)
                    .last()
                    .map_or(0, |&(_, v)| v);
                row.push(v.to_string());
            }
            t.push_row(row);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ClusterReport {
        ClusterReport {
            policy: "round-robin".into(),
            completed: 10,
            abandoned: 0,
            makespan_s: 4.0,
            energy_j: 1000.0,
            tokens_per_s: 25.0,
            ttft: LatencyStats::from_samples(vec![0.1, 0.2, 0.3]),
            tbt: LatencyStats::from_samples(vec![0.01, 0.02]),
            queue_wait: LatencyStats::from_samples(vec![0.0, 0.05]),
            goodput: GoodputReport {
                requests_in_slo: 9,
                goodput_tokens_per_s: 20.0,
                tbt_p99_in_slo: true,
            },
            nodes: vec![NodeReport {
                node: 0,
                completed: 10,
                abandoned: 0,
                tokens: 100,
                busy_s: 3.0,
                utilization: 0.75,
                energy_j: 1000.0,
                peak_kv_tokens: 64,
                mean_kv_tokens: 32.0,
                kv_timeline: vec![(0.0, 0), (1.0, 64), (3.5, 0)],
            }],
        }
    }

    #[test]
    fn tables_render_and_serialize() {
        let r = sample_report();
        let s = r.summary_table();
        assert!(s.to_string().contains("p99.9"));
        let n = r.per_node_table();
        assert_eq!(n.rows.len(), 1);
        let k = r.kv_timeline_table(4);
        assert_eq!(k.rows.len(), 4);
        // Bucket ending at t=2.0 carries the 64-token observation forward;
        // the final bucket sees the release.
        assert_eq!(k.rows[1][1], "64");
        assert_eq!(k.rows[3][1], "0");
    }

    #[test]
    fn open_loop_projection_preserves_fields() {
        let r = sample_report();
        let o = r.to_open_loop_report();
        assert_eq!(o.completed, 10);
        assert_eq!(o.makespan_s, 4.0);
        assert_eq!(o.ttft, r.ttft);
    }
}
