//! Serving-run metrics.

/// Outcome of a serving simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServingReport {
    /// Wall-clock seconds to drain the workload.
    pub total_time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Output tokens produced (Sum stages produce one each, too).
    pub tokens_generated: u64,
    /// Requests fully served.
    pub requests_completed: u64,
    /// Gen iterations executed.
    pub gen_iterations: u64,
    /// Longest single Gen-iteration latency (the SLO-relevant number).
    pub max_iteration_latency_s: f64,
    /// Mean completion time of finished requests, measured from the start
    /// of the run (turnaround in a closed-loop drain).
    pub mean_turnaround_s: f64,
}

impl ServingReport {
    /// Throughput in generated tokens per second.
    #[must_use]
    pub fn tokens_per_s(&self) -> f64 {
        if self.total_time_s > 0.0 {
            self.tokens_generated as f64 / self.total_time_s
        } else {
            0.0
        }
    }

    /// Energy per output token in joules.
    #[must_use]
    pub fn energy_per_token_j(&self) -> f64 {
        if self.tokens_generated > 0 {
            self.energy_j / self.tokens_generated as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_safe_on_empty_report() {
        let r = ServingReport::default();
        assert_eq!(r.tokens_per_s(), 0.0);
        assert_eq!(r.energy_per_token_j(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let r = ServingReport {
            total_time_s: 2.0,
            energy_j: 50.0,
            tokens_generated: 100,
            ..ServingReport::default()
        };
        assert_eq!(r.tokens_per_s(), 50.0);
        assert_eq!(r.energy_per_token_j(), 0.5);
    }
}
