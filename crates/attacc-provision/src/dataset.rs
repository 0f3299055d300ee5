//! Dataset generation: exact cell simulations → surrogate training rows.

use crate::cost::CostBook;
use crate::fleet::{simulate_cell, CellResult, FleetSpec, TrafficSpec};
use attacc_cluster::SloSpec;
use attacc_model::ModelConfig;
use attacc_sim::SweepRunner;

/// Feature names, in row order: the five variant counts, the traffic
/// shape, then the derived aggregate-fleet features — the derived block
/// is what lets a small training set generalize across mixes, because
/// distinct compositions with the same aggregate throughput/capacity
/// land near each other in feature space.
pub const FEATURE_NAMES: [&str; 14] = [
    "n_dgx_base",
    "n_attacc_buf",
    "n_attacc_bg",
    "n_attacc_bank",
    "n_dgx_cpu",
    "rate_per_s",
    "users",
    "l_in",
    "l_out_mean",
    "fleet_tokens_per_s",
    "fleet_kv_bytes",
    "fleet_capex_usd",
    "fleet_idle_w",
    "load_ratio",
];

/// Index of the offered-load feature — monotone-constrained `+1` in the
/// p99.9 surrogate (more load never improves the tail).
pub const RATE_FEATURE: usize = 5;

/// Index of the derived load/capacity ratio — also `+1`-constrained in
/// the tail surrogate.
pub const LOAD_RATIO_FEATURE: usize = 13;

/// Precomputed per-variant unit stats for feature derivation: decode
/// throughput is probed through the memoised executor, capacity and
/// dollars come from the model and the [`CostBook`].
#[derive(Debug, Clone)]
pub struct FeatureContext {
    model: ModelConfig,
    book: CostBook,
}

impl FeatureContext {
    /// A context for `model` billed by `book`.
    #[must_use]
    pub fn new(model: ModelConfig, book: CostBook) -> FeatureContext {
        FeatureContext { model, book }
    }

    /// The feature row of one `(fleet mix, traffic)` cell.
    #[must_use]
    pub fn features(&self, spec: &FleetSpec, traffic: &TrafficSpec) -> Vec<f64> {
        self.features_of(std::slice::from_ref(spec), traffic).pop().expect("one row per spec")
    }

    /// The feature rows of every mix in `specs` under one `traffic`. Each
    /// variant's unit stats (decode weight, KV capacity, CapEx, idle
    /// watts) depend only on the variant and the traffic, so each is
    /// probed once, on first use, and every row folds `count · unit` in
    /// variant order.
    pub(crate) fn features_of(&self, specs: &[FleetSpec], traffic: &TrafficSpec) -> Vec<Vec<f64>> {
        use crate::fleet::CELL_MAX_BATCH;
        use crate::variant::NodeVariant;
        let l_out_mean = (traffic.l_out.0 + traffic.l_out.1) as f64 / 2.0;
        let l_ctx = traffic.probe_context();
        let mut units: [Option<[f64; 4]>; 5] = [None; 5];
        let mut unit = |i: usize| {
            *units[i].get_or_insert_with(|| {
                let v = NodeVariant::ALL[i];
                let nc = self.book.node(v);
                [
                    v.decode_weight(&self.model, CELL_MAX_BATCH, l_ctx),
                    v.system().kv_capacity_bytes(&self.model) as f64,
                    nc.capex_usd,
                    nc.idle_w,
                ]
            })
        };
        specs
            .iter()
            .map(|spec| {
                let mut thr = 0.0;
                let mut kv = 0.0;
                let mut capex = 0.0;
                let mut idle = 0.0;
                for (i, &c) in spec.counts.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let [w, cap, usd, watts] = unit(i);
                    let n = c as f64;
                    thr += n * w;
                    kv += n * cap;
                    capex += n * usd;
                    idle += n * watts;
                }
                let mut x = Vec::with_capacity(FEATURE_NAMES.len());
                x.extend(spec.counts.iter().map(|&c| c as f64));
                x.push(traffic.rate_per_s);
                x.push(traffic.users as f64);
                x.push(traffic.l_in as f64);
                x.push(l_out_mean);
                x.push(thr);
                x.push(kv);
                x.push(capex);
                x.push(idle);
                x.push(if thr > 0.0 {
                    traffic.rate_per_s * l_out_mean / thr
                } else {
                    f64::INFINITY
                });
                x
            })
            .collect()
    }
}

/// The monotone-constraint vector for the tail (p99.9) surrogate: `+1`
/// on offered load and on the load/capacity ratio.
#[must_use]
pub fn tail_monotone() -> Vec<i8> {
    let mut m = vec![0i8; FEATURE_NAMES.len()];
    m[RATE_FEATURE] = 1;
    m[LOAD_RATIO_FEATURE] = 1;
    m
}

/// A labelled provisioning dataset: features plus the three surrogate
/// targets, row-aligned with the exact results that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature rows ([`FEATURE_NAMES`] order).
    pub xs: Vec<Vec<f64>>,
    /// Goodput target: SLO-attaining output tokens/s.
    pub goodput: Vec<f64>,
    /// Tail target: TTFT p99.9 (s).
    pub p999: Vec<f64>,
    /// Cost target: USD per million output tokens.
    pub usd_per_mtok: Vec<f64>,
    /// The exact per-cell results, row-aligned.
    pub results: Vec<CellResult>,
}

/// Sweeps `(fleet mix, traffic)` cells through the parallel
/// [`SweepRunner`] and collects the labelled dataset. Results merge by
/// cell index, so the dataset is byte-identical at any thread count.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    model: ModelConfig,
    slo: SloSpec,
    book: CostBook,
    cells: Vec<(FleetSpec, TrafficSpec)>,
}

impl DatasetBuilder {
    /// A builder for `model` under `slo`, billing with `book`.
    #[must_use]
    pub fn new(model: ModelConfig, slo: SloSpec, book: CostBook) -> DatasetBuilder {
        DatasetBuilder {
            model,
            slo,
            book,
            cells: Vec::new(),
        }
    }

    /// Queues one cell.
    pub fn cell(&mut self, spec: FleetSpec, traffic: TrafficSpec) -> &mut DatasetBuilder {
        self.cells.push((spec, traffic));
        self
    }

    /// Queues the cross product of `specs` × `traffics`.
    pub fn grid(&mut self, specs: &[FleetSpec], traffics: &[TrafficSpec]) -> &mut DatasetBuilder {
        for t in traffics {
            for s in specs {
                self.cells.push((*s, *t));
            }
        }
        self
    }

    /// Number of queued cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Simulates every queued cell exactly (in parallel) and assembles
    /// the dataset.
    #[must_use]
    pub fn build(&self) -> Dataset {
        let results = SweepRunner::from_env().map(&self.cells, |(spec, traffic)| {
            simulate_cell(&self.model, spec, traffic, self.slo, &self.book)
        });
        let ctx = FeatureContext::new(self.model.clone(), self.book.clone());
        let mut xs = Vec::with_capacity(results.len());
        for run in self.cells.chunk_by(|a, b| a.1 == b.1) {
            let specs: Vec<FleetSpec> = run.iter().map(|(spec, _)| *spec).collect();
            xs.extend(ctx.features_of(&specs, &run[0].1));
        }
        let mut goodput = Vec::with_capacity(results.len());
        let mut p999 = Vec::with_capacity(results.len());
        let mut usd = Vec::with_capacity(results.len());
        for r in &results {
            goodput.push(r.report.cluster.goodput.goodput_tokens_per_s);
            p999.push(r.report.cluster.ttft.p999_s);
            usd.push(r.cost.usd_per_mtok);
        }
        Dataset {
            xs,
            goodput,
            p999,
            usd_per_mtok: usd,
            results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::NodeVariant;

    #[test]
    fn feature_rows_align_with_names() {
        let spec = FleetSpec::homogeneous(NodeVariant::AttAccBank, 3);
        let t = TrafficSpec {
            users: 10,
            rate_per_s: 2.5,
            l_in: 64,
            l_out: (8, 24),
            seed: 1,
        };
        let ctx = FeatureContext::new(ModelConfig::gpt3_175b(), CostBook::paper_defaults());
        let x = ctx.features(&spec, &t);
        assert_eq!(x.len(), FEATURE_NAMES.len());
        assert_eq!(x[NodeVariant::AttAccBank.index()], 3.0);
        assert_eq!(x[RATE_FEATURE], 2.5);
        assert_eq!(x[8], 16.0);
        // Derived block: 3 identical nodes → aggregates scale by 3.
        let one = ctx.features(&FleetSpec::homogeneous(NodeVariant::AttAccBank, 1), &t);
        assert!((x[9] - 3.0 * one[9]).abs() < 1e-9, "throughput sums per node");
        assert!((x[10] - 3.0 * one[10]).abs() < 1e-6, "kv capacity sums per node");
        // Load ratio falls as the fleet grows.
        assert!(x[LOAD_RATIO_FEATURE] < one[LOAD_RATIO_FEATURE]);
    }
}
