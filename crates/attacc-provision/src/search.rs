//! Surrogate-pruned cheapest-fleet search with exact re-verification.
//!
//! The search answers "cheapest fleet for N users at SLO X": it
//! enumerates a fleet-mix grid, exactly simulates a coarse training
//! stride of it, fits the surrogate, asks the surrogate to rank the
//! rest, and re-simulates only the surrogate's shortlist exactly. The
//! returned optimum therefore always carries an *exact* bill — the
//! surrogate only decides what not to look at — and the outcome reports
//! the surrogate's own error over the verified shortlist, so a drifting
//! model is visible in the table it produced.

use crate::cost::CostBook;
use crate::dataset::{tail_monotone, DatasetBuilder, FeatureContext};
use crate::fleet::{CellResult, FleetSpec, TrafficSpec};
use crate::surrogate::{Gbt, GbtParams};
use attacc_cluster::SloSpec;
use attacc_model::ModelConfig;
use std::collections::BTreeMap;

/// Enumerates every fleet mix with per-variant counts bounded by
/// `max_per_variant` and total size in `[1, max_total]`, in
/// deterministic lexicographic order.
#[must_use]
pub fn enumerate_specs(max_per_variant: [usize; 5], max_total: usize) -> Vec<FleetSpec> {
    let mut out = Vec::new();
    let mut counts = [0usize; 5];
    loop {
        let total: usize = counts.iter().sum();
        if total >= 1 && total <= max_total {
            out.push(FleetSpec { counts });
        }
        // Odometer increment.
        let mut i = 5;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if counts[i] < max_per_variant[i] {
                counts[i] += 1;
                break;
            }
            counts[i] = 0;
        }
    }
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Exactly simulate every `train_stride`-th grid cell for surrogate
    /// training (≥ 2).
    pub train_stride: usize,
    /// Fraction of the grid the surrogate may shortlist for exact
    /// re-verification.
    pub verify_frac: f64,
    /// Active-learning rounds: the verification budget is split across
    /// this many refit-rank-verify passes, so a cell the surrogate
    /// mispriced in round 1 corrects the ranking of round 2. Zero rounds
    /// make a train-only search: nothing is verified, `picks` is empty
    /// and `best` is the cheapest feasible training cell.
    pub rounds: usize,
    /// Also train on every *homogeneous* grid cell (single-variant
    /// fleets). These corners anchor each variant's marginal cost and
    /// capacity, which a thin lattice stride cannot see — the
    /// design-of-experiments "axial points".
    pub seed_corners: bool,
    /// Surrogate hyperparameters; the p99.9 model additionally gets a
    /// `+1` monotone constraint on the offered-load feature.
    pub gbt: GbtParams,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            train_stride: 40,
            verify_frac: 0.03,
            rounds: 3,
            seed_corners: true,
            gbt: GbtParams::default(),
        }
    }
}

/// One shortlisted candidate: predicted vs exact.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedPick {
    /// Grid index of the candidate.
    pub grid_index: usize,
    /// Surrogate-predicted $/Mtok.
    pub predicted_usd_per_mtok: f64,
    /// Surrogate-predicted TTFT p99.9 (s).
    pub predicted_p999_s: f64,
    /// The exact simulation of the candidate.
    pub exact: CellResult,
}

/// Outcome of one provisioning search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Grid size before pruning.
    pub grid_size: usize,
    /// Cells exactly simulated for training.
    pub trained: usize,
    /// Cells exactly simulated for verification (excluding re-used
    /// training cells).
    pub verified: usize,
    /// Fraction of the grid never exactly simulated.
    pub pruned_frac: f64,
    /// The cheapest *feasible* exactly-simulated cell, with its grid
    /// index; `None` when nothing simulated met the SLO.
    pub best: Option<(usize, CellResult)>,
    /// Mean |predicted − exact| $/Mtok over the verified shortlist.
    pub surrogate_mae_usd_per_mtok: f64,
    /// Max |predicted − exact| $/Mtok over the verified shortlist.
    pub surrogate_max_err_usd_per_mtok: f64,
    /// The verified shortlist, cheapest-exact first.
    pub picks: Vec<VerifiedPick>,
}

/// Runs the surrogate-pruned search over `specs` for one traffic point.
///
/// Deterministic: training cells are a fixed stride of the grid, the
/// surrogate is serial, ranking ties break by grid index, and all
/// parallel sweeps merge by index — so the outcome is byte-identical at
/// any thread count.
///
/// # Panics
/// Panics when `specs` is empty or `cfg.train_stride < 2`.
#[must_use]
pub fn run_search(
    model: &ModelConfig,
    specs: &[FleetSpec],
    traffic: &TrafficSpec,
    slo: SloSpec,
    book: &CostBook,
    cfg: &SearchConfig,
) -> SearchOutcome {
    assert!(!specs.is_empty(), "search needs a non-empty grid");
    assert!(cfg.train_stride >= 2, "stride 1 would be exhaustive");

    // 1. Exact training set: lattice stride plus (optionally) the
    // homogeneous corners.
    let mut train_idx: Vec<usize> = (0..specs.len()).step_by(cfg.train_stride).collect();
    if cfg.seed_corners {
        train_idx.extend(
            specs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.counts.iter().filter(|&&c| c > 0).count() == 1)
                .map(|(i, _)| i),
        );
        train_idx.sort_unstable();
        train_idx.dedup();
    }
    let mut builder = DatasetBuilder::new(model.clone(), slo, book.clone());
    for &i in &train_idx {
        builder.cell(specs[i], *traffic);
    }
    let train = builder.build();
    let mut exact_by_index: BTreeMap<usize, CellResult> = train_idx
        .iter()
        .zip(train.results.iter())
        .map(|(&i, r)| (i, r.clone()))
        .collect();

    // 2. Active-learning verification rounds. Each round refits the
    // surrogates on *everything* exactly simulated so far — including
    // the previous round's shortlist, so a cell the surrogate mispriced
    // corrects the next round's ranking — then spends a slice of the
    // verification budget on the best-ranked unsimulated cells.
    let k = ((specs.len() as f64 * cfg.verify_frac).ceil() as usize).max(cfg.rounds);
    // Zero rounds: the loop below never runs (a train-only search).
    let per_round = k.div_ceil(cfg.rounds.max(1));
    let ctx = FeatureContext::new(model.clone(), book.clone());
    let grid_xs = ctx.features_of(specs, traffic);
    let tail_params = GbtParams {
        monotone: tail_monotone(),
        ..cfg.gbt.clone()
    };
    let mut picks: Vec<VerifiedPick> = Vec::with_capacity(k);
    let mut verified = 0usize;
    for round in 0..cfg.rounds {
        let budget = per_round.min(k - round * per_round);
        if budget == 0 {
            break;
        }
        // Refit on the current exact set.
        #[allow(clippy::type_complexity)]
        let (xs, (cost_y, tail_y)): (Vec<Vec<f64>>, (Vec<f64>, Vec<f64>)) = exact_by_index
            .iter()
            .map(|(&i, r)| {
                (
                    grid_xs[i].clone(),
                    (r.cost.usd_per_mtok, r.report.cluster.ttft.p999_s),
                )
            })
            .unzip();
        let cost_model = Gbt::fit(&xs, &cost_y, &cfg.gbt);
        let tail_model = Gbt::fit(&xs, &tail_y, &tail_params);

        // Rank every unsimulated cell: predicted-feasible first, then
        // predicted cost, ties by grid index. Tail predictions clamp at
        // zero — negative seconds are extrapolation artifacts.
        let predictions: Vec<(f64, f64)> = grid_xs
            .iter()
            .map(|x| (cost_model.predict(x), tail_model.predict(x).max(0.0)))
            .collect();
        let mut order: Vec<usize> = (0..specs.len())
            .filter(|i| !exact_by_index.contains_key(i))
            .collect();
        order.sort_by(|&a, &b| {
            let feas_a = predictions[a].1 <= slo.ttft_s;
            let feas_b = predictions[b].1 <= slo.ttft_s;
            feas_b
                .cmp(&feas_a)
                .then(predictions[a].0.total_cmp(&predictions[b].0))
                .then(a.cmp(&b))
        });
        let shortlist: Vec<usize> = order.into_iter().take(budget).collect();
        if shortlist.is_empty() {
            break;
        }
        let mut verifier = DatasetBuilder::new(model.clone(), slo, book.clone());
        for &i in &shortlist {
            verifier.cell(specs[i], *traffic);
        }
        let results = verifier.build();
        for (&i, r) in shortlist.iter().zip(results.results.iter()) {
            exact_by_index.insert(i, r.clone());
            picks.push(VerifiedPick {
                grid_index: i,
                predicted_usd_per_mtok: predictions[i].0,
                predicted_p999_s: predictions[i].1,
                exact: r.clone(),
            });
            verified += 1;
        }
    }
    picks.sort_by(|a, b| {
        a.exact
            .cost
            .usd_per_mtok
            .total_cmp(&b.exact.cost.usd_per_mtok)
            .then(a.grid_index.cmp(&b.grid_index))
    });
    let errs: Vec<f64> = picks
        .iter()
        .filter(|p| p.exact.cost.usd_per_mtok.is_finite())
        .map(|p| (p.predicted_usd_per_mtok - p.exact.cost.usd_per_mtok).abs())
        .collect();
    let mae = if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    let max_err = errs.iter().fold(0.0f64, |a, &b| a.max(b));

    // 3. Surrogate error over the verified shortlist.
    let best = exact_by_index
        .iter()
        .filter(|(_, r)| r.feasible)
        .min_by(|(ia, a), (ib, b)| {
            a.cost
                .usd_per_mtok
                .total_cmp(&b.cost.usd_per_mtok)
                .then(ia.cmp(ib))
        })
        .map(|(&i, r)| (i, r.clone()));

    let exact_sims = exact_by_index.len();
    SearchOutcome {
        grid_size: specs.len(),
        trained: train_idx.len(),
        verified,
        pruned_frac: 1.0 - exact_sims as f64 / specs.len() as f64,
        best,
        surrogate_mae_usd_per_mtok: mae,
        surrogate_max_err_usd_per_mtok: max_err,
        picks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_enumeration_is_lexicographic_and_bounded() {
        let specs = enumerate_specs([1, 0, 0, 1, 1], 2);
        // Odometer order over (dgx, bank, cpu) ∈ {0,1}³ minus the empty
        // and the >2-total combos.
        assert!(specs.iter().all(|s| (1..=2).contains(&s.total_nodes())));
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].counts, [0, 0, 0, 0, 1]);
        assert_eq!(specs[1].counts, [0, 0, 0, 1, 0]);
        let mut sorted = specs.clone();
        sorted.sort_by_key(|s| s.counts);
        assert_eq!(specs, sorted, "enumeration order is lexicographic");
    }

    #[test]
    fn zero_rounds_make_a_train_only_search() {
        let model = ModelConfig::gpt3_175b();
        let specs = enumerate_specs([2, 0, 0, 2, 0], 4);
        let traffic = TrafficSpec {
            users: 16,
            rate_per_s: 4.0,
            l_in: 128,
            l_out: (16, 32),
            seed: 3,
        };
        let (slo, book) = (SloSpec::chatbot(), CostBook::paper_defaults());
        let cfg = SearchConfig {
            train_stride: 3,
            rounds: 0,
            ..SearchConfig::default()
        };
        let o = run_search(&model, &specs, &traffic, slo, &book, &cfg);
        // The training set: the stride plus the homogeneous corners.
        let trained: Vec<usize> = (0..specs.len())
            .filter(|&i| i % 3 == 0 || specs[i].counts.iter().filter(|&&c| c > 0).count() == 1)
            .collect();
        assert!(trained.len() < specs.len(), "some cells stay untrained");
        assert_eq!((o.trained, o.verified), (trained.len(), 0));
        assert!(o.picks.is_empty());
        // `best` is the cheapest feasible training cell.
        let want = trained
            .into_iter()
            .map(|i| (i, crate::fleet::simulate_cell(&model, &specs[i], &traffic, slo, &book)))
            .filter(|(_, r)| r.feasible)
            .min_by(|(ia, a), (ib, b)| {
                a.cost.usd_per_mtok.total_cmp(&b.cost.usd_per_mtok).then(ia.cmp(ib))
            });
        assert!(want.is_some(), "some training cell meets the SLO");
        assert_eq!(o.best, want);
    }

    #[test]
    fn enumeration_respects_per_variant_caps() {
        let specs = enumerate_specs([2, 1, 1, 2, 1], 3);
        for s in &specs {
            for (i, &c) in s.counts.iter().enumerate() {
                assert!(c <= [2, 1, 1, 2, 1][i]);
            }
        }
    }
}
