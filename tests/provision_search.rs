//! Acceptance contract of the surrogate-pruned provisioning search
//! (ISSUE 9): on the golden grid the pruned search must return the same
//! optimum as exhaustive exact search — byte-for-byte, at 1, 2 and 8
//! sweep threads — while never exactly simulating more than 10% of the
//! grid, and every shortlisted pick must carry a genuinely exact
//! re-simulation next to the surrogate's own reported error.

use attacc::provision::{
    exhaustive_search, simulate_cell, CostBook, SearchOutcome, TrafficSpec,
};
use attacc_bench::{provision_specs, provision_traffic, PROVISION_USERS};
use attacc_cluster::SloSpec;
use attacc_model::ModelConfig;
use attacc_sim::engine;
use std::sync::{Mutex, PoisonError};

/// Serializes tests that mutate the process-wide thread override. A test
/// that panics while holding it does not fail the ones after it: they
/// take the lock past the poison, and each sets the thread count it runs
/// at.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

fn golden_outcome() -> SearchOutcome {
    attacc_bench::provision_outcome(PROVISION_USERS)
}

fn golden_traffic() -> TrafficSpec {
    provision_traffic(PROVISION_USERS)
}

#[test]
fn pruned_search_matches_exhaustive_on_golden_grid() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(1);
    let outcome = golden_outcome();
    let truth = exhaustive_search(
        &ModelConfig::gpt3_175b(),
        &provision_specs(),
        &golden_traffic(),
        SloSpec::chatbot(),
        &CostBook::paper_defaults(),
    );
    engine::set_threads(0); // restore env-resolved default

    let (best_idx, best) = outcome.best.as_ref().expect("search found a feasible fleet");
    let (truth_idx, truth_cell) = truth.as_ref().expect("exhaustive found a feasible fleet");
    assert_eq!(best_idx, truth_idx, "pruned search picked a different grid cell");
    assert_eq!(
        best, truth_cell,
        "pruned search's exact bill differs from the exhaustive one"
    );
    // The search may only have *skipped* cells, never approximated one:
    // the optimum's exact cost is bitwise what the ground truth computed.
    assert_eq!(
        best.cost.usd_per_mtok.to_bits(),
        truth_cell.cost.usd_per_mtok.to_bits()
    );
}

#[test]
fn search_prunes_at_least_ninety_percent_of_the_grid() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(0);
    let outcome = golden_outcome();
    assert!(
        outcome.pruned_frac >= 0.90,
        "only pruned {:.1}% of the {}-cell grid",
        outcome.pruned_frac * 100.0,
        outcome.grid_size
    );
    let exact_sims = outcome.trained + outcome.verified;
    assert_eq!(
        outcome.pruned_frac,
        1.0 - exact_sims as f64 / outcome.grid_size as f64,
        "pruned_frac must account for every exact simulation"
    );
}

#[test]
fn search_outcome_is_byte_identical_across_thread_counts() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(1);
    let serial = golden_outcome();
    for threads in [2, 8] {
        engine::set_threads(threads);
        let parallel = golden_outcome();
        assert_eq!(
            serial, parallel,
            "search outcome changed between 1 and {threads} threads"
        );
    }
    engine::set_threads(0); // restore env-resolved default
}

#[test]
fn shortlist_picks_are_exactly_reverified_and_error_is_reported() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(0);
    let outcome = golden_outcome();
    assert!(!outcome.picks.is_empty(), "search verified no candidates");
    assert_eq!(outcome.verified, outcome.picks.len());

    // Each pick's "exact" field really is the exact simulation: rerun
    // the cell from scratch and demand the identical result.
    let model = ModelConfig::gpt3_175b();
    let specs = provision_specs();
    let traffic = golden_traffic();
    let book = CostBook::paper_defaults();
    for p in outcome.picks.iter().take(3) {
        let fresh = simulate_cell(&model, &specs[p.grid_index], &traffic, SloSpec::chatbot(), &book);
        assert_eq!(
            fresh, p.exact,
            "pick at grid index {} is not an exact re-simulation",
            p.grid_index
        );
    }

    // The reported surrogate error is consistent and within the pinned
    // envelope for the golden grid (MAE ≈ 0.7 $/Mtok as of this pin).
    assert!(outcome.surrogate_mae_usd_per_mtok.is_finite());
    assert!(outcome.surrogate_max_err_usd_per_mtok >= outcome.surrogate_mae_usd_per_mtok);
    assert!(
        outcome.surrogate_mae_usd_per_mtok <= 2.0,
        "surrogate MAE {} $/Mtok exceeds the pinned 2.0 envelope",
        outcome.surrogate_mae_usd_per_mtok
    );
}
