//! Golden-figure regression suite.
//!
//! `golden_all` renders the whole evaluation exactly as `attacc-bench
//! all` prints it and diffs it against `results_all_tables.txt`. The
//! scenario tests render the experiments that file does not hold, at
//! reduced sizes, and diff each against a checked-in snapshot under
//! `tests/golden/`. Any timing-model change that moves a published number
//! fails here with a line-level diff.
//!
//! To regenerate after an intentional model change:
//!
//! ```text
//! BLESS=1 cargo test --test golden_tables
//! ```

use attacc_bench::harness::render;
use attacc_sim::Table;
use std::path::PathBuf;

/// `file`, relative to the repository root.
fn repo_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(file)
}

fn blessing() -> bool {
    std::env::var("BLESS").is_ok_and(|v| v == "1")
}

/// Diffs `tables`, rendered as the experiments print them, against the
/// snapshot `file` (relative to the repository root), or rewrites the
/// snapshot when `BLESS=1` is set.
fn check(file: &str, tables: &[Table]) {
    let path = repo_path(file);
    let rendered = render(tables);
    if blessing() {
        std::fs::write(&path, &rendered).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             regenerate with `BLESS=1 cargo test --test golden_tables`",
            path.display()
        )
    });
    if rendered != expected {
        let diff: String = expected
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .filter(|(_, (e, r))| e != r)
            .take(10)
            .map(|(i, (e, r))| format!("  line {}:\n    golden: {e}\n    actual: {r}\n", i + 1))
            .collect();
        panic!(
            "output diverged from golden snapshot {} \
             (golden {} lines, actual {} lines):\n{diff}\
             if the change is intentional, re-bless with \
             `BLESS=1 cargo test --test golden_tables`",
            path.display(),
            expected.lines().count(),
            rendered.lines().count(),
        );
    }
}

#[test]
fn golden_all() {
    check("results_all_tables.txt", &attacc_bench::all_tables(attacc_bench::N_REQUESTS));
}

#[test]
fn golden_cluster() {
    // Smaller than the binary's CLUSTER_REQUESTS: the snapshot pins the
    // event loop, routing and percentile math, not steady-state numbers.
    check(
        "tests/golden/cluster.txt",
        &[
            attacc_bench::cluster_frontier(48),
            attacc_bench::cluster_load_shapes(48),
        ],
    );
}

#[test]
fn golden_chaos() {
    // Smaller than the binary's CHAOS_REQUESTS: the snapshot pins fault
    // injection, recovery dispatch and retry/hedge bookkeeping, not the
    // headline goodput numbers (tests/chaos_resilience.rs pins those).
    check(
        "tests/golden/chaos.txt",
        &[
            attacc_bench::chaos_goodput_frontier(48),
            attacc_bench::chaos_routing_matrix(48),
        ],
    );
}

#[test]
fn golden_chaos_fleet() {
    // Smaller than the binary's CHAOS_FLEET_REQUESTS: the snapshot pins
    // fleet-level fault injection, autoscaler-aware replacement, warm KV
    // re-shipping, degradation bookkeeping and the cost-book billing,
    // not the headline frontier numbers
    // (tests/chaos_fleet_resilience.rs pins those).
    check(
        "tests/golden/chaos_fleet.txt",
        &[
            attacc_bench::chaos_fleet_frontier(48),
            attacc_bench::chaos_fleet_redundancy(48),
        ],
    );
}

#[test]
fn golden_autoscale() {
    // Smaller than the binary's AUTOSCALE_SESSIONS but above the KV
    // stride-sampling threshold (1024): the snapshot pins pool routing,
    // scale decisions, cold-start accounting and node-second billing,
    // not the headline 10^5-session numbers.
    check("tests/golden/autoscale.txt", &[attacc_bench::autoscale_frontier(2048)]);
}

#[test]
fn golden_trace() {
    // Pins the graph-to-trace compiler (instruction counts, policy
    // maintenance) and the timing executor's attribution down to the
    // rendered digits, for the paper workloads and both new trace-only
    // workloads (sliding window, paged KV).
    check(
        "tests/golden/trace.txt",
        &[
            attacc_bench::trace_paper_table(),
            attacc_bench::trace_workloads_table(),
            attacc_bench::trace_opcode_table(),
        ],
    );
}

#[test]
fn golden_integrity() {
    // Smaller than the binary's INTEGRITY_REQUESTS: the snapshot pins
    // token-fate sampling, the analytic SDC/DUE ladder and the ECC
    // command-engine overheads (tests/data_integrity.rs pins the
    // zero-SDC acceptance contract).
    check(
        "tests/golden/integrity.txt",
        &[attacc_bench::integrity_frontier(48), attacc_bench::ecc_overhead_table()],
    );
}

#[test]
fn golden_provision() {
    // Pins the cost book (CapEx/wattage derivation from the power/area
    // tables) and the surrogate-pruned search end to end: training-set
    // choice, GBT splits, shortlist ranking and the exact re-verified
    // bills, down to the rendered digits.
    check(
        "tests/golden/provision.txt",
        &[
            attacc_bench::provision_cost_book_table(),
            attacc_bench::provision_frontier(attacc_bench::PROVISION_USERS),
        ],
    );
}
