//! Command-line plumbing of the `attacc-bench` binary.
//!
//! `attacc-bench <experiment> [flags]` looks the experiment up in the
//! binary's name → [`Driver`] table and runs it. [`parse_args`] reads
//! the flags: `--serial` forces single-threaded sweeps, `--quiet`
//! suppresses the stats footer, `--budget <BENCH_*.json>` enforces a
//! wall-time budget, `--json` (for `all` only) dumps JSON, and
//! `--users N` (for `provision` only) sets the session count. A bad
//! command line is an error, never a silent default. A [`Driver::Tables`]
//! driver runs through [`run`] as a named phase on the sweep engine and
//! its tables go to stdout; after any experiment, the run report —
//! thread count, per-phase wall time, timing-cache hit rate — goes to
//! stderr ([`print_stats`]) and the budget is enforced
//! ([`enforce_budget`]).
//!
//! # Budget mode
//!
//! `--budget BENCH_cluster.json` compares this run's per-phase wall
//! times against the `phase_wall_s` entries recorded in the blessed
//! baseline file and exits non-zero when any phase runs more than
//! [`BUDGET_HEADROOM`] over its baseline (or a baselined phase did not
//! run at all). CI runs each `*_sim` experiment and `provision` this
//! way so a performance regression fails the build instead of rotting
//! silently.

use attacc_sim::engine::{self, TimingCache};
use attacc_sim::Table;

/// Multiplier over the blessed baseline a phase may reach before the
/// budget check fails: 25% headroom absorbs machine-to-machine and
/// run-to-run noise while still catching real regressions.
pub const BUDGET_HEADROOM: f64 = 1.25;

/// How an experiment produces its output.
#[derive(Debug, Clone, Copy)]
pub enum Driver {
    /// Returns tables that [`run`] times as a phase named after the
    /// experiment and prints.
    Tables(fn(&BenchArgs) -> Vec<Table>),
    /// Prints its own output.
    Custom(fn(&BenchArgs)),
}

/// One entry of the binary's experiment table: its name on the command
/// line and its driver.
pub type Experiment = (&'static str, Driver);

/// A parsed command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchArgs {
    /// `--serial`: pin the sweep engine to one thread (equivalent to
    /// `ATTACC_THREADS=1`).
    pub serial: bool,
    /// `--quiet`: suppress the stderr stats footer.
    pub quiet: bool,
    /// `--budget <path>`: blessed `BENCH_*.json` to enforce wall-time
    /// budgets against.
    pub budget: Option<String>,
    /// `--json` (`all` only): print the tables as one JSON array.
    pub json: bool,
    /// `--users N` (`provision` only): sessions to provision for.
    pub users: Option<u64>,
}

/// The usage line, listing every experiment name.
#[must_use]
pub fn usage(experiments: &[Experiment]) -> String {
    let names: Vec<&str> = experiments.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: attacc-bench <experiment> [--serial] [--quiet] [--budget BENCH_*.json] \
         [--json (all)] [--users N (provision)]\nexperiments: {}",
        names.join(" ")
    )
}

/// Parses `argv` (without the program name): the experiment name, then
/// its flags. Rejects an unknown experiment, an unknown flag, a flag the
/// experiment does not read, and a missing or malformed flag value.
pub fn parse_args(
    argv: &[String],
    experiments: &[Experiment],
) -> Result<(Experiment, BenchArgs), String> {
    let (name, flags) = argv.split_first().ok_or("no experiment given")?;
    let experiment = *experiments
        .iter()
        .find(|(n, _)| *n == name.as_str())
        .ok_or_else(|| format!("unknown experiment {name:?}"))?;
    let name = experiment.0;
    let mut args = BenchArgs::default();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--serial" => args.serial = true,
            "--quiet" => args.quiet = true,
            "--budget" => args.budget = Some(value()?.clone()),
            "--json" if name == "all" => args.json = true,
            "--users" if name == "provision" => {
                let users = value()?.parse().ok().filter(|&n: &u64| n > 0);
                args.users = Some(users.ok_or("--users takes a positive integer")?);
            }
            other => return Err(format!("{name} does not take {other:?}")),
        }
    }
    Ok((experiment, args))
}

/// Prints the engine run report (threads, per-phase wall time, cache
/// stats) to stderr.
pub fn print_stats() {
    let stats = TimingCache::global().stats();
    eprintln!(
        "[attacc] threads={} cache: {} hits / {} misses (hit rate {:.1}%), {} entries",
        engine::configured_threads(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        TimingCache::global().len(),
    );
    for (phase, seconds) in engine::phase_report() {
        eprintln!("[attacc]   phase {phase:<24} {seconds:>9.3}s");
    }
}

/// Extracts the `"phase_wall_s"` object of a blessed `BENCH_*.json`
/// as `(phase, seconds)` pairs, hand-rolled so the bench crate needs
/// no JSON dependency. Returns an error when the key or its object is
/// missing or a value fails to parse — a malformed baseline must fail
/// the budget check, not pass it.
pub fn parse_phase_wall_s(json: &str) -> Result<Vec<(String, f64)>, String> {
    let start = json
        .find("\"phase_wall_s\"")
        .ok_or_else(|| "no \"phase_wall_s\" key".to_string())?;
    let rest = &json[start + "\"phase_wall_s\"".len()..];
    let obj_start = rest.find('{').ok_or_else(|| "no object after \"phase_wall_s\"".to_string())?;
    let obj_end = rest[obj_start..]
        .find('}')
        .ok_or_else(|| "unterminated \"phase_wall_s\" object".to_string())?;
    let body = &rest[obj_start + 1..obj_start + obj_end];

    let mut out = Vec::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed phase_wall_s entry {entry:?}"))?;
        let key = key.trim().trim_matches('"');
        let seconds: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("non-numeric wall time for phase {key:?}: {value:?}"))?;
        out.push((key.to_string(), seconds));
    }
    if out.is_empty() {
        return Err("empty \"phase_wall_s\" object".to_string());
    }
    Ok(out)
}

/// Checks measured phase wall times against a blessed baseline: every
/// baselined phase must have run and finished within `headroom` times
/// its baseline. Returns one human-readable message per violation
/// (empty = within budget).
#[must_use]
pub fn budget_violations(
    measured: &[(String, f64)],
    baseline: &[(String, f64)],
    headroom: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (phase, base_s) in baseline {
        let limit = base_s * headroom;
        match measured.iter().find(|(p, _)| p == phase) {
            None => violations.push(format!("phase {phase} in budget baseline but never ran")),
            Some((_, got_s)) if *got_s > limit => violations.push(format!(
                "phase {phase} took {got_s:.3}s, over budget (baseline {base_s:.3}s, limit {limit:.3}s)"
            )),
            Some(_) => {}
        }
    }
    violations
}

/// Enforces the `--budget` baseline at `path` against this process's
/// phase report, printing a verdict per phase. Exits non-zero on any
/// violation or unreadable/malformed baseline.
pub fn enforce_budget(path: &str) {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("[attacc] budget: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let baseline = parse_phase_wall_s(&json).unwrap_or_else(|e| {
        eprintln!("[attacc] budget: {path}: {e}");
        std::process::exit(2);
    });
    let measured = engine::phase_report();
    for (phase, base_s) in &baseline {
        if let Some((_, got_s)) = measured.iter().find(|(p, _)| p == phase) {
            eprintln!(
                "[attacc] budget {phase}: {got_s:.3}s vs baseline {base_s:.3}s (limit {:.3}s)",
                base_s * BUDGET_HEADROOM,
            );
        }
    }
    let violations = budget_violations(&measured, &baseline, BUDGET_HEADROOM);
    if violations.is_empty() {
        eprintln!("[attacc] budget: OK ({path})");
    } else {
        for v in &violations {
            eprintln!("[attacc] budget: FAIL: {v}");
        }
        std::process::exit(1);
    }
}

/// Renders tables the way every experiment prints them: each table
/// followed by one blank line.
#[must_use]
pub fn render(tables: &[Table]) -> String {
    tables.iter().map(|t| format!("{t}\n")).collect()
}

/// Runs a [`Driver::Tables`] driver as phase `name` and prints its
/// tables.
pub fn run(name: &str, driver: impl FnOnce() -> Vec<Table>) {
    print!("{}", render(&engine::time_phase(name, driver)));
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPERIMENTS: &[Experiment] = &[
        ("fig13", Driver::Custom(|_| {})),
        ("all", Driver::Custom(|_| {})),
        ("provision", Driver::Custom(|_| {})),
    ];

    fn parse(command_line: &str) -> Result<BenchArgs, String> {
        let argv: Vec<String> = command_line.split_whitespace().map(String::from).collect();
        parse_args(&argv, EXPERIMENTS).map(|(_, args)| args)
    }

    #[test]
    fn parses_shared_and_experiment_flags() {
        let args = parse("fig13 --serial --quiet --budget BENCH_x.json").unwrap();
        assert!(args.serial && args.quiet && args.budget.as_deref() == Some("BENCH_x.json"));
        assert!(parse("all --json").unwrap().json);
        assert_eq!(parse("provision --users 96").unwrap().users, Some(96));
        assert_eq!(parse("provision").unwrap(), BenchArgs::default());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for line in [
            "",
            "fig99",
            "--serial fig13",
            "fig13 --seriall",
            "fig13 extra",
            "fig13 --json",
            "fig13 --users 4",
            "all --users 4",
            "provision --json",
            "fig13 --budget",
            "provision --users",
            "provision --users abc",
            "provision --users 0",
        ] {
            assert!(parse(line).is_err(), "{line:?} parsed");
        }
    }

    #[test]
    fn usage_lists_every_experiment() {
        assert!(usage(EXPERIMENTS).ends_with("experiments: fig13 all provision"));
    }

    #[test]
    fn parses_phase_wall_s_from_a_blessed_bench_file() {
        let json = r#"{
          "bench": "cluster_sim",
          "harness_footer": {
            "threads": 1,
            "phase_wall_s": {
              "cluster_sim": 0.160,
              "chaos_sim": 0.343
            }
          }
        }"#;
        assert_eq!(
            parse_phase_wall_s(json).unwrap(),
            vec![("cluster_sim".to_string(), 0.160), ("chaos_sim".to_string(), 0.343)],
        );
    }

    #[test]
    fn rejects_missing_key_and_bad_values() {
        assert!(parse_phase_wall_s("{}").is_err());
        assert!(parse_phase_wall_s(r#"{"phase_wall_s": {}}"#).is_err());
        assert!(parse_phase_wall_s(r#"{"phase_wall_s": {"x": "fast"}}"#).is_err());
    }

    #[test]
    fn flags_regressions_over_headroom_only() {
        let baseline = vec![("a".to_string(), 0.100), ("b".to_string(), 0.100)];
        let measured = vec![("a".to_string(), 0.124), ("b".to_string(), 0.126)];
        let violations = budget_violations(&measured, &baseline, 1.25);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("phase b"), "{violations:?}");
    }

    #[test]
    fn flags_baselined_phase_that_never_ran() {
        let baseline = vec![("a".to_string(), 0.100)];
        let violations = budget_violations(&[], &baseline, 1.25);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("never ran"), "{violations:?}");
    }
}
