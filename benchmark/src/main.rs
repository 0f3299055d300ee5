//! Host-time benchmark of the AttAcc simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//! ```
//!
//! Runs one workload (see `README.md`) on one thread: builds its inputs
//! from the seed, runs one untimed warm-up rep, then timed reps back to
//! back for `--seconds`, clearing the timing cache before each rep and
//! timing one more set-up before each. Every op's result is checked.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` follows each
//! plain rep with a traced one, then runs the kernel probes, and reports
//! the per-layer metrics. Metrics print as `workload metric value unit`
//! lines; the last line of stdout is one JSON object with the result.

mod probes;
mod stats;
mod tracing;
mod workloads;

use stats::{fnv1a, quartiles, ratio, result_json};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracing::{exec_sum, ExecCounters, ExecTotals, Span, Tracer};
use workloads::{Counts, Cx, OpOut, Workload};

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]";

/// Set-up samples per run at least; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;
/// A set-up sample repeats the set-up until it has run this long. A
/// microsecond set-up timed over 7–10 ms windows reads bimodal (±30 %,
/// alternating from window to window on a shared host); 50 ms windows
/// average that out.
const SETUP_SAMPLE_MIN_S: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    attacc_sim::engine::set_threads(1);
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// On-CPU seconds of the calling thread, from the scheduler's own
/// accounting. Time the shared machine hands to other processes does not
/// count.
fn cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("reading /proc/thread-self/schedstat: {e}"))?;
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("malformed /proc/thread-self/schedstat")?;
    Ok(ns as f64 * 1e-9)
}

/// [`cpu_s`] once its source is known to be readable.
fn host_s() -> f64 {
    cpu_s().expect("checked readable at start-up")
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Times set-ups of one workload. Samples are taken between reps, so
/// they spread over the run like the reps do.
struct SetupSampler<'a> {
    name: &'a str,
    seed: u64,
    setup_s: Vec<f64>,
    arrivals_s: Vec<f64>,
}

impl SetupSampler<'_> {
    /// Builds the workload until [`SETUP_SAMPLE_MIN_S`] has passed,
    /// records the mean host time per build, and returns the last build.
    fn sample(&mut self) -> Box<dyn Workload> {
        // The loop polls the cheap wall clock; reading the CPU clock costs
        // microseconds, as much as the smallest set-up.
        let wall = Instant::now();
        let start = host_s();
        let mut builds = 0u32;
        let mut arrivals = 0.0;
        loop {
            let w = workloads::setup(self.name, self.seed).expect("workload names are validated");
            builds += 1;
            arrivals += w.arrivals_gen_s();
            if wall.elapsed().as_secs_f64() >= SETUP_SAMPLE_MIN_S {
                self.setup_s.push((host_s() - start) / f64::from(builds));
                self.arrivals_s.push(arrivals / f64::from(builds));
                return w;
            }
        }
    }
}

/// Runs reps of one workload and keeps the op accounting.
struct Runner<'w> {
    name: &'w str,
    w: &'w dyn Workload,
    /// Op digests of the warm-up rep; later reps must repeat them.
    digests: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

/// One rep's outcome.
struct Rep {
    host_s: f64,
    items: u64,
    outs: Vec<OpOut>,
}

impl Runner<'_> {
    /// Runs every op once. The warm-up rep records the digests and
    /// returns the digest of all op texts; later reps check each op's.
    fn rep(
        &mut self,
        mut tracer: Option<&mut Tracer>,
        rep: usize,
        counters: &ExecCounters,
        warmup: bool,
    ) -> (Rep, u64) {
        attacc_sim::TimingCache::global().clear();
        let mut outs = Vec::with_capacity(self.w.ops());
        let mut all_text = String::new();
        let start = host_s();
        let rep_span = tracer.as_deref_mut().map(|t| t.begin_rep(rep));
        for op in 0..self.w.ops() {
            let op_span = tracer.as_deref_mut().map(|t| t.begin_op(op));
            let mut cx = Cx {
                tracer: tracer.as_deref_mut(),
                counters,
                warmup,
            };
            let result = catch_unwind(AssertUnwindSafe(|| self.w.run_op(op, &mut cx)));
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), op_span) {
                t.end(s);
            }
            self.attempted += 1;
            let out = match result {
                Ok(Ok(out)) => out,
                Ok(Err(msg)) => {
                    self.fail(op, &msg);
                    continue;
                }
                Err(_) => {
                    self.fail(op, "panicked");
                    continue;
                }
            };
            let digest = fnv1a(&out.text);
            if warmup {
                self.digests[op] = Some(digest);
                all_text.push_str(&out.text);
            } else if self.digests[op] != Some(digest) {
                self.fail(
                    op,
                    &format!("digest {digest:016x} differs from the warm-up rep's"),
                );
                continue;
            }
            outs.push(out);
        }
        if let (Some(t), Some(s)) = (tracer, rep_span) {
            t.end(s);
        }
        let host_s = host_s() - start;
        let items = outs.iter().map(|o| o.items).sum();
        (
            Rep {
                host_s,
                items,
                outs,
            },
            fnv1a(&all_text),
        )
    }

    fn fail(&mut self, op: usize, why: &str) {
        self.failed += 1;
        eprintln!("benchmark: {} op {op} failed: {why}", self.name);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let name = args.workload.as_str();
    cpu_s()?;
    let mut setup = SetupSampler {
        name,
        seed: args.seed,
        setup_s: Vec::new(),
        arrivals_s: Vec::new(),
    };
    let w = setup.sample();
    let mut runner = Runner {
        name,
        w: w.as_ref(),
        digests: vec![None; w.ops()],
        attempted: 0,
        failed: 0,
    };
    let counters = ExecCounters::default();
    let (_, digest) = runner.rep(None, 0, &counters, true);
    println!("{name} digest {digest:016x}");
    let mut digest_ok = true;
    if args.seed == 42 {
        let want = workloads::SEED42_DIGESTS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|d| d.1);
        digest_ok = want == Some(digest);
        if !digest_ok {
            eprintln!(
                "benchmark: {name} seed-42 digest {digest:016x} != recorded {:016x}",
                want.unwrap_or(0)
            );
        }
    }

    let mut tracer = args.trace.then(Tracer::new);
    let mut plain_s = Vec::new();
    let mut rates = Vec::new();
    let mut layers = Vec::new();
    let mut last_outs = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while rates.is_empty() || start.elapsed() < budget {
        drop(setup.sample());
        let (r, _) = runner.rep(None, 0, &counters, false);
        plain_s.push(r.host_s);
        rates.push(ratio(r.items as f64, r.host_s));
        if let Some(t) = tracer.as_mut() {
            let rep = layers.len() + 1;
            let (r, _) = runner.rep(Some(t), rep, &counters, false);
            layers.push(rep_layers(t, rep, &r));
            last_outs = r.outs;
        }
    }
    while setup.setup_s.len() < SETUP_SAMPLES {
        drop(setup.sample());
    }

    let metrics = match &tracer {
        None => {
            let (q1, med, q3) = quartiles(&rates);
            println!(
                "{name} items_per_s over {} reps: q1 {q1} median {med} q3 {q3}",
                rates.len()
            );
            let (q1, med_setup, q3) = quartiles(&setup.setup_s);
            println!(
                "{name} setup_s over {} samples: q1 {q1} median {med_setup} q3 {q3}",
                setup.setup_s.len()
            );
            vec![
                ("items_per_s", med, "items/s"),
                ("setup_s", med_setup, "s"),
                ("peak_rss_mb", peak_rss_mib()?, "MiB"),
            ]
        }
        Some(t) => {
            if let Some(path) = &args.trace_out {
                t.write_jsonl(path)
                    .map_err(|e| format!("writing {path}: {e}"))?;
            }
            let inputs = LayerInputs {
                layers: &layers,
                plain_s: &plain_s,
                last_outs: &last_outs,
                arrivals_s: median(&setup.arrivals_s),
            };
            layer_metrics(name, runner.w, &counters, &inputs)
        }
    };
    for (metric, value, unit) in &metrics {
        println!("{name} {metric} {value} {unit}");
    }
    println!("{name} ops {} count", runner.attempted);
    println!("{name} failed_ops {} count", runner.failed);
    let correct = runner.failed == 0 && digest_ok;
    println!(
        "{}",
        result_json(correct, runner.attempted, runner.failed, &metrics)
    );
    Ok(())
}

/// Per-layer aggregates of one traced rep.
struct RepLayers {
    exec: ExecTotals,
    cache_hits: f64,
    cache_misses: f64,
    entry_s: f64,
    cluster_self_s: f64,
    cluster_calls: f64,
    chaos_self_s: f64,
    search_s: f64,
    compile_s: f64,
    codec_s: f64,
    replay_s: f64,
    counts: Counts,
    host_s: f64,
}

fn rep_layers(tracer: &Tracer, rep: usize, r: &Rep) -> RepLayers {
    let mut counts = Counts::default();
    for o in &r.outs {
        counts.add(&o.counts);
    }
    // Folds from +0.0: an empty `f64` sum is -0.0. No names = every entry.
    let total = |f: &dyn Fn(&Span) -> f64, names: &[&str]| -> f64 {
        tracer
            .entries(rep)
            .filter(|s| names.is_empty() || names.contains(&s.name))
            .fold(0.0, |a, s| a + f(s))
    };
    let secs = |names: &[&str]| total(&|s| s.secs(), names);
    let loop_self = |names: &[&str]| -> (f64, f64) {
        let e = exec_sum(tracer.entries(rep).filter(|s| names.contains(&s.name)));
        (secs(names) - e.ns() as f64 * 1e-9, e.calls() as f64)
    };
    let (cluster_self_s, cluster_calls) = loop_self(&["simulate_fleet", "simulate_cluster"]);
    RepLayers {
        exec: exec_sum(tracer.entries(rep)),
        cache_hits: total(&|s| s.cache_hits as f64, &[]),
        cache_misses: total(&|s| s.cache_misses as f64, &[]),
        entry_s: secs(&[]),
        cluster_self_s,
        cluster_calls,
        chaos_self_s: loop_self(&["simulate_fleet_chaos", "simulate_chaos"]).0,
        search_s: secs(&["run_search"]),
        compile_s: secs(&["compile"]),
        codec_s: secs(&["to_text", "parse"]),
        replay_s: secs(&["execute_timing"]),
        counts,
        host_s: r.host_s,
    }
}

/// What the traced run measured, for [`layer_metrics`].
struct LayerInputs<'a> {
    layers: &'a [RepLayers],
    plain_s: &'a [f64],
    last_outs: &'a [OpOut],
    arrivals_s: f64,
}

/// The per-layer metrics: medians over traced reps, the kernel probes
/// on the captured shape, and the attribution of entry-call time to
/// probe costs, which is printed as a table.
fn layer_metrics(
    name: &str,
    w: &dyn Workload,
    counters: &ExecCounters,
    m: &LayerInputs,
) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&RepLayers) -> f64| median(&m.layers.iter().map(f).collect::<Vec<_>>());
    let exact_sims = med(&|l| l.counts.exact_sims as f64);
    let provision_sim_s = w.cell_secs(m.last_outs).map_or(0.0, |s| s * exact_sims);
    let (shape, n_nodes) = counters.probe_shape().unwrap_or_else(|| w.probe_shape());
    let p = probes::run(&shape, n_nodes);

    // A node round makes one Gen call; where the executors are not
    // wrapped (design-search), timing-cache hits stand in for rounds.
    let gen_calls = med(&|l| l.exec.gen_calls as f64);
    let rounds = if gen_calls > 0.0 {
        gen_calls
    } else {
        med(&|l| l.cache_hits)
    };
    let misses = med(&|l| l.cache_misses);
    let sessions = med(&|l| l.counts.sessions as f64);
    let entry_s = med(&|l| l.entry_s);
    let rows = [
        ("cluster.round", rounds, p.round),
        ("sim.miss", misses, p.pim_gen_exact),
        ("cluster.route", sessions, p.route),
        ("cluster.queue", 2.0 * sessions, p.queue),
        (
            "hbm.head_cost",
            med(&|l| l.counts.head_evals as f64),
            p.head_cost,
        ),
    ];
    println!("{name} attribution per traced rep: count × probe ns/call against {entry_s:.4} s in entry calls");
    let mut est_s = 0.0;
    for (layer, count, ns) in rows {
        let s = count * ns * 1e-9;
        est_s += s;
        println!("{name}   {layer:<14} {count:>12.0} × {ns:>10.1} ns = {s:>9.4} s");
    }
    let unaccounted = 1.0 - ratio(est_s, entry_s);
    println!(
        "{name}   measured self time: cluster loop {:.4} s, chaos loop {:.4} s, executor {:.4} s (misses {:.4} s); unaccounted {unaccounted:.3}",
        med(&|l| l.cluster_self_s),
        med(&|l| l.chaos_self_s),
        med(&|l| l.exec.ns() as f64 * 1e-9),
        med(&|l| l.exec.miss_ns as f64 * 1e-9),
    );

    let per_inst =
        |f: &dyn Fn(&RepLayers) -> f64| med(&|l| ratio(f(l) * 1e9, l.counts.insts as f64));
    vec![
        ("serving.arrivals_gen_s", m.arrivals_s, "s"),
        ("sim.gen_calls", gen_calls, "count"),
        ("sim.sum_calls", med(&|l| l.exec.sum_calls as f64), "count"),
        ("sim.gen_ns", med(&|l| l.exec.gen_ns as f64), "ns"),
        ("sim.sum_ns", med(&|l| l.exec.sum_ns as f64), "ns"),
        ("sim.miss_calls", misses, "count"),
        ("sim.miss_ns", med(&|l| l.exec.miss_ns as f64), "ns"),
        (
            "sim.cache_hit_rate",
            med(&|l| ratio(l.cache_hits, l.cache_hits + l.cache_misses)),
            "ratio",
        ),
        (
            "sim.exec_frac",
            med(&|l| ratio(l.exec.ns() as f64 * 1e-9, l.entry_s)),
            "ratio",
        ),
        ("cluster.loop_self_s", med(&|l| l.cluster_self_s), "s"),
        (
            "cluster.loop_ns_per_call",
            med(&|l| ratio(l.cluster_self_s * 1e9, l.cluster_calls)),
            "ns/call",
        ),
        ("chaos.loop_self_s", med(&|l| l.chaos_self_s), "s"),
        ("chaos.crashes", med(&|l| l.counts.crashes as f64), "count"),
        (
            "chaos.recovery_reships",
            med(&|l| l.counts.recovery_reships as f64),
            "count",
        ),
        ("chaos.retries", med(&|l| l.counts.retries as f64), "count"),
        ("chaos.shed", med(&|l| l.counts.shed as f64), "count"),
        ("provision.exact_sims", exact_sims, "count"),
        ("provision.sim_s", provision_sim_s, "s"),
        (
            "provision.other_s",
            med(&|l| l.search_s) - provision_sim_s,
            "s",
        ),
        (
            "trace.compile_ns_per_inst",
            per_inst(&|l| l.compile_s),
            "ns/inst",
        ),
        (
            "trace.codec_ns_per_inst",
            per_inst(&|l| l.codec_s),
            "ns/inst",
        ),
        (
            "trace.replay_ns_per_inst",
            per_inst(&|l| l.replay_s),
            "ns/inst",
        ),
        (
            "trace.heads_run",
            med(&|l| l.counts.heads_run as f64),
            "count",
        ),
        ("hbm.head_cost_ns", p.head_cost, "ns"),
        ("pim.attention_ns", p.attention, "ns"),
        ("pim.gen_exact_ns", p.pim_gen_exact, "ns"),
        ("xpu.gen_exact_ns", p.xpu_gen_exact, "ns"),
        ("cluster.queue_ns", p.queue, "ns"),
        ("cluster.route_ns", p.route, "ns"),
        ("cluster.round_ns", p.round, "ns"),
        ("attrib.unaccounted_frac", unaccounted, "ratio"),
        (
            "trace_overhead_frac",
            ratio(med(&|l| l.host_s), median(m.plain_s)) - 1.0,
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a = parse_args(&argv("--workload pim-trace --seed 7 --seconds 3 --trace 1"))
            .expect("valid flags");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("pim-trace", 7, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload pim-trace --trace 2")).is_err());
        assert!(parse_args(&argv("--workload pim-trace --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload pim-trace --bogus")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
