//! `weighted_baseline` — reproducible performance/coverage baseline for
//! the weighted MaxSAT paths over the generated weighted suite.
//!
//! Writes a JSON trajectory (`BENCH_pr4.json` at the repo root by
//! convention) over the weight-aware solvers (`wmsu1`, `strat-msu3`,
//! `strat-msu4`, `oll`, `strat-oll`), each measured with preprocessing
//! off and on. Every solution is verified against the original
//! instance.
//!
//! Usage:
//! `weighted_baseline [--out FILE] [--scale N] [--seed S]
//!                    [--budget-ms MS] [--solvers a,b] [--fail-on-abort]`
//!
//! Exit status 1 on any verification failure or cross-solver optimum
//! disagreement (soundness, unconditional), and — with
//! `--fail-on-abort` — on any true abort.

use std::fmt::Write as _;
use std::time::Duration;

use coremax::MaxSatStatus;
use coremax_bench::{consistency_violations, run_solver_over_opts, RunRecord, WEIGHTED_SOLVERS};
use coremax_instances::{weighted_suite, Instance, SuiteConfig};

struct Args {
    out: String,
    scale: usize,
    seed: u64,
    budget_ms: u64,
    solvers: Vec<String>,
    fail_on_abort: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            out: "BENCH_pr4.json".into(),
            scale: 1,
            seed: 42,
            budget_ms: 10_000,
            solvers: WEIGHTED_SOLVERS.iter().map(|s| s.to_string()).collect(),
            fail_on_abort: false,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--out" => args.out = value("--out"),
            "--scale" => args.scale = value("--scale").parse().expect("scale"),
            "--seed" => args.seed = value("--seed").parse().expect("seed"),
            "--budget-ms" => args.budget_ms = value("--budget-ms").parse().expect("budget-ms"),
            "--solvers" => {
                args.solvers = value("--solvers").split(',').map(str::to_string).collect();
            }
            "--fail-on-abort" => args.fail_on_abort = true,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn status_name(status: MaxSatStatus) -> &'static str {
    match status {
        MaxSatStatus::Optimal => "optimal",
        MaxSatStatus::Infeasible => "infeasible",
        MaxSatStatus::Unknown => "unknown",
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for v in values {
        log_sum += v.max(1e-9).ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = parse_args();
    let suite: Vec<Instance> = weighted_suite(&SuiteConfig {
        scale: args.scale,
        seed: args.seed,
    });
    assert!(!suite.is_empty(), "empty weighted suite");
    eprintln!(
        "weighted_baseline: {} instances, {} ms budget, solvers {:?}",
        suite.len(),
        args.budget_ms,
        args.solvers
    );

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"suite\": {{\"scale\": {}, \"seed\": {}, \"instances\": {}}},",
        args.scale,
        args.seed,
        suite.len()
    );
    let _ = writeln!(out, "  \"budget_ms\": {},", args.budget_ms);

    let mut aborted_total = 0usize;
    let mut verify_failures = 0usize;
    let mut totalizer_extensions_total = 0u64;
    let mut all_records: Vec<RunRecord> = Vec::new();

    out.push_str("  \"weighted_runs\": [\n");
    let mut first = true;
    let mut geo: Vec<(String, f64)> = Vec::new();
    for solver_name in &args.solvers {
        for preprocess in [false, true] {
            let label = if preprocess {
                format!("{solver_name}+simp")
            } else {
                solver_name.clone()
            };
            eprintln!("weighted layer: {label} over {} instances", suite.len());
            let records = run_solver_over_opts(
                solver_name,
                &suite,
                Duration::from_millis(args.budget_ms),
                preprocess,
            );
            geo.push((
                label.clone(),
                geomean(records.iter().map(|r| r.time.as_secs_f64() * 1e3)),
            ));
            for r in &records {
                if r.aborted() {
                    aborted_total += 1;
                    eprintln!("  ABORT: {label} on {} ({})", r.instance, r.family);
                }
                if !r.verified {
                    verify_failures += 1;
                    eprintln!("  VERIFY FAIL: {label} on {} ({})", r.instance, r.family);
                }
                totalizer_extensions_total += r.totalizer_extensions;
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "    {{\"solver\": \"{}\", \"preprocess\": {}, \"instance\": \"{}\", \
                     \"family\": \"{}\", \"status\": \"{}\", \"cost\": {}, \
                     \"verified\": {}, \"time_ms\": {:.3}, \"propagations\": {}, \
                     \"conflicts\": {}, \"totalizer_extensions\": {}}}",
                    json_escape(&label),
                    r.preprocess,
                    json_escape(&r.instance),
                    r.family,
                    status_name(r.status),
                    r.cost.map_or("null".into(), |c| c.to_string()),
                    r.verified,
                    r.time.as_secs_f64() * 1e3,
                    r.sat_propagations,
                    r.sat_conflicts,
                    r.totalizer_extensions,
                );
            }
            all_records.extend(records);
        }
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"weighted_geomean_time_ms\": {");
    for (i, (name, g)) in geo.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {:.3}", json_escape(name), g);
    }
    out.push_str("},\n");

    // Cross-solver soundness: every pair of optimal verdicts on the
    // same instance must agree on the optimum.
    let disagreements = consistency_violations(&all_records);

    let _ = writeln!(
        out,
        "  \"consistency_violations\": [{}],",
        disagreements
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "  \"totalizer_extensions\": {totalizer_extensions_total},"
    );
    let _ = writeln!(out, "  \"weighted_aborted\": {aborted_total},");
    let _ = writeln!(out, "  \"verify_failures\": {verify_failures}");
    out.push_str("}\n");

    std::fs::write(&args.out, &out).unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    for (name, g) in &geo {
        println!("geomean {name}: {g:.3} ms");
    }
    println!("wrote {}", args.out);

    if verify_failures > 0 {
        eprintln!("FAIL: {verify_failures} solutions failed verification");
        std::process::exit(1);
    }
    if !disagreements.is_empty() {
        eprintln!("FAIL: optimum disagreement on {disagreements:?}");
        std::process::exit(1);
    }
    if args.fail_on_abort && aborted_total > 0 {
        eprintln!(
            "FAIL: {aborted_total} aborted runs (budget {} ms)",
            args.budget_ms
        );
        std::process::exit(1);
    }
}
