//! The coremax benchmark: time to a verified optimum on four workloads,
//! plus a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload. It generates the workload's instances
//! from the seed and writes them as WCNF files, then reads and parses
//! them all (set-up), then solves them one at a time the way
//! `coremax-solve FILE` does — `parse_problem`, `run`, `verify_solution`
//! — pass after pass until `S` seconds have gone by. Set-up is timed
//! again before every pass. With `--trace 1`
//! every untraced pass is followed by a traced one, and the engine is
//! measured alone at the end. Every verdict is then checked against an
//! answer key from a different driver. The last line of standard output
//! is one JSON object; the exit code is 0 only when every verdict is
//! right. MANIFEST.md describes the workloads and every metric.

mod check;
mod layers;
mod spans;
mod usage;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use coremax_cnf::{dimacs, WcnfFormula};

use check::{judge, Answer, AnswerKey, Judgement, Verdict};
use layers::Traced;
use workloads::Workload;

const USAGE: &str = "usage: coremax-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
                     workloads: industrial hard-refute small-partial portfolio";

/// One set-up sample repeats set-up until it has taken this long, and at
/// least once, and keeps the mean. A sample precedes every pass, so the
/// samples spread over the whole run, as the passes do.
const SETUP_SAMPLE_TIME: Duration = Duration::from_millis(500);

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("total_s", "s"),
    ("geomean_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_frac", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid value `{value}` for {flag}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One generated instance file.
pub struct Input {
    pub name: String,
    pub path: PathBuf,
    pub fingerprint: u64,
}

/// Writes the workload's instances into `dir`, numbered in solve order.
fn write_inputs(workload: Workload, seed: u64, dir: &Path) -> Result<(Vec<Input>, usize), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut inputs = Vec::new();
    let mut bytes = 0;
    for (i, instance) in workload.instances(seed).into_iter().enumerate() {
        let text = dimacs::write_wcnf(&instance.wcnf);
        let path = dir.join(format!("{i:04}-{}.wcnf", instance.name));
        std::fs::write(&path, &text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        bytes += text.len();
        inputs.push(Input {
            name: instance.name,
            path,
            fingerprint: check::fingerprint(&text),
        });
    }
    Ok((inputs, bytes))
}

/// Set-up as batch mode pays it: read and parse every instance.
fn read_and_parse(inputs: &[Input]) -> Result<Vec<WcnfFormula>, String> {
    inputs
        .iter()
        .map(|input| {
            let text = std::fs::read_to_string(&input.path)
                .map_err(|e| format!("cannot read {}: {e}", input.path.display()))?;
            coremax_cli::parse_problem(&text).map_err(|e| format!("{}: {e}", input.name))
        })
        .collect()
}

/// One set-up sample: the mean seconds of one set-up over
/// [`SETUP_SAMPLE_TIME`]. Each set-up replaces `formulas`, untimed drop
/// first, so the process never holds two parses.
fn setup_sample(inputs: &[Input], formulas: &mut Vec<WcnfFormula>) -> Result<f64, String> {
    let (mut spent, mut reps) = (Duration::ZERO, 0);
    while reps == 0 || spent < SETUP_SAMPLE_TIME {
        formulas.clear();
        let t = Instant::now();
        *formulas = read_and_parse(inputs)?;
        spent += t.elapsed();
        reps += 1;
    }
    Ok((spent / reps).as_secs_f64())
}

/// Work counts of one pass; they repeat exactly on a single thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    propagations: u64,
    conflicts: u64,
    decisions: u64,
    sat_calls: u64,
    card_clauses: u64,
}

/// What one untraced pass measured.
struct Pass {
    wall: Duration,
    cpu: Duration,
    /// Per instance: `run` plus `verify_solution`.
    times: Vec<Duration>,
    answers: Vec<Answer>,
    counts: Counts,
}

/// Solves every instance once, tracing off, as `coremax-solve FILE` does.
fn untraced_pass(workload: Workload, formulas: &[WcnfFormula]) -> Pass {
    let options = workload.options();
    let mut times = Vec::with_capacity(formulas.len());
    let mut answers = Vec::with_capacity(formulas.len());
    let mut counts = Counts::default();
    let cpu = usage::usage().cpu;
    let start = Instant::now();
    for wcnf in formulas {
        let t = Instant::now();
        let result = coremax_cli::run(&options, wcnf);
        answers.push(Answer::of(wcnf, &result));
        times.push(t.elapsed());
        if let Ok(s) = &result {
            counts.propagations += s.stats.sat.propagations;
            counts.conflicts += s.stats.sat.conflicts;
            counts.decisions += s.stats.sat.decisions;
            counts.sat_calls += s.stats.sat_calls;
            counts.card_clauses += s.stats.cardinality_clauses;
        }
    }
    Pass {
        wall: start.elapsed(),
        cpu: usage::usage().cpu - cpu,
        times,
        answers,
        counts,
    }
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len();
    assert!(n > 0, "mean of no values");
    values.sum::<f64>() / n as f64
}

fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The JSON result line: `metrics` in the order of `names`.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    names: &[(String, &str)],
    metrics: &BTreeMap<String, f64>,
) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn out_dir() -> PathBuf {
    // `cargo run` sets the variable at run time; the build-time value
    // covers running the binary directly.
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}

/// Judges every answer of every pass against the key; returns
/// `(attempted, failed, wrong)`.
fn judge_all<'a>(
    passes: impl Iterator<Item = &'a Vec<Answer>>,
    verdicts: &[Verdict],
    inputs: &[Input],
) -> (usize, usize, usize) {
    let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
    for answers in passes {
        for ((answer, verdict), input) in answers.iter().zip(verdicts).zip(inputs) {
            attempted += 1;
            match judge(answer, *verdict) {
                Judgement::Exact => {}
                Judgement::Failed => failed += 1,
                Judgement::Wrong => {
                    failed += 1;
                    wrong += 1;
                    eprintln!(
                        "wrong answer on {}: {answer:?}, key {verdict:?}",
                        input.name
                    );
                }
            }
        }
    }
    (attempted, failed, wrong)
}

/// The end-to-end metrics of the untraced passes. Times are means over
/// the run, not medians: on a shared 2-core x86-64 VM, speed wanders
/// between levels up to 1.6x apart, each held for seconds, so a run's
/// median pass lands on whichever level held longest and flips between
/// runs, while the mean weighs each level by the time the run spent in
/// it.
fn end_to_end(
    setup: &[f64],
    passes: &[Pass],
    peak_rss_kb: u64,
    verified_frac: f64,
) -> BTreeMap<String, f64> {
    let instances = passes[0].times.len();
    let log_mean = mean(
        (0..instances).map(|i| mean(passes.iter().map(|p| p.times[i].as_secs_f64() * 1e3)).ln()),
    );
    BTreeMap::from([
        ("setup_s".into(), mean(setup.iter().copied())),
        (
            "total_s".into(),
            mean(passes.iter().map(|p| p.wall.as_secs_f64())),
        ),
        ("geomean_ms".into(), log_mean.exp()),
        (
            "cpu_s".into(),
            mean(passes.iter().map(|p| p.cpu.as_secs_f64())),
        ),
        ("peak_rss_mb".into(), peak_rss_kb as f64 / 1024.0),
        ("verified_frac".into(), verified_frac),
    ])
}

/// The per-layer metrics: medians over the traced passes, the tracing
/// overhead against the untraced passes (means, as `total_s` is), and
/// the engine alone.
fn per_layer(traced: &[Traced], passes: &[Pass], engine: (f64, f64)) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    for (name, _) in layers::per_layer_metrics() {
        let values = traced
            .iter()
            .map(|t| t.metrics.get(&name).copied().unwrap_or(0.0))
            .collect();
        metrics.insert(name, median(values));
    }
    let traced_total = mean(traced.iter().map(|t| t.solve_verify.as_secs_f64()));
    let untraced_total = mean(passes.iter().map(|p| p.wall.as_secs_f64()));
    metrics.insert(
        "obs.overhead_frac".into(),
        traced_total / untraced_total - 1.0,
    );
    metrics.insert("sat.props_per_s".into(), engine.0);
    metrics.insert("sat.conflicts_per_s".into(), engine.1);
    metrics
}

fn bench(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let out = out_dir();
    let input_dir = out.join(format!("inputs-{}-{}", w.name(), args.seed));
    let (inputs, bytes) = write_inputs(w, args.seed, &input_dir)?;

    // Measurement: each pass solves what the set-up sample before it
    // parsed last.
    let budget = Duration::from_secs(args.seconds);
    let spans_path = out.join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
    let mut formulas = Vec::new();
    let mut setup = Vec::new();
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed() < budget {
        setup.push(setup_sample(&inputs, &mut formulas)?);
        passes.push(untraced_pass(w, &formulas));
        if args.trace {
            traced.push(layers::traced_pass(w, &inputs, traced.len(), &spans_path)?);
        }
    }
    let peak_rss_kb = usage::usage().max_rss_kb;
    let engine = args.trace.then(|| layers::engine_alone(&formulas));

    // Correctness, untimed: every answer against the key.
    let key_started = Instant::now();
    let chain = w.key_options();
    let mut key = AnswerKey::open(out.join(format!("key-{}.txt", w.key_drivers().join("+"))))?;
    let verdicts = inputs
        .iter()
        .zip(&formulas)
        .map(|(input, wcnf)| key.verdict(input.fingerprint, wcnf, &chain))
        .collect::<Result<Vec<_>, _>>()?;
    let key_seconds = key_started.elapsed().as_secs_f64();
    let answers = passes
        .iter()
        .map(|p| &p.answers)
        .chain(traced.iter().map(|t| &t.answers));
    let (attempted, failed, wrong) = judge_all(answers, &verdicts, &inputs);
    let _ = std::fs::remove_dir_all(&input_dir);

    let counts = passes[0].counts;
    let repeat = passes.iter().all(|p| p.counts == counts);
    let pass_seconds: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let setup_ms: Vec<f64> = setup.iter().map(|s| s * 1e3).collect();
    eprintln!(
        "{} seed {}: `{}` on {} instances, {bytes} input bytes, {} passes{}; \
         failed_frac {} ({failed} of {attempted}), wrong_answers {wrong}\n\
         work counts per pass ({}): propagations {} conflicts {} decisions {} \
         sat_calls {} card_clauses {}\n\
         untraced pass seconds: {pass_seconds:.3?}\n\
         set-up sample milliseconds: {setup_ms:.3?}\n\
         answer key ({}): newly solved {:?}, the rest cached; {key_seconds:.1} s",
        w.name(),
        args.seed,
        w.cli(),
        inputs.len(),
        passes.len(),
        if args.trace {
            " untraced + as many traced"
        } else {
            ""
        },
        failed as f64 / attempted as f64,
        match (w.deterministic(), repeat) {
            (true, true) => "repeat exactly",
            (true, false) => "DID NOT REPEAT",
            (false, _) => "first pass; depend on the race",
        },
        counts.propagations,
        counts.conflicts,
        counts.decisions,
        counts.sat_calls,
        counts.card_clauses,
        w.key_drivers().join(", then "),
        key.solved,
    );

    let (names, metrics) = match engine {
        Some(engine) => (
            layers::per_layer_metrics(),
            per_layer(&traced, &passes, engine),
        ),
        None => (
            END_TO_END
                .iter()
                .map(|&(name, unit)| (name.to_string(), unit))
                .collect(),
            end_to_end(
                &setup,
                &passes,
                peak_rss_kb,
                1.0 - failed as f64 / attempted as f64,
            ),
        ),
    };
    println!(
        "{}",
        result_line(wrong == 0, attempted, failed, &names, &metrics)
    );
    Ok(wrong == 0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("coremax-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("coremax-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "portfolio",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Portfolio);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "industrial", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "industrial",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn mean_and_median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean([3.0, 1.0, 8.0].into_iter()), 4.0);
    }

    #[test]
    fn result_line_is_json_with_every_named_metric() {
        let names = vec![("a.x".to_string(), "ms"), ("b".to_string(), "count")];
        let metrics = BTreeMap::from([("a.x".to_string(), 1.25)]);
        let line = result_line(true, 3, 0, &names, &metrics);
        let v = coremax_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("a.x").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(
            m.get("b").unwrap().get("unit").unwrap().as_str(),
            Some("count")
        );
    }

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = coremax_obs::json::parse(&text).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|l| l.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let end_to_end = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(declared("end_to_end"), owned(end_to_end));
        assert_eq!(declared("per_layer"), owned(layers::per_layer_metrics()));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(|l| l.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|x| x.as_str()).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}
