//! The traced pass and the per-layer metrics it yields.
//!
//! A traced pass turns on `coremax_obs` timing (which fills the
//! program's own `PhaseTimes`), installs a `CollectorSink`, and wraps
//! each public call the benchmark makes in a span of its own. Program
//! phases give the layers inside `run`; the spans give the calls around
//! it and the time no span covers.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coremax::MaxSatStats;
use coremax_cnf::WcnfFormula;
use coremax_obs::{CollectorSink, Event, Phase};
use coremax_par::Portfolio;
use coremax_sat::{Budget, Solver};

use crate::check::Answer;
use crate::spans::Spans;
use crate::usage::usage;
use crate::workloads::{Workload, LIMIT_MS};
use crate::Input;

/// Conflict cap of each engine-alone solve.
const ENGINE_CONFLICTS: u64 = 2_000;

/// The per-layer metrics and their units, in `BENCHMARK.json` order,
/// except the per-member `par.first_finish.*` counts
/// ([`per_layer_metrics`] appends those).
const PER_LAYER: &[(&str, &str)] = &[
    ("cnf.parse_ms", "ms"),
    ("cnf.parse_mb_per_s", "MB/s"),
    ("simp.simplify_ms", "ms"),
    ("simp.vars_removed_frac", "ratio"),
    ("simp.hard_removed_frac", "ratio"),
    ("simp.failed_lit_per_probe", "ratio"),
    ("sat.sat_call_ms", "ms"),
    ("sat.propagate_ms", "ms"),
    ("sat.analyze_ms", "ms"),
    ("sat.reduce_db_ms", "ms"),
    ("sat.gc_ms", "ms"),
    ("sat.propagations", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.restarts", "count"),
    ("sat.learned", "count"),
    ("sat.deleted", "count"),
    ("sat.gc_runs", "count"),
    ("sat.peak_learned", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.conflicts_per_s", "1/s"),
    ("sat.calls", "count"),
    ("sat.us_per_call", "us"),
    ("cards.encode_ms", "ms"),
    ("cards.clauses", "count"),
    ("cards.clauses_per_ms", "1/ms"),
    ("cards.totalizer_extensions", "count"),
    ("core.solve_ms", "ms"),
    ("core.other_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.cores", "count"),
    ("core.blocking_vars", "count"),
    ("core.hardened", "count"),
    ("core.weight_splits", "count"),
    ("par.race_cpu_per_wall", "ratio"),
    ("par.members_started", "count"),
    ("par.members_skipped", "count"),
    ("par.members_cancelled", "count"),
    ("par.race_overhead_ms", "ms"),
    ("obs.overhead_frac", "ratio"),
    ("obs.events", "count"),
    ("obs.uncovered_ms", "ms"),
];

/// The metric counting the races `member` finished first. Metric names
/// allow no `+`, so `oll+simp` becomes `oll-simp`.
fn first_finish_metric(member: &str) -> String {
    format!("par.first_finish.{}", member.replace('+', "-"))
}

/// Every per-layer metric with its unit.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for member in Portfolio::default_members() {
        out.push((first_finish_metric(member.name()), "count"));
    }
    out
}

/// What one traced pass measured.
pub struct Traced {
    /// Per-layer values of this pass, keyed by metric name.
    pub metrics: BTreeMap<String, f64>,
    pub answers: Vec<Answer>,
    /// Time in `run` and `verify_solution`: what `total_s` measures.
    pub solve_verify: Duration,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Wall time of the phases `run` attributes: SAT calls, encoding and
/// preprocessing. The rest of `run` is `core.other_ms`.
fn attributed(stats: &MaxSatStats) -> Duration {
    let phases = stats.phase_times();
    phases.get(Phase::SatCall) + phases.get(Phase::Encode) + phases.get(Phase::SimpPass)
}

/// What a traced pass adds up over its instances.
#[derive(Default)]
struct Tally {
    parse: Duration,
    bytes: usize,
    /// Time in `run`, or in `Portfolio::solve`.
    solve: Duration,
    verify: Duration,
    /// The part of each solve that no program phase covers.
    other: Duration,
    /// Counters of every solver that produced a result.
    stats: MaxSatStats,
    /// `SimpStats` sums: variables and hard clauses in and out, probes,
    /// failed literals.
    vars: (u64, u64),
    hard: (u64, u64),
    probes: (u64, u64),
    race_cpu: Duration,
    race_overhead: Duration,
    /// `started`, `skipped` and `cancelled` member events.
    members: BTreeMap<&'static str, u64>,
    /// Races each member finished first, keyed by metric name.
    first_finish: BTreeMap<String, u64>,
    events: usize,
}

impl Tally {
    /// Adds the stats of the one solver whose phases describe the
    /// reported verdict: the run itself, or the race's winner, since the
    /// members' phases overlap in time.
    fn add_reporter(&mut self, reporter: &MaxSatStats) {
        self.other += reporter.wall_time.saturating_sub(attributed(reporter));
        let simp = &reporter.simp;
        self.vars.0 += simp.vars_in;
        self.vars.1 += simp.vars_out;
        self.hard.0 += simp.hard_in;
        self.hard.1 += simp.hard_out;
        self.probes.0 += simp.probes;
        self.probes.1 += simp.failed_literals;
    }

    /// Counts the member events of one race, and which member finished
    /// first.
    fn add_events(&mut self, captured: &[(Duration, Event)]) {
        self.events += captured.len();
        let mut first = None;
        for (_, event) in captured {
            let kind = match event {
                Event::MemberStarted { .. } => "started",
                Event::MemberSkipped { .. } => "skipped",
                Event::MemberCancelled { .. } => "cancelled",
                Event::MemberFinished { name, .. } => {
                    first.get_or_insert(*name);
                    continue;
                }
                _ => continue,
            };
            *self.members.entry(kind).or_default() += 1;
        }
        if let Some(name) = first {
            *self
                .first_finish
                .entry(first_finish_metric(name))
                .or_default() += 1;
        }
    }

    fn metrics(&self, portfolio: bool, uncovered: Duration) -> BTreeMap<String, f64> {
        let stats = &self.stats;
        let sat = &stats.sat;
        let phases = stats.phase_times();
        let phase_ms = |p: Phase| ms(phases.get(p));
        let removed =
            |(before, after): (u64, u64)| ratio(before.saturating_sub(after) as f64, before as f64);
        let mut m: BTreeMap<String, f64> = [
            ("cnf.parse_ms", ms(self.parse)),
            (
                "cnf.parse_mb_per_s",
                ratio(self.bytes as f64 / 1e6, self.parse.as_secs_f64()),
            ),
            ("simp.simplify_ms", phase_ms(Phase::SimpPass)),
            ("simp.vars_removed_frac", removed(self.vars)),
            ("simp.hard_removed_frac", removed(self.hard)),
            (
                "simp.failed_lit_per_probe",
                ratio(self.probes.1 as f64, self.probes.0 as f64),
            ),
            ("sat.sat_call_ms", phase_ms(Phase::SatCall)),
            ("sat.propagate_ms", phase_ms(Phase::Propagate)),
            ("sat.analyze_ms", phase_ms(Phase::Analyze)),
            ("sat.reduce_db_ms", phase_ms(Phase::ReduceDb)),
            ("sat.gc_ms", phase_ms(Phase::Gc)),
            ("sat.propagations", sat.propagations as f64),
            ("sat.conflicts", sat.conflicts as f64),
            ("sat.decisions", sat.decisions as f64),
            ("sat.restarts", sat.restarts as f64),
            ("sat.learned", sat.learned_clauses as f64),
            ("sat.deleted", sat.deleted_clauses as f64),
            ("sat.gc_runs", sat.gc_runs as f64),
            ("sat.peak_learned", sat.peak_learned as f64),
            ("sat.calls", stats.sat_calls as f64),
            (
                "sat.us_per_call",
                ratio(phase_ms(Phase::SatCall) * 1e3, stats.sat_calls as f64),
            ),
            ("cards.encode_ms", phase_ms(Phase::Encode)),
            ("cards.clauses", stats.cardinality_clauses as f64),
            (
                "cards.clauses_per_ms",
                ratio(stats.cardinality_clauses as f64, phase_ms(Phase::Encode)),
            ),
            (
                "cards.totalizer_extensions",
                stats.totalizer_extensions as f64,
            ),
            ("core.solve_ms", ms(self.solve)),
            ("core.other_ms", ms(self.other)),
            ("core.verify_ms", ms(self.verify)),
            ("core.cores", stats.cores as f64),
            ("core.blocking_vars", stats.blocking_vars as f64),
            ("core.hardened", stats.hardened as f64),
            ("core.weight_splits", stats.weight_splits as f64),
            ("par.race_overhead_ms", ms(self.race_overhead)),
            ("obs.events", self.events as f64),
            ("obs.uncovered_ms", ms(uncovered)),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
        if portfolio {
            m.insert(
                "par.race_cpu_per_wall".into(),
                ratio(self.race_cpu.as_secs_f64(), self.solve.as_secs_f64()),
            );
        }
        for (kind, n) in &self.members {
            m.insert(format!("par.members_{kind}"), *n as f64);
        }
        for (name, n) in &self.first_finish {
            m.insert(name.clone(), *n as f64);
        }
        m
    }
}

/// Solves every input once with tracing on. The pass's spans go to
/// `spans_path`: the first pass of a run truncates it, later ones append.
pub fn traced_pass(
    workload: Workload,
    inputs: &[Input],
    pass: usize,
    spans_path: &Path,
) -> Result<Traced, String> {
    let options = workload.options();
    let mut portfolio = Portfolio::new(options.jobs);
    portfolio.set_budget(Budget::new().with_timeout(Duration::from_millis(LIMIT_MS)));

    let collector = Arc::new(CollectorSink::new());
    let guard = coremax_obs::install(collector.clone(), true);
    let mut spans = Spans::new();
    let mut answers = Vec::with_capacity(inputs.len());
    let mut tally = Tally::default();

    // Set-up, then one solve at a time, as in the untraced passes: had
    // each instance been parsed right before its solve, the solve would
    // find its formula in cache and `obs.overhead_frac` would measure
    // that instead of tracing.
    spans.enter("pass", None);
    spans.enter("setup", None);
    let mut formulas = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let text = std::fs::read_to_string(&input.path)
            .map_err(|e| format!("cannot read {}: {e}", input.path.display()))?;
        spans.enter("parse_problem", Some(i));
        formulas.push(coremax_cli::parse_problem(&text)?);
        tally.parse += spans.exit();
        tally.bytes += text.len();
    }
    spans.exit();
    for (i, wcnf) in formulas.iter().enumerate() {
        spans.enter("instance", Some(i));
        let result = if options.portfolio {
            // What `run` calls for `--portfolio`, here directly so the
            // race's `PortfolioOutcome` is visible.
            let cpu = usage().cpu;
            spans.enter("Portfolio::solve", Some(i));
            let outcome = portfolio.solve(wcnf);
            let race = spans.exit();
            tally.race_cpu += usage().cpu - cpu;
            tally.race_overhead += race.saturating_sub(outcome.solution.stats.wall_time);
            tally.solve += race;
            tally.stats.absorb(&outcome.total_stats);
            tally.add_reporter(&outcome.solution.stats);
            Ok(outcome.solution)
        } else {
            spans.enter("run", Some(i));
            let result = coremax_cli::run(&options, wcnf);
            let took = spans.exit();
            tally.solve += took;
            let mut own = result.as_ref().map(|s| s.stats).unwrap_or_default();
            tally.stats.absorb(&own);
            own.wall_time = took;
            tally.add_reporter(&own);
            result
        };

        spans.enter("verify_solution", Some(i));
        answers.push(Answer::of(wcnf, &result));
        tally.verify += spans.exit();
        spans.exit();
        tally.add_events(&collector.take());
    }
    spans.exit();
    drop(guard);

    let names: Vec<String> = inputs.iter().map(|i| i.name.clone()).collect();
    std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(pass > 0)
        .truncate(pass == 0)
        .open(spans_path)
        .and_then(|mut f| f.write_all(spans.to_jsonl(pass, &names).as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    Ok(Traced {
        metrics: tally.metrics(options.portfolio, spans.self_time("pass")),
        answers,
        solve_verify: tally.solve + tally.verify,
    })
}

/// The engine alone: each instance's clauses, hard and soft alike, in a
/// fresh `coremax_sat::Solver` under a fixed conflict cap, tracing off.
/// Returns propagations and conflicts per second of `solve`.
pub fn engine_alone(formulas: &[WcnfFormula]) -> (f64, f64) {
    let (mut props, mut conflicts, mut time) = (0u64, 0u64, Duration::ZERO);
    for wcnf in formulas {
        let mut solver = Solver::new();
        solver.add_formula(&wcnf.to_cnf());
        solver.set_budget(Budget::new().with_max_conflicts(ENGINE_CONFLICTS));
        let start = Instant::now();
        std::hint::black_box(solver.solve());
        time += start.elapsed();
        props += solver.stats().propagations;
        conflicts += solver.stats().conflicts;
    }
    let secs = time.as_secs_f64();
    (ratio(props as f64, secs), ratio(conflicts as f64, secs))
}
