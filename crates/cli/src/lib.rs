//! Shared plumbing for the `coremax` command-line MaxSAT solver.
//!
//! The binary lives in `src/main.rs`; this library holds the argument
//! parsing and solver dispatch so the logic is unit-testable and
//! reusable from the examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use coremax::{
    BinarySearchSat, BranchBound, LinearSearchSat, MaxSatSolution, MaxSatSolver, MaxSatStatus,
    Msu1, Msu2, Msu3, Msu4, Msu4Incremental, Oll, PboBaseline, Preprocessed, Stratified, Wmsu1,
};
use coremax_cnf::{dimacs, WcnfFormula, Weight};
use coremax_instances::{debug_suite, full_suite, weighted_suite, InstanceStats, SuiteConfig};
use coremax_par::{solve_batch, BatchOptions, Portfolio};
use coremax_sat::Budget;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Solver name (see [`make_solver`]).
    pub algorithm: String,
    /// Optional wall-clock limit in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Re-check the solution before reporting.
    pub verify: bool,
    /// Run the `coremax_simp` preprocessing pipeline before solving
    /// (default on; `--no-preprocess` disables it).
    pub preprocess: bool,
    /// Print preprocessing statistics.
    pub simp_stats: bool,
    /// Print solver statistics.
    pub stats: bool,
    /// Print the model (`v` line).
    pub print_model: bool,
    /// Print live anytime progress (`o` lines as incumbents improve,
    /// throttled `c bounds` lines as the interval tightens).
    pub progress: bool,
    /// Write a JSONL event trace of the whole solve to this file.
    pub trace: Option<String>,
    /// Write a JSON snapshot of the full statistics tree (MaxSAT,
    /// SAT-engine, preprocessing counters and per-phase times) to this
    /// file after solving.
    pub stats_json: Option<String>,
    /// Worker threads for batch-directory input and `--portfolio`
    /// racing (1 = sequential).
    pub jobs: usize,
    /// Race the full portfolio (all algorithms × preprocessing) instead
    /// of a single algorithm; the winner is reported deterministically.
    pub portfolio: bool,
    /// Input path (`-` = stdin; a directory selects batch mode).
    pub input: String,
    /// When set, generate the benchmark suite into this directory
    /// instead of solving (`input` is unused).
    pub generate_dir: Option<String>,
    /// Restrict `--generate` to one family name.
    pub family: Option<String>,
    /// Suite scale for `--generate`.
    pub scale: usize,
    /// Suite seed for `--generate`.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            algorithm: "msu4-v2".into(),
            timeout_ms: None,
            verify: false,
            preprocess: true,
            simp_stats: false,
            stats: false,
            progress: false,
            trace: None,
            stats_json: None,
            print_model: false,
            jobs: 1,
            portfolio: false,
            input: "-".into(),
            generate_dir: None,
            family: None,
            scale: 1,
            seed: 42,
        }
    }
}

/// Parses CLI arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message on unknown flags, missing values or
/// missing input.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut options = Options::default();
    let mut input: Option<String> = None;
    let mut algorithm_set = false;
    let mut no_preprocess_set = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-a" | "--algorithm" => {
                options.algorithm = iter
                    .next()
                    .ok_or_else(|| "missing value for --algorithm".to_string())?;
                algorithm_set = true;
            }
            "-t" | "--timeout-ms" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "missing value for --timeout-ms".to_string())?;
                options.timeout_ms = Some(v.parse().map_err(|_| format!("invalid timeout `{v}`"))?);
            }
            "--generate" => {
                options.generate_dir = Some(
                    iter.next()
                        .ok_or_else(|| "missing directory for --generate".to_string())?,
                );
            }
            "--family" => {
                options.family = Some(
                    iter.next()
                        .ok_or_else(|| "missing value for --family".to_string())?,
                );
            }
            "--scale" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "missing value for --scale".to_string())?;
                options.scale = v.parse().map_err(|_| format!("invalid scale `{v}`"))?;
            }
            "--seed" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "missing value for --seed".to_string())?;
                options.seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
            }
            "-j" | "--jobs" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "missing value for --jobs".to_string())?;
                options.jobs = v.parse().map_err(|_| format!("invalid jobs `{v}`"))?;
                if options.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--portfolio" => options.portfolio = true,
            "--verify" => options.verify = true,
            "--preprocess" => options.preprocess = true,
            "--no-preprocess" => {
                options.preprocess = false;
                no_preprocess_set = true;
            }
            "--simp-stats" => options.simp_stats = true,
            "--stats" => options.stats = true,
            "--progress" => options.progress = true,
            "--trace" => {
                options.trace = Some(
                    iter.next()
                        .ok_or_else(|| "missing file for --trace".to_string())?,
                );
            }
            "--stats-json" => {
                options.stats_json = Some(
                    iter.next()
                        .ok_or_else(|| "missing file for --stats-json".to_string())?,
                );
            }
            "-m" | "--model" => options.print_model = true,
            "-h" | "--help" => return Err(usage()),
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown flag `{other}`\n{}", usage()));
            }
            other => {
                if input.is_some() {
                    return Err("multiple input files given".into());
                }
                input = Some(other.to_string());
            }
        }
    }
    // The portfolio races its own fixed line-up (every algorithm, bare
    // and preprocessed); silently ignoring an explicit -a or
    // --no-preprocess would mislead, so the combination is an error.
    if options.portfolio && (algorithm_set || no_preprocess_set) {
        return Err("--portfolio races all algorithms (bare and preprocessed); \
             it cannot be combined with -a/--algorithm or --no-preprocess"
            .into());
    }
    if options.generate_dir.is_some() {
        options.input = input.unwrap_or_else(|| "-".into());
    } else {
        options.input = input.ok_or_else(usage)?;
    }
    Ok(options)
}

/// The usage string shown by `--help` and on argument errors.
#[must_use]
pub fn usage() -> String {
    "usage: coremax-solve [-a ALGO] [-t MS] [--verify] [--stats] [-m]\n\
     \x20                    [--no-preprocess] [--simp-stats]\n\
     \x20                    [--progress] [--trace FILE] [--stats-json FILE]\n\
     \x20                    [-j N] [--portfolio] FILE|DIR\n\
     \x20      coremax-solve --generate DIR [--family NAME] [--scale N] [--seed S]\n\
     \n\
     ALGO: msu4-v2 (default), msu4-v1, msu4-inc, msu1, msu2, msu3, pbo,\n\
     \x20      maxsatz-bb, linear-sat, binary-sat,\n\
     \x20      oll, wmsu1, strat-msu3 (alias: stratified), strat-msu4,\n\
     \x20      strat-oll, strat-wmsu1\n\
     \x20      Weighted input is solved natively: unweighted-only\n\
     \x20      algorithms are stratified automatically, and a stratum of\n\
     \x20      mixed weights goes to oll.\n\
     FILE: DIMACS .cnf (treated as unweighted MaxSAT) or .wcnf (classic\n\
     \x20     `p wcnf` or the post-2022 `h`-prefixed format);\n\
     \x20     `-` reads stdin (format sniffed)\n\
     DIR:  batch mode — every .cnf/.wcnf file in the directory is solved\n\
     \x20     across -j N workers; per-instance `r` summary lines match\n\
     \x20     sequential runs of the same files exactly\n\
     -j/--jobs N      worker threads (batch instances, portfolio race)\n\
     --portfolio      race every algorithm (bare and preprocessed) and\n\
     \x20                report the deterministic fixed-priority winner\n\
     --no-preprocess skips the simplifier (BVE/subsumption/probing);\n\
     --simp-stats prints its reduction counters\n\
     --progress       live anytime output: `o <cost>` on every improved\n\
     \x20                incumbent, throttled `c bounds lb=.. ub=..` lines\n\
     --trace FILE     write every solve event as one JSON object per\n\
     \x20                line (JSONL) with microsecond timestamps\n\
     --stats-json FILE  write the full statistics tree (driver, SAT\n\
     \x20                engine, preprocessing, per-phase times) as JSON\n\
     --generate writes the benchmark suite as .wcnf files into DIR\n\
     (families: bmc equiv atpg php xor rand3 debug weighted; `debug29`\n\
     for the Table-2 suite)"
        .to_string()
}

/// Instantiates a solver by name.
///
/// # Errors
///
/// Returns an error message for unknown names.
pub fn make_solver(name: &str) -> Result<Box<dyn MaxSatSolver>, String> {
    make_solver_send(name).map(|s| s as Box<dyn MaxSatSolver>)
}

/// Instantiates a solver by name as a [`Send`] trait object (what the
/// batch driver moves across worker threads). Every algorithm in the
/// suite is `Send`; [`make_solver`] delegates here.
///
/// # Errors
///
/// Returns an error message for unknown names.
pub fn make_solver_send(name: &str) -> Result<Box<dyn MaxSatSolver + Send>, String> {
    Ok(match name {
        "msu4" | "msu4-v2" => Box::new(Msu4::v2()),
        "msu4-v1" => Box::new(Msu4::v1()),
        "msu4-inc" => Box::new(Msu4Incremental::new()),
        "msu1" => Box::new(Msu1::new()),
        "msu2" => Box::new(Msu2::new()),
        "msu3" => Box::new(Msu3::new()),
        "oll" => Box::new(Oll::new()),
        "wmsu1" => Box::new(Wmsu1::new()),
        "stratified" | "strat-msu3" => Box::new(Stratified::new(Msu3::new())),
        "strat-msu4" => Box::new(Stratified::new(Msu4::v2())),
        "strat-oll" => Box::new(Stratified::new(Oll::new())),
        "strat-wmsu1" => Box::new(Stratified::new(Wmsu1::new())),
        "pbo" => Box::new(PboBaseline::new()),
        "maxsatz" | "maxsatz-bb" | "bb" => Box::new(BranchBound::new()),
        "linear-sat" | "linear" => Box::new(LinearSearchSat::new()),
        "binary-sat" | "binary" => Box::new(BinarySearchSat::new()),
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

/// Parses problem text as CNF or WCNF into a MaxSAT instance.
///
/// The dialect is decided in [`dimacs::parse_maxsat`], from the text's
/// first token: a `p cnf` header gives unweighted MaxSAT (every clause
/// soft at weight 1), a `p wcnf` header classic WCNF, and text without a
/// `p` header the post-2022 MaxSAT-Evaluation format with `h`-prefixed
/// hard clauses.
///
/// # Errors
///
/// Propagates DIMACS parse failures as display strings.
pub fn parse_problem(text: &str) -> Result<WcnfFormula, String> {
    dimacs::parse_maxsat(text).map_err(|e| e.to_string())
}

/// Runs `options.algorithm` on `wcnf` and returns the solution.
///
/// When the selected algorithm only handles unweighted soft clauses
/// (`!supports_weights()`), it is wrapped in [`Stratified`]. That runs
/// the algorithm on every uniform-weight stratum and sends a stratum of
/// mixed weights to [`Oll`], so the run is exact on arbitrary weights.
///
/// Unless `options.preprocess` is off, the solver is wrapped in
/// [`Preprocessed`]: the formula is simplified once (soft variables
/// frozen), the residual instance solved, and the model reconstructed —
/// so the returned solution always refers to `wcnf` itself.
///
/// # Errors
///
/// Returns an error for unknown algorithm names.
pub fn run(options: &Options, wcnf: &WcnfFormula) -> Result<MaxSatSolution, String> {
    let mut solver = single_instance_solver(options)?;
    if let Some(ms) = options.timeout_ms {
        solver.set_budget(Budget::new().with_timeout(Duration::from_millis(ms)));
    }
    Ok(solver.solve(wcnf))
}

/// Builds the solver `run` uses for one instance: the selected
/// algorithm behind the stratification/preprocessing routers, or the
/// full [`Portfolio`] when `--portfolio` is set (the portfolio manages
/// weighted wrapping and preprocessing variants itself, racing
/// `options.jobs` threads).
fn single_instance_solver(options: &Options) -> Result<Box<dyn MaxSatSolver + Send>, String> {
    if options.portfolio {
        return Ok(Box::new(Portfolio::new(options.jobs)));
    }
    let inner = make_solver_send(&options.algorithm)?;
    let inner: Box<dyn MaxSatSolver + Send> = if !inner.supports_weights() {
        // A router: on unweighted input the stratifier passes straight
        // through, on weighted input it keeps the run exact — so it is
        // safe to wrap unconditionally, which lets one factory serve
        // every instance of a mixed batch.
        Box::new(Stratified::new(inner))
    } else {
        inner
    };
    Ok(if options.preprocess {
        Box::new(Preprocessed::new(inner))
    } else {
        inner
    })
}

/// One file's outcome within a batch run.
#[derive(Debug, Clone)]
pub struct BatchFileOutcome {
    /// File name (relative to the batch directory).
    pub file: String,
    /// Solve status.
    pub status: MaxSatStatus,
    /// Proven (or best-known) cost.
    pub cost: Option<Weight>,
    /// Certified lower bound (equals cost on `Optimal`).
    pub lower_bound: Weight,
    /// Independent `verify_solution` verdict.
    pub verified: bool,
    /// Per-instance wall-clock milliseconds.
    pub time_ms: f64,
    /// The instance's full solve statistics (driver, SAT engine,
    /// preprocessing, per-phase times).
    pub stats: coremax::MaxSatStats,
}

/// Results of a batch-directory run (input files in sorted order).
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Per-file outcomes, sorted by file name — the order is stable
    /// across worker counts.
    pub outcomes: Vec<BatchFileOutcome>,
    /// Wall-clock milliseconds for the whole batch.
    pub wall_ms: f64,
    /// Sum of per-instance solve times (sequential-equivalent cost).
    pub cpu_ms: f64,
    /// Worker threads used.
    pub jobs: usize,
    /// Append a `stats=[..]` field to every `r` row and an aggregated
    /// `c batch-stats:` block to the summary (`--stats`).
    pub show_stats: bool,
    /// Append a `simp=[..]` field to every `r` row and an aggregated
    /// `c batch-simp-stats:` line to the summary (`--simp-stats`).
    pub show_simp_stats: bool,
}

impl BatchRun {
    /// Number of instances that aborted (status `UNKNOWN`).
    #[must_use]
    pub fn unknown(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == MaxSatStatus::Unknown)
            .count()
    }

    /// Number of instances that aborted without an incumbent: no `o`
    /// value was ever certified, only the lower bound. These are the
    /// batch counterpart of single-file exit code 30 (hard abort), as
    /// opposed to 10 (abort with a certified incumbent).
    #[must_use]
    pub fn hard_aborts(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == MaxSatStatus::Unknown && o.cost.is_none())
            .count()
    }
}

/// Solves every `.cnf`/`.wcnf` file in `dir` across `options.jobs`
/// workers (work stealing, per-instance budgets). Each instance is
/// solved by the same configuration regardless of worker count, so the
/// per-file outcomes match sequential runs of the same files exactly.
///
/// # Errors
///
/// Propagates I/O and parse failures (with the offending file named)
/// and unknown algorithm names as display strings.
pub fn run_batch_dir(options: &Options, dir: &str) -> Result<BatchRun, String> {
    // Batch output is the per-instance `r` summary; flags that promise
    // extra per-run output that cannot be attached to a summary row are
    // rejected (the same rule `--portfolio` applies to -a). `--stats`
    // and `--simp-stats` DO apply: they add a per-row `stats=`/`simp=`
    // field and an aggregated block to the `c batch` summary. `--verify`
    // is fine: batch mode verifies every solution unconditionally.
    if options.print_model {
        return Err(
            "batch (directory) mode prints per-instance summaries only; \
             -m/--model does not apply"
                .into(),
        );
    }
    if options.stats_json.is_some() {
        return Err(
            "batch (directory) mode prints per-instance summaries only; \
             --stats-json does not apply (use --stats for per-row and \
             aggregated counters)"
                .into(),
        );
    }
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.ends_with(".cnf") || name.ends_with(".wcnf")).then_some(name)
        })
        .collect();
    files.sort_unstable();
    if files.is_empty() {
        return Err(format!("no .cnf/.wcnf files in {dir}"));
    }

    let mut formulas: Vec<(String, WcnfFormula)> = Vec::with_capacity(files.len());
    for name in files {
        let path = std::path::Path::new(dir).join(&name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let wcnf = parse_problem(&text).map_err(|e| format!("{name}: {e}"))?;
        formulas.push((name, wcnf));
    }

    let items: Vec<(&str, &WcnfFormula)> = formulas
        .iter()
        .map(|(name, wcnf)| (name.as_str(), wcnf))
        .collect();
    let mut budget = Budget::new();
    if let Some(ms) = options.timeout_ms {
        budget = budget.with_timeout(Duration::from_millis(ms));
    }
    // Batch parallelism lives at the instance level: a `--portfolio`
    // batch races members sequentially inside each worker, otherwise
    // `--jobs` workers × `--jobs`-thread portfolios would oversubscribe
    // the host jobs² ways.
    let solver_options = Options {
        jobs: 1,
        ..options.clone()
    };
    // Validate the configuration once up front, so a bad algorithm name
    // fails before any solving instead of panicking inside a worker.
    let _ = single_instance_solver(&solver_options)?;
    let report = solve_batch(
        &items,
        || single_instance_solver(&solver_options).expect("configuration validated above"),
        &BatchOptions {
            jobs: options.jobs,
            budget,
        },
    );

    let outcomes: Vec<BatchFileOutcome> = report
        .outcomes
        .iter()
        .zip(&formulas)
        .map(|(outcome, (_, wcnf))| BatchFileOutcome {
            file: outcome.name.clone(),
            status: outcome.solution.status,
            cost: outcome.solution.cost,
            lower_bound: outcome.solution.lower_bound,
            verified: coremax::verify_solution(wcnf, &outcome.solution),
            time_ms: outcome.solution.stats.wall_time.as_secs_f64() * 1e3,
            stats: outcome.solution.stats,
        })
        .collect();
    Ok(BatchRun {
        outcomes,
        wall_ms: report.wall_time.as_secs_f64() * 1e3,
        cpu_ms: report.cpu_time().as_secs_f64() * 1e3,
        jobs: options.jobs,
        show_stats: options.stats,
        show_simp_stats: options.simp_stats,
    })
}

/// Formats a batch run: one `r FILE STATUS COST` line per instance
/// (`-` for no cost; aborted instances append their certified
/// `lb=<lower bound>`) plus a `c batch:` summary. With `--stats` /
/// `--simp-stats` each `r` row carries a `stats=[..]` / `simp=[..]`
/// field and the summary gains aggregated counter lines (every
/// per-instance [`coremax::MaxSatStats`] absorbed into one).
#[must_use]
pub fn format_batch(run: &BatchRun) -> String {
    let mut out = String::new();
    let mut counts = [0usize; 3];
    let mut aggregate = coremax::MaxSatStats::default();
    for o in &run.outcomes {
        counts[match o.status {
            MaxSatStatus::Optimal => 0,
            MaxSatStatus::Infeasible => 1,
            MaxSatStatus::Unknown => 2,
        }] += 1;
        aggregate.absorb(&o.stats);
        out.push_str(&format!(
            "r {} {} {}",
            o.file,
            o.status,
            o.cost.map_or("-".to_string(), |c| c.to_string()),
        ));
        if o.status == MaxSatStatus::Unknown {
            out.push_str(&format!(" lb={}", o.lower_bound));
        }
        if run.show_stats {
            out.push_str(&format!(" stats=[{}]", o.stats));
        }
        if run.show_simp_stats {
            out.push_str(&format!(" simp=[{}]", o.stats.simp));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "c batch: {} instances, {} optimal, {} infeasible, {} aborted \
         ({} without incumbent), jobs={}, wall {:.1} ms, cpu {:.1} ms\n",
        run.outcomes.len(),
        counts[0],
        counts[1],
        counts[2],
        run.hard_aborts(),
        run.jobs,
        run.wall_ms,
        run.cpu_ms,
    ));
    if run.show_stats {
        out.push_str(&format!("c batch-stats: {aggregate}\n"));
        out.push_str(&format!("c batch-sat-stats: {}\n", aggregate.sat));
    }
    if run.show_simp_stats {
        out.push_str(&format!("c batch-simp-stats: {}\n", aggregate.simp));
    }
    out
}

/// Writes the generated benchmark suite into `dir` as WCNF files.
/// Returns the file names written.
///
/// # Errors
///
/// Propagates I/O failures as display strings.
pub fn generate_suite(options: &Options, dir: &str) -> Result<Vec<String>, String> {
    let config = SuiteConfig {
        scale: options.scale,
        seed: options.seed,
    };
    let instances = match options.family.as_deref() {
        Some("debug29") => debug_suite(&config),
        Some("weighted") => weighted_suite(&config),
        Some(name) => full_suite(&config)
            .into_iter()
            .filter(|i| i.family.name() == name)
            .collect(),
        None => {
            let mut all = full_suite(&config);
            all.extend(weighted_suite(&config));
            all
        }
    };
    if instances.is_empty() {
        return Err(format!(
            "no instances for family {:?}",
            options.family.as_deref().unwrap_or("<all>")
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let mut written = Vec::with_capacity(instances.len());
    let mut index = String::from("# name family stats\n");
    for instance in instances {
        let name = format!("{}.wcnf", instance.name);
        let path = std::path::Path::new(dir).join(&name);
        std::fs::write(&path, dimacs::write_wcnf(&instance.wcnf))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        index.push_str(&format!(
            "{} {} {}\n",
            instance.name,
            instance.family,
            InstanceStats::of(&instance.wcnf)
        ));
        written.push(name);
    }
    let index_path = std::path::Path::new(dir).join("INDEX.txt");
    std::fs::write(&index_path, index)
        .map_err(|e| format!("cannot write {}: {e}", index_path.display()))?;
    Ok(written)
}

/// Installs the observability sinks the options ask for and returns the
/// guard keeping them alive (`None` when no event sink is needed —
/// timing-only runs just raise the timing flag).
///
/// `--progress` attaches a live printer (`o <cost>` on every improved
/// incumbent, `c bounds lb=.. ub=..` throttled to four lines a second),
/// `--trace FILE` a JSONL trace writer; both at once fan out. `--stats`
/// and `--stats-json` turn per-phase timing on so the phase breakdown
/// in the reports is populated.
///
/// # Errors
///
/// Returns a message when the trace file cannot be created.
pub fn install_observability(options: &Options) -> Result<Option<coremax_obs::SinkGuard>, String> {
    use std::sync::Arc;
    let mut sinks: Vec<Arc<dyn coremax_obs::EventSink>> = Vec::new();
    if options.progress {
        sinks.push(Arc::new(coremax_obs::ProgressSink::stdout(
            Duration::from_millis(250),
        )));
    }
    if let Some(path) = &options.trace {
        let sink = coremax_obs::JsonlTraceSink::create(path)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        sinks.push(Arc::new(sink));
    }
    let timing = options.stats || options.stats_json.is_some();
    if sinks.is_empty() {
        if timing {
            coremax_obs::set_timing(true);
        }
        return Ok(None);
    }
    let sink: Arc<dyn coremax_obs::EventSink> = if sinks.len() == 1 {
        sinks.pop().expect("one sink")
    } else {
        Arc::new(coremax_obs::FanoutSink::new(sinks))
    };
    Ok(Some(coremax_obs::install(sink, timing)))
}

/// Serializes a solution's verdict and full statistics tree (driver
/// counters, SAT-engine counters, preprocessing counters, per-phase
/// wall times) as a single JSON object — what `--stats-json FILE`
/// writes.
#[must_use]
pub fn solution_stats_json(solution: &MaxSatSolution) -> String {
    let mut out = String::from("{\"status\": \"");
    out.push_str(match solution.status {
        MaxSatStatus::Optimal => "optimal",
        MaxSatStatus::Infeasible => "infeasible",
        MaxSatStatus::Unknown => "unknown",
    });
    out.push_str("\", \"cost\": ");
    match solution.cost {
        Some(c) => out.push_str(&c.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(&format!(", \"lower_bound\": {}", solution.lower_bound));
    out.push_str(", \"stats\": ");
    solution.stats.to_json_into(&mut out);
    out.push_str("}\n");
    out
}

/// Formats a solution in MaxSAT-evaluation style (`o` cost line, `s`
/// status line, optional `v` model line). Budget-exhausted solves also
/// print their certified interval as a `c bounds` comment — `lb` is
/// the core-derived lower bound, `ub` the incumbent's exact cost (`-`
/// when no incumbent was found).
#[must_use]
pub fn format_solution(wcnf: &WcnfFormula, solution: &MaxSatSolution, print_model: bool) -> String {
    use coremax::MaxSatStatus;
    let mut out = String::new();
    if let Some(cost) = solution.cost {
        out.push_str(&format!("o {cost}\n"));
    }
    if solution.status == MaxSatStatus::Unknown {
        let ub = solution
            .cost
            .map_or_else(|| "-".to_string(), |c| c.to_string());
        out.push_str(&format!("c bounds lb={} ub={ub}\n", solution.lower_bound));
    }
    out.push_str(match solution.status {
        MaxSatStatus::Optimal => "s OPTIMUM FOUND\n",
        MaxSatStatus::Infeasible => "s UNSATISFIABLE\n",
        MaxSatStatus::Unknown => "s UNKNOWN\n",
    });
    if print_model {
        if let Some(model) = &solution.model {
            out.push('v');
            for i in 0..wcnf.num_vars() {
                let v = coremax_cnf::Var::new(i as u32);
                let val = model.value(v).unwrap_or(false);
                out.push(' ');
                if !val {
                    out.push('-');
                }
                out.push_str(&(i + 1).to_string());
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults() {
        let o = parse_args(["file.cnf".to_string()]).unwrap();
        assert_eq!(o.algorithm, "msu4-v2");
        assert_eq!(o.input, "file.cnf");
        assert!(!o.verify);
    }

    #[test]
    fn parse_all_flags() {
        let o = parse_args(
            [
                "-a",
                "msu1",
                "-t",
                "500",
                "--verify",
                "--stats",
                "--no-preprocess",
                "--simp-stats",
                "-m",
                "x.wcnf",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(o.algorithm, "msu1");
        assert_eq!(o.timeout_ms, Some(500));
        assert!(o.verify && o.stats && o.print_model && o.simp_stats);
        assert!(!o.preprocess);
        assert_eq!(o.input, "x.wcnf");
    }

    #[test]
    fn preprocess_defaults_on_and_can_be_forced() {
        let o = parse_args(["f.cnf".to_string()]).unwrap();
        assert!(o.preprocess);
        let o = parse_args(["--preprocess".to_string(), "f.cnf".to_string()]).unwrap();
        assert!(o.preprocess);
    }

    #[test]
    fn parse_jobs_and_portfolio() {
        let o = parse_args(
            ["-j", "4", "--portfolio", "x.wcnf"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(o.jobs, 4);
        assert!(o.portfolio);
        let o = parse_args(["--jobs", "2", "y.cnf"].into_iter().map(String::from)).unwrap();
        assert_eq!(o.jobs, 2);
        assert!(!o.portfolio);
        assert!(parse_args(["--jobs", "0", "y.cnf"].into_iter().map(String::from)).is_err());
        assert!(parse_args(["--jobs", "x", "y.cnf"].into_iter().map(String::from)).is_err());
    }

    #[test]
    fn portfolio_rejects_contradictory_flags() {
        // The portfolio races every algorithm, bare and preprocessed:
        // an explicit -a or --no-preprocess would be silently ignored,
        // so both combinations are errors.
        for args in [
            vec!["--portfolio", "-a", "msu1", "f.cnf"],
            vec!["-a", "msu1", "--portfolio", "f.cnf"],
            vec!["--portfolio", "--no-preprocess", "f.cnf"],
        ] {
            let parsed = parse_args(args.iter().map(|s| s.to_string()));
            assert!(parsed.is_err(), "{args:?} must be rejected");
        }
        // --preprocess (the default, a no-op) and -t remain fine.
        let o = parse_args(
            ["--portfolio", "--preprocess", "-t", "100", "f.cnf"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert!(o.portfolio);
    }

    #[test]
    fn portfolio_run_matches_single_solver() {
        let wcnf =
            parse_problem("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n")
                .unwrap();
        for jobs in [1, 4] {
            let options = Options {
                portfolio: true,
                jobs,
                ..Options::default()
            };
            let s = run(&options, &wcnf).unwrap();
            assert_eq!(s.status, coremax::MaxSatStatus::Optimal, "jobs={jobs}");
            assert_eq!(s.cost, Some(2), "jobs={jobs}");
            assert!(coremax::verify_solution(&wcnf, &s));
        }
    }

    #[test]
    fn batch_dir_solves_generated_suite_and_is_job_invariant() {
        let dir = std::env::temp_dir().join("coremax-batch-lib-test");
        let _ = std::fs::remove_dir_all(&dir);
        let gen = Options {
            generate_dir: Some(dir.display().to_string()),
            family: Some("php".into()),
            ..Options::default()
        };
        let files = generate_suite(&gen, &dir.display().to_string()).unwrap();
        assert!(files.len() >= 2);

        let run_with = |jobs: usize| {
            run_batch_dir(
                &Options {
                    jobs,
                    ..Options::default()
                },
                &dir.display().to_string(),
            )
            .unwrap()
        };
        let seq = run_with(1);
        assert_eq!(seq.outcomes.len(), files.len());
        assert!(seq.outcomes.iter().all(|o| o.verified));
        assert_eq!(seq.unknown(), 0);
        let par = run_with(4);
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.file, b.file, "sorted order is worker-invariant");
            assert_eq!(a.status, b.status, "{}", a.file);
            assert_eq!(a.cost, b.cost, "{}", a.file);
        }
        let text = format_batch(&par);
        assert!(text.contains("c batch:"));
        assert!(text.lines().filter(|l| l.starts_with("r ")).count() == files.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_dir_rejects_per_run_output_flags() {
        // -m and --stats-json have no per-row form; --stats and
        // --simp-stats are accepted (they become row fields and an
        // aggregated summary block).
        for options in [
            Options {
                print_model: true,
                ..Options::default()
            },
            Options {
                stats_json: Some("/tmp/never.json".into()),
                ..Options::default()
            },
        ] {
            let err = run_batch_dir(&options, "/tmp").unwrap_err();
            assert!(err.contains("does not apply"), "{err}");
        }
    }

    #[test]
    fn batch_dir_stats_flags_add_row_fields_and_aggregate_block() {
        let dir = std::env::temp_dir().join("coremax-batch-stats-test");
        let _ = std::fs::remove_dir_all(&dir);
        let gen = Options {
            generate_dir: Some(dir.display().to_string()),
            family: Some("php".into()),
            ..Options::default()
        };
        generate_suite(&gen, &dir.display().to_string()).unwrap();
        let batch = run_batch_dir(
            &Options {
                stats: true,
                simp_stats: true,
                ..Options::default()
            },
            &dir.display().to_string(),
        )
        .unwrap();
        let text = format_batch(&batch);
        for line in text.lines().filter(|l| l.starts_with("r ")) {
            assert!(line.contains(" stats=["), "{line}");
            assert!(line.contains(" simp=["), "{line}");
        }
        assert!(text.contains("c batch-stats: "), "{text}");
        assert!(text.contains("c batch-sat-stats: "), "{text}");
        assert!(text.contains("c batch-simp-stats: "), "{text}");
        // The aggregated counters are the absorb of every row's stats.
        let mut aggregate = coremax::MaxSatStats::default();
        for o in &batch.outcomes {
            aggregate.absorb(&o.stats);
        }
        assert!(aggregate.sat_calls >= batch.outcomes.len() as u64);
        assert!(text.contains(&format!("c batch-stats: {aggregate}")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_dir_rejects_empty_and_missing_dirs() {
        let dir = std::env::temp_dir().join("coremax-batch-empty-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let options = Options::default();
        assert!(run_batch_dir(&options, &dir.display().to_string()).is_err());
        assert!(run_batch_dir(&options, "/nonexistent/coremax").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_observability_flags() {
        let o = parse_args(
            [
                "--progress",
                "--trace",
                "/tmp/t.jsonl",
                "--stats-json",
                "/tmp/s.json",
                "f.cnf",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert!(o.progress);
        assert_eq!(o.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(o.stats_json.as_deref(), Some("/tmp/s.json"));
        assert!(parse_args(["--trace".to_string()]).is_err());
        assert!(parse_args(["--stats-json".to_string()]).is_err());
    }

    #[test]
    fn stats_json_snapshot_is_wellformed_and_carries_the_tree() {
        let wcnf = parse_problem("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let solution = run(&Options::default(), &wcnf).unwrap();
        let text = solution_stats_json(&solution);
        let value = coremax_obs::json::parse(&text).expect("snapshot parses");
        assert_eq!(
            value.get("status").and_then(|v| v.as_str()),
            Some("optimal")
        );
        assert_eq!(value.get("cost").and_then(|v| v.as_u64()), Some(1));
        let stats = value.get("stats").expect("stats subtree");
        assert!(stats.get("sat_calls").is_some());
        assert!(stats.get("phase_times").is_some());
        assert!(stats.get("sat").and_then(|s| s.get("conflicts")).is_some());
        assert!(stats.get("simp").and_then(|s| s.get("rounds")).is_some());
    }

    #[test]
    fn parse_rejects_unknown_flag() {
        // A script that passes `--share` or `--share-lbd` gets the usage
        // error, not a race that silently ignores them.
        for args in [
            &["--bogus", "f"][..],
            &["--portfolio", "--share", "f"],
            &["--portfolio", "--share-lbd", "4", "f"],
        ] {
            let err = parse_args(args.iter().map(|a| a.to_string())).unwrap_err();
            assert!(err.starts_with("unknown flag `--"), "{args:?}: {err}");
            assert!(err.ends_with(&usage()), "{args:?}: {err}");
        }
        assert!(!usage().contains("--share"));
    }

    #[test]
    fn parse_requires_input() {
        assert!(parse_args(Vec::<String>::new()).is_err());
    }

    #[test]
    fn stdin_marker_accepted() {
        let o = parse_args(["-".to_string()]).unwrap();
        assert_eq!(o.input, "-");
    }

    /// Every algorithm name `make_solver` advertises.
    const ADVERTISED: [&str; 17] = [
        "msu4-v1",
        "msu4-v2",
        "msu4-inc",
        "msu1",
        "msu2",
        "msu3",
        "oll",
        "wmsu1",
        "stratified",
        "strat-msu3",
        "strat-msu4",
        "strat-oll",
        "strat-wmsu1",
        "pbo",
        "maxsatz-bb",
        "linear-sat",
        "binary-sat",
    ];

    #[test]
    fn all_advertised_solvers_constructible() {
        for name in ADVERTISED {
            assert!(make_solver(name).is_ok(), "{name}");
        }
        assert!(make_solver("nope").is_err());
        assert!(make_solver("replication").is_err());
    }

    /// Pigeonhole 6/5 with every clause soft: the optimum is 1, and
    /// every solver needs far more than 20 conflicts or 200
    /// propagations to prove it.
    fn capped_instance() -> WcnfFormula {
        WcnfFormula::from_cnf_all_soft(&coremax_instances::pigeonhole(5))
    }

    #[test]
    fn every_advertised_solver_honours_work_caps() {
        let w = capped_instance();
        for budget in [
            Budget::new().with_max_conflicts(20),
            Budget::new().with_max_propagations(200),
        ] {
            let mut solvers: Vec<(&str, Box<dyn MaxSatSolver>)> = ADVERTISED
                .iter()
                .map(|&name| (name, make_solver(name).unwrap()))
                .collect();
            solvers.push(("preprocessed", Box::new(Preprocessed::new(Msu4::v2()))));
            solvers.push(("portfolio", Box::new(Portfolio::new(2))));
            for (name, mut solver) in solvers {
                solver.set_budget(budget.clone());
                let s = solver.solve(&w);
                let caps = (budget.max_conflicts(), budget.max_propagations());
                assert_eq!(s.status, MaxSatStatus::Unknown, "{name} under {caps:?}");
                assert!(coremax::verify_solution(&w, &s), "{name} under {caps:?}");
                assert!(
                    s.lower_bound <= 1 && s.cost.is_none_or(|c| c >= 1),
                    "{name} under {caps:?}: [{}, {:?}] misses the optimum",
                    s.lower_bound,
                    s.cost
                );
            }
        }
    }

    #[test]
    fn capped_runs_repeat() {
        // A single-threaded capped solve depends on no clock, so two runs
        // stop at the same point with the same work done.
        let w = capped_instance();
        for name in ["oll", "msu4-v2"] {
            let run = || {
                let mut solver = make_solver(name).unwrap();
                solver.set_budget(Budget::new().with_max_conflicts(20));
                let s = solver.solve(&w);
                let mut work = s.stats.sat;
                work.phase = coremax_obs::PhaseTimes::default();
                (s.status, s.lower_bound, s.cost, work)
            };
            let first = run();
            assert_eq!(first.0, MaxSatStatus::Unknown, "{name}");
            assert_eq!(first.3.conflicts, 20, "{name}");
            assert_eq!(first, run(), "{name}");
        }
    }

    #[test]
    fn weighted_capability_flags() {
        for (name, expected) in [
            ("msu4-v2", false),
            ("msu1", false),
            ("oll", true),
            ("strat-oll", true),
            ("wmsu1", true),
            ("stratified", true),
            ("strat-msu4", true),
            ("maxsatz-bb", true),
            ("pbo", true),
        ] {
            assert_eq!(
                make_solver(name).unwrap().supports_weights(),
                expected,
                "{name}"
            );
        }
    }

    #[test]
    fn weighted_input_is_stratified_not_replicated_or_panicking() {
        // msu4-v2 (the default) alone panics on weighted soft clauses;
        // the run() router must stratify it transparently, with and
        // without preprocessing.
        let wcnf = parse_problem("p wcnf 2 3 99\n99 1 2 0\n100 -1 0\n3 -2 0\n").unwrap();
        for preprocess in [true, false] {
            let options = Options {
                preprocess,
                ..Options::default()
            };
            let s = run(&options, &wcnf).unwrap();
            assert_eq!(s.status, coremax::MaxSatStatus::Optimal);
            assert_eq!(s.cost, Some(3));
            assert!(coremax::verify_solution(&wcnf, &s));
            assert!(s.stats.strata >= 1, "stratified router engaged");
        }
    }

    #[test]
    fn weighted_solvers_run_unwrapped() {
        let wcnf = parse_problem("p wcnf 1 2\n4 1 0\n9 -1 0\n").unwrap();
        for algo in ["wmsu1", "strat-msu3", "maxsatz-bb"] {
            let options = Options {
                algorithm: algo.into(),
                ..Options::default()
            };
            let s = run(&options, &wcnf).unwrap();
            assert_eq!(s.cost, Some(4), "{algo}");
            assert!(coremax::verify_solution(&wcnf, &s), "{algo}");
        }
    }

    #[test]
    fn weighted_roundtrip_preserves_optimum_across_dialects() {
        // parse → solve → serialize → reparse → solve, classic and
        // post-2022 dialects, through the CLI entry points.
        let classic = "p wcnf 3 5 99\n99 -1 2 0\n10 1 0\n9 -1 0\n1 -2 0\n2 3 0\n";
        let wcnf = parse_problem(classic).unwrap();
        let options = Options {
            algorithm: "wmsu1".into(),
            ..Options::default()
        };
        let first = run(&options, &wcnf).unwrap();
        assert_eq!(first.status, coremax::MaxSatStatus::Optimal);
        for text in [dimacs::write_wcnf(&wcnf), dimacs::write_wcnf_new(&wcnf)] {
            let reparsed = parse_problem(&text).unwrap();
            assert_eq!(reparsed.num_hard(), wcnf.num_hard());
            let again = run(&options, &reparsed).unwrap();
            assert_eq!(again.cost, first.cost);
            assert!(coremax::verify_solution(&reparsed, &again));
            let formatted = format_solution(&reparsed, &again, false);
            assert!(formatted.contains("s OPTIMUM FOUND"));
        }
    }

    #[test]
    fn problem_sniffing() {
        let cnf = parse_problem("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        assert!(cnf.is_plain_maxsat());
        assert_eq!(cnf.num_soft(), 2);
        let wcnf = parse_problem("p wcnf 1 2 5\n5 1 0\n1 -1 0\n").unwrap();
        assert_eq!(wcnf.num_hard(), 1);
        // Headerless post-2022 WCNF is sniffed as WCNF too.
        let modern = parse_problem("c no header\nh 1 0\n3 -1 0\n").unwrap();
        assert_eq!(modern.num_hard(), 1);
        assert_eq!(modern.num_soft(), 1);
        assert_eq!(modern.soft(0).weight, 3);
    }

    #[test]
    fn tab_separated_header_is_cnf() {
        // A tab or form feed may separate the header's tokens, as
        // anywhere else in DIMACS text.
        for header in ["p\tcnf 2 2", "p\x0ccnf 2 2", "p cnf\t2\t2"] {
            let text = format!("{header}\n1 0\n-1 2 0\n");
            let w = parse_problem(&text).unwrap_or_else(|e| panic!("{header:?}: {e}"));
            assert_eq!(w, parse_problem("p cnf 2 2\n1 0\n-1 2 0\n").unwrap());
            assert_eq!((w.num_hard(), w.num_soft()), (0, 2));
        }
        // The first token decides: a header may span lines, and a `p`
        // line after the first token is no header.
        let classic = parse_problem("p\nwcnf 1 1 2\n2 1 0\n").unwrap();
        assert_eq!(classic.num_hard(), 1);
        let e = parse_problem("x\np cnf 1 1\n1 0\n").unwrap_err();
        assert_eq!(e, "line 1: invalid clause weight `x`");
    }

    #[test]
    fn preprocessing_preserves_answers_end_to_end() {
        // Partial MaxSAT where the simplifier has real work: a hard
        // implication chain with soft endpoints.
        let wcnf =
            parse_problem("p wcnf 4 5 9\n9 -1 2 0\n9 -2 3 0\n9 -3 4 0\n1 -4 0\n1 1 0\n").unwrap();
        let on = run(&Options::default(), &wcnf).unwrap();
        let off = run(
            &Options {
                preprocess: false,
                ..Options::default()
            },
            &wcnf,
        )
        .unwrap();
        assert_eq!(on.status, off.status);
        assert_eq!(on.cost, off.cost);
        assert!(coremax::verify_solution(&wcnf, &on));
        assert!(on.stats.simp.vars_in > 0, "simp counters populated");
        assert_eq!(off.stats.simp, coremax_simp::SimpStats::default());
    }

    #[test]
    fn preprocessed_runs_agree_and_verify() {
        // The debug family is partial MaxSAT: the simplifier has hard
        // clauses to chew on there.
        let instances: Vec<_> = full_suite(&SuiteConfig::default())
            .into_iter()
            .filter(|i| i.family.name() == "debug")
            .take(2)
            .collect();
        assert!(!instances.is_empty());
        for instance in &instances {
            let [plain, pre] = [false, true].map(|preprocess| {
                let options = Options {
                    preprocess,
                    ..Options::default()
                };
                run(&options, &instance.wcnf).unwrap()
            });
            assert_eq!(plain.cost, pre.cost, "{}: optimum changed", instance.name);
            assert!(
                coremax::verify_solution(&instance.wcnf, &pre),
                "{}",
                instance.name
            );
            assert!(pre.stats.simp.vars_in > 0, "simp counters populated");
        }
    }

    #[test]
    fn weighted_lineup_agrees_on_the_weighted_suite() {
        // Three light-total instances, which every member of the CI
        // weighted step's lineup solves in milliseconds.
        let instances: Vec<_> = weighted_suite(&SuiteConfig::default())
            .into_iter()
            .filter(|i| i.wcnf.total_soft_weight() <= 100_000)
            .take(3)
            .collect();
        assert!(!instances.is_empty());
        for instance in &instances {
            let costs =
                ["wmsu1", "strat-msu3", "strat-msu4", "oll", "strat-oll"].map(|algorithm| {
                    let options = Options {
                        algorithm: algorithm.into(),
                        preprocess: false,
                        ..Options::default()
                    };
                    let s = run(&options, &instance.wcnf).unwrap();
                    assert_eq!(s.status, coremax::MaxSatStatus::Optimal, "{algorithm}");
                    assert!(coremax::verify_solution(&instance.wcnf, &s), "{algorithm}");
                    s.cost
                });
            assert!(
                costs.windows(2).all(|w| w[0] == w[1]),
                "{}: {costs:?}",
                instance.name
            );
        }
    }

    #[test]
    fn end_to_end_solve_and_format() {
        let wcnf = parse_problem("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let options = Options {
            algorithm: "msu4-v2".into(),
            ..Options::default()
        };
        let solution = run(&options, &wcnf).unwrap();
        assert_eq!(solution.cost, Some(1));
        let text = format_solution(&wcnf, &solution, true);
        assert!(text.contains("o 1"));
        assert!(text.contains("s OPTIMUM FOUND"));
        assert!(text.contains('v'));
    }

    #[test]
    fn generate_mode_parses() {
        let o = parse_args(
            [
                "--generate",
                "/tmp/x",
                "--family",
                "php",
                "--scale",
                "2",
                "--seed",
                "7",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(o.generate_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(o.family.as_deref(), Some("php"));
        assert_eq!(o.scale, 2);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn generate_writes_parseable_files() {
        let dir = std::env::temp_dir().join("coremax-gen-test");
        let _ = std::fs::remove_dir_all(&dir);
        let options = Options {
            generate_dir: Some(dir.display().to_string()),
            family: Some("xor".into()),
            ..Options::default()
        };
        let files = generate_suite(&options, &dir.display().to_string()).unwrap();
        assert!(!files.is_empty());
        for f in &files {
            let text = std::fs::read_to_string(dir.join(f)).unwrap();
            let w = dimacs::parse_wcnf(&text).expect("generated file parses");
            assert!(w.num_soft() > 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generate_rejects_unknown_family() {
        let options = Options {
            generate_dir: Some("/tmp/never".into()),
            family: Some("nonexistent".into()),
            ..Options::default()
        };
        assert!(generate_suite(&options, "/tmp/never").is_err());
    }

    #[test]
    fn hard_aborts_exclude_incumbent_carrying_unknowns() {
        let outcome = |status, cost| BatchFileOutcome {
            file: "f.cnf".into(),
            status,
            cost,
            lower_bound: 1,
            verified: true,
            time_ms: 0.0,
            stats: coremax::MaxSatStats::default(),
        };
        let run = BatchRun {
            outcomes: vec![
                outcome(MaxSatStatus::Optimal, Some(2)),
                outcome(MaxSatStatus::Unknown, Some(5)), // exit-10 class
                outcome(MaxSatStatus::Unknown, None),    // exit-30 class
            ],
            wall_ms: 0.0,
            cpu_ms: 0.0,
            jobs: 1,
            show_stats: false,
            show_simp_stats: false,
        };
        assert_eq!(run.unknown(), 2);
        assert_eq!(
            run.hard_aborts(),
            1,
            "an abort with a certified incumbent is not a hard abort"
        );
        let text = format_batch(&run);
        assert!(text.contains("2 aborted (1 without incumbent)"), "{text}");
    }

    #[test]
    fn format_unknown_without_model() {
        use coremax::{MaxSatSolution, MaxSatStats, MaxSatStatus};
        let wcnf = parse_problem("p cnf 1 1\n1 0\n").unwrap();
        let s = MaxSatSolution {
            status: MaxSatStatus::Unknown,
            cost: None,
            model: None,
            lower_bound: 0,
            stats: MaxSatStats::default(),
        };
        let text = format_solution(&wcnf, &s, true);
        assert_eq!(text, "c bounds lb=0 ub=-\ns UNKNOWN\n");
    }

    #[test]
    fn format_unknown_with_incumbent_prints_interval() {
        use coremax::{MaxSatSolution, MaxSatStats, MaxSatStatus};
        use coremax_cnf::Assignment;
        let wcnf = parse_problem("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let s = MaxSatSolution {
            status: MaxSatStatus::Unknown,
            cost: Some(1),
            model: Some(Assignment::from_bools(&[true])),
            lower_bound: 1,
            stats: MaxSatStats::default(),
        };
        let text = format_solution(&wcnf, &s, false);
        assert!(text.contains("o 1\n"), "{text}");
        assert!(text.contains("c bounds lb=1 ub=1\n"), "{text}");
        assert!(text.ends_with("s UNKNOWN\n"), "{text}");
    }
}
