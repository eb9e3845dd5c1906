//! MaxSAT-aware CNF preprocessing for the `coremax` suite.
//!
//! Core-guided MaxSAT algorithms (msu1/msu3/msu4) spend nearly all of
//! their time in repeated SAT calls over the *same* working formula, so
//! shrinking that formula once — before the first core is extracted —
//! multiplies every SAT-engine gain across the whole run. This crate is
//! a SatELite-style simplifier with the twists MaxSAT requires:
//!
//! - **Frozen variables.** Soft-clause variables (and any extra the
//!   caller freezes) are never eliminated, because the MaxSAT driver
//!   will attach relaxation/assumption literals to them later. Only the
//!   hard clauses are rewritten; soft clauses are merely *simplified*
//!   by proven facts and dropped when a hard clause subsumes them
//!   (both cost-preserving).
//! - **Model reconstruction.** Every removal is pushed onto an
//!   elimination stack ([`coremax_cnf::simp::Reconstructor`]), so a
//!   model of the simplified formula extends to a model of the original
//!   with *identical* cost — `verify` keeps validating solutions
//!   against the untouched input.
//!
//! Techniques, in pipeline order:
//!
//! 1. top-level **unit propagation** and fact substitution,
//! 2. signature-based forward/backward **subsumption** and
//!    **self-subsuming resolution**,
//! 3. **failed-literal probing**, riding on the CDCL engine's watched
//!    propagation via the [`coremax_sat::Solver::probe_lit`] hook,
//! 4. bounded **variable elimination** (occurrence lists, resolvent
//!    counting with a growth budget) and **pure-literal** removal.
//!
//! # Examples
//!
//! Eliminate the hard-only chain around a soft core:
//!
//! ```
//! use coremax_cnf::{dimacs, WcnfFormula};
//! use coremax_simp::Simplifier;
//!
//! // Hard: x1→x2→x3, soft: ¬x3 and x1.
//! let wcnf = dimacs::parse_wcnf(
//!     "p wcnf 3 4 9\n9 -1 2 0\n9 -2 3 0\n1 -3 0\n1 1 0\n",
//! ).unwrap();
//! let mut simp = Simplifier::new();
//! let result = simp.simplify(&wcnf);
//! assert!(!result.infeasible);
//! // x2 occurs only in hard clauses: eliminated by resolution.
//! assert!(result.formula.num_vars() < wcnf.num_vars());
//! assert_eq!(simp.stats().eliminated_vars, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;

use coremax_cnf::{simp::SimpResult, Var, WcnfFormula};
use coremax_sat::Budget;

/// Tunable preprocessing parameters.
///
/// The defaults are conservative: no clause-count growth during
/// elimination, bounded probing, a handful of rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpConfig {
    /// Enable bounded variable elimination (and pure-literal removal).
    pub bve: bool,
    /// Enable subsumption and self-subsuming resolution.
    pub subsumption: bool,
    /// Enable failed-literal probing (first round only).
    pub probing: bool,
    /// Extra resolvents an elimination may add beyond the clauses it
    /// removes. 0 = classic "never grow" rule.
    pub grow_limit: usize,
    /// Skip elimination of variables whose positive × negative
    /// occurrence product exceeds this (resolvent counting would be
    /// quadratic on them).
    pub max_resolvent_pairs: usize,
    /// Maximum number of literals probed per run.
    pub probe_budget: usize,
    /// Maximum simplification rounds (each round = subsume → probe →
    /// eliminate → propagate).
    pub max_rounds: usize,
}

impl Default for SimpConfig {
    fn default() -> Self {
        SimpConfig {
            bve: true,
            subsumption: true,
            probing: true,
            grow_limit: 0,
            max_resolvent_pairs: 10_000,
            probe_budget: 2_000,
            max_rounds: 3,
        }
    }
}

/// Counters describing one preprocessing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SimpStats {
    /// Simplification rounds executed.
    pub rounds: u64,
    /// Top-level facts established (original units, propagation,
    /// probing, unit resolvents).
    pub facts: u64,
    /// Literals probed.
    pub probes: u64,
    /// Probes that conflicted (each yields a fact).
    pub failed_literals: u64,
    /// Variables removed by bounded variable elimination.
    pub eliminated_vars: u64,
    /// Pure literals removed.
    pub pure_literals: u64,
    /// Hard clauses removed by subsumption.
    pub subsumed: u64,
    /// Literals removed from hard clauses by self-subsuming resolution.
    pub strengthened: u64,
    /// Soft clauses dropped (satisfied by facts, tautological, or
    /// subsumed by a hard clause) — all cost-free in feasible models.
    pub soft_dropped: u64,
    /// Soft clauses emptied by facts: falsified in every feasible
    /// model, charged to [`SimpResult`]'s `cost_offset`.
    pub soft_falsified: u64,
    /// Hard clauses before / after.
    pub hard_in: u64,
    /// Hard clauses surviving preprocessing.
    pub hard_out: u64,
    /// Soft clauses before.
    pub soft_in: u64,
    /// Soft clauses surviving preprocessing.
    pub soft_out: u64,
    /// Variables before.
    pub vars_in: u64,
    /// Variables surviving (compacted space size).
    pub vars_out: u64,
}

impl SimpStats {
    /// Appends the counters as a JSON object (hand-rolled, no serde;
    /// used by `--stats-json` and the bench artifacts).
    pub fn to_json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"rounds\": {}, \"facts\": {}, \"probes\": {}, \"failed_literals\": {}, \
             \"eliminated_vars\": {}, \"pure_literals\": {}, \"subsumed\": {}, \
             \"strengthened\": {}, \"soft_dropped\": {}, \"soft_falsified\": {}, \
             \"hard_in\": {}, \"hard_out\": {}, \"soft_in\": {}, \"soft_out\": {}, \
             \"vars_in\": {}, \"vars_out\": {}}}",
            self.rounds,
            self.facts,
            self.probes,
            self.failed_literals,
            self.eliminated_vars,
            self.pure_literals,
            self.subsumed,
            self.strengthened,
            self.soft_dropped,
            self.soft_falsified,
            self.hard_in,
            self.hard_out,
            self.soft_in,
            self.soft_out,
            self.vars_in,
            self.vars_out,
        );
    }
}

impl std::fmt::Display for SimpStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vars {}->{} hard {}->{} soft {}->{} | rounds={} facts={} elim={} pure={} \
             subsumed={} strengthened={} failed_lits={}/{} soft_dropped={} soft_falsified={}",
            self.vars_in,
            self.vars_out,
            self.hard_in,
            self.hard_out,
            self.soft_in,
            self.soft_out,
            self.rounds,
            self.facts,
            self.eliminated_vars,
            self.pure_literals,
            self.subsumed,
            self.strengthened,
            self.failed_literals,
            self.probes,
            self.soft_dropped,
            self.soft_falsified,
        )
    }
}

/// The preprocessing pipeline. One instance can simplify many formulas;
/// [`Simplifier::stats`] always describes the most recent run.
///
/// See the [crate docs](crate) for the technique inventory and the
/// soundness contract.
#[derive(Debug, Clone, Default)]
pub struct Simplifier {
    config: SimpConfig,
    stats: SimpStats,
    budget: Budget,
}

impl Simplifier {
    /// A simplifier with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Simplifier::default()
    }

    /// A simplifier with an explicit configuration.
    #[must_use]
    pub fn with_config(config: SimpConfig) -> Self {
        Simplifier {
            config,
            stats: SimpStats::default(),
            budget: Budget::new(),
        }
    }

    /// Makes the pipeline cooperate with `budget`'s stop flags and
    /// deadline: each pass (and the inner elimination/probing loops)
    /// polls for interruption and stops rewriting early. Every rewrite
    /// already applied is individually sound, so a cancelled run still
    /// returns a correct (merely less simplified) [`SimpResult`].
    /// Preprocessing charges nothing to the conflict/propagation caps; it
    /// only stops early once the solve's work pool is spent.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SimpConfig {
        &self.config
    }

    /// Counters of the most recent [`Simplifier::simplify`] call.
    #[must_use]
    pub fn stats(&self) -> &SimpStats {
        &self.stats
    }

    /// Simplifies `wcnf` with every soft-clause variable frozen.
    ///
    /// This is the contract MaxSAT drivers need: relaxation/assumption
    /// variables are attached to soft clauses *after* preprocessing, so
    /// no variable a soft clause mentions may be resolved away.
    #[must_use]
    pub fn simplify(&mut self, wcnf: &WcnfFormula) -> SimpResult {
        self.simplify_frozen(wcnf, &[])
    }

    /// Simplifies `wcnf` freezing the soft-clause variables *plus*
    /// `extra_frozen` (e.g. variables the caller will assume later).
    #[must_use]
    pub fn simplify_frozen(&mut self, wcnf: &WcnfFormula, extra_frozen: &[Var]) -> SimpResult {
        if wcnf.num_hard() == 0 {
            // Plain MaxSAT: every variable is frozen and there are no
            // facts to derive — the pipeline is provably a no-op, so
            // skip the occurrence-list build entirely.
            self.stats = SimpStats {
                vars_in: wcnf.num_vars() as u64,
                vars_out: wcnf.num_vars() as u64,
                soft_in: wcnf.num_soft() as u64,
                soft_out: wcnf.num_soft() as u64,
                ..SimpStats::default()
            };
            return SimpResult::identity(wcnf);
        }
        let mut engine = engine::Engine::new(&self.config, wcnf, extra_frozen, self.budget.clone());
        let result = engine.run(wcnf);
        self.stats = engine.into_stats();
        result
    }
}
