//! The CDCL solver.

use std::time::Instant;

use coremax_cnf::{Assignment, CnfFormula, Lit, Var};
use coremax_obs::{Event, Phase};

use crate::budget::Budget;
use crate::clause_db::{CRef, ClauseDb};
use crate::heap::ActivityHeap;
use crate::luby::luby;
use crate::stats::SolverStats;
use crate::watch::WatchLists;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment was found; see [`Solver::model`].
    Sat,
    /// The formula (or the formula under the given assumptions) is
    /// unsatisfiable; see [`Solver::is_ok`] and
    /// [`Solver::failed_assumptions`].
    Unsat,
    /// The budget was exhausted before a verdict was reached.
    Unknown,
}

/// Tunable solver parameters.
///
/// The defaults mirror MiniSAT's classic configuration; they are exposed
/// so ablation benchmarks can vary them.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Multiplicative VSIDS decay (activity is divided by this each
    /// conflict); must be in `(0, 1]`.
    pub var_decay: f64,
    /// Learned-clause activity decay; must be in `(0, 1]`.
    pub clause_decay: f32,
    /// Base interval (in conflicts) of the Luby restart schedule.
    pub restart_base: u64,
    /// Initial cap on retained learned clauses, as a fraction of the
    /// number of original clauses.
    pub learntsize_factor: f64,
    /// Growth factor applied to the learned-clause cap at every
    /// database reduction.
    pub learntsize_inc: f64,
    /// Lower bound on the learned-clause cap (prevents thrashing on
    /// small formulas; lower it to stress database reduction in tests).
    pub min_learnts: f64,
    /// Clause-arena garbage collection runs after a database reduction
    /// when at least this fraction of arena literals belongs to deleted
    /// clauses. Default 0.25; set to 0.0 to force a collection after
    /// every reduction (test hook).
    pub gc_frac: f64,
    /// Memory watermark on the clause arena, in 32-bit arena words
    /// (`None` = unlimited). When the *live* arena footprint
    /// (`total_words - wasted_words`) crosses the watermark, the solver
    /// runs an aggressive database reduction — every unprotected learned
    /// clause is shed, the learned-clause cap is clamped back down, and
    /// the arena is compacted unconditionally — so memory pressure
    /// degrades search quality gracefully instead of growing towards
    /// allocation failure. Original (problem) clauses are never shed, so
    /// a watermark below the problem's own footprint simply pins the
    /// learned database near empty.
    pub arena_watermark_words: Option<usize>,
    /// Default polarity used before a variable has a saved phase.
    pub default_phase: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 100,
            learntsize_factor: 1.0 / 3.0,
            learntsize_inc: 1.1,
            min_learnts: 1000.0,
            gc_frac: 0.25,
            arena_watermark_words: None,
            default_phase: false,
        }
    }
}

/// The wall-clock deadline is polled once per this many decisions (and
/// once at the start of every restart): an `Instant::now` per decision
/// would be measurable.
const DEADLINE_POLL_DECISIONS: u64 = 64;

/// The stop flag, deadline and work caps are also polled once per this
/// many propagations *inside* the propagation loop, so cancellation
/// lands within a bounded amount of work even mid-way through a long
/// implication chain (decision-based polling alone can lag by an entire
/// chain). Cheap enough to be invisible at ~10M props/sec, tight enough
/// for the parallel portfolio to halt losers promptly.
const INTERRUPT_POLL_PROPAGATIONS: u64 = 1024;

const VALUE_UNDEF: u8 = 0;
const VALUE_TRUE: u8 = 1;
const VALUE_FALSE: u8 = 2;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: CRef,
    blocker: Lit,
}

/// Watcher for a binary clause: the other literal is stored inline, so
/// binary propagation never touches the clause arena and the watcher
/// never migrates. `cref` is only needed when the clause becomes a
/// reason or a conflict.
#[derive(Debug, Clone, Copy)]
struct BinWatcher {
    other: Lit,
    cref: CRef,
}

/// Assignment metadata of one variable: decision level and reason
/// clause. Stored together because conflict analysis almost always
/// reads both — one cache fetch instead of two.
#[derive(Debug, Clone, Copy)]
struct VarData {
    level: u32,
    reason: CRef,
}

/// Extends a per-variable array, or the slot table of a watch arena, to
/// `len` entries of `value`. Capacity goes to a power of two, as one
/// push per variable would leave it: growing to the exact length
/// measured a higher peak memory on the portfolio benchmark, where many
/// short-lived engines grow by turns.
pub(crate) fn grow<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.reserve_exact(len.next_power_of_two().saturating_sub(v.len()));
    v.resize(len, value);
}

/// Distinct decision levels above `floor` among `lits` (the literal
/// block distance). The floor is the running solve's assumption prefix,
/// so assumption levels are left out as in Glucose's incremental mode.
/// Free function so callers can borrow disjoint solver fields; `stamp`
/// is a per-level generation mark reused across calls.
fn compute_lbd(
    var_data: &[VarData],
    stamp: &mut [u64],
    gen: &mut u64,
    floor: u32,
    lits: &[Lit],
) -> u32 {
    *gen += 1;
    let g = *gen;
    let mut lbd = 0u32;
    for &l in lits {
        let lvl = var_data[l.var().index()].level;
        if lvl > floor && stamp[lvl as usize] != g {
            stamp[lvl as usize] = g;
            lbd += 1;
        }
    }
    lbd
}

/// A conflict-driven clause-learning SAT solver with failed-assumption
/// cores. See the [crate docs](crate) for an overview and example.
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    db: ClauseDb,

    // Per-literal watch lists, indexed by `Lit::index`, each kind in one
    // arena. Binary clauses live exclusively in `bin_watches`; longer
    // clauses in `watches`.
    watches: WatchLists<Watcher>,
    bin_watches: WatchLists<BinWatcher>,

    // Per-LITERAL truth values (two entries per variable, indexed by
    // `Lit::index`): `lit_value` is a single array load with no sign
    // decode, which matters on the propagation fast path.
    assigns: Vec<u8>,
    // Per-variable state.
    var_data: Vec<VarData>,
    activity: Vec<f64>,
    phase: Vec<bool>,
    seen: Vec<bool>,

    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    order: ActivityHeap,
    var_inc: f64,
    cla_inc: f32,

    max_learnts: f64,

    // Result state.
    ok: bool,
    failed_assumptions: Vec<Lit>,
    model: Option<Assignment>,

    budget: Budget,
    stats: SolverStats,
    // Completed `solve*` calls; calls beyond the first reuse the
    // learned-clause database and heuristic state, which is what
    // `SolverStats::incremental_solves` / `clauses_retained` count.
    solve_calls: u64,

    // Cooperative-interruption state, armed only for the duration of a
    // `solve` call (propagation from `add_clause` / `probe_lit` is never
    // interrupted, so level-0 queues cannot be silently truncated).
    // `run` is the running call's `budget.child`: its deadline and the
    // solve's work pool.
    interrupt_armed: bool,
    interrupted: bool,
    run: Budget,
    props_until_check: u64,

    // Scratch buffers reused across conflicts. Once their capacities
    // plateau, a conflict performs zero transient heap allocations
    // (`SolverStats::scratch_reallocs` counts the growth events).
    analyze_stack: Vec<Lit>,
    analyze_toclear: Vec<Lit>,
    learnt_buf: Vec<Lit>,
    reduce_scratch: Vec<CRef>,
    add_buf: Vec<Lit>,
    ordered_buf: Vec<Lit>,
    // Per-level generation stamps for LBD computation, sized at solve
    // start to the deepest level the solve can open.
    lbd_stamp: Vec<u64>,
    lbd_gen: u64,
    // Decision levels the running solve's assumptions occupy: levels
    // `1..=assumption_levels`, one per assumption. 0 outside a solve.
    assumption_levels: u32,
    // LBD of the clause produced by the latest `analyze` call, computed
    // before backtracking (levels are only valid pre-backtrack).
    pending_lbd: u32,

    // Conflicts/propagations already charged to the solve's work pool,
    // so each charge is a delta.
    charged_conflicts: u64,
    charged_propagations: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with default configuration.
    #[must_use]
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with the given configuration.
    #[must_use]
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            db: ClauseDb::new(),
            watches: WatchLists::default(),
            bin_watches: WatchLists::default(),
            assigns: Vec::new(),
            var_data: Vec::new(),
            activity: Vec::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: ActivityHeap::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            max_learnts: 0.0,
            ok: true,
            failed_assumptions: Vec::new(),
            model: None,
            budget: Budget::new(),
            stats: SolverStats::default(),
            solve_calls: 0,
            interrupt_armed: false,
            interrupted: false,
            run: Budget::new(),
            props_until_check: 0,
            analyze_stack: Vec::new(),
            analyze_toclear: Vec::new(),
            learnt_buf: Vec::new(),
            reduce_scratch: Vec::new(),
            add_buf: Vec::new(),
            ordered_buf: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_gen: 0,
            assumption_levels: 0,
            pending_lbd: 0,
            charged_conflicts: 0,
            charged_propagations: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.var_data.len() as u32);
        self.ensure_vars(v.index() + 1);
        v
    }

    /// Ensures variables `0..num_vars` exist. Each per-variable array
    /// grows once, and the new variables enter the decision heap in
    /// index order.
    pub fn ensure_vars(&mut self, num_vars: usize) {
        let old = self.num_vars();
        if num_vars <= old {
            return;
        }
        assert!(
            num_vars - 1 <= Var::MAX_INDEX as usize,
            "variable index out of range"
        );
        grow(&mut self.assigns, 2 * num_vars, VALUE_UNDEF);
        let unassigned = VarData {
            level: 0,
            reason: CRef::UNDEF,
        };
        grow(&mut self.var_data, num_vars, unassigned);
        grow(&mut self.activity, num_vars, 0.0);
        grow(&mut self.phase, num_vars, self.config.default_phase);
        grow(&mut self.seen, num_vars, false);
        self.watches.ensure_lits(2 * num_vars);
        self.bin_watches.ensure_lits(2 * num_vars);
        for i in old..num_vars {
            self.order.insert(Var::new(i as u32), &self.activity);
        }
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.var_data.len()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Sets the resource budget applied to subsequent `solve` calls.
    /// Each call is a whole solve: it starts its own clock and work
    /// pool, unless the budget already meters a larger solve (one made
    /// by [`Budget::child`]), whose pool the call then charges.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Adds every clause of `formula`.
    pub fn add_formula(&mut self, formula: &CnfFormula) {
        self.ensure_vars(formula.num_vars());
        for c in formula.iter() {
            self.add_clause(c.lits().iter().copied());
        }
    }

    /// Adds a clause.
    ///
    /// The clause is normalised (duplicate literals removed); tautologies
    /// are accepted but never participate in solving. Variables are
    /// created on demand. Adding a clause that is falsified by the
    /// current level-0 state refutes the formula: [`Solver::is_ok`]
    /// turns false at once and every later solve answers UNSAT.
    ///
    /// Normalisation contract (uniform with the learned-clause path,
    /// which satisfies it by construction): no clause stored in the
    /// arena carries two literals of the same variable.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        // Scratch buffers make clause loading allocation-free in steady
        // state — MaxSAT drivers rebuild solvers thousands of times, so
        // the per-clause `Vec`s used to dominate their setup cost.
        let mut buf = std::mem::take(&mut self.add_buf);
        buf.clear();
        buf.extend(lits);
        let mut ordered = std::mem::take(&mut self.ordered_buf);
        self.add_clause_impl(&mut buf, &mut ordered);
        self.add_buf = buf;
        self.ordered_buf = ordered;
    }

    /// Charges the conflicts and propagations performed since the last
    /// charge to the solve's work pool (a no-op without one). Returns
    /// `true` once a cap is spent.
    fn charge_work(&mut self) -> bool {
        let conflicts = self.stats.conflicts - self.charged_conflicts;
        let propagations = self.stats.propagations - self.charged_propagations;
        self.charged_conflicts = self.stats.conflicts;
        self.charged_propagations = self.stats.propagations;
        self.run.charge(conflicts, propagations)
    }

    fn add_clause_impl(&mut self, lits: &mut Vec<Lit>, ordered: &mut Vec<Lit>) {
        if let Some(top) = lits.iter().map(|l| l.var().index()).max() {
            self.ensure_vars(top + 1);
        }
        lits.sort_unstable();
        lits.dedup();
        let tautology = lits.windows(2).any(|w| w[0].var() == w[1].var());
        if !self.ok || tautology {
            return;
        }

        debug_assert_eq!(self.decision_level(), 0);

        if lits.is_empty() {
            self.ok = false;
            return;
        }

        // Partition by current (level-0) value.
        let mut satisfied = false;
        let mut num_unassigned = 0usize;
        for &l in lits.iter() {
            match self.lit_value(l) {
                Some(true) => {
                    satisfied = true;
                    break;
                }
                None => num_unassigned += 1,
                Some(false) => {}
            }
        }
        if satisfied {
            // Satisfied at level 0 forever: store for completeness but do
            // not watch.
            self.db.add(lits, false);
            return;
        }

        match num_unassigned {
            0 => {
                // All literals false at level 0: immediate refutation.
                self.ok = false;
            }
            1 => {
                // Reason clauses keep their asserted literal at
                // position 0 (cheapest for conflict analysis).
                ordered.clear();
                ordered.extend(
                    lits.iter()
                        .copied()
                        .filter(|&l| self.lit_value(l).is_none()),
                );
                let unit = ordered[0];
                ordered.extend(lits.iter().copied().filter(|&x| x != unit));
                let cref = self.db.add(ordered, false);
                if ordered.len() == 2 {
                    // The invariant holds forever once `unit` is
                    // enqueued true, so a binary watcher is safe even
                    // though the other literal is already false.
                    self.watch_binary(ordered[0], ordered[1], cref);
                } else if ordered.len() > 2 {
                    // Watch the unit literal plus an arbitrary (false,
                    // level-0, never-undone) literal: the invariant holds
                    // forever once `unit` is enqueued true.
                    self.watch(ordered[0], cref, ordered[1]);
                    self.watch(ordered[1], cref, ordered[0]);
                }
                self.enqueue(unit, cref);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                // Order the clause so unassigned literals come first
                // (stable partition: both halves keep the sorted order).
                ordered.clear();
                ordered.extend(
                    lits.iter()
                        .copied()
                        .filter(|&l| self.lit_value(l).is_none()),
                );
                ordered.extend(
                    lits.iter()
                        .copied()
                        .filter(|&l| self.lit_value(l).is_some()),
                );
                let cref = self.db.add(ordered, false);
                if ordered.len() == 2 {
                    self.watch_binary(ordered[0], ordered[1], cref);
                } else {
                    let (w0, w1) = (ordered[0], ordered[1]);
                    self.watch(w0, cref, w1);
                    self.watch(w1, cref, w0);
                }
            }
        }
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumption literals.
    ///
    /// On [`SolveOutcome::Unsat`], either the formula itself was refuted
    /// ([`Solver::is_ok`] returns `false`) or the assumptions are
    /// inconsistent with it ([`Solver::failed_assumptions`] lists a
    /// subset of assumptions sufficient for unsatisfiability).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        self.model = None;
        self.failed_assumptions.clear();
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        for &a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "assumption over unknown variable"
            );
        }
        // One coarse span per SAT call: every driver's invocations are
        // covered here, whichever entry path (bare solver, incremental
        // engine, probe-free solve) they use.
        let sat_span = coremax_obs::span(Phase::SatCall);
        let outcome = self.solve_inner(assumptions);
        sat_span.finish(&mut self.stats.phase);
        outcome
    }

    fn solve_inner(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        self.solve_calls += 1;
        if self.solve_calls > 1 {
            self.stats.incremental_solves += 1;
            self.stats.clauses_retained += self.db.num_learned() as u64;
        }

        // Arm the in-propagation interruption checks for this solve.
        self.run = self.budget.child(Instant::now());
        self.interrupted = false;
        self.interrupt_armed = !self.run.is_unlimited();
        self.props_until_check = INTERRUPT_POLL_PROPAGATIONS;
        self.charged_conflicts = self.stats.conflicts;
        self.charged_propagations = self.stats.propagations;
        if self.run.stop_requested() || self.run.work_spent() {
            self.interrupt_armed = false;
            return SolveOutcome::Unknown;
        }

        if self.max_learnts == 0.0 {
            self.max_learnts = (self.db.num_clauses() as f64 * self.config.learntsize_factor)
                .max(self.config.min_learnts);
        }

        // Each assumption opens exactly one level (an already-true one
        // opens an empty level) and every other level assigns a fresh
        // variable, so no level of this solve exceeds the stamp range.
        self.lbd_stamp
            .resize(self.num_vars() + assumptions.len() + 1, 0);
        self.assumption_levels = assumptions.len() as u32;

        let mut restart_count: u64 = 0;
        let outcome = loop {
            restart_count += 1;
            let budget_this_restart = self.config.restart_base * luby(restart_count);
            match self.search(assumptions, budget_this_restart) {
                SearchResult::Sat => break SolveOutcome::Sat,
                SearchResult::Unsat => break SolveOutcome::Unsat,
                SearchResult::Restart => {
                    self.stats.restarts += 1;
                    if coremax_obs::tracing_enabled() {
                        coremax_obs::emit(Event::Restart {
                            restarts: self.stats.restarts,
                            conflicts: self.stats.conflicts,
                            learned: self.db.num_learned() as u64,
                        });
                    }
                }
                SearchResult::BudgetExhausted => break SolveOutcome::Unknown,
            }
        };
        // Flush the residual charge, so the next call (or the driver's
        // next poll) sees the solve's exact total.
        let _ = self.charge_work();
        self.assumption_levels = 0;
        self.interrupt_armed = false;
        self.interrupted = false;
        self.cancel_until(0);
        outcome
    }

    /// The satisfying assignment found by the last successful solve.
    #[must_use]
    pub fn model(&self) -> Option<&Assignment> {
        self.model.as_ref()
    }

    /// After UNSAT-under-assumptions, the subset of assumption literals
    /// that was used to derive the contradiction.
    #[must_use]
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed_assumptions
    }

    /// Returns `true` while the formula has not been refuted, i.e. until
    /// a clause falsified at level 0 is added, or the search
    /// meets a conflict at decision level 0.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    // ------------------------------------------------------------------
    // Preprocessing hooks
    //
    // Small, stable entry points used by the `coremax_simp` subsystem:
    // top-level probing rides on the solver's two-watched-literal
    // propagation instead of re-implementing it, and the facts the
    // solver accumulates at level 0 flow back to the simplifier.
    // ------------------------------------------------------------------

    /// The literals fixed at decision level 0 (facts), in trail order.
    ///
    /// Outside of a `solve` call the solver always sits at level 0, so
    /// this is the whole trail: original units plus everything unit
    /// propagation and probing derived from them.
    #[must_use]
    pub fn level0_literals(&self) -> &[Lit] {
        let end = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        &self.trail[..end]
    }

    /// Failed-literal probe: assumes `lit` at a fresh decision level,
    /// propagates to fixpoint, and backtracks to level 0 before
    /// returning.
    ///
    /// Returns `None` when the probe is vacuous (the literal is already
    /// assigned at level 0, or the solver is already UNSAT), otherwise
    /// `Some(conflicted)`. A `Some(true)` result means `¬lit` is implied
    /// by the clauses — callers typically follow up with
    /// [`Solver::import_units`].
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (the solver must be at level 0).
    pub fn probe_lit(&mut self, lit: Lit) -> Option<bool> {
        assert_eq!(self.decision_level(), 0, "probe only at top level");
        if !self.ok {
            return None;
        }
        self.ensure_vars(lit.var().index() + 1);
        if self.lit_value(lit).is_some() {
            return None;
        }
        self.trail_lim.push(self.trail.len());
        self.enqueue(lit, CRef::UNDEF);
        let conflict = self.propagate().is_some();
        self.cancel_until(0);
        Some(conflict)
    }

    /// Imports unit facts as original clauses (the simplifier's unit
    /// import hook). Each unit propagates immediately at level 0;
    /// returns `false` if the solver became UNSAT along the way.
    pub fn import_units<I: IntoIterator<Item = Lit>>(&mut self, units: I) -> bool {
        for l in units {
            self.add_clause([l]);
        }
        self.ok
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    #[inline]
    fn var_value(&self, v: Var) -> u8 {
        self.assigns[v.index() << 1]
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> Option<bool> {
        match self.assigns[l.index()] {
            VALUE_UNDEF => None,
            VALUE_TRUE => Some(true),
            _ => Some(false),
        }
    }

    #[inline]
    fn watch(&mut self, lit: Lit, cref: CRef, blocker: Lit) {
        // Clause watches `lit`; the watcher must fire when `lit` becomes
        // false, i.e. when `!lit` is enqueued.
        self.watches.push((!lit).index(), Watcher { cref, blocker });
    }

    /// Registers both watchers of a binary clause `l0 ∨ l1`.
    #[inline]
    fn watch_binary(&mut self, l0: Lit, l1: Lit, cref: CRef) {
        self.bin_watches
            .push((!l0).index(), BinWatcher { other: l1, cref });
        self.bin_watches
            .push((!l1).index(), BinWatcher { other: l0, cref });
    }

    fn enqueue(&mut self, lit: Lit, reason: CRef) {
        debug_assert!(self.lit_value(lit).is_none());
        let v = lit.var();
        self.assigns[lit.index()] = VALUE_TRUE;
        self.assigns[(!lit).index()] = VALUE_FALSE;
        self.var_data[v.index()] = VarData {
            level: self.decision_level(),
            reason,
        };
        self.trail.push(lit);
    }

    /// Interruption poll for the propagation loop: a spent work cap,
    /// raised stop flag or expired deadline sets `self.interrupted`.
    /// Out-of-line so the hot loop only pays a decrement-and-branch per
    /// propagation.
    #[cold]
    fn poll_interrupt(&mut self) -> bool {
        if self.charge_work() || self.run.interrupted() {
            self.interrupted = true;
            return true;
        }
        false
    }

    fn propagate(&mut self) -> Option<CRef> {
        // The walk holds both arenas as locals, so it reads binary lists
        // as slices and moves watchers between lists while `enqueue` and
        // the clause arena stay reachable through `self`.
        let mut watches = std::mem::take(&mut self.watches);
        let bin_watches = std::mem::take(&mut self.bin_watches);
        let conflict = self.propagate_lists(&mut watches, &bin_watches);
        self.watches = watches;
        self.bin_watches = bin_watches;
        conflict
    }

    fn propagate_lists(
        &mut self,
        watches: &mut WatchLists<Watcher>,
        bin_watches: &WatchLists<BinWatcher>,
    ) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            // Observe stop flag / deadline / work caps *inside*
            // long implication chains (decision-loop polling alone can
            // lag by a whole chain). The poll runs BEFORE the next trail
            // literal is consumed: interrupting after the pop would skip
            // that literal's watch traversal, and at level 0 — where
            // `cancel_until(0)` is a no-op — the skip would be permanent
            // for a reused solver. Returning `None` here looks like a
            // fixpoint to `search`, which re-checks `self.interrupted`
            // before trusting it; the unpropagated queue suffix stays on
            // the trail, so a later resume picks up exactly here.
            if self.interrupt_armed {
                self.props_until_check -= 1;
                if self.props_until_check == 0 {
                    self.props_until_check = INTERRUPT_POLL_PROPAGATIONS;
                    if self.poll_interrupt() {
                        return None;
                    }
                }
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            // Binary clauses first: the other literal is inline, the
            // clause arena is never touched, and watchers never move.
            for &w in bin_watches.list(p.index()) {
                match self.lit_value(w.other) {
                    Some(true) => {}
                    Some(false) => return Some(w.cref),
                    None => {
                        self.stats.bin_propagations += 1;
                        self.enqueue(w.other, w.cref);
                    }
                }
            }

            // Keep or drop each of `p`'s watchers in place. A watcher
            // that moves lands on the list of a literal that is not
            // false, never on `p`'s, so `p`'s positions stay valid
            // throughout.
            let (begin, n) = watches.span(p.index());
            let end = begin + n;
            let mut kept = begin;
            let mut conflict: Option<CRef> = None;
            let mut i = begin;
            while i < end {
                let w = watches.get(i);
                i += 1;
                // Blocker first: it needs no clause-header access, and a
                // deleted clause parked behind a true blocker is
                // harmless until the next collection sweeps it.
                if self.lit_value(w.blocker) == Some(true) {
                    watches.set(kept, w);
                    kept += 1;
                    continue;
                }
                if self.db.is_deleted(w.cref) {
                    continue; // lazily drop watchers of deleted clauses
                }
                let false_lit = !p;
                // One header read per watcher; everything below indexes
                // the literal arena directly.
                let (start, len) = self.db.span(w.cref);
                // Normalise: the false literal sits at index 1.
                if self.db.lit_at(start) == false_lit {
                    self.db.swap_lits(start, start + 1);
                }
                debug_assert_eq!(self.db.lit_at(start + 1), false_lit);
                let first = self.db.lit_at(start);
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    watches.set(
                        kept,
                        Watcher {
                            blocker: first,
                            ..w
                        },
                    );
                    kept += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut replacement = None;
                for k in 2..len {
                    if self.lit_value(self.db.lit_at(start + k)) != Some(false) {
                        replacement = Some(k);
                        break;
                    }
                }
                if let Some(k) = replacement {
                    self.db.swap_lits(start + 1, start + k);
                    let new_watch = self.db.lit_at(start + 1);
                    watches.push(
                        (!new_watch).index(),
                        Watcher {
                            blocker: first,
                            ..w
                        },
                    );
                    continue; // watcher moved to another list
                }
                // No replacement: clause is unit or conflicting.
                if self.lit_value(first) == Some(false) {
                    conflict = Some(w.cref);
                    // Keep the remaining watchers (including this one).
                    watches.set(kept, w);
                    kept += 1;
                    while i < end {
                        watches.set(kept, watches.get(i));
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                } else {
                    watches.set(kept, w);
                    kept += 1;
                    self.enqueue(first, w.cref);
                }
            }
            debug_assert_eq!(watches.span(p.index()), (begin, n));
            watches.truncate(p.index(), kept - begin);
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn decide(&mut self, lit: Lit) {
        self.stats.decisions += 1;
        self.trail_lim.push(self.trail.len());
        self.enqueue(lit, CRef::UNDEF);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for idx in (bound..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let v = lit.var();
            self.assigns[lit.index()] = VALUE_UNDEF;
            self.assigns[(!lit).index()] = VALUE_UNDEF;
            self.phase[v.index()] = lit.is_positive();
            self.var_data[v.index()].reason = CRef::UNDEF;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= self.config.clause_decay;
    }

    fn bump_clause(&mut self, c: CRef) {
        if self.db.bump_activity(c, self.cla_inc) {
            self.db.rescale_activities();
            self.cla_inc *= 1e-20_f32;
        }
    }

    /// First-UIP conflict analysis. Fills [`Solver::learnt_buf`] with
    /// the learned clause (asserting literal first, max-level literal
    /// second, search-level literals before assumption-level ones),
    /// stores the learn-time LBD in `pending_lbd`, and returns the
    /// backtrack level.
    /// Allocation-free once the scratch capacities plateau.
    fn analyze(&mut self, mut confl: CRef) -> u32 {
        let caps = (
            self.learnt_buf.capacity(),
            self.analyze_toclear.capacity(),
            self.analyze_stack.capacity(),
        );
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // placeholder for UIP
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            if self.db.is_learned(confl) {
                self.bump_clause(confl);
                // Keep the stored LBD current (it can only improve):
                // LBD-driven reduction and glue protection key off it.
                // Glue clauses are already maximally protected, so skip
                // the O(len) recomputation for them.
                if self.db.lbd(confl) > 2 {
                    let lbd = compute_lbd(
                        &self.var_data,
                        &mut self.lbd_stamp,
                        &mut self.lbd_gen,
                        self.assumption_levels,
                        self.db.lits(confl),
                    );
                    if lbd < self.db.lbd(confl) {
                        self.db.set_lbd(confl, lbd);
                    }
                }
            }
            for k in 0..self.db.len(confl) {
                let q = self.db.lits(confl)[k];
                // Skip the literal resolved on (binary reasons keep it
                // at an arbitrary position, so match by value).
                if p == Some(q) {
                    continue;
                }
                let v = q.var();
                if self.seen[v.index()] || self.var_data[v.index()].level == 0 {
                    continue;
                }
                self.seen[v.index()] = true;
                self.bump_var(v);
                if self.var_data[v.index()].level >= self.decision_level() {
                    path_count += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Select next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var();
            self.seen[v.index()] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = !lit;
                break;
            }
            p = Some(lit);
            confl = self.var_data[v.index()].reason;
            debug_assert!(!confl.is_undef(), "resolved literal must have a reason");
        }

        self.stats.max_literals += learnt.len() as u64;

        // Recursive clause minimisation (MiniSAT ccmin deep mode).
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt);
        let levels_mask: u64 = learnt[1..].iter().fold(0u64, |m, l| {
            m | 1u64 << (self.var_data[l.var().index()].level & 63)
        });
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let reason = self.var_data[l.var().index()].reason;
            if reason.is_undef() || !self.lit_redundant(l, levels_mask) {
                learnt[j] = l;
                j += 1;
            }
        }
        learnt.truncate(j);
        for i in 0..self.analyze_toclear.len() {
            let l = self.analyze_toclear[i];
            self.seen[l.var().index()] = false;
        }
        self.analyze_toclear.clear();

        self.stats.tot_literals += learnt.len() as u64;

        // Learn-time LBD, while the literal levels are still valid.
        self.pending_lbd = compute_lbd(
            &self.var_data,
            &mut self.lbd_stamp,
            &mut self.lbd_gen,
            self.assumption_levels,
            &learnt,
        )
        .max(1);

        // Compute backtrack level and move the max-level literal to slot 1.
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.var_data[learnt[i].var().index()].level
                    > self.var_data[learnt[max_i].var().index()].level
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.var_data[learnt[1].var().index()].level
        };

        // Search-level literals go before assumption-level ones, so the
        // watch-replacement scan in `propagate` meets literals that can
        // still change first; the rest stay false while the prefix holds.
        let floor = self.assumption_levels;
        if floor > 0 {
            let mut j = 2;
            for i in 2..learnt.len() {
                if self.var_data[learnt[i].var().index()].level > floor {
                    learnt.swap(i, j);
                    j += 1;
                }
            }
        }

        self.learnt_buf = learnt;
        let caps_after = (
            self.learnt_buf.capacity(),
            self.analyze_toclear.capacity(),
            self.analyze_stack.capacity(),
        );
        if caps_after != caps {
            self.stats.scratch_reallocs += u64::from(caps_after.0 != caps.0)
                + u64::from(caps_after.1 != caps.1)
                + u64::from(caps_after.2 != caps.2);
        }
        backtrack
    }

    /// Checks whether `lit` is implied by the rest of the learned clause
    /// (so it can be dropped).
    fn lit_redundant(&mut self, lit: Lit, levels_mask: u64) -> bool {
        let mut stack = std::mem::take(&mut self.analyze_stack);
        stack.clear();
        stack.push(lit);
        let top = self.analyze_toclear.len();
        let mut failed = false;

        while let Some(l) = stack.pop() {
            let reason = self.var_data[l.var().index()].reason;
            debug_assert!(!reason.is_undef());
            for k in 0..self.db.len(reason) {
                let q = self.db.lits(reason)[k];
                let v = q.var();
                if q == !l || self.seen[v.index()] || self.var_data[v.index()].level == 0 {
                    continue;
                }
                // Abstraction check: the literal's level must appear in
                // the clause, and it must itself have a reason.
                if self.var_data[v.index()].reason.is_undef()
                    || (1u64 << (self.var_data[v.index()].level & 63)) & levels_mask == 0
                {
                    failed = true;
                    break;
                }
                self.seen[v.index()] = true;
                self.analyze_toclear.push(q);
                stack.push(q);
            }
            if failed {
                break;
            }
        }

        if failed {
            // Undo the marks added during this (failed) probe.
            for l in self.analyze_toclear.drain(top..) {
                self.seen[l.var().index()] = false;
            }
        }
        self.analyze_stack = stack;
        !failed
    }

    /// MiniSAT `analyzeFinal`: collects a subset `S` of the assumption
    /// literals such that the formula conjoined with `S` is
    /// unsatisfiable. `a` is the assumption that was found false.
    fn analyze_final(&mut self, a: Lit) {
        self.failed_assumptions.clear();
        self.failed_assumptions.push(a);
        if self.decision_level() == 0 {
            return;
        }
        // `analyze` leaves `seen` all false. Every mark but `a`'s lies
        // on the trail above level 0, where the loop below clears it.
        debug_assert!(!self.seen.contains(&true));
        self.seen[a.var().index()] = true;
        let bottom = self.trail_lim[0];
        for idx in (bottom..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let v = lit.var();
            if !self.seen[v.index()] {
                continue;
            }
            let reason = self.var_data[v.index()].reason;
            if reason.is_undef() {
                // A decision: under assumption-driven search every
                // decision below the failing point is an assumption, and
                // `lit` is exactly the assumed literal.
                self.failed_assumptions.push(lit);
            } else {
                for &l in self.db.lits(reason) {
                    if self.var_data[l.var().index()].level > 0 {
                        self.seen[l.var().index()] = true;
                    }
                }
            }
            // Only earlier trail entries can be marked from here on.
            self.seen[v.index()] = false;
        }
        self.seen[a.var().index()] = false;
        debug_assert!(!self.seen.contains(&true));
    }

    /// Records the clause prepared by [`Solver::analyze`] (in
    /// `learnt_buf` / `pending_lbd`) into the
    /// database, watches it, and asserts its first literal.
    ///
    /// Learned clauses satisfy the same arena invariant as normalised
    /// problem clauses — no duplicate literals, no tautologies — by
    /// construction: `analyze` admits each variable at most once via
    /// the `seen` marks, so no explicit normalisation pass is needed
    /// here (the invariant is asserted in [`ClauseDb::add`]).
    fn record_learnt(&mut self) {
        self.stats.conflicts += 1;
        self.stats.learned_clauses += 1;
        let lbd = self.pending_lbd;
        self.stats.lbd_hist[SolverStats::lbd_bucket(lbd)] += 1;
        if lbd <= 2 {
            self.stats.glue_clauses += 1;
        }
        let cref = self.db.add(&self.learnt_buf, true);
        self.db.set_lbd(cref, lbd);
        let first = self.learnt_buf[0];
        match self.learnt_buf.len() {
            // Asserting unit: becomes a level-0 fact with the learned
            // clause as its reason.
            1 => {}
            2 => {
                let other = self.learnt_buf[1];
                self.watch_binary(first, other, cref);
                self.bump_clause(cref);
            }
            _ => {
                let (w0, w1) = (self.learnt_buf[0], self.learnt_buf[1]);
                self.watch(w0, cref, w1);
                self.watch(w1, cref, w0);
                self.bump_clause(cref);
            }
        }
        self.enqueue(first, cref);
        self.stats.peak_learned = self.stats.peak_learned.max(self.db.num_learned() as u64);
        self.decay_activities();
    }

    /// Halves the learned-clause database. Ordering is LBD-primary
    /// (higher LBD deleted first), activity-secondary via a total order;
    /// glue clauses (LBD ≤ 2), binary clauses and reason clauses are
    /// never deleted. Runs the arena garbage collector afterwards when
    /// enough literals are reclaimable.
    fn reduce_db(&mut self) {
        let reduce_span = coremax_obs::span(Phase::ReduceDb);
        let learned_before = self.db.num_learned() as u64;
        let mut refs = std::mem::take(&mut self.reduce_scratch);
        let cap_before = refs.capacity();
        refs.clear();
        refs.extend(self.db.learned_refs());
        {
            let db = &self.db;
            refs.sort_unstable_by(|&a, &b| {
                db.lbd(b)
                    .cmp(&db.lbd(a))
                    .then_with(|| db.activity(a).total_cmp(&db.activity(b)))
            });
        }
        let target = refs.len() / 2;
        let mut removed = 0usize;
        for &c in refs.iter() {
            if removed >= target {
                break;
            }
            if self.db.len(c) <= 2 || self.db.lbd(c) <= 2 || self.is_locked(c) {
                continue;
            }
            self.db.mark_deleted(c);
            self.stats.deleted_clauses += 1;
            removed += 1;
        }
        if refs.capacity() != cap_before {
            self.stats.scratch_reallocs += 1;
        }
        self.reduce_scratch = refs;
        reduce_span.finish(&mut self.stats.phase);
        if coremax_obs::tracing_enabled() {
            coremax_obs::emit(Event::ReduceDb {
                learned_before,
                learned_after: self.db.num_learned() as u64,
            });
        }
        self.maybe_collect_garbage();
    }

    fn is_locked(&self, c: CRef) -> bool {
        let first = self.db.lits(c)[0];
        self.var_data[first.var().index()].reason == c && self.lit_value(first) == Some(true)
    }

    /// Whether the live clause-arena footprint exceeds the configured
    /// memory watermark.
    fn over_watermark(&self) -> bool {
        self.config
            .arena_watermark_words
            .is_some_and(|w| self.db.total_words() - self.db.wasted_words() > w)
    }

    /// Memory-pressure response: sheds *every* unprotected learned
    /// clause (glue, binary and reason clauses survive), clamps the
    /// learned-clause cap back down so the database does not immediately
    /// regrow past the watermark, and compacts the arena
    /// unconditionally. Soundness is untouched — learned clauses are
    /// redundant by construction.
    fn reduce_db_aggressive(&mut self) {
        self.stats.watermark_reductions += 1;
        let reduce_span = coremax_obs::span(Phase::ReduceDb);
        let learned_before = self.db.num_learned() as u64;
        let mut refs = std::mem::take(&mut self.reduce_scratch);
        refs.clear();
        refs.extend(self.db.learned_refs());
        for &c in refs.iter() {
            if self.db.len(c) <= 2 || self.db.lbd(c) <= 2 || self.is_locked(c) {
                continue;
            }
            self.db.mark_deleted(c);
            self.stats.deleted_clauses += 1;
        }
        self.reduce_scratch = refs;
        self.max_learnts = (self.db.num_learned() as f64).max(self.config.min_learnts);
        reduce_span.finish(&mut self.stats.phase);
        if coremax_obs::tracing_enabled() {
            coremax_obs::emit(Event::WatermarkReduction {
                learned_before,
                learned_after: self.db.num_learned() as u64,
            });
        }
        self.collect_garbage_now();
    }

    /// Compacts the clause arena when at least `gc_frac` of its literals
    /// belongs to deleted clauses, remapping every stored `CRef`
    /// (watchers, reasons).
    fn maybe_collect_garbage(&mut self) {
        let wasted = self.db.wasted_words();
        if wasted == 0 || (wasted as f64) < self.config.gc_frac * self.db.total_words() as f64 {
            return;
        }
        self.collect_garbage_now();
    }

    /// Compacts the clause arena unconditionally (the memory-pressure
    /// path cannot wait for `gc_frac` to be reached).
    fn collect_garbage_now(&mut self) {
        if self.db.wasted_words() == 0 {
            return;
        }
        let gc_span = coremax_obs::span(Phase::Gc);
        let remap = self.db.collect_garbage();
        // The same pass drops the watch arenas' garbage.
        self.watches.compact(|w| {
            w.cref = remap.remap(w.cref);
            !w.cref.is_undef()
        });
        self.bin_watches.compact(|w| {
            w.cref = remap.remap(w.cref);
            debug_assert!(!w.cref.is_undef(), "binary clauses are never deleted");
            true
        });
        for vd in &mut self.var_data {
            if !vd.reason.is_undef() {
                let n = remap.remap(vd.reason);
                debug_assert!(!n.is_undef(), "reason clauses are never deleted");
                vd.reason = n;
            }
        }
        self.stats.gc_runs += 1;
        self.stats.gc_bytes_reclaimed += remap.bytes_reclaimed;
        gc_span.finish(&mut self.stats.phase);
        coremax_obs::emit(Event::Gc {
            bytes_reclaimed: remap.bytes_reclaimed,
        });
    }

    fn search(&mut self, assumptions: &[Lit], conflicts_allowed: u64) -> SearchResult {
        let mut conflicts_here: u64 = 0;
        // One deadline/stop poll per restart keeps long restarts honest
        // even when the per-decision counter below rarely fires.
        if self.run.interrupted() {
            return SearchResult::BudgetExhausted;
        }
        let deadline = self.run.deadline();
        let mut until_time_check = DEADLINE_POLL_DECISIONS;
        loop {
            // Phase spans in the hot loop are inert (one relaxed load,
            // no clock read) unless `coremax_obs` timing is enabled.
            let prop_span = coremax_obs::span(Phase::Propagate);
            let propagated = self.propagate();
            prop_span.finish(&mut self.stats.phase);
            if let Some(confl) = propagated {
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchResult::Unsat;
                }
                let analyze_span = coremax_obs::span(Phase::Analyze);
                let backtrack = self.analyze(confl);
                self.cancel_until(backtrack);
                self.record_learnt();
                analyze_span.finish(&mut self.stats.phase);
                if self.stats.conflicts.is_multiple_of(1024) && coremax_obs::tracing_enabled() {
                    coremax_obs::emit(Event::ConflictRate {
                        conflicts: self.stats.conflicts,
                        propagations: self.stats.propagations,
                    });
                }
                // The work pool is charged per conflict, so a conflict
                // cap binds exactly and no portfolio member overruns the
                // joint pool by a whole restart. Conflict-heavy search
                // (short chains, constant conflicts) must observe
                // cancellation too: one relaxed atomic load per
                // conflict, free when no flag is set.
                if self.charge_work() || self.run.stop_requested() {
                    return SearchResult::BudgetExhausted;
                }
                if conflicts_here >= conflicts_allowed {
                    self.cancel_until(0);
                    return SearchResult::Restart;
                }
                continue;
            }

            // `propagate` returns `None` both at a true fixpoint and
            // when it was interrupted mid-chain; only the former may
            // proceed to the model check below.
            if self.interrupted {
                return SearchResult::BudgetExhausted;
            }

            // Propagation fixpoint reached: bookkeeping, then decide.
            if let Some(d) = deadline {
                until_time_check -= 1;
                if until_time_check == 0 {
                    until_time_check = DEADLINE_POLL_DECISIONS;
                    if Instant::now() >= d {
                        return SearchResult::BudgetExhausted;
                    }
                }
            }
            if self.over_watermark() {
                self.reduce_db_aggressive();
            } else if self.db.num_learned() as f64 >= self.max_learnts {
                self.max_learnts *= self.config.learntsize_inc;
                self.reduce_db();
            }

            // Assumption handling.
            let mut next_decision: Option<Lit> = None;
            let level = self.decision_level() as usize;
            if level < assumptions.len() {
                let a = assumptions[level];
                match self.lit_value(a) {
                    Some(true) => {
                        // Already satisfied: open an (empty) level so the
                        // per-level assumption indexing stays aligned.
                        self.trail_lim.push(self.trail.len());
                        continue;
                    }
                    Some(false) => {
                        self.analyze_final(a);
                        return SearchResult::Unsat;
                    }
                    None => next_decision = Some(a),
                }
            }

            let lit = match next_decision {
                Some(l) => l,
                None if self.trail.len() == self.num_vars() => {
                    // All variables assigned: a model. Counting the trail
                    // instead of popping the heap empty leaves the
                    // assigned variables enqueued, so `cancel_until`
                    // finds them there. The heap's order is strict, so
                    // these extra entries, skipped when popped, change
                    // no later decision.
                    let mut m = Assignment::for_vars(self.num_vars());
                    for i in 0..self.num_vars() {
                        m.assign(Var::new(i as u32), self.assigns[i << 1] == VALUE_TRUE);
                    }
                    self.model = Some(m);
                    return SearchResult::Sat;
                }
                None => {
                    // Every unassigned variable is in the heap, so the
                    // pops end at one.
                    let v = loop {
                        let v = self
                            .order
                            .pop(&self.activity)
                            .expect("every unassigned variable is enqueued");
                        if self.var_value(v) == VALUE_UNDEF {
                            break v;
                        }
                    };
                    Lit::new(v, self.phase[v.index()])
                }
            };
            self.decide(lit);
        }
    }
}

enum SearchResult {
    Sat,
    Unsat,
    Restart,
    BudgetExhausted,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(d: i32) -> Lit {
        Lit::from_dimacs(d).unwrap()
    }

    fn solver_with(clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        for c in clauses {
            s.add_clause(c.iter().map(|&d| l(d)));
        }
        s
    }

    /// Loads clause `i` as `Cᵢ ∨ sᵢ` with a fresh selector `sᵢ` and
    /// solves under every `¬sᵢ`. On UNSAT, returns the sorted indices of
    /// the clauses whose selectors failed: a failed-assumption core.
    fn selector_core(s: &mut Solver, clauses: &[Vec<Lit>]) -> Option<Vec<usize>> {
        let vars = clauses.iter().flatten().map(|l| l.var().index() + 1).max();
        s.ensure_vars(vars.unwrap_or(0));
        let first = s.num_vars();
        let enforce: Vec<Lit> = clauses
            .iter()
            .map(|c| {
                let sel = Lit::positive(s.new_var());
                s.add_clause(c.iter().copied().chain([sel]));
                !sel
            })
            .collect();
        if s.solve_with_assumptions(&enforce) != SolveOutcome::Unsat {
            return None;
        }
        assert!(s.is_ok(), "selector-gated clauses are never refuted");
        let mut core: Vec<usize> = s
            .failed_assumptions()
            .iter()
            .map(|a| a.var().index() - first)
            .collect();
        core.sort_unstable();
        Some(core)
    }

    /// The failed-assumption core of an UNSAT formula given in DIMACS
    /// literals, under the default configuration.
    fn core_of(clauses: &[&[i32]]) -> Vec<usize> {
        let clauses: Vec<Vec<Lit>> = clauses
            .iter()
            .map(|c| c.iter().map(|&d| l(d)).collect())
            .collect();
        selector_core(&mut Solver::new(), &clauses).expect("UNSAT")
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn single_unit_sat() {
        let mut s = solver_with(&[&[1]]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        let m = s.model().unwrap();
        assert_eq!(m.value(Var::new(0)), Some(true));
    }

    #[test]
    fn contradictory_units_unsat_with_core() {
        assert_eq!(core_of(&[&[1], &[-1]]), [0, 1]);
    }

    #[test]
    fn unsat_detected_at_add_time() {
        let mut s = Solver::new();
        s.add_clause([l(1)]);
        s.add_clause([l(-1)]);
        assert!(!s.is_ok());
    }

    #[test]
    fn empty_clause_is_core() {
        let mut s = Solver::new();
        s.add_clause([l(1)]);
        s.add_clause(std::iter::empty());
        assert!(!s.is_ok());
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert_eq!(core_of(&[&[1], &[]]), [1]);
    }

    #[test]
    fn simple_3sat_sat() {
        let mut s = solver_with(&[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[2]]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        let m = s.model().unwrap();
        assert_eq!(m.value(Var::new(1)), Some(true));
        assert_eq!(m.value(Var::new(0)), Some(false));
        assert_eq!(m.value(Var::new(2)), Some(false));
    }

    #[test]
    fn paper_example1_core() {
        // (x1)(x2 ∨ ¬x1)(¬x2)
        assert_eq!(core_of(&[&[1], &[2, -1], &[-2]]), [0, 1, 2]);
    }

    #[test]
    fn core_excludes_irrelevant_clauses() {
        // Clauses 0-1 form the contradiction; 2-3 are satisfiable noise
        // over different variables.
        assert_eq!(core_of(&[&[1], &[-1], &[2, 3], &[-2, 3]]), [0, 1]);
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole() {
        // p1h1, p2h1, ¬p1h1 ∨ ¬p2h1
        assert_eq!(core_of(&[&[1], &[2], &[-1, -2]]), [0, 1, 2]);
    }

    #[test]
    fn chain_implication_unsat() {
        // x1, x1→x2→…→x6, ¬x6.
        let chain: &[&[i32]] = &[
            &[1],
            &[-1, 2],
            &[-2, 3],
            &[-3, 4],
            &[-4, 5],
            &[-5, 6],
            &[-6],
        ];
        assert_eq!(solver_with(chain).solve(), SolveOutcome::Unsat);
        assert_eq!(core_of(chain), [0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn core_is_subset_when_noise_present() {
        // An implication-chain contradiction plus 20 satisfiable clauses.
        let mut clauses = vec![vec![l(1)], vec![l(-1), l(2)], vec![l(-2)]];
        for i in 0..20 {
            let base = 10 + 2 * i;
            clauses.push(vec![l(base), l(base + 1)]);
        }
        let core = selector_core(&mut Solver::new(), &clauses).expect("UNSAT");
        assert_eq!(core, [0, 1, 2]);
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        s.add_clause([l(1), l(-1)]);
        s.add_clause([l(2)]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn duplicate_literals_deduped() {
        let mut s = Solver::new();
        s.add_clause([l(1), l(1), l(1)]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert_eq!(s.model().unwrap().value(Var::new(0)), Some(true));
    }

    #[test]
    fn assumptions_sat_and_unsat() {
        let mut s = solver_with(&[&[1, 2]]);
        assert_eq!(s.solve_with_assumptions(&[l(-1)]), SolveOutcome::Sat);
        assert_eq!(s.model().unwrap().value(Var::new(1)), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[l(-1), l(-2)]),
            SolveOutcome::Unsat
        );
        // Formula itself is satisfiable: not refuted, but failed
        // assumptions are reported.
        assert!(s.is_ok());
        assert!(!s.failed_assumptions().is_empty());
        // Solver remains usable.
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn failed_assumptions_subset() {
        // x1→x2, assumption x1 and ¬x2 conflict; x3 assumption irrelevant.
        let mut s = solver_with(&[&[-1, 2]]);
        s.ensure_vars(3);
        let r = s.solve_with_assumptions(&[l(3), l(1), l(-2)]);
        assert_eq!(r, SolveOutcome::Unsat);
        let failed = s.failed_assumptions().to_vec();
        assert!(failed.contains(&l(1)) || failed.contains(&l(-2)));
        assert!(!failed.contains(&l(3)));
    }

    #[test]
    fn budget_conflicts_returns_unknown() {
        // A hard pigeonhole instance (5 pigeons, 4 holes) with a 1-conflict cap.
        let mut s = Solver::new();
        let php = php_clauses(5, 4);
        for c in &php {
            s.add_clause(c.iter().copied());
        }
        s.set_budget(Budget::new().with_max_conflicts(1));
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        // With the cap lifted it is solved.
        s.set_budget(Budget::new());
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    /// A solver whose only work is one huge binary implication chain,
    /// triggered by the first *decision* (default phase true), so the
    /// entire chain runs inside a single `propagate` call during search
    /// — the exact scenario decision-based budget polling cannot see.
    fn chain_solver(chain: i32) -> Solver {
        let mut s = Solver::with_config(SolverConfig {
            default_phase: true,
            ..SolverConfig::default()
        });
        for i in 1..chain {
            s.add_clause([l(-i), l(i + 1)]);
        }
        s
    }

    #[test]
    fn propagation_cap_observed_mid_chain() {
        // The cap must bind *inside* the implication chain: overshoot is
        // bounded by one `INTERRUPT_POLL_PROPAGATIONS`, not by the chain
        // length (the pre-PR behaviour only re-checked at the next
        // decision, i.e. ~50_000 propagations too late here).
        let mut s = chain_solver(50_000);
        s.set_budget(Budget::new().with_max_propagations(2_000));
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert!(
            s.stats().propagations <= 2_000 + INTERRUPT_POLL_PROPAGATIONS,
            "cap overshoot bounded by one check interval: {}",
            s.stats().propagations
        );
        s.set_budget(Budget::new());
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn level0_interrupt_resumes_without_losing_implications() {
        // A conflict at level 1 learns unit x1; the backjump to level 0
        // then propagates the whole chain inside search. The cap
        // interrupts mid-chain at level 0 — where `cancel_until(0)` is
        // a no-op, so the queue suffix (including the literal the poll
        // fired on) must survive for the next solve to finish exactly.
        const CHAIN: i32 = 30_000;
        let mut s = Solver::new();
        for i in 1..CHAIN {
            s.add_clause([l(-i), l(i + 1)]);
        }
        // Deciding ¬x1 (default phase false) conflicts immediately.
        let aux = CHAIN;
        s.add_clause([l(1), l(aux)]);
        s.add_clause([l(1), l(-aux)]);
        s.set_budget(Budget::new().with_max_propagations(2_000));
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        s.set_budget(Budget::new());
        assert_eq!(s.solve(), SolveOutcome::Sat);
        let m = s.model().unwrap();
        for v in 0..CHAIN as u32 {
            assert_eq!(m.value(Var::new(v)), Some(true), "x{} lost", v + 1);
        }
    }

    #[test]
    fn stop_flag_cancels_and_solver_stays_usable() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut s = chain_solver(10_000);
        let stop = Arc::new(AtomicBool::new(true));
        s.set_budget(Budget::new().with_stop_flag(stop.clone()));
        // A raised flag is observed before any search work begins.
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stats().decisions, 0);
        // Lowering the flag makes the same solver finish the instance:
        // cancellation never corrupts the trail or the watch lists.
        stop.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        let m = s.model().unwrap();
        assert_eq!(m.value(Var::new(9_999)), Some(true), "chain completed");
    }

    #[test]
    fn stop_flag_raised_mid_chain_interrupts_within_one_interval() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // Raise the flag from a second thread while the solver is deep
        // inside the chain. The outcome is either Unknown (flag seen
        // mid-run) or Sat (solver finished first) — but never a hang,
        // and an interrupted solver remains resumable.
        let mut s = chain_solver(200_000);
        let stop = Arc::new(AtomicBool::new(false));
        s.set_budget(Budget::new().with_stop_flag(stop.clone()));
        let outcome = std::thread::scope(|scope| {
            let setter = scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                stop.store(true, Ordering::Relaxed);
            });
            let outcome = s.solve();
            setter.join().unwrap();
            outcome
        });
        assert_ne!(outcome, SolveOutcome::Unsat);
        if outcome == SolveOutcome::Unknown {
            stop.store(false, Ordering::Relaxed);
            assert_eq!(s.solve(), SolveOutcome::Sat, "resumable after cancel");
        }
        assert!(s.model().is_some());
    }

    /// Pigeonhole principle clauses: n pigeons, m holes. p(i,j) = var i*m+j.
    fn php_clauses(n: usize, m: usize) -> Vec<Vec<Lit>> {
        let var = |i: usize, j: usize| Var::new((i * m + j) as u32);
        let mut out = Vec::new();
        for i in 0..n {
            out.push((0..m).map(|j| Lit::positive(var(i, j))).collect());
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in i1 + 1..n {
                    out.push(vec![Lit::negative(var(i1, j)), Lit::negative(var(i2, j))]);
                }
            }
        }
        out
    }

    #[test]
    fn pigeonhole_unsat_and_core_covers_pigeons() {
        let clauses = php_clauses(4, 3);
        let core = selector_core(&mut Solver::new(), &clauses).expect("UNSAT");
        assert!(core.len() <= clauses.len());
        // Any three pigeons fit, so every pigeon's clause (0..4) is cited.
        assert_eq!(core[..4], [0, 1, 2, 3]);
        // The core must be unsatisfiable on its own: re-solve it.
        let mut s2 = Solver::new();
        for &i in &core {
            s2.add_clause(clauses[i].iter().copied());
        }
        assert_eq!(s2.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<Lit>> = vec![
            vec![l(1), l(2), l(-3)],
            vec![l(-1), l(3)],
            vec![l(-2), l(-3)],
            vec![l(2), l(3)],
        ];
        let mut s = Solver::new();
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        assert_eq!(s.solve(), SolveOutcome::Sat);
        let m = s.model().unwrap();
        for c in &clauses {
            assert!(c.iter().any(|&lit| m.satisfies(lit)), "clause violated");
        }
    }

    #[test]
    fn a_model_reached_by_propagation_pops_nothing_off_the_heap() {
        // x1 is a fact, and assuming x2 propagates x3 and x4: every
        // variable is assigned before the first pick. A drain of the
        // heap would have removed the fact for good, because
        // backtracking to level 0 never unassigns it.
        let mut s = solver_with(&[&[1], &[-2, 3], &[-3, 4]]);
        assert_eq!(s.solve_with_assumptions(&[l(2)]), SolveOutcome::Sat);
        assert_eq!(s.order.len(), s.num_vars());
        assert!((0..4).all(|v| s.order.contains(Var::new(v))));
        let m = s.model().expect("model after SAT");
        assert!([1, 2, 3, 4].iter().all(|&d| m.satisfies(l(d))));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = solver_with(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(s.stats().conflicts >= 1);
    }

    #[test]
    fn binary_propagations_counted() {
        // An implication chain of binary clauses: deciding x1 propagates
        // the rest through the binary watch lists.
        let mut s = solver_with(&[&[-1, 2], &[-2, 3], &[-3, 4], &[1]]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(
            s.stats().bin_propagations >= 3,
            "expected binary propagations: {}",
            s.stats()
        );
    }

    #[test]
    fn binary_conflict_yields_core() {
        // All-binary UNSAT formula: conflicts must surface through the
        // binary watch lists with valid clause references.
        let clauses: &[&[i32]] = &[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]];
        let mut s = solver_with(clauses);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(!s.is_ok());
        assert_eq!(core_of(clauses), [0, 1, 2, 3]);
    }

    #[test]
    fn lbd_histogram_moves() {
        let mut s = Solver::new();
        for c in php_clauses(5, 4) {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        let hist_total: u64 = s.stats().lbd_hist.iter().sum();
        assert_eq!(hist_total, s.stats().conflicts);
    }

    #[test]
    fn lbd_counts_each_level_above_the_floor_once() {
        let levels = [0, 1, 2, 2, 3, 5, 5];
        let var_data: Vec<VarData> = levels
            .iter()
            .map(|&level| VarData {
                level,
                reason: CRef::UNDEF,
            })
            .collect();
        let lits: Vec<Lit> = (0..levels.len() as u32)
            .map(|v| Lit::positive(Var::new(v)))
            .collect();
        let (mut stamp, mut gen) = (vec![0; 6], 0);
        let mut lbd = |floor| compute_lbd(&var_data, &mut stamp, &mut gen, floor, &lits);
        assert_eq!(lbd(0), 4, "levels 1, 2, 3 and 5");
        assert_eq!(lbd(2), 2, "levels 3 and 5");
        assert_eq!(lbd(5), 0);
    }

    #[test]
    fn learned_clause_stores_assumption_levels_last() {
        // Assumptions a1..a3 take levels 1-3; the search then decides
        // d1, d2, d3 (levels 4-6, default phase true, index order) and
        // d3 implies x and y, falsifying the long clause. The first-UIP
        // clause is ¬d3 ∨ ¬d2 ∨ ¬d1 ∨ ¬a1 ∨ ¬a2.
        let mut s = Solver::with_config(SolverConfig {
            default_phase: true,
            ..SolverConfig::default()
        });
        for c in [&[-6, 7][..], &[-6, 8], &[-1, -2, -4, -5, -7, -8]] {
            s.add_clause(c.iter().map(|&d| l(d)));
        }
        s.set_budget(Budget::new().with_max_conflicts(1));
        assert_eq!(
            s.solve_with_assumptions(&[l(1), l(2), l(3)]),
            SolveOutcome::Unknown
        );
        let cref = s.db.learned_refs().next().expect("one learned clause");
        let learnt = s.db.lits(cref);
        // Variable i sat at level i + 1.
        let level = |lit: &Lit| lit.var().index() + 1;
        assert_eq!(learnt[0], l(-6), "asserting literal first");
        assert_eq!(learnt[1], l(-5), "max-level literal second");
        let mut rest = learnt[2..].to_vec();
        assert!(rest.is_sorted_by_key(|lit| level(lit) <= 3), "{learnt:?}");
        rest.sort_unstable();
        assert_eq!(rest, [l(-1), l(-2), l(-4)]);
        assert_eq!(s.db.lbd(cref), 3, "levels 4, 5 and 6");
    }

    #[test]
    fn selector_softs_learn_glue_clauses() {
        // Every pigeonhole 5/4 clause is soft, so the solve assumes 30
        // selectors, one level each. Counted in the LBD, they left no
        // learned clause with LBD ≤ 2.
        let mut e = crate::IncrementalSolver::new();
        e.ensure_vars(20);
        for c in php_clauses(5, 4) {
            e.add_soft(c);
        }
        assert_eq!(e.solve(&[]), SolveOutcome::Unsat);
        assert!(!e.formula_refuted());
        assert!(e.stats().glue_clauses > 0, "{}", e.stats());
    }

    #[test]
    fn repeated_assumptions_open_levels_past_the_variable_count() {
        // x → y, and z, w refute the formula. Each repeated y is already
        // true and opens an empty level, so the search conflicts at
        // level 8 over only 4 variables.
        let mut s = solver_with(&[&[-1, 2], &[-3, 4], &[-3, -4], &[3, 4], &[3, -4]]);
        let (x, y) = (l(1), l(2));
        assert_eq!(
            s.solve_with_assumptions(&[x, y, y, y, y, y, y]),
            SolveOutcome::Unsat
        );
        assert!(!s.is_ok());
    }

    #[test]
    fn forced_gc_preserves_soundness_and_core() {
        let clauses = php_clauses(6, 5);
        let mut s = Solver::with_config(SolverConfig {
            learntsize_factor: 0.01,
            learntsize_inc: 1.001,
            min_learnts: 5.0,
            gc_frac: 0.0,
            ..SolverConfig::default()
        });
        let core = selector_core(&mut s, &clauses).expect("UNSAT");
        assert!(s.stats().gc_runs > 0, "GC forced: {}", s.stats());
        assert!(s.stats().gc_bytes_reclaimed > 0);
        // Core survives compaction and is still UNSAT.
        let mut s2 = Solver::new();
        for &i in &core {
            s2.add_clause(clauses[i].iter().copied());
        }
        assert_eq!(s2.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn memory_watermark_sheds_learnts_without_changing_the_verdict() {
        // A watermark far below what the learnt database would normally
        // grow to: the guard must fire (aggressive reductions counted)
        // while the verdict matches an unconstrained run — learned
        // clauses are redundant, so shedding them cannot flip UNSAT.
        let clauses = php_clauses(6, 5);
        let mut unlimited = Solver::new();
        let mut guarded = Solver::with_config(SolverConfig {
            arena_watermark_words: Some(600),
            ..SolverConfig::default()
        });
        for c in &clauses {
            unlimited.add_clause(c.iter().copied());
            guarded.add_clause(c.iter().copied());
        }
        assert_eq!(unlimited.solve(), SolveOutcome::Unsat);
        assert_eq!(guarded.solve(), SolveOutcome::Unsat);
        assert!(
            guarded.stats().watermark_reductions > 0,
            "watermark never fired: {}",
            guarded.stats()
        );
        // The guard holds the live arena near the watermark after every
        // aggressive reduction (original clauses alone may exceed it,
        // but this instance's originals fit comfortably).
        assert!(unlimited.stats().watermark_reductions == 0);
    }

    #[test]
    fn watermark_guard_leaves_sat_models_intact() {
        // A satisfiable chain with enough conflicts to learn clauses;
        // the guard must not break model extraction.
        let mut clauses = php_clauses(5, 5);
        clauses.truncate(clauses.len() - 1);
        let mut s = Solver::with_config(SolverConfig {
            arena_watermark_words: Some(400),
            ..SolverConfig::default()
        });
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        assert_eq!(s.solve(), SolveOutcome::Sat);
        let m = s.model().unwrap();
        for c in &clauses {
            assert!(c.iter().any(|&lit| m.satisfies(lit)), "clause violated");
        }
    }

    #[test]
    fn steady_state_conflicts_do_not_allocate() {
        // Scratch capacities plateau: the number of growth events stays
        // bounded (and tiny) while conflicts keep accumulating, i.e.
        // steady-state conflicts perform zero transient allocations.
        let mut s = Solver::new();
        for c in php_clauses(7, 6) {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        let stats = *s.stats();
        assert!(stats.conflicts > 200, "want many conflicts: {stats}");
        assert!(
            stats.scratch_reallocs <= 64,
            "scratch buffers must plateau: {stats}"
        );
    }

    #[test]
    fn solver_reusable_after_sat() {
        let mut s = solver_with(&[&[1, 2]]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        s.add_clause([l(-1)]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        s.add_clause([l(-2)]);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn tautology_never_in_core_and_ids_stay_positional() {
        // Clause 0 is a tautology, clauses 1-2 the contradiction: the
        // core must reference positions 1 and 2 — a tautology keeps its
        // position but is ignored, so it can never be cited.
        assert_eq!(core_of(&[&[1, -1], &[2], &[-2]]), [1, 2]);
    }

    #[test]
    fn duplicate_literals_uniform_across_lengths() {
        // Dedup must apply whether the clause collapses to a unit, a
        // binary, or stays long — all three load paths differ.
        let mut s = Solver::new();
        s.add_clause([l(1), l(1)]); // unit after dedup
        s.add_clause([l(-1), l(2), l(2)]); // binary after dedup
        s.add_clause([l(-2), l(3), l(3), l(4), l(4)]); // long after dedup
        assert_eq!(s.solve(), SolveOutcome::Sat);
        let m = s.model().unwrap();
        assert_eq!(m.value(Var::new(0)), Some(true));
        assert_eq!(m.value(Var::new(1)), Some(true));
        // The deduped long clause is satisfied by the model.
        assert!(m.satisfies(l(3)) || m.satisfies(l(4)) || m.satisfies(l(-2)));
    }

    #[test]
    fn duplicated_contradiction_core_is_exact() {
        // Duplicate literals inside core clauses must not distort the
        // core: it still cites exactly the two contradicting units.
        assert_eq!(core_of(&[&[1, 1], &[-1, -1, -1]]), [0, 1]);
    }

    #[test]
    fn probe_lit_detects_failed_literal() {
        // x1 → x2, x1 → ¬x2: probing x1 conflicts, x2/¬x1 are facts.
        let mut s = solver_with(&[&[-1, 2], &[-1, -2]]);
        assert_eq!(s.probe_lit(l(1)), Some(true));
        assert_eq!(s.probe_lit(l(2)), Some(false));
        assert!(s.level0_literals().is_empty(), "probe must backtrack");
        assert!(s.import_units([l(-1)]));
        assert!(s.level0_literals().contains(&l(-1)));
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn probe_lit_vacuous_cases() {
        let mut s = solver_with(&[&[1]]);
        assert_eq!(s.probe_lit(l(1)), None, "already fixed at level 0");
        assert_eq!(s.probe_lit(l(-1)), None);
        s.add_clause([l(-1)]);
        assert!(!s.is_ok());
        assert_eq!(s.probe_lit(l(2)), None, "UNSAT solver never probes");
    }

    #[test]
    fn import_units_reports_refutation() {
        let mut s = solver_with(&[&[1, 2]]);
        assert!(!s.import_units([l(-1), l(-2)]));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn level0_literals_accumulate_facts() {
        // A unit cascading through an implication chain: all derived
        // facts are visible to the preprocessing hook.
        let mut s = solver_with(&[&[1], &[-1, 2], &[-2, 3]]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        let facts = s.level0_literals();
        assert!(facts.contains(&l(1)));
        assert!(facts.contains(&l(2)));
        assert!(facts.contains(&l(3)));
    }

    #[test]
    fn add_after_unsat_keeps_core() {
        // A refutation is permanent: later clauses cannot undo it.
        let mut s = solver_with(&[&[1], &[-1]]);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        s.add_clause([l(2)]);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn shared_caps_stop_the_search_jointly() {
        // Two solvers handed one solve's budget draw on its one pool:
        // the second gets only what the first left over, where a bare
        // budget would grant each call the full amount again.
        let run = Budget::new().with_max_conflicts(200).child(Instant::now());
        let mut a = Solver::new();
        a.set_budget(run.clone());
        for c in php_clauses(8, 7) {
            a.add_clause(c);
        }
        assert_eq!(a.solve(), SolveOutcome::Unknown);
        assert_eq!(
            a.stats().conflicts,
            200,
            "per-conflict charging binds exactly"
        );

        let mut b = Solver::new();
        b.set_budget(run);
        for c in php_clauses(8, 7) {
            b.add_clause(c);
        }
        assert_eq!(
            b.solve(),
            SolveOutcome::Unknown,
            "an exhausted pool stops later members before they search"
        );
        assert_eq!(b.stats().conflicts, 0);
    }

    #[test]
    fn each_bare_call_is_a_whole_solve() {
        // Without a pool from a larger solve, every call starts its own:
        // the same cap stops two calls after the same work.
        let mut s = Solver::new();
        for c in php_clauses(6, 5) {
            s.add_clause(c);
        }
        s.set_budget(Budget::new().with_max_conflicts(10));
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stats().conflicts, 10);
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stats().conflicts, 20);
    }
}
