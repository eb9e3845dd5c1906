//! The simplification engine: occurrence-list clause database over the
//! hard clauses, top-level facts, subsumption, probing, and bounded
//! variable elimination.
//!
//! Only *hard* clauses enter the database. Soft clauses freeze their
//! variables on entry and are rewritten once at the end (facts applied,
//! hard-subsumed ones dropped), which keeps every transformation
//! cost-preserving — see the crate docs for the argument per technique.
//!
//! The input is read clause by clause as slices of the formula's clause
//! stores, through one scratch buffer: a hard clause takes a vector of
//! its own only if it enters the database (units become facts), and the
//! rewritten soft clauses and the output formula go into clause stores.

use coremax_cnf::simp::{Reconstructor, SimpResult, VarMap};
use coremax_cnf::{ClauseStore, Lit, Var, WcnfFormula, Weight};
use coremax_sat::{Budget, Solver};

use crate::{SimpConfig, SimpStats};

const VALUE_UNDEF: u8 = 0;
const VALUE_TRUE: u8 = 1;
const VALUE_FALSE: u8 = 2;

/// Candidate-pair budget of one subsumption round; bounds the quadratic
/// worst case without a time source.
const SUBSUME_STEP_BUDGET: u64 = 2_000_000;

/// One hard clause in the database. Literals stay sorted (by code), so
/// membership is a binary search and subset tests are linear merges.
#[derive(Debug, Clone)]
struct SClause {
    lits: Vec<Lit>,
    /// 64-bit literal signature: `C ⊆ D` implies `sig(C) & !sig(D) == 0`.
    sig: u64,
    dead: bool,
}

fn signature(lits: &[Lit]) -> u64 {
    lits.iter().fold(0u64, |s, l| s | 1u64 << (l.code() & 63))
}

/// Sorted-slice subset test.
fn is_subset(small: &[Lit], big: &[Lit]) -> bool {
    let mut j = 0;
    for &l in small {
        loop {
            if j == big.len() {
                return false;
            }
            if big[j] == l {
                j += 1;
                break;
            }
            if big[j] > l {
                return false;
            }
            j += 1;
        }
    }
    true
}

/// `small \ {skip} ⊆ big`, both sorted.
fn is_subset_except(small: &[Lit], skip: Lit, big: &[Lit]) -> bool {
    let mut j = 0;
    for &l in small {
        if l == skip {
            continue;
        }
        loop {
            if j == big.len() {
                return false;
            }
            if big[j] == l {
                j += 1;
                break;
            }
            if big[j] > l {
                return false;
            }
            j += 1;
        }
    }
    true
}

pub(crate) struct Engine<'a> {
    cfg: &'a SimpConfig,
    num_vars: usize,
    clauses: Vec<SClause>,
    /// Per-literal occurrence lists (clause indices). Entries go stale
    /// when a clause dies or is strengthened; every read re-checks
    /// liveness and membership.
    occ: Vec<Vec<u32>>,
    frozen: Vec<bool>,
    /// Top-level facts: per-variable VALUE_* byte.
    value: Vec<u8>,
    /// Facts not yet applied to the clause database.
    queue: Vec<Lit>,
    qhead: usize,
    recon: Reconstructor,
    /// The clause being normalised by `add_clause` or the soft pass.
    scratch: Vec<Lit>,
    stats: SimpStats,
    infeasible: bool,
    /// Cooperative cancellation: polled between passes and inside the
    /// elimination/probing/subsumption loops.
    budget: Budget,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        cfg: &'a SimpConfig,
        wcnf: &WcnfFormula,
        extra_frozen: &[Var],
        budget: Budget,
    ) -> Self {
        let n = wcnf.num_vars();
        let mut engine = Engine {
            cfg,
            num_vars: n,
            clauses: Vec::with_capacity(wcnf.num_hard()),
            occ: vec![Vec::new(); 2 * n],
            frozen: vec![false; n],
            value: vec![VALUE_UNDEF; n],
            // Every fact fixes a variable, so at most `n` are queued.
            queue: Vec::with_capacity(n),
            qhead: 0,
            recon: Reconstructor::new(),
            scratch: Vec::new(),
            stats: SimpStats {
                vars_in: n as u64,
                hard_in: wcnf.num_hard() as u64,
                soft_in: wcnf.num_soft() as u64,
                ..SimpStats::default()
            },
            infeasible: false,
            budget,
        };
        for s in wcnf.soft_clauses() {
            for &l in s.clause.lits() {
                engine.frozen[l.var().index()] = true;
            }
        }
        for &v in extra_frozen {
            if v.index() < n {
                engine.frozen[v.index()] = true;
            }
        }
        for c in wcnf.hard_clauses() {
            engine.add_clause(&c);
            if engine.infeasible {
                break;
            }
        }
        engine
    }

    pub(crate) fn into_stats(self) -> SimpStats {
        self.stats
    }

    fn lit_value(&self, l: Lit) -> u8 {
        match self.value[l.var().index()] {
            VALUE_UNDEF => VALUE_UNDEF,
            v if (v == VALUE_TRUE) == l.is_positive() => VALUE_TRUE,
            _ => VALUE_FALSE,
        }
    }

    /// Establishes `lit` as a top-level fact (recorded for
    /// reconstruction) and queues it for database substitution.
    fn enqueue_fact(&mut self, lit: Lit) {
        match self.lit_value(lit) {
            VALUE_TRUE => {}
            VALUE_FALSE => self.infeasible = true,
            _ => {
                self.value[lit.var().index()] = if lit.is_positive() {
                    VALUE_TRUE
                } else {
                    VALUE_FALSE
                };
                self.recon.push_unit(lit);
                self.queue.push(lit);
                self.stats.facts += 1;
            }
        }
    }

    /// Normalises `lits` into `self.scratch`: sorted, deduplicated and
    /// with the current facts applied. Returns `false` if the clause is a
    /// tautology or satisfied by a fact.
    fn normalize(&mut self, lits: &[Lit]) -> bool {
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.extend_from_slice(lits);
        out.sort_unstable();
        out.dedup();
        let mut live = !out.windows(2).any(|w| w[0].var() == w[1].var());
        out.retain(|&l| match self.lit_value(l) {
            VALUE_TRUE => {
                live = false;
                false
            }
            VALUE_FALSE => false,
            _ => true,
        });
        self.scratch = out;
        live
    }

    /// Normalises and stores a hard clause: sort, dedup, drop
    /// tautologies, apply current facts; units become facts instead of
    /// clauses, the empty clause refutes the instance.
    fn add_clause(&mut self, lits: &[Lit]) {
        if !self.normalize(lits) {
            return;
        }
        match self.scratch.len() {
            0 => self.infeasible = true,
            1 => self.enqueue_fact(self.scratch[0]),
            _ => {
                let idx = self.clauses.len() as u32;
                for &l in &self.scratch {
                    self.occ[l.index()].push(idx);
                }
                self.clauses.push(SClause {
                    lits: self.scratch.clone(),
                    sig: signature(&self.scratch),
                    dead: false,
                });
            }
        }
    }

    /// Removes `lit` from clause `ci`; the clause may collapse to a
    /// fact.
    fn strengthen(&mut self, ci: usize, lit: Lit) {
        let clause = &mut self.clauses[ci];
        debug_assert!(!clause.dead);
        let at = clause.lits.binary_search(&lit).expect("literal present");
        clause.lits.remove(at);
        clause.sig = signature(&clause.lits);
        if clause.lits.len() == 1 {
            let unit = clause.lits[0];
            clause.dead = true;
            self.enqueue_fact(unit);
        }
    }

    /// Applies queued facts to the database until fixpoint.
    fn propagate(&mut self) {
        while self.qhead < self.queue.len() {
            if self.infeasible {
                return;
            }
            let l = self.queue[self.qhead];
            self.qhead += 1;
            // Clauses containing the true literal are satisfied forever.
            let sat_list = std::mem::take(&mut self.occ[l.index()]);
            for &ci in &sat_list {
                let clause = &mut self.clauses[ci as usize];
                if !clause.dead && clause.lits.binary_search(&l).is_ok() {
                    clause.dead = true;
                }
            }
            // Clauses containing the false literal lose it.
            let str_list = std::mem::take(&mut self.occ[(!l).index()]);
            for &ci in &str_list {
                let clause = &self.clauses[ci as usize];
                if !clause.dead && clause.lits.binary_search(&!l).is_ok() {
                    self.strengthen(ci as usize, !l);
                }
            }
        }
    }

    /// One signature-accelerated subsumption + self-subsuming-resolution
    /// pass over the live clauses.
    fn subsume_round(&mut self) {
        let mut budget = SUBSUME_STEP_BUDGET;
        for i in 0..self.clauses.len() {
            if budget == 0 || self.infeasible {
                break;
            }
            if i.is_multiple_of(256) && self.budget.interrupted() {
                break;
            }
            if self.clauses[i].dead {
                continue;
            }
            let c_lits = self.clauses[i].lits.clone();
            let c_sig = self.clauses[i].sig;
            // Backward subsumption: kill every D ⊇ C. Scanning the
            // occurrence list of C's rarest literal sees every such D.
            let best = c_lits
                .iter()
                .copied()
                .min_by_key(|l| self.occ[l.index()].len())
                .expect("live clauses are non-empty");
            let cand = std::mem::take(&mut self.occ[best.index()]);
            for &dj in &cand {
                let dj = dj as usize;
                budget = budget.saturating_sub(1);
                if dj == i {
                    continue;
                }
                let d = &self.clauses[dj];
                if d.dead
                    || c_sig & !d.sig != 0
                    || c_lits.len() > d.lits.len()
                    || !is_subset(&c_lits, &d.lits)
                {
                    continue;
                }
                self.clauses[dj].dead = true;
                self.stats.subsumed += 1;
            }
            self.occ[best.index()] = cand;
            // Self-subsuming resolution: C = (A ∨ l), D = (A' ∨ ¬l) with
            // A ⊆ A' lets ¬l be deleted from D.
            for &l in &c_lits {
                if budget == 0 {
                    break;
                }
                let sig_wo = signature_without(&c_lits, l);
                let cand = std::mem::take(&mut self.occ[(!l).index()]);
                for &dj in &cand {
                    let dj = dj as usize;
                    budget = budget.saturating_sub(1);
                    let d = &self.clauses[dj];
                    if d.dead
                        || c_lits.len() > d.lits.len()
                        || sig_wo & !d.sig != 0
                        || d.lits.binary_search(&!l).is_err()
                        || !is_subset_except(&c_lits, l, &d.lits)
                    {
                        continue;
                    }
                    self.strengthen(dj, !l);
                    self.stats.strengthened += 1;
                }
                self.occ[(!l).index()] = cand;
                if self.clauses[i].dead {
                    break; // C collapsed via a fact cascade
                }
            }
        }
    }

    /// Failed-literal probing on the CDCL engine: load the live
    /// clauses, probe binary-clause literals, harvest every level-0
    /// fact the solver accumulates.
    fn probe_round(&mut self) {
        // Probing only pays when binary clauses give propagation roots;
        // building a solver for a formula without them is pure loss.
        if !self.clauses.iter().any(|c| !c.dead && c.lits.len() == 2) {
            return;
        }
        let mut solver = Solver::new();
        solver.ensure_vars(self.num_vars);
        let mut in_binary = vec![false; 2 * self.num_vars];
        for clause in self.clauses.iter().filter(|c| !c.dead) {
            solver.add_clause(clause.lits.iter().copied());
            if clause.lits.len() == 2 {
                for &l in &clause.lits {
                    in_binary[l.index()] = true;
                }
            }
        }
        let mut remaining = self.cfg.probe_budget;
        for (code, _) in in_binary.iter().enumerate().filter(|&(_, &b)| b) {
            if remaining == 0 || !solver.is_ok() {
                break;
            }
            if remaining.is_multiple_of(64) && self.budget.interrupted() {
                break;
            }
            let lit = Lit::from_code(code as u32);
            remaining -= 1;
            self.stats.probes += 1;
            if solver.probe_lit(lit) == Some(true) {
                self.stats.failed_literals += 1;
                solver.import_units([!lit]);
            }
        }
        if !solver.is_ok() {
            self.infeasible = true;
            return;
        }
        let facts: Vec<Lit> = solver.level0_literals().to_vec();
        for l in facts {
            self.enqueue_fact(l);
        }
        self.propagate();
    }

    /// Bounded variable elimination plus pure-literal removal over the
    /// non-frozen, unassigned variables, cheapest first.
    fn bve_round(&mut self) {
        let mut order: Vec<(usize, usize)> = (0..self.num_vars)
            .filter(|&v| !self.frozen[v] && self.value[v] == VALUE_UNDEF)
            .map(|v| {
                let p = self.occ[Lit::positive(Var::new(v as u32)).index()].len();
                let n = self.occ[Lit::negative(Var::new(v as u32)).index()].len();
                (p * n, v)
            })
            .collect();
        order.sort_unstable();
        for (i, (_, v)) in order.into_iter().enumerate() {
            if self.infeasible {
                return;
            }
            if i.is_multiple_of(64) && self.budget.interrupted() {
                return;
            }
            if self.value[v] != VALUE_UNDEF {
                continue; // fixed by a unit resolvent meanwhile
            }
            let var = Var::new(v as u32);
            let pos_lit = Lit::positive(var);
            let neg_lit = Lit::negative(var);
            let pos = self.live_occurrences(pos_lit);
            let neg = self.live_occurrences(neg_lit);
            match (pos.is_empty(), neg.is_empty()) {
                (true, true) => continue,
                (false, true) => {
                    self.eliminate_pure(pos_lit, &pos);
                    continue;
                }
                (true, false) => {
                    self.eliminate_pure(neg_lit, &neg);
                    continue;
                }
                (false, false) => {}
            }
            if pos.len() * neg.len() > self.cfg.max_resolvent_pairs {
                continue;
            }
            // Count (and collect) non-tautological resolvents; bail as
            // soon as the growth budget is blown.
            let limit = pos.len() + neg.len() + self.cfg.grow_limit;
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut within_budget = true;
            'count: for &pi in &pos {
                for &ni in &neg {
                    if let Some(r) = resolve(&self.clauses[pi].lits, &self.clauses[ni].lits, var) {
                        resolvents.push(r);
                        if resolvents.len() > limit {
                            within_budget = false;
                            break 'count;
                        }
                    }
                }
            }
            if !within_budget {
                continue;
            }
            // Eliminate: save the smaller side for reconstruction
            // (clauses pivot-first, then the opposite-polarity default).
            let (saved, pivot) = if pos.len() <= neg.len() {
                (&pos, pos_lit)
            } else {
                (&neg, neg_lit)
            };
            for &ci in saved.iter() {
                self.recon.push_clause(pivot, &self.clauses[ci].lits);
            }
            self.recon.push_unit(!pivot);
            for &ci in pos.iter().chain(neg.iter()) {
                self.clauses[ci].dead = true;
            }
            for r in resolvents {
                self.add_clause(&r);
                if self.infeasible {
                    return;
                }
            }
            self.stats.eliminated_vars += 1;
            self.propagate();
        }
    }

    /// Live clause indices currently containing `lit`.
    fn live_occurrences(&self, lit: Lit) -> Vec<usize> {
        self.occ[lit.index()]
            .iter()
            .map(|&ci| ci as usize)
            .filter(|&ci| {
                let c = &self.clauses[ci];
                !c.dead && c.lits.binary_search(&lit).is_ok()
            })
            .collect()
    }

    fn eliminate_pure(&mut self, lit: Lit, occurrences: &[usize]) {
        self.recon.push_unit(lit);
        for &ci in occurrences {
            self.clauses[ci].dead = true;
        }
        self.stats.pure_literals += 1;
    }

    /// Runs the pipeline and assembles the [`SimpResult`].
    pub(crate) fn run(&mut self, wcnf: &WcnfFormula) -> SimpResult {
        self.propagate();
        // Plain MaxSAT fast path: with no live hard clauses there is
        // nothing any round could rewrite — go straight to the soft
        // pass (which still applies facts from original hard units).
        let mut round = if self.clauses.iter().all(|c| c.dead) {
            self.cfg.max_rounds
        } else {
            0
        };
        // Poll the budget between pipeline passes: a stop flag raised
        // (or a deadline expired) mid-preprocessing abandons further
        // rewriting. Everything already applied is sound on its own, so
        // the partially simplified result stays correct.
        while !self.infeasible && round < self.cfg.max_rounds && !self.budget.interrupted() {
            round += 1;
            self.stats.rounds += 1;
            let before = self.change_marker();
            if self.cfg.subsumption {
                let subsumed0 = self.stats.subsumed + self.stats.strengthened;
                self.subsume_round();
                self.propagate();
                if coremax_obs::tracing_enabled() {
                    coremax_obs::emit(coremax_obs::Event::SimpPass {
                        pass: "subsume",
                        round: round as u64,
                        removed: self.stats.subsumed + self.stats.strengthened - subsumed0,
                    });
                }
            }
            if self.cfg.probing && round == 1 && !self.budget.interrupted() {
                let failed0 = self.stats.failed_literals;
                self.probe_round();
                if coremax_obs::tracing_enabled() {
                    coremax_obs::emit(coremax_obs::Event::SimpPass {
                        pass: "probe",
                        round: round as u64,
                        removed: self.stats.failed_literals - failed0,
                    });
                }
            }
            if self.cfg.bve && !self.budget.interrupted() {
                let eliminated0 = self.stats.eliminated_vars + self.stats.pure_literals;
                self.bve_round();
                if coremax_obs::tracing_enabled() {
                    coremax_obs::emit(coremax_obs::Event::SimpPass {
                        pass: "bve",
                        round: round as u64,
                        removed: self.stats.eliminated_vars + self.stats.pure_literals
                            - eliminated0,
                    });
                }
            }
            self.propagate();
            if self.change_marker() == before {
                break;
            }
        }
        self.finish(wcnf)
    }

    /// A fingerprint of "has any rewrite happened": compares equal
    /// across a round iff the round changed nothing.
    fn change_marker(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.stats.facts,
            self.stats.subsumed,
            self.stats.strengthened,
            self.stats.eliminated_vars,
            self.stats.pure_literals,
            self.stats.failed_literals,
        )
    }

    /// Applies the facts to the soft clauses, drops hard-subsumed
    /// softs, compacts the variable space, and bundles the result.
    fn finish(&mut self, wcnf: &WcnfFormula) -> SimpResult {
        if self.infeasible {
            return SimpResult {
                formula: WcnfFormula::new(),
                var_map: VarMap::from_kept(&vec![false; self.num_vars]),
                reconstructor: Reconstructor::new(),
                cost_offset: 0,
                infeasible: true,
            };
        }
        let mut cost_offset: Weight = 0;
        // The surviving soft clauses over the original variables, with
        // their weights.
        let mut soft_out = ClauseStore::new();
        soft_out.reserve(wcnf.num_soft(), 0);
        let mut soft_weights: Vec<Weight> = Vec::with_capacity(wcnf.num_soft());
        'soft: for s in wcnf.soft_clauses() {
            if !self.normalize(&s.clause) {
                // Tautological or satisfied by a fact: satisfied by
                // every feasible assignment, cost-free.
                self.stats.soft_dropped += 1;
                continue;
            }
            let lits = &self.scratch;
            if lits.is_empty() {
                // Emptied by hard facts: falsified in every feasible
                // model. Its weight is a constant the caller re-adds.
                cost_offset = cost_offset.saturating_add(s.weight);
                self.stats.soft_falsified += 1;
                continue;
            }
            // A live hard clause D ⊆ S means every feasible model
            // satisfies S: the soft clause can never cost anything.
            if self.cfg.subsumption {
                let s_sig = signature(lits);
                for &l in lits {
                    for &dj in &self.occ[l.index()] {
                        let d = &self.clauses[dj as usize];
                        if !d.dead
                            && d.sig & !s_sig == 0
                            && d.lits.len() <= lits.len()
                            && is_subset(&d.lits, lits)
                        {
                            self.stats.soft_dropped += 1;
                            continue 'soft;
                        }
                    }
                }
            }
            soft_out.push(lits.iter().copied());
            soft_weights.push(s.weight);
        }
        // Compact the variable space to the survivors. Frozen variables
        // survive unconditionally (unless fixed by a fact): callers
        // freeze exactly the variables they will relax or assume after
        // preprocessing, so those must keep an image in the new space
        // even when every clause around them died.
        let mut keep = vec![false; self.num_vars];
        for clause in self.clauses.iter().filter(|c| !c.dead) {
            for &l in &clause.lits {
                keep[l.var().index()] = true;
            }
        }
        for c in &soft_out {
            for &l in c {
                keep[l.var().index()] = true;
            }
        }
        for (v, kept) in keep.iter_mut().enumerate() {
            if self.frozen[v] && self.value[v] == VALUE_UNDEF {
                *kept = true;
            }
        }
        let var_map = VarMap::from_kept(&keep);
        let map = |l: Lit| var_map.map_lit(l).expect("kept var");
        let live = self.clauses.iter().filter(|c| !c.dead);
        let mut hard = ClauseStore::new();
        hard.reserve(
            live.clone().count(),
            live.clone().map(|c| c.lits.len()).sum(),
        );
        for clause in live {
            hard.push(clause.lits.iter().map(|&l| map(l)));
        }
        soft_out.map_lits(map);
        let formula =
            WcnfFormula::from_stores(var_map.num_new_vars(), hard, soft_out, soft_weights);
        self.stats.hard_out = formula.num_hard() as u64;
        self.stats.soft_out = formula.num_soft() as u64;
        self.stats.vars_out = formula.num_vars() as u64;
        SimpResult {
            formula,
            var_map,
            reconstructor: std::mem::take(&mut self.recon),
            cost_offset,
            infeasible: false,
        }
    }
}

/// Signature of `lits` with `skip` excluded (recomputed, since bucket
/// collisions make bit removal unsound).
fn signature_without(lits: &[Lit], skip: Lit) -> u64 {
    lits.iter()
        .filter(|&&l| l != skip)
        .fold(0u64, |s, l| s | 1u64 << (l.code() & 63))
}

/// Resolvent of `c1` (containing `var` positively) and `c2` (containing
/// it negatively) on `var`; `None` when tautological. Inputs sorted,
/// output sorted and deduplicated.
fn resolve(c1: &[Lit], c2: &[Lit], var: Var) -> Option<Vec<Lit>> {
    let mut out = Vec::with_capacity(c1.len() + c2.len() - 2);
    let (mut i, mut j) = (0, 0);
    loop {
        if i < c1.len() && c1[i].var() == var {
            i += 1; // skip the pivot
            continue;
        }
        if j < c2.len() && c2[j].var() == var {
            j += 1;
            continue;
        }
        match (c1.get(i), c2.get(j)) {
            (None, None) => break,
            (Some(&x), None) => {
                out.push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (Some(&x), Some(&y)) => {
                if x == y {
                    out.push(x);
                    i += 1;
                    j += 1;
                } else if x.var() == y.var() {
                    return None; // opposite polarities: tautology
                } else if x < y {
                    out.push(x);
                    i += 1;
                } else {
                    out.push(y);
                    j += 1;
                }
            }
        }
    }
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d).unwrap()
    }

    #[test]
    fn resolve_merges_and_detects_tautologies() {
        let v = Var::new(0);
        let c1 = vec![lit(1), lit(2)];
        let c2 = vec![lit(-1), lit(3)];
        assert_eq!(resolve(&c1, &c2, v), Some(vec![lit(2), lit(3)]));
        let c3 = vec![lit(-1), lit(-2)];
        assert_eq!(resolve(&c1, &c3, v), None);
        let c4 = vec![lit(-1), lit(2)];
        assert_eq!(resolve(&c1, &c4, v), Some(vec![lit(2)]));
    }

    #[test]
    fn resolve_tautology_past_the_pivot() {
        // Pivot first in both clauses: the tautology between the
        // trailing literals must still be seen.
        let v = Var::new(2);
        let c1 = vec![lit(3), lit(4)];
        let c2 = vec![lit(-3), lit(-4)];
        assert_eq!(resolve(&c1, &c2, v), None);
        // And a mixed case where only one side trails the pivot.
        let c3 = vec![lit(1), lit(3)];
        let c4 = vec![lit(-3), lit(5)];
        assert_eq!(resolve(&c3, &c4, v), Some(vec![lit(1), lit(5)]));
    }

    #[test]
    fn subset_tests() {
        let mut a = vec![lit(1), lit(3)];
        let mut b = vec![lit(1), lit(2), lit(3)];
        a.sort_unstable();
        b.sort_unstable();
        assert!(is_subset(&a, &b));
        assert!(!is_subset(&b, &a));
        let mut c = vec![lit(1), lit(-2), lit(3)];
        c.sort_unstable();
        assert!(is_subset_except(&c, lit(-2), &b));
        assert!(!is_subset_except(&c, lit(3), &b));
    }

    #[test]
    fn signature_subset_property() {
        let mut a = vec![lit(5), lit(9)];
        let mut b = vec![lit(5), lit(7), lit(9)];
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(signature(&a) & !signature(&b), 0);
    }
}
