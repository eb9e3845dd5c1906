//! Cooperative clause exchange between diversified portfolio workers.
//!
//! Real parallel SAT solvers (ManySAT, Plingeling, Glucose-syrup) beat
//! pure racing by letting workers exchange low-LBD learned clauses.
//! This module is the exchange layer for the `coremax_par` portfolio:
//!
//! - [`ClauseExchange`] — one per race: a per-worker *export ring*
//!   (appended by its owner under a short lock, read by everyone else)
//!   plus global exchange counters.
//! - [`SharedContext`] — the cloneable handle a portfolio member's
//!   solver stack carries: worker identity, the diversified
//!   [`SolverConfig`] for that worker, and an optional variable
//!   translation between the *canonical* (original instance) variable
//!   space and the solver's local space (used under preprocessing,
//!   where variables are renamed).
//! - [`ExchangeEndpoint`] — the per-[`crate::Solver`] state: staged
//!   exports, per-ring read cursors, and a seen-set for deduplication.
//!
//! # Soundness model
//!
//! Portfolio members run *different algorithms with different auxiliary
//! variables* (soft-clause selectors, cardinality encodings, preprocessor
//! renamings), so arbitrary learned clauses are **not** interchangeable.
//! The invariant that makes sharing sound is:
//!
//! > every clause placed in the exchange is implied by the canonical
//! > instance's **hard clauses alone**, expressed over canonical
//! > variables.
//!
//! Exporters guarantee this with purity tracking: a learned clause is
//! exported only when its entire resolution derivation bottoms out in
//! clauses marked *pure* (the canonical hard clauses, loaded via
//! [`crate::Solver::add_clause_shared`]). Importers may then install any
//! exchanged clause: it is implied by their own hard clauses too, so it
//! can never change a verdict — only speed one up. Imports are drained
//! at restart boundaries exclusively, so the trail is never disturbed
//! mid-propagation.
//!
//! Epoch buffering keeps the hot path lock-free: exports are staged in
//! a worker-local buffer during search and published to the worker's
//! own ring (one short lock) at the same restart boundary that drains
//! imports.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use coremax_cnf::{Lit, Var};

use crate::solver::SolverConfig;

/// Gates on what the exchange accepts from exporters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingConfig {
    /// Only learned clauses with learn-time LBD at or below this are
    /// exported (glue-ish clauses travel, noise stays local). The LBD
    /// leaves out the learning solve's assumption levels, so a clause
    /// learned above a long assumption prefix can pass this gate.
    pub max_lbd: u32,
    /// Only clauses with at most this many literals are exported.
    pub max_len: usize,
}

impl Default for SharingConfig {
    fn default() -> Self {
        SharingConfig {
            max_lbd: 4,
            max_len: 8,
        }
    }
}

/// A clause in canonical variable space, ready for import.
#[derive(Debug, Clone)]
struct SharedClause {
    /// Sorted, duplicate-free canonical literals.
    lits: Arc<[Lit]>,
    /// The exporter's learn-time LBD (importers clamp it).
    lbd: u32,
}

/// Aggregate exchange counters, for benchmarks and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeTotals {
    /// Clauses published into the exchange across all workers.
    pub exported: u64,
    /// Clauses delivered to an importing solver (per receiving worker:
    /// one exported clause can be imported by many workers).
    pub imported: u64,
    /// Deliveries dropped because the receiver had already seen an
    /// identical clause (its own export or an earlier import).
    pub duplicates: u64,
}

/// Bound on one worker's export ring; beyond it further exports from
/// that worker are dropped (sharing is best-effort, never a memory
/// liability).
const MAX_RING_CLAUSES: usize = 1 << 16;

/// The shared side of the exchange: one export ring per worker plus
/// global counters. Created once per portfolio race.
#[derive(Debug)]
pub struct ClauseExchange {
    config: SharingConfig,
    /// `rings[w]` is appended only by worker `w` (publish) and read by
    /// every other worker (drain); entries are immutable once pushed.
    rings: Vec<Mutex<Vec<SharedClause>>>,
    exported: AtomicU64,
    imported: AtomicU64,
    duplicates: AtomicU64,
}

impl ClauseExchange {
    /// An exchange for `workers` participants.
    #[must_use]
    pub fn new(workers: usize, config: SharingConfig) -> Arc<ClauseExchange> {
        Arc::new(ClauseExchange {
            config,
            rings: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            exported: AtomicU64::new(0),
            imported: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        })
    }

    /// Number of participating workers.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.rings.len()
    }

    /// The export gates.
    #[must_use]
    pub fn config(&self) -> SharingConfig {
        self.config
    }

    /// Builds worker `worker`'s context, carrying the (diversified)
    /// solver configuration its whole solver stack should use.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    #[must_use]
    pub fn context(self: &Arc<Self>, worker: usize, solver_config: SolverConfig) -> SharedContext {
        assert!(worker < self.num_workers(), "worker index out of range");
        SharedContext {
            exchange: Arc::clone(self),
            worker,
            export_enabled: true,
            solver_config,
            to_canon: None,
            from_canon: None,
        }
    }

    /// Snapshot of the global exchange counters.
    #[must_use]
    pub fn totals(&self) -> ExchangeTotals {
        ExchangeTotals {
            exported: self.exported.load(Ordering::Relaxed),
            imported: self.imported.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
        }
    }
}

/// The handle a portfolio member's solver stack carries: exchange +
/// worker identity + diversified solver configuration + (optional)
/// canonical↔local variable translation.
///
/// Wrappers compose it downwards: [`import_only`](Self::import_only)
/// disables exporting (used by stratification, whose sub-instances add
/// hard clauses that are *not* canonical-hard-implied), and
/// [`with_var_map`](Self::with_var_map) layers a preprocessor renaming
/// on top.
#[derive(Debug, Clone)]
pub struct SharedContext {
    exchange: Arc<ClauseExchange>,
    worker: usize,
    export_enabled: bool,
    solver_config: SolverConfig,
    /// Local variable → canonical variable (`None` = identity: local
    /// vars 0..n *are* the canonical vars, a property every driver
    /// maintains by loading the instance before allocating selectors).
    to_canon: Option<Arc<Vec<Option<Var>>>>,
    /// Canonical variable → local variable (`None` entry: the variable
    /// was eliminated locally, clauses over it cannot be imported).
    from_canon: Option<Arc<Vec<Option<Var>>>>,
}

impl SharedContext {
    /// This worker's index in the exchange.
    #[must_use]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Whether solvers under this context may export.
    #[must_use]
    pub fn export_enabled(&self) -> bool {
        self.export_enabled
    }

    /// The diversified solver configuration for this worker.
    #[must_use]
    pub fn solver_config(&self) -> SolverConfig {
        self.solver_config.clone()
    }

    /// A copy of this context with exporting disabled. Importing stays
    /// sound in any solver whose hard clauses *include* consequences of
    /// the canonical hard clauses (e.g. stratification sub-instances);
    /// exporting from such a solver would not be, hence this switch.
    #[must_use]
    pub fn import_only(&self) -> SharedContext {
        let mut ctx = self.clone();
        ctx.export_enabled = false;
        ctx
    }

    /// Layers a preprocessor variable renaming onto the context:
    /// `new_to_old[v]` is the previous-space variable behind local
    /// variable `v`, and `old_to_new[u]` is the local variable a
    /// previous-space variable survived as (`None` = eliminated).
    #[must_use]
    pub fn with_var_map(&self, new_to_old: &[Var], old_to_new: &[Option<Var>]) -> SharedContext {
        // Compose with any translation already present (identity when
        // this context sits directly on the canonical space).
        let to_canon: Vec<Option<Var>> = new_to_old
            .iter()
            .map(|&old| match &self.to_canon {
                None => Some(old),
                Some(map) => map.get(old.index()).copied().flatten(),
            })
            .collect();
        let canon_len = match &self.from_canon {
            Some(map) => map.len(),
            None => old_to_new.len(),
        };
        let from_canon: Vec<Option<Var>> = (0..canon_len)
            .map(|c| {
                let old = match &self.from_canon {
                    None => Some(Var::new(c as u32)),
                    Some(map) => map[c],
                };
                old.and_then(|o| old_to_new.get(o.index()).copied().flatten())
            })
            .collect();
        let mut ctx = self.clone();
        ctx.to_canon = Some(Arc::new(to_canon));
        ctx.from_canon = Some(Arc::new(from_canon));
        ctx
    }

    /// Builds the per-solver endpoint for this context.
    #[must_use]
    pub fn endpoint(&self) -> ExchangeEndpoint {
        ExchangeEndpoint {
            exchange: Arc::clone(&self.exchange),
            worker: self.worker,
            export_enabled: self.export_enabled,
            to_canon: self.to_canon.clone(),
            from_canon: self.from_canon.clone(),
            cursors: vec![0; self.exchange.num_workers()],
            staged: Vec::new(),
            seen: HashSet::new(),
            scratch: Vec::new(),
        }
    }
}

/// FNV-1a over the (sorted) canonical literal codes.
fn clause_hash(lits: &[Lit]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in lits {
        h ^= u64::from(l.code());
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One solver's private view of the exchange: staged exports, per-ring
/// read cursors and the dedup seen-set. Not thread-shared — the solver
/// owns it; all cross-thread traffic goes through the rings.
#[derive(Debug)]
pub struct ExchangeEndpoint {
    exchange: Arc<ClauseExchange>,
    worker: usize,
    export_enabled: bool,
    to_canon: Option<Arc<Vec<Option<Var>>>>,
    from_canon: Option<Arc<Vec<Option<Var>>>>,
    /// Next unread index per source ring (own ring is never read).
    cursors: Vec<usize>,
    /// Exports staged since the last publish (worker-local, lock-free).
    staged: Vec<SharedClause>,
    /// Canonical clause hashes already exported or imported here.
    seen: HashSet<u64>,
    scratch: Vec<Lit>,
}

impl ExchangeEndpoint {
    /// Whether this endpoint exports ([`SharedContext::import_only`]
    /// disables it).
    #[must_use]
    pub fn export_enabled(&self) -> bool {
        self.export_enabled
    }

    /// Export LBD gate (from the exchange's [`SharingConfig`]).
    #[must_use]
    pub fn max_lbd(&self) -> u32 {
        self.exchange.config.max_lbd
    }

    /// Export length gate.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.exchange.config.max_len
    }

    /// Stages a clause (in *local* variable space) for export at the
    /// next publish. Returns `false` when the clause is dropped: export
    /// disabled, untranslatable, a tautology after normalisation, or
    /// already seen. LBD/length gating is the caller's job — the
    /// staging path only guarantees well-formedness and novelty.
    pub fn stage(&mut self, local_lits: &[Lit], lbd: u32) -> bool {
        if !self.export_enabled {
            return false;
        }
        let mut canon = std::mem::take(&mut self.scratch);
        canon.clear();
        for &l in local_lits {
            let v = match &self.to_canon {
                None => Some(l.var()),
                Some(map) => map.get(l.var().index()).copied().flatten(),
            };
            match v {
                Some(v) => canon.push(Lit::new(v, l.is_positive())),
                None => {
                    self.scratch = canon;
                    return false;
                }
            }
        }
        canon.sort_unstable();
        canon.dedup();
        let tautology = canon.windows(2).any(|w| w[0].var() == w[1].var());
        if tautology || canon.is_empty() || !self.seen.insert(clause_hash(&canon)) {
            self.scratch = canon;
            return false;
        }
        self.staged.push(SharedClause {
            lits: canon.as_slice().into(),
            lbd,
        });
        self.scratch = canon;
        true
    }

    /// Publishes every staged clause to this worker's ring (one short
    /// lock) and returns how many entered the exchange. Call at restart
    /// boundaries.
    pub fn publish(&mut self) -> u64 {
        if self.staged.is_empty() {
            return 0;
        }
        let mut ring = self.exchange.rings[self.worker]
            .lock()
            .expect("exchange ring poisoned");
        let room = MAX_RING_CLAUSES.saturating_sub(ring.len());
        let take = self.staged.len().min(room);
        ring.extend(self.staged.drain(..take));
        drop(ring);
        self.staged.clear(); // anything beyond the ring cap is dropped
        let published = take as u64;
        self.exchange
            .exported
            .fetch_add(published, Ordering::Relaxed);
        published
    }

    /// Drains every other worker's ring from this endpoint's cursors,
    /// translating each clause into local variable space and invoking
    /// `deliver(local_lits, lbd)` for clauses that survive translation
    /// (all variables present locally, index < `num_local_vars`) and
    /// deduplication. Returns `(delivered, duplicates)`. Call only at
    /// restart boundaries (decision level 0).
    pub fn drain<F: FnMut(&[Lit], u32)>(
        &mut self,
        num_local_vars: usize,
        mut deliver: F,
    ) -> (u64, u64) {
        let mut delivered = 0u64;
        let mut duplicates = 0u64;
        let mut batch: Vec<SharedClause> = Vec::new();
        for (ring_idx, ring) in self.exchange.rings.iter().enumerate() {
            if ring_idx == self.worker {
                continue;
            }
            {
                let ring = ring.lock().expect("exchange ring poisoned");
                let cursor = &mut self.cursors[ring_idx];
                if *cursor < ring.len() {
                    batch.extend(ring[*cursor..].iter().cloned());
                    *cursor = ring.len();
                }
            }
            // Translate and deliver outside the lock.
            for clause in batch.drain(..) {
                if !self.seen.insert(clause_hash(&clause.lits)) {
                    duplicates += 1;
                    continue;
                }
                let mut ok = true;
                self.scratch.clear();
                for &l in clause.lits.iter() {
                    let v = match &self.from_canon {
                        None => Some(l.var()),
                        Some(map) => map.get(l.var().index()).copied().flatten(),
                    };
                    match v {
                        Some(v) if v.index() < num_local_vars => {
                            self.scratch.push(Lit::new(v, l.is_positive()));
                        }
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                delivered += 1;
                deliver(&self.scratch, clause.lbd);
            }
        }
        if delivered > 0 {
            self.exchange
                .imported
                .fetch_add(delivered, Ordering::Relaxed);
        }
        if duplicates > 0 {
            self.exchange
                .duplicates
                .fetch_add(duplicates, Ordering::Relaxed);
        }
        (delivered, duplicates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(d: i32) -> Lit {
        Lit::from_dimacs(d).unwrap()
    }

    fn ctx(ex: &Arc<ClauseExchange>, worker: usize) -> SharedContext {
        ex.context(worker, SolverConfig::default())
    }

    #[test]
    fn export_then_import_round_trip() {
        let ex = ClauseExchange::new(2, SharingConfig::default());
        let mut a = ctx(&ex, 0).endpoint();
        let mut b = ctx(&ex, 1).endpoint();
        assert!(a.stage(&[l(2), l(-1)], 2));
        assert_eq!(a.publish(), 1);
        let mut got = Vec::new();
        let (n, d) = b.drain(4, |lits, lbd| got.push((lits.to_vec(), lbd)));
        assert_eq!((n, d), (1, 0));
        assert_eq!(got, vec![(vec![l(-1), l(2)], 2)]);
        // Draining again delivers nothing new.
        let (n, d) = b.drain(4, |_, _| panic!("no new clauses"));
        assert_eq!((n, d), (0, 0));
        let totals = ex.totals();
        assert_eq!(totals.exported, 1);
        assert_eq!(totals.imported, 1);
    }

    #[test]
    fn own_ring_is_never_drained_and_duplicates_are_counted() {
        let ex = ClauseExchange::new(3, SharingConfig::default());
        let mut a = ctx(&ex, 0).endpoint();
        let mut b = ctx(&ex, 1).endpoint();
        let mut c = ctx(&ex, 2).endpoint();
        assert!(a.stage(&[l(1), l(2)], 2));
        a.publish();
        assert!(b.stage(&[l(2), l(1)], 2), "same clause, other worker");
        b.publish();
        // A never re-imports its own export, but the copy from B is a
        // duplicate of what it already exported.
        let (n, d) = a.drain(4, |_, _| {});
        assert_eq!((n, d), (0, 1));
        // C sees the clause once, the second copy is a duplicate.
        let mut count = 0;
        let (n, d) = c.drain(4, |_, _| count += 1);
        assert_eq!((n, d), (1, 1));
        assert_eq!(count, 1);
    }

    #[test]
    fn staging_normalises_and_rejects_tautologies() {
        let ex = ClauseExchange::new(2, SharingConfig::default());
        let mut a = ctx(&ex, 0).endpoint();
        assert!(!a.stage(&[l(1), l(-1)], 1), "tautology dropped");
        assert!(a.stage(&[l(3), l(3), l(-2)], 1), "duplicates collapse");
        assert!(!a.stage(&[l(-2), l(3)], 1), "identical clause deduped");
        a.publish();
        let mut b = ctx(&ex, 1).endpoint();
        let mut got = Vec::new();
        b.drain(3, |lits, _| got.push(lits.to_vec()));
        assert_eq!(got, vec![vec![l(-2), l(3)]]);
    }

    #[test]
    fn import_only_context_stages_nothing() {
        let ex = ClauseExchange::new(2, SharingConfig::default());
        let mut a = ctx(&ex, 0).import_only().endpoint();
        assert!(!a.export_enabled());
        assert!(!a.stage(&[l(1)], 1));
        assert_eq!(a.publish(), 0);
        assert_eq!(ex.totals().exported, 0);
    }

    #[test]
    fn var_map_translates_both_directions() {
        let ex = ClauseExchange::new(2, SharingConfig::default());
        // Local space: v0 ↔ canonical v2, v1 ↔ canonical v0; canonical
        // v1 was eliminated.
        let new_to_old = [Var::new(2), Var::new(0)];
        let old_to_new = [Some(Var::new(1)), None, Some(Var::new(0))];
        let mapped = ctx(&ex, 0).with_var_map(&new_to_old, &old_to_new);
        let mut a = mapped.endpoint();
        // Local clause (v0 ∨ ¬v1) exports as canonical (v2 ∨ ¬v0).
        assert!(a.stage(&[l(1), l(-2)], 1));
        a.publish();
        let mut b = ctx(&ex, 1).endpoint();
        let mut got = Vec::new();
        b.drain(3, |lits, _| got.push(lits.to_vec()));
        assert_eq!(got, vec![vec![l(-1), l(3)]]);

        // And canonical clauses flow back into the mapped space.
        let mut c = ctx(&ex, 1).endpoint();
        assert!(c.stage(&[l(3)], 1)); // canonical v2
        c.publish();
        let mut mapped_in = mapped.endpoint();
        let mut got = Vec::new();
        mapped_in.drain(2, |lits, _| got.push(lits.to_vec()));
        assert_eq!(got, vec![vec![l(1)]], "canonical v2 is local v0");

        // Clauses over eliminated canonical vars are skipped (reuse the
        // endpoint so its cursor sits past the clauses drained above).
        let mut d = ctx(&ex, 1).endpoint();
        assert!(d.stage(&[l(2)], 1)); // canonical v1: eliminated locally
        d.publish();
        let (n, _) = mapped_in.drain(2, |_, _| panic!("untranslatable"));
        assert_eq!(n, 0);
    }
}
