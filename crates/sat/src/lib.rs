//! A CDCL SAT solver with failed-assumption unsatisfiable cores.
//!
//! This crate provides the SAT substrate required by the core-guided
//! MaxSAT algorithms of Marques-Silva & Planes (DATE 2008). It is a
//! from-scratch conflict-driven clause-learning solver in the MiniSAT
//! lineage:
//!
//! - two-watched-literal propagation with dedicated binary-clause watch
//!   lists (the other literal is stored inline, so binary propagation
//!   never touches the clause arena); each kind of watch list lives in
//!   one arena per engine, every literal's list a window of it, so
//!   loading and dropping an engine allocate per arena growth rather
//!   than per literal,
//! - first-UIP conflict analysis with recursive clause minimisation,
//!   allocation-free in steady state,
//! - VSIDS variable activities with phase saving,
//! - Luby-sequence restarts,
//! - learned-clause database reduction ordered by literal block
//!   distance (LBD) first and activity second, with glue-clause
//!   protection, followed by clause-arena garbage collection; the LBD
//!   counts only the decision levels above the running solve's
//!   assumption prefix (one level per assumption), and learned clauses
//!   store their assumption-level literals last, as in Glucose's
//!   incremental mode,
//! - solving under assumptions with failed-assumption extraction
//!   (MiniSAT's `analyzeFinal`): a clause-level core comes from storing
//!   each clause `C` as `C ∨ s` with a fresh selector `s` and assuming
//!   `¬s`, which is how every core-guided driver reads its cores
//!   (see [`IncrementalSolver`]).
//!
//! Engines share no clauses: a portfolio races independent engines.
//! A [`Budget`]'s conflict and propagation caps cover the whole solve it
//! is handed to, so every SAT call of a MaxSAT run, and every member of
//! a race, charges one work pool ([`Budget::child`]).
//!
//! # Examples
//!
//! ```
//! use coremax_cnf::Lit;
//! use coremax_sat::{Solver, SolveOutcome};
//!
//! let mut solver = Solver::new();
//! let x = Lit::positive(solver.new_var());
//! let y = Lit::positive(solver.new_var());
//! let z = Lit::positive(solver.new_var());
//! // (x ∨ y) ∧ ¬x ∧ ¬y ∧ z, clause i stored as `Cᵢ ∨ sᵢ` and enforced
//! // by assuming `¬sᵢ`.
//! let clauses = [vec![x, y], vec![!x], vec![!y], vec![z]];
//! let enforce: Vec<Lit> = clauses
//!     .iter()
//!     .map(|c| {
//!         let s = Lit::positive(solver.new_var());
//!         solver.add_clause(c.iter().copied().chain([s]));
//!         !s
//!     })
//!     .collect();
//! assert_eq!(solver.solve_with_assumptions(&enforce), SolveOutcome::Unsat);
//! // The failed assumptions name the refuted clauses; `z` is not cited.
//! let mut core: Vec<usize> = solver
//!     .failed_assumptions()
//!     .iter()
//!     .map(|a| enforce.iter().position(|e| e == a).unwrap())
//!     .collect();
//! core.sort_unstable();
//! assert_eq!(core, [0, 1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod clause_db;
mod heap;
mod incremental;
mod luby;
mod solver;
mod stats;
mod watch;

pub use budget::Budget;
pub use incremental::{IncrementalSolver, SoftId};
pub use solver::{SolveOutcome, Solver, SolverConfig};
pub use stats::{SolverStats, LBD_HIST_BUCKETS};
