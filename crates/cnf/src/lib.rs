//! CNF and weighted CNF formula types for the `coremax` MaxSAT suite.
//!
//! This crate is the foundation of the workspace: it defines the
//! propositional vocabulary ([`Var`], [`Lit`]), the formula types
//! ([`CnfFormula`], [`WcnfFormula`]) and the clause store behind them
//! ([`ClauseStore`], handing out [`Clause`] views), truth assignments
//! ([`Assignment`]), and DIMACS text I/O ([`dimacs`]).
//!
//! The representation follows the conventions of modern CDCL solvers
//! (MiniSAT lineage): variables are dense non-negative integers, and a
//! literal is a variable paired with a sign, packed into a single `u32`
//! so that `lit.index()` can be used directly as an array index for
//! watch lists and saved phases.
//!
//! # One clause store from bytes to engine
//!
//! A formula keeps its clauses back to back in one literal arena with
//! one end offset per clause: a [`CnfFormula`] in one [`ClauseStore`], a
//! [`WcnfFormula`] its hard clauses in one and its soft clauses, beside
//! their weights, in another. No clause is an allocation of its own.
//! The DIMACS reader writes each literal straight into the store, the
//! simplifier (`coremax_simp`) reads clauses as slices and writes its
//! output into fresh stores, and the engine
//! (`coremax_sat::IncrementalSolver::add_softs`) loads a formula's soft
//! clauses as one batch.
//!
//! # Examples
//!
//! Build the formula from Example 1 of Marques-Silva & Planes (DATE'08),
//! `(x1)(x2 ∨ ¬x1)(¬x2)`, and evaluate an assignment:
//!
//! ```
//! use coremax_cnf::{CnfFormula, Lit, Assignment};
//!
//! let mut cnf = CnfFormula::new();
//! let x1 = cnf.new_var();
//! let x2 = cnf.new_var();
//! cnf.add_clause([Lit::positive(x1)]);
//! cnf.add_clause([Lit::positive(x2), Lit::negative(x1)]);
//! cnf.add_clause([Lit::negative(x2)]);
//!
//! let mut a = Assignment::for_vars(cnf.num_vars());
//! a.assign(x1, true);
//! a.assign(x2, true);
//! // The formula is unsatisfiable; this assignment satisfies 2 of 3 clauses.
//! assert_eq!(cnf.num_satisfied(&a), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod clause;
pub mod dimacs;
mod error;
mod formula;
mod lit;
pub mod simp;
mod store;
mod wcnf;

pub use assignment::Assignment;
pub use clause::Clause;
pub use error::{ParseDimacsError, ParseDimacsErrorKind};
pub use formula::CnfFormula;
pub use lit::{Lit, Var};
pub use store::{ClauseStore, Clauses};
pub use wcnf::{SoftClause, SoftClauses, WcnfFormula, Weight, WeightStratum, HARD_WEIGHT};
