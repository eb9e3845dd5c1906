//! Core-guided MaxSAT algorithms — a reproduction of
//! *Algorithms for Maximum Satisfiability using Unsatisfiable Cores*
//! (Marques-Silva & Planes, DATE 2008).
//!
//! The headline contribution is [`Msu4`], Algorithm 1 of the paper: a
//! MaxSAT procedure that drives a CDCL SAT solver, extracts an
//! unsatisfiable core whenever the working formula is refuted, attaches
//! at most one blocking variable to each soft clause appearing in a
//! core, and squeezes a lower bound (satisfying assignments,
//! Proposition 2) against an upper bound (disjoint cores,
//! Proposition 1) with cardinality constraints until they meet.
//!
//! The crate also contains every comparison point of the paper's
//! evaluation plus the algorithm family around it:
//!
//! | Solver | Paper role |
//! |---|---|
//! | [`Msu4`] (BDD / sorting-network encodings) | the contribution (v1 / v2) |
//! | [`Msu1`] | Fu & Malik's algorithm \[11\] |
//! | [`Msu3`], [`Msu2`] | the companion-report algorithms \[22\] |
//! | [`PboBaseline`] | minisat+ on the PBO formulation (§2.2): [`LinearSearchSat`]'s descent, each bound a fresh BDD |
//! | [`BranchBound`] | maxsatz-style branch and bound \[18\] |
//! | [`LinearSearchSat`], [`BinarySearchSat`] | "MaxSAT as iterated SAT" baselines |
//! | [`Msu4::incremental`] | §5's "alternative SAT technology": msu4 with permanent bounds |
//!
//! Beyond the paper, the crate carries the weighted successor line:
//! [`Wmsu1`] (Fu–Malik with weight splitting, WPM1-style) solves
//! weighted partial MaxSAT natively, [`Oll`] is the OLL/RC2-class
//! driver (soft cardinality constraints per core, incremental totalizer
//! bound raises, core exhaustion, weight-aware hardening), and
//! [`Stratified`] turns *any* solver — including the unweighted
//! msu3/msu4 — into an exact weighted solver by solving weight strata
//! heaviest-first and freezing each stratum's optimum. An unweighted
//! inner solver runs the uniform-weight strata; a mixed-weight stratum
//! goes to an internal [`Oll`].
//!
//! All solvers implement [`MaxSatSolver`] and accept weighted partial
//! WCNF input where the algorithm supports it (see each type's docs and
//! [`MaxSatSolver::supports_weights`]). Any of them can be wrapped in
//! [`Preprocessed`] to run the `coremax_simp` simplification pipeline
//! (bounded variable elimination, subsumption, probing) once per solve,
//! with models reconstructed back to the original variable space.
//!
//! # Examples
//!
//! Solve the paper's running example (Example 2, optimum 6 of 8):
//!
//! ```
//! use coremax::{Msu4, MaxSatSolver, MaxSatStatus};
//! use coremax_cnf::{dimacs, WcnfFormula};
//!
//! let cnf = dimacs::parse_cnf(
//!     "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n",
//! ).expect("valid DIMACS");
//! let wcnf = WcnfFormula::from_cnf_all_soft(&cnf);
//! let mut solver = Msu4::v2();
//! let solution = solver.solve(&wcnf);
//! assert_eq!(solution.status, MaxSatStatus::Optimal);
//! assert_eq!(solution.cost, Some(2));           // two clauses falsified
//! assert_eq!(solution.num_satisfied(&wcnf), Some(6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocking_bound;
mod bounds;
mod branch_bound;
mod core_min;
#[cfg(test)]
mod dpll;
mod linear_core;
mod msu1;
mod msu4;
#[cfg(test)]
mod msu4_inc;
mod oll;
mod pbo_baseline;
mod preprocess;
mod run;
mod sat_search;
mod stratify;
mod types;
mod verify;
mod wmsu1;

pub use bounds::{disjoint_core_analysis, DisjointCoreReport};
pub use branch_bound::BranchBound;
pub use core_min::minimize_core;
pub use linear_core::{Msu2, Msu3};
pub use msu1::Msu1;
pub use msu4::{Msu4, Msu4Config};
pub use oll::Oll;
pub use preprocess::Preprocessed;
pub use sat_search::{BinarySearchSat, LinearSearchSat, PboBaseline};
pub use stratify::Stratified;
pub use types::{MaxSatSolution, MaxSatSolver, MaxSatStats, MaxSatStatus};
pub use verify::verify_solution;
pub use wmsu1::Wmsu1;
