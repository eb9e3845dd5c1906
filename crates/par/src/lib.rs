//! Parallel solving for the coremax MaxSAT suite: portfolio racing and
//! work-stealing batch execution.
//!
//! The paper's Tables 1–2 solve fleets of instances one at a time; this
//! crate opens the parallel dimension while keeping the repo's
//! signature discipline — every parallel answer is differentially
//! checkable against the sequential solvers, and the *reported* answer
//! is thread-count-invariant.
//!
//! | Type | Role |
//! |---|---|
//! | [`Portfolio`] | races K solver configurations on one instance across threads |
//! | [`PortfolioMember`] | one racing configuration (algorithm × preprocessing) |
//! | [`PortfolioOutcome`] | winner + per-member run summaries + aggregate work counters |
//! | [`solve_batch`] | solves many instances across N workers (work stealing) |
//! | [`BatchOptions`], [`BatchReport`] | batch knobs and aggregated results |
//!
//! # Determinism guarantee
//!
//! A portfolio run reports `(status, cost)` — and, when a model exists,
//! a model whose evaluated cost equals `cost` — **independent of the
//! number of worker threads**. Every member is an exact solver on the
//! instance class it receives (weight-restricted members are wrapped in
//! [`coremax::Stratified`] first), so all exact answers agree; the
//! winner is selected by *fixed member priority* among the finishers,
//! never by wall-clock arrival order, and losing members are halted via
//! the cooperative stop flag in [`coremax_sat::Budget`] the moment a
//! winner commits. Under a wall-clock budget the set of finishers can
//! vary, so only budget-free runs are bit-reproducible end to end —
//! the same caveat sequential timeouts already carry. Conflict and
//! propagation caps meter the race as a whole, as they meter any solve:
//! [`Portfolio::solve`] hands every member the race's
//! [`coremax_sat::Budget::child`], so all members charge one work pool.
//! Which member spends the pool first depends on thread timing, so
//! capped races certify their intervals but are not bit-reproducible
//! either.
//!
//! Batch solving is deterministic per instance by construction: each
//! instance is solved by the same configuration regardless of which
//! worker picks it up, and results are reported in input order.
//!
//! # Examples
//!
//! Race the default portfolio on the paper's Example 2:
//!
//! ```
//! use coremax_par::Portfolio;
//! use coremax_cnf::{dimacs, WcnfFormula};
//!
//! let cnf = dimacs::parse_cnf(
//!     "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n",
//! ).expect("valid DIMACS");
//! let wcnf = WcnfFormula::from_cnf_all_soft(&cnf);
//! let outcome = Portfolio::new(2).solve(&wcnf);
//! assert_eq!(outcome.solution.cost, Some(2));
//! assert!(outcome.winner.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod portfolio;

pub use batch::{solve_batch, BatchOptions, BatchOutcome, BatchReport};
pub use portfolio::{MemberRun, Portfolio, PortfolioMember, PortfolioOutcome};
