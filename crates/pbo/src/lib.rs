//! Pseudo-Boolean constraints and their CNF translation.
//!
//! Section 2.2 of Marques-Silva & Planes (DATE 2008) describes the
//! baseline the paper calls **pbo**: translate a MaxSAT instance to
//! Pseudo-Boolean Optimisation by adding one blocking variable per
//! clause and minimising the weight of the blocking variables set to 1,
//! then hand the result to minisat+, which tightens `Σ wᵢ·bᵢ ≤ cost − 1`
//! after every model until the formula is refuted. `coremax::PboBaseline`
//! runs that descent; this crate holds what its bounds are made of:
//!
//! - [`PbConstraint`]: normalised pseudo-Boolean constraints
//!   `Σ cᵢ·lᵢ ⋈ b` with positive coefficients,
//! - [`encode_pb`]: their CNF translation. `Ge` and `Eq` are brought to
//!   `Le` form, and `Le` is `coremax_cards`' BDD encoder (Eén &
//!   Sörensson §4), the one msu4 v1's cardinality bounds use.
//!
//! # Examples
//!
//! Encode `2·x + 3·y + z ≤ 3` and check that the clauses forbid `x ∧ y`:
//!
//! ```
//! use coremax_cards::CnfSink;
//! use coremax_cnf::{Lit, Var};
//! use coremax_pbo::{encode_pb, PbConstraint, PbOp, PbTerm};
//! use coremax_sat::{SolveOutcome, Solver};
//!
//! let [x, y, z] = [0, 1, 2].map(|i| Lit::positive(Var::new(i)));
//! let bound = PbConstraint::new(
//!     vec![PbTerm::new(2, x), PbTerm::new(3, y), PbTerm::new(1, z)],
//!     PbOp::Le,
//!     3,
//! );
//! let mut sink = CnfSink::new(3);
//! encode_pb(&bound, &mut sink);
//! let mut solver = Solver::new();
//! solver.ensure_vars(sink.num_vars());
//! for c in sink.clauses() {
//!     solver.add_clause(c.iter().copied());
//! }
//! assert_eq!(solver.solve_with_assumptions(&[x, y]), SolveOutcome::Unsat);
//! assert_eq!(solver.solve_with_assumptions(&[x, z]), SolveOutcome::Sat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraint;
mod encode;

pub use constraint::{PbConstraint, PbOp, PbTerm};
pub use encode::encode_pb;
