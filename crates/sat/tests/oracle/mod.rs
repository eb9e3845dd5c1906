//! The reference the engine's tests check it against: satisfiability
//! decided by trying every total assignment. The test formulas have at
//! most eight variables, so the scan is at most 256 assignments.

use coremax_cnf::{Assignment, CnfFormula};

/// Decides `formula` by enumerating all `2^n` total assignments.
///
/// # Panics
///
/// Panics on more than 16 variables.
pub fn is_satisfiable(formula: &CnfFormula) -> bool {
    let n = formula.num_vars();
    assert!(n <= 16, "the oracle is exponential; keep formulas small");
    (0u32..1 << n).any(|bits| {
        let values: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        formula.eval(&Assignment::from_bools(&values)) == Some(true)
    })
}
