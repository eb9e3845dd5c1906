//! Formulas keep their clauses in clause stores, so reading a formula
//! and simplifying one allocate per formula, not per clause.
//!
//! A counting global allocator tallies the allocations and reallocations
//! made on the calling thread. Going from 1,000 to 20,000 clauses may add
//! only the growth steps of a few arrays (logarithmic in the size), so
//! the larger input may allocate at most `SLACK` more times. One
//! allocation per clause would add about 19,000.
//!
//! This file is its own test binary, so that no other test's
//! allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use coremax_cnf::{dimacs, WcnfFormula};
use coremax_simp::Simplifier;

/// Counts the calling thread's allocations and reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many more allocations the 20,000-clause input may make.
const SLACK: usize = 32;

/// Runs `f` and returns the allocations it made on this thread, with
/// its result (dropped by the caller, outside the count).
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A classic WCNF text of `clauses` clauses over `clauses` variables:
/// every fourth clause a hard binary, the rest soft ternaries, weights
/// 1 to 3.
fn mixed_text(clauses: usize) -> String {
    let n = clauses as i64;
    let mut text = format!("p wcnf {n} {n} 9\n");
    for i in 0..n {
        let (a, b, c) = (i + 1, (i * 7 + 3) % n + 1, (i * 13 + 5) % n + 1);
        if i % 4 == 0 {
            text.push_str(&format!("9 {a} -{b} 0\n"));
        } else {
            text.push_str(&format!("{} -{a} {b} {c} 0\n", i % 3 + 1));
        }
    }
    text
}

/// A formula of `clauses` clauses whose hard clauses are all units: a
/// third are hard units `xᵢ`, and the rest soft clauses over those
/// variables, which the units satisfy, shorten or leave alone.
fn units_formula(clauses: usize) -> WcnfFormula {
    let n = (clauses / 3) as i64;
    let mut text = format!("p wcnf {} {} 9\n", 2 * n, 3 * n);
    for i in 1..=n {
        text.push_str(&format!("9 {i} 0\n"));
    }
    for i in 1..=n {
        text.push_str(&format!("1 -{i} {} 0\n", n + i));
        text.push_str(&format!("2 {} -{} {} 0\n", n + i, n + (i % n) + 1, i));
    }
    dimacs::parse_maxsat(&text).expect("generated text parses")
}

#[test]
fn reading_and_simplifying_allocate_per_formula_not_per_clause() {
    let (small, large) = (mixed_text(1_000), mixed_text(20_000));
    let (a_small, f_small) = allocations(|| dimacs::parse_maxsat(&small).expect("parses"));
    let (a_large, f_large) = allocations(|| dimacs::parse_maxsat(&large).expect("parses"));
    assert_eq!(f_large.num_clauses(), 20_000);
    assert!(f_small.num_hard() > 0 && f_small.num_soft() > 0);
    assert!(
        a_large <= a_small + SLACK,
        "parse_maxsat: {a_small} allocations for 1,000 clauses, {a_large} for 20,000"
    );

    let (small, large) = (units_formula(1_000), units_formula(20_000));
    let (a_small, r_small) = allocations(|| Simplifier::new().simplify(&small));
    let (a_large, r_large) = allocations(|| Simplifier::new().simplify(&large));
    for (input, result) in [(&small, &r_small), (&large, &r_large)] {
        // Every hard unit became a fact; the softs it satisfied are gone
        // and the others survive, shortened.
        assert!(!result.infeasible);
        assert_eq!(result.formula.num_hard(), 0);
        assert_eq!(result.formula.num_soft(), input.num_soft() / 2);
    }
    assert!(
        a_large <= a_small + SLACK,
        "simplify: {a_small} allocations for 1,000 clauses, {a_large} for 20,000"
    );
}
