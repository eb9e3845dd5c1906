//! Loading softs into an engine allocates per batch, not per literal:
//! every watch list is a window of one arena per watch kind, so a run
//! that builds an engine, loads its softs with `add_softs`, solves once
//! and drops it makes about as many allocations for 20,000 softs as for
//! 1,000. The per-variable arrays, the clause and watch arenas and the
//! trail grow a logarithmic number of times; one allocation per watched
//! literal would add tens of thousands.
//!
//! A counting global allocator tallies the allocations and reallocations
//! made on the calling thread. This file is its own test binary, so that
//! no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use coremax_cnf::{Lit, Var};
use coremax_sat::{IncrementalSolver, SolveOutcome};

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

/// How many more allocations the larger run may make.
const SLACK: usize = 64;

fn lit(var: usize, positive: bool) -> Lit {
    Lit::new(Var::new(var as u32), positive)
}

/// Builds an engine over `vars` problem variables, loads `softs` in one
/// batch, solves once and drops the engine. Returns the allocations the
/// run made on this thread and the solve's outcome.
fn run<S, I>(vars: usize, softs: S) -> (usize, SolveOutcome)
where
    S: ExactSizeIterator<Item = I>,
    I: IntoIterator<Item = Lit>,
{
    let before = ALLOCATIONS.with(Cell::get);
    let mut engine = IncrementalSolver::new();
    engine.ensure_vars(vars);
    engine.add_softs(softs);
    let outcome = engine.solve(&[]);
    drop(engine);
    (ALLOCATIONS.with(Cell::get) - before, outcome)
}

/// `n` one-literal softs, `x` and `¬x` for each of `n / 2` variables:
/// each is stored as the binary clause `x ∨ s`, and every pair is a core.
fn unit_softs(n: usize) -> (usize, SolveOutcome) {
    run(n / 2, (0..n).map(|i| [lit(i / 2, i % 2 == 0)]))
}

/// `n` two-literal softs over distinct variables: each is stored as a
/// three-literal clause `x ∨ y ∨ s`, and together they are satisfiable.
fn pair_softs(n: usize) -> (usize, SolveOutcome) {
    run(
        2 * n,
        (0..n).map(|i| [lit(2 * i, true), lit(2 * i + 1, false)]),
    )
}

fn assert_flat(label: &str, f: fn(usize) -> (usize, SolveOutcome), want: SolveOutcome) {
    let (small, outcome) = f(1_000);
    assert_eq!(outcome, want, "{label}, 1,000 softs");
    let (large, outcome) = f(20_000);
    assert_eq!(outcome, want, "{label}, 20,000 softs");
    assert!(
        large <= small + SLACK,
        "{label}: {small} allocations for 1,000 softs, {large} for 20,000"
    );
}

#[test]
fn loading_unit_softs_allocates_per_batch() {
    assert_flat("one-literal softs", unit_softs, SolveOutcome::Unsat);
}

#[test]
fn loading_pair_softs_allocates_per_batch() {
    assert_flat("two-literal softs", pair_softs, SolveOutcome::Sat);
}
