//! Encoders write their clauses into one clause store, so building and
//! extending a totalizer allocate per tree node, not per clause.
//!
//! A counting global allocator tallies the allocations and reallocations
//! made on the calling thread. Two totalizers over the same 64 inputs
//! are built at bound 1 and then extended once, one to bound 4 and one
//! to bound 40. Both have the same nodes, and the outputs of each node
//! of more than four inputs grow once in either extension, so the larger
//! encoding may add only the growth steps of the sinks' arrays
//! (logarithmic in their size): at most `SLACK` allocations. One
//! allocation per clause would add thousands.
//!
//! This file is its own test binary, so that no other test's
//! allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use coremax_cards::{CnfSink, IncrementalTotalizer};
use coremax_cnf::{Lit, Var};

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

/// How many more allocations the larger encoding may make.
const SLACK: usize = 32;

/// Runs `f` and returns the allocations it made on this thread, with
/// its result (dropped by the caller, outside the count).
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Builds a totalizer over `n` inputs at bound 1, then raises it to
/// `bound`, each step into a fresh sink as a core-guided run does.
/// Returns the totalizer, both sinks and the clause count.
fn build_and_extend(n: usize, bound: usize) -> (IncrementalTotalizer, [CnfSink; 2], usize) {
    let lits: Vec<Lit> = (0..n).map(|i| Lit::positive(Var::new(i as u32))).collect();
    let mut built = CnfSink::new(n);
    let mut tot = IncrementalTotalizer::new(&lits, 1, &mut built);
    let mut extended = CnfSink::new(built.num_vars());
    tot.increase_bound(bound, &mut extended);
    let clauses = built.num_clauses() + extended.num_clauses();
    (tot, [built, extended], clauses)
}

#[test]
fn totalizer_encoding_allocates_per_node_not_per_clause() {
    let (a_small, (tot, _, small)) = allocations(|| build_and_extend(64, 4));
    assert_eq!(tot.bound(), 4);
    let (a_large, (tot, _, large)) = allocations(|| build_and_extend(64, 40));
    assert_eq!(tot.bound(), 40);
    assert!(
        large - small > 20 * SLACK,
        "{small} and {large} clauses: too close to tell"
    );
    assert!(
        a_large <= a_small + SLACK,
        "{a_small} allocations for {small} clauses, {a_large} for {large}"
    );
}
