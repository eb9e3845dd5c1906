//! Miniature version of the paper's evaluation: every solver on a
//! small suite, with a per-instance time budget, printing a
//! Table-1-style summary.
//!
//! Run with: `cargo run --release --example solver_shootout`

use std::time::Duration;

use coremax::{
    BinarySearchSat, BranchBound, LinearSearchSat, MaxSatSolver, MaxSatStatus, Msu1, Msu2, Msu3,
    Msu4, PboBaseline,
};
use coremax_instances::{full_suite, SuiteConfig};
use coremax_sat::Budget;

fn main() {
    let suite = full_suite(&SuiteConfig::default());
    println!("suite: {} instances", suite.len());

    let solvers: Vec<Box<dyn MaxSatSolver>> = vec![
        Box::new(BranchBound::new()),
        Box::new(PboBaseline::new()),
        Box::new(Msu1::new()),
        Box::new(Msu2::new()),
        Box::new(Msu3::new()),
        Box::new(Msu4::v1()),
        Box::new(Msu4::v2()),
        Box::new(Msu4::incremental()),
        Box::new(LinearSearchSat::new()),
        Box::new(BinarySearchSat::new()),
    ];

    let budget_ms = 1_000;
    println!("per-instance budget: {budget_ms} ms\n");
    println!(
        "{:<12} {:>7} {:>8} {:>10}",
        "solver", "solved", "aborted", "time(ms)"
    );

    for mut solver in solvers {
        let mut solved = 0usize;
        let mut aborted = 0usize;
        let mut total_ms = 0u128;
        for instance in &suite {
            solver.set_budget(Budget::new().with_timeout(Duration::from_millis(budget_ms)));
            let solution = solver.solve(&instance.wcnf);
            total_ms += solution.stats.wall_time.as_millis();
            match solution.status {
                MaxSatStatus::Optimal => solved += 1,
                MaxSatStatus::Unknown => aborted += 1,
                MaxSatStatus::Infeasible => {
                    panic!("{}: generated instances are feasible", instance.name)
                }
            }
        }
        println!(
            "{:<12} {:>7} {:>8} {:>10}",
            solver.name(),
            solved,
            aborted,
            total_ms
        );
    }
}
