//! Criterion bench S1: the CDCL substrate on representative SAT/UNSAT
//! families, including failed-assumption core extraction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use coremax_instances::{bmc_instance, equiv_instance, pigeonhole, xor_chain};
use coremax_sat::{IncrementalSolver, SolveOutcome, Solver};

fn bench_unsat_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_unsat_families");
    let cases = vec![
        ("php", pigeonhole(4)),
        ("xor", xor_chain(15)),
        ("bmc", bmc_instance(2, 4)),
        ("equiv", equiv_instance(0, 3)),
    ];
    for (name, formula) in cases {
        group.bench_with_input(BenchmarkId::new("refute", name), &formula, |b, f| {
            b.iter(|| {
                let mut solver = Solver::new();
                solver.add_formula(f);
                assert_eq!(solver.solve(), SolveOutcome::Unsat);
                solver.stats().conflicts
            });
        });
    }
    group.finish();
}

fn bench_core_extraction_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_extraction");
    for holes in [3usize, 4, 5] {
        let formula = pigeonhole(holes);
        group.bench_with_input(BenchmarkId::new("php", holes), &formula, |b, f| {
            // One soft per clause, as `disjoint_core_analysis` does: the
            // failed softs are the core.
            b.iter(|| {
                let mut engine = IncrementalSolver::new();
                engine.ensure_vars(f.num_vars());
                for c in f.iter() {
                    engine.add_soft(c.lits().iter().copied());
                }
                assert_eq!(engine.solve(&[]), SolveOutcome::Unsat);
                engine.failed_softs().len()
            });
        });
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(10)
}

criterion_group!(name = benches; config = configured(); targets = bench_unsat_families, bench_core_extraction_scaling);
criterion_main!(benches);
