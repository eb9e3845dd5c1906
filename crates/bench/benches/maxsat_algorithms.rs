//! Criterion bench: head-to-head runtimes of the whole algorithm family
//! on one representative of each instance family — the microbenchmark
//! companion to the paper's tables and figures, which `coremax-solve`
//! batch runs reproduce (see the README).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use coremax::{BranchBound, LinearSearchSat, MaxSatSolver, Msu1, Msu3, Msu4, PboBaseline};
use coremax_cnf::WcnfFormula;
use coremax_instances::{equiv_instance, pigeonhole, xor_chain};

type SolverFactory = Box<dyn Fn() -> Box<dyn MaxSatSolver>>;

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxsat_algorithms");
    group.sample_size(10);

    let cases = vec![
        ("php3", WcnfFormula::from_cnf_all_soft(&pigeonhole(3))),
        ("xor9", WcnfFormula::from_cnf_all_soft(&xor_chain(9))),
        (
            "equiv",
            WcnfFormula::from_cnf_all_soft(&equiv_instance(1, 2)),
        ),
    ];

    for (name, wcnf) in &cases {
        let solvers: Vec<(&str, SolverFactory)> = vec![
            ("msu4v2", Box::new(|| Box::new(Msu4::v2()))),
            ("msu4v1", Box::new(|| Box::new(Msu4::v1()))),
            ("msu4inc", Box::new(|| Box::new(Msu4::incremental()))),
            ("msu1", Box::new(|| Box::new(Msu1::new()))),
            ("msu3", Box::new(|| Box::new(Msu3::new()))),
            ("pbo", Box::new(|| Box::new(PboBaseline::new()))),
            ("maxsatz", Box::new(|| Box::new(BranchBound::new()))),
            ("linear", Box::new(|| Box::new(LinearSearchSat::new()))),
        ];
        for (solver_name, make) in solvers {
            group.bench_with_input(BenchmarkId::new(solver_name, name), wcnf, |b, w| {
                b.iter(|| {
                    let mut solver = make();
                    solver.solve(w).cost
                });
            });
        }
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(10)
}

criterion_group!(name = benches; config = configured(); targets = bench_algorithms);
criterion_main!(benches);
