//! Criterion bench A1: cardinality-encoding ablation — the axis along
//! which msu4-v1 and msu4-v2 differ (§5 of the paper discusses the
//! "performance differences observed for the two encodings").
//!
//! Two measurements per encoding: (a) encoding size/time for `Σ ≤ k`
//! constraints of growing width, and (b) end-to-end msu4 runtime with
//! that encoding on a fixed instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use coremax::{MaxSatSolver, Msu4, Msu4Config};
use coremax_cards::{encode_at_most, CardEncoding, CnfSink};
use coremax_cnf::{Lit, Var, WcnfFormula};
use coremax_instances::pigeonhole;

fn bench_encoding_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("card_encoding_build");
    for n in [32usize, 64, 128] {
        let lits: Vec<Lit> = (0..n).map(|i| Lit::positive(Var::new(i as u32))).collect();
        let k = n / 4;
        for encoding in [
            CardEncoding::Bdd,
            CardEncoding::SortingNetwork,
            CardEncoding::SequentialCounter,
            CardEncoding::Totalizer,
        ] {
            group.bench_with_input(
                BenchmarkId::new(encoding.name(), n),
                &(lits.clone(), k),
                |b, (lits, k)| {
                    b.iter(|| {
                        let mut sink = CnfSink::new(lits.len());
                        encode_at_most(lits, *k, encoding, &mut sink);
                        sink.num_clauses()
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_msu4_per_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("msu4_encoding_ablation");
    group.sample_size(10);
    let wcnf = WcnfFormula::from_cnf_all_soft(&pigeonhole(4));
    for encoding in [
        CardEncoding::Bdd,
        CardEncoding::SortingNetwork,
        CardEncoding::SequentialCounter,
        CardEncoding::Totalizer,
    ] {
        group.bench_with_input(BenchmarkId::new("php4", encoding.name()), &wcnf, |b, w| {
            b.iter(|| {
                let mut solver = Msu4::with_config(Msu4Config {
                    encoding,
                    ..Msu4Config::default()
                });
                solver.solve(w).cost
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encoding_construction,
    bench_msu4_per_encoding
);
criterion_main!(benches);
