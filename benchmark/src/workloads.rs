//! The four workloads: which instances each generates from the seed,
//! and which `coremax-solve` configuration solves them.
//!
//! MANIFEST.md records the same facts with the instance counts and
//! input sizes they produce; keep the two in step.

use coremax_cli::Options;
use coremax_cnf::WcnfFormula;
use coremax_instances::{
    bmc_instance, debug_suite, equiv_instance, full_suite, pigeonhole, untestable_atpg,
    weighted_suite, Family, Instance, SuiteConfig,
};

/// Per-instance wall-clock limit of the measured solves. Far above any
/// instance's time at the commit that defined the benchmark (the
/// slowest took about 3 s), so a failure is a failure and not the limit.
pub const LIMIT_MS: u64 = 30_000;

/// Per-instance limit of each answer-key driver, which is untimed. An
/// instance the first driver of a chain does not settle within it goes
/// to the next one, so a run stays far inside its time limit.
pub const KEY_LIMIT_MS: u64 = 20_000;

/// Debug-suite seeds of the small-partial workload per benchmark seed.
const SMALL_PARTIAL_SEEDS: u64 = 60;

/// Weighted-suite seeds of the portfolio workload, the same for every
/// benchmark seed: race times of weighted instances are heavy-tailed
/// (a few take 50–80x the median), so a seeded draw of 640 of them moved
/// the portfolio's `total_s` by up to 18% from seed to seed.
const PORTFOLIO_WEIGHTED_SEEDS: u64 = 40;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 1 setting: msu4 v2 behind preprocessing on the
    /// structured unsatisfiable families.
    Industrial,
    /// Large refutations where one CDCL search is the whole solve (oll).
    HardRefute,
    /// Over a thousand small design-debugging instances (oll): the
    /// per-instance fixed costs dominate.
    SmallPartial,
    /// The default 14-member portfolio racing on 2 threads.
    Portfolio,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Industrial,
        Workload::HardRefute,
        Workload::SmallPartial,
        Workload::Portfolio,
    ];

    /// The name passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Industrial => "industrial",
            Workload::HardRefute => "hard-refute",
            Workload::SmallPartial => "small-partial",
            Workload::Portfolio => "portfolio",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `coremax-solve` options the measured solves use; the
    /// equivalent command line is [`Workload::cli`].
    pub fn options(self) -> Options {
        let base = Options {
            timeout_ms: Some(LIMIT_MS),
            ..Options::default()
        };
        match self {
            Workload::Industrial => base,
            Workload::HardRefute | Workload::SmallPartial => Options {
                algorithm: "oll".into(),
                ..base
            },
            Workload::Portfolio => Options {
                portfolio: true,
                jobs: 2,
                ..base
            },
        }
    }

    /// The equivalent `coremax-solve` command line for one instance.
    pub fn cli(self) -> String {
        let flags = match self {
            Workload::Industrial => "",
            Workload::HardRefute | Workload::SmallPartial => "-a oll ",
            Workload::Portfolio => "--portfolio -j 2 ",
        };
        format!("coremax-solve {flags}-t {LIMIT_MS} FILE")
    }

    /// The drivers that build the answer key, in the order they are
    /// tried: never the one under test. A second driver settles what the
    /// first cannot: `wmsu1` splits weights one core at a time, and on
    /// rare skewed-heavy weighted instances it reaches no verdict in
    /// minutes, where `msu3` (stratified) takes a fraction of a second.
    pub fn key_drivers(self) -> [&'static str; 2] {
        match self {
            Workload::Industrial => ["oll", "msu3"],
            Workload::HardRefute => ["msu3", "wmsu1"],
            Workload::SmallPartial | Workload::Portfolio => ["wmsu1", "msu3"],
        }
    }

    /// The `coremax-solve` options of each key driver, in chain order.
    pub fn key_options(self) -> Vec<Options> {
        self.key_drivers()
            .into_iter()
            .map(|algorithm| Options {
                algorithm: algorithm.into(),
                timeout_ms: Some(KEY_LIMIT_MS),
                ..Options::default()
            })
            .collect()
    }

    /// Whether the workload runs one thread, so its work counts repeat
    /// exactly for a given seed.
    pub fn deterministic(self) -> bool {
        self != Workload::Portfolio
    }

    /// Generates the workload's instances from `seed`, in solve order.
    pub fn instances(self, seed: u64) -> Vec<Instance> {
        match self {
            Workload::Industrial => full_suite(&SuiteConfig { scale: 3, seed })
                .into_iter()
                .filter(|i| !excluded_atpg(i) && !matches!(i.family, Family::Rand3 | Family::Debug))
                .collect(),
            Workload::HardRefute => hard_refute(),
            Workload::SmallPartial => suites(seed, SMALL_PARTIAL_SEEDS, |j| {
                debug_suite(&SuiteConfig { scale: 1, seed: j })
            }),
            Workload::Portfolio => {
                // The batch-suite mix, with the weighted suite drawn from
                // many fixed suite seeds; rand3 and debug take the seed.
                let mut out: Vec<Instance> = full_suite(&SuiteConfig { scale: 2, seed })
                    .into_iter()
                    .filter(|i| !excluded_atpg(i))
                    .collect();
                out.extend(suites(0, PORTFOLIO_WEIGHTED_SEEDS, |j| {
                    weighted_suite(&SuiteConfig { scale: 2, seed: j })
                }));
                out
            }
        }
    }
}

/// The instances `suite` generates for each of `count` suite seeds
/// drawn from `seed`, named after the suite seed's index. The suites
/// derive per-instance seeds by adding small offsets to the suite seed,
/// so suite seeds lie 1000 apart: no two share an instance, within a
/// benchmark seed or across them.
fn suites(seed: u64, count: u64, suite: impl Fn(u64) -> Vec<Instance>) -> Vec<Instance> {
    (0..count)
        .flat_map(|j| {
            suite(seed.wrapping_mul(count).wrapping_add(j).wrapping_mul(1000))
                .into_iter()
                .map(move |mut inst| {
                    inst.name = format!("s{j}-{}", inst.name);
                    inst
                })
        })
        .collect()
}

/// atpg-k2 at size 8 and above got no verdict in 20 s from oll, msu3,
/// msu4-v2, msu4-inc or wmsu1.
fn excluded_atpg(instance: &Instance) -> bool {
    instance
        .name
        .strip_prefix("atpg-k2-s")
        .and_then(|size| size.parse::<usize>().ok())
        .is_some_and(|size| size >= 8)
}

fn plain(name: String, family: Family, cnf: &coremax_cnf::CnfFormula) -> Instance {
    Instance {
        name,
        family,
        wcnf: WcnfFormula::from_cnf_all_soft(cnf),
    }
}

/// Seed-free structured refutations.
fn hard_refute() -> Vec<Instance> {
    vec![
        plain("php-7".into(), Family::Php, &pigeonhole(7)),
        plain("php-8".into(), Family::Php, &pigeonhole(8)),
        plain("atpg-k2-s5".into(), Family::Atpg, &untestable_atpg(2, 5)),
        plain("atpg-k2-s6".into(), Family::Atpg, &untestable_atpg(2, 6)),
        plain("equiv-mult-s5".into(), Family::Equiv, &equiv_instance(3, 5)),
        plain("equiv-mult-s6".into(), Family::Equiv, &equiv_instance(3, 6)),
        plain("bmc-n6-k16".into(), Family::Bmc, &bmc_instance(6, 16)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn key_driver_differs_from_the_one_under_test() {
        for w in Workload::ALL {
            let run = w.options();
            for key in w.key_options() {
                assert!(!key.portfolio);
                assert!(
                    run.portfolio || run.algorithm != key.algorithm,
                    "{}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn industrial_keeps_the_seed_free_families_without_large_atpg_k2() {
        let instances = Workload::Industrial.instances(1);
        assert_eq!(instances.len(), 59);
        assert!(instances
            .iter()
            .all(|i| !matches!(i.family, Family::Rand3 | Family::Debug)));
        let names: Vec<&str> = instances.iter().map(|i| i.name.as_str()).collect();
        assert!(names.contains(&"atpg-k2-s6") && names.contains(&"atpg-k1-s10"));
        assert!(!names.contains(&"atpg-k2-s8") && !names.contains(&"atpg-k2-s10"));
    }
}
