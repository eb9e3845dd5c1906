//! Random *weighted* partial MaxSAT instances with controlled weight
//! distributions — the shared generator behind the weighted benchmark
//! families and the differential weighted-oracle test harness.
//!
//! Hard clauses are **planted**: a hidden assignment drawn from the
//! seed satisfies every hard clause (a violating literal is flipped
//! onto the plant), so generated instances are always hard-feasible and
//! solvers exercise the optimisation path rather than the infeasibility
//! shortcut. Soft clauses are unconstrained random clauses whose
//! weights follow the selected [`WeightDist`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use coremax_cnf::{Lit, Var, WcnfFormula, Weight};

/// Weight distribution of the generated soft clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightDist {
    /// Uniform in `lo..=hi`.
    Uniform {
        /// Smallest weight (≥ 1).
        lo: Weight,
        /// Largest weight.
        hi: Weight,
    },
    /// `2^e` with `e` uniform in `0..=max_exp` — gcd-friendly strata
    /// with partial domination, the natural stratification testbed.
    PowerOfTwo {
        /// Largest exponent.
        max_exp: u32,
    },
    /// Mostly light clauses (uniform `1..=light`), with every
    /// `heavy_every`-th clause weighted `heavy` — a heavy stratum that
    /// outweighs all the light clauses, so stratification solves and
    /// freezes it first.
    Skewed {
        /// Upper bound of the light weights.
        light: Weight,
        /// Weight of the heavy clauses.
        heavy: Weight,
        /// A heavy clause every this many soft clauses (≥ 1).
        heavy_every: usize,
    },
}

impl WeightDist {
    /// Short stable name used in instance/benchmark labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WeightDist::Uniform { .. } => "uniform",
            WeightDist::PowerOfTwo { .. } => "pow2",
            WeightDist::Skewed { .. } => "skewed",
        }
    }

    fn sample(self, rng: &mut SmallRng, index: usize) -> Weight {
        match self {
            WeightDist::Uniform { lo, hi } => rng.gen_range(lo..=hi.max(lo)),
            WeightDist::PowerOfTwo { max_exp } => 1 << rng.gen_range(0..=max_exp),
            WeightDist::Skewed {
                light,
                heavy,
                heavy_every,
            } => {
                if index % heavy_every.max(1) == heavy_every.max(1) - 1 {
                    heavy
                } else {
                    rng.gen_range(1..=light.max(1))
                }
            }
        }
    }
}

/// Shape of a generated weighted instance.
#[derive(Debug, Clone)]
pub struct WeightedConfig {
    /// Number of variables (≥ 1).
    pub num_vars: usize,
    /// Number of hard clauses (planted satisfiable).
    pub num_hard: usize,
    /// Number of soft clauses.
    pub num_soft: usize,
    /// Maximum clause length (clamped to `num_vars`).
    pub max_len: usize,
    /// Soft-weight distribution.
    pub dist: WeightDist,
    /// RNG seed; equal configs generate equal instances.
    pub seed: u64,
}

impl Default for WeightedConfig {
    fn default() -> Self {
        WeightedConfig {
            num_vars: 8,
            num_hard: 6,
            num_soft: 16,
            max_len: 3,
            dist: WeightDist::Uniform { lo: 1, hi: 8 },
            seed: 42,
        }
    }
}

/// Generates a random weighted partial MaxSAT instance per `config`.
/// Deterministic in the configuration; the hard part is satisfiable by
/// construction (planted assignment).
///
/// # Examples
///
/// ```
/// use coremax_instances::{random_weighted_wcnf, WeightedConfig};
/// let w = random_weighted_wcnf(&WeightedConfig::default());
/// assert_eq!(w.num_hard(), 6);
/// assert_eq!(w.num_soft(), 16);
/// assert!(!w.is_unweighted());
/// ```
#[must_use]
pub fn random_weighted_wcnf(config: &WeightedConfig) -> WcnfFormula {
    let num_vars = config.num_vars.max(1);
    let max_len = config.max_len.clamp(1, num_vars);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let plant: Vec<bool> = (0..num_vars).map(|_| rng.gen()).collect();
    let mut w = WcnfFormula::with_vars(num_vars);

    let random_clause = |rng: &mut SmallRng| -> Vec<Lit> {
        let len = rng.gen_range(1..=max_len);
        let mut vars = Vec::with_capacity(len);
        while vars.len() < len {
            let v = rng.gen_range(0..num_vars);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        vars.iter()
            .map(|&v| Lit::new(Var::new(v as u32), rng.gen()))
            .collect()
    };

    for _ in 0..config.num_hard {
        let mut lits = random_clause(&mut rng);
        // Plant: flip one literal onto the hidden assignment if the
        // clause would otherwise be violated by it.
        if !lits
            .iter()
            .any(|l| plant[l.var().index()] == l.is_positive())
        {
            let i = rng.gen_range(0..lits.len());
            let v = lits[i].var();
            lits[i] = Lit::new(v, plant[v.index()]);
        }
        w.add_hard(lits);
    }
    for i in 0..config.num_soft {
        let lits = random_clause(&mut rng);
        let weight = config.dist.sample(&mut rng, i);
        w.add_soft(lits, weight);
    }
    w
}

/// The weighted benchmark suite: three weight distributions × a size
/// sweep, scaled like [`crate::full_suite`]. The `skewed-heavy`
/// instances carry soft-weight totals above 100,000, far past what
/// expanding each weight into unit-weight copies could handle: only
/// weight-native solving reaches them.
#[must_use]
pub fn weighted_suite(config: &crate::SuiteConfig) -> Vec<crate::Instance> {
    let s = config.scale.max(1);
    let mut out = Vec::new();
    let dists: [(WeightDist, &str); 4] = [
        (WeightDist::Uniform { lo: 1, hi: 8 }, "uniform"),
        (WeightDist::PowerOfTwo { max_exp: 4 }, "pow2"),
        (
            WeightDist::Skewed {
                light: 3,
                heavy: 12,
                heavy_every: 5,
            },
            "skewed",
        ),
        (
            // The heavy stratum alone weighs more than 100,000.
            WeightDist::Skewed {
                light: 6,
                heavy: 100_000,
                heavy_every: 4,
            },
            "skewed-heavy",
        ),
    ];
    for (dist, label) in dists {
        for size in 0..(2 + s).min(5) {
            let num_vars = 10 + 4 * size;
            let cfg = WeightedConfig {
                num_vars,
                num_hard: num_vars,
                num_soft: 3 * num_vars,
                max_len: 3,
                dist,
                seed: config.seed.wrapping_add(size as u64),
            };
            out.push(crate::Instance {
                name: format!("w-{label}-v{num_vars}"),
                family: crate::Family::Weighted,
                wcnf: random_weighted_wcnf(&cfg),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::Assignment;

    #[test]
    fn deterministic_per_config() {
        let cfg = WeightedConfig::default();
        assert_eq!(random_weighted_wcnf(&cfg), random_weighted_wcnf(&cfg));
        let other = WeightedConfig {
            seed: 43,
            ..cfg.clone()
        };
        assert_ne!(random_weighted_wcnf(&cfg), random_weighted_wcnf(&other));
    }

    #[test]
    fn hard_part_is_planted_satisfiable() {
        use coremax_sat::{SolveOutcome, Solver};
        for seed in 0..20 {
            let cfg = WeightedConfig {
                seed,
                num_hard: 20,
                ..WeightedConfig::default()
            };
            let w = random_weighted_wcnf(&cfg);
            let mut solver = Solver::new();
            solver.ensure_vars(w.num_vars());
            for h in w.hard_clauses() {
                solver.add_clause(h.lits().iter().copied());
            }
            assert_eq!(solver.solve(), SolveOutcome::Sat, "seed {seed}");
        }
    }

    #[test]
    fn distributions_shape_the_weights() {
        let pow2 = random_weighted_wcnf(&WeightedConfig {
            dist: WeightDist::PowerOfTwo { max_exp: 5 },
            num_soft: 40,
            ..WeightedConfig::default()
        });
        assert!(pow2
            .soft_clauses()
            .all(|s| s.weight.is_power_of_two() && s.weight <= 32));

        let skew = random_weighted_wcnf(&WeightedConfig {
            dist: WeightDist::Skewed {
                light: 3,
                heavy: 500,
                heavy_every: 4,
            },
            num_soft: 16,
            ..WeightedConfig::default()
        });
        let heavies = skew.soft_clauses().filter(|s| s.weight == 500).count();
        assert_eq!(heavies, 4);
        assert!(skew
            .soft_clauses()
            .all(|s| s.weight == 500 || s.weight <= 3));

        let uni = random_weighted_wcnf(&WeightedConfig {
            dist: WeightDist::Uniform { lo: 2, hi: 5 },
            ..WeightedConfig::default()
        });
        assert!(uni.soft_clauses().all(|s| (2..=5).contains(&s.weight)));
    }

    #[test]
    fn suite_is_deterministic_and_weighted() {
        let cfg = crate::SuiteConfig::default();
        let a = weighted_suite(&cfg);
        let b = weighted_suite(&cfg);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.wcnf, y.wcnf);
            assert_eq!(x.family, crate::Family::Weighted);
            assert!(!x.wcnf.is_unweighted(), "{} is unweighted", x.name);
        }
    }

    #[test]
    fn suite_contains_a_family_past_the_replication_cap() {
        let suite = weighted_suite(&crate::SuiteConfig::default());
        assert!(
            suite.iter().any(|i| i.wcnf.total_soft_weight() > 100_000),
            "no instance has a total soft weight above 100,000"
        );
        // And light-total families too, so the suite spans both.
        assert!(suite.iter().any(|i| i.wcnf.total_soft_weight() <= 100_000));
    }

    #[test]
    fn cost_evaluates_on_generated_instances() {
        let w = random_weighted_wcnf(&WeightedConfig::default());
        let mut all_true = Assignment::for_vars(w.num_vars());
        all_true.complete_with(true);
        // Not necessarily feasible, but must never panic.
        let _ = w.cost(&all_true);
    }
}
