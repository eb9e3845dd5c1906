//! Correctness of every measured verdict: `verify_solution` against the
//! parsed instance, and agreement with an answer key that other drivers
//! than the one under test build untimed and cache per instance.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::PathBuf;

use coremax::{verify_solution, MaxSatSolution, MaxSatStatus};
use coremax_cli::Options;
use coremax_cnf::{WcnfFormula, Weight};

/// What one measured solve claimed, and whether `verify_solution`
/// accepted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// `None` when `run` returned an error.
    pub status: Option<MaxSatStatus>,
    pub cost: Option<Weight>,
    pub lower_bound: Weight,
    pub verified: bool,
}

impl Answer {
    /// Checks a `run` result against the instance it solved.
    pub fn of(wcnf: &WcnfFormula, result: &Result<MaxSatSolution, String>) -> Answer {
        match result {
            Ok(solution) => Answer {
                status: Some(solution.status),
                cost: solution.cost,
                lower_bound: solution.lower_bound,
                verified: verify_solution(wcnf, solution),
            },
            Err(_) => Answer {
                status: None,
                cost: None,
                lower_bound: 0,
                verified: false,
            },
        }
    }
}

/// An exact verdict: what every correct driver reports on an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub status: MaxSatStatus,
    pub cost: Option<Weight>,
}

/// How one measured solve ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// A verified exact verdict that matches the key.
    Exact,
    /// No exact verdict (limit or error), but nothing false was claimed.
    Failed,
    /// The verdict fails `verify_solution` or contradicts the key.
    Wrong,
}

/// Judges a measured answer against the instance's key verdict.
pub fn judge(answer: &Answer, key: Verdict) -> Judgement {
    let Some(status) = answer.status else {
        return Judgement::Failed;
    };
    if !answer.verified {
        return Judgement::Wrong;
    }
    if status != MaxSatStatus::Unknown {
        return if (Verdict {
            status,
            cost: answer.cost,
        }) == key
        {
            Judgement::Exact
        } else {
            Judgement::Wrong
        };
    }
    // An aborted run's certified interval must still contain the optimum.
    let contradicts = match key.cost {
        Some(optimum) => answer.lower_bound > optimum || answer.cost.is_some_and(|c| c < optimum),
        None => answer.cost.is_some(),
    };
    if contradicts {
        Judgement::Wrong
    } else {
        Judgement::Failed
    }
}

/// FNV-1a over the instance text: the key's cache index, so seeds that
/// generate the same instance share its entry.
pub fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Cached key verdicts of one chain of key drivers, one
/// `FINGERPRINT STATUS COST` line per instance.
pub struct AnswerKey {
    path: PathBuf,
    known: HashMap<u64, Verdict>,
    /// Verdicts this process solved rather than found cached, per driver.
    pub solved: BTreeMap<String, usize>,
}

impl AnswerKey {
    /// Loads the cache at `path`; a missing file is an empty key. A line
    /// that does not parse, as a run killed mid-write could leave, is
    /// skipped: its instance is solved again.
    pub fn open(path: PathBuf) -> Result<AnswerKey, String> {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        Ok(AnswerKey {
            path,
            known: text.lines().filter_map(parse_line).collect(),
            solved: BTreeMap::new(),
        })
    }

    /// The key verdict of the instance with this fingerprint. When it is
    /// not cached yet, the drivers of `chain` try in turn until one gives
    /// a verified exact verdict, which is cached.
    pub fn verdict(
        &mut self,
        fp: u64,
        wcnf: &WcnfFormula,
        chain: &[Options],
    ) -> Result<Verdict, String> {
        if let Some(v) = self.known.get(&fp) {
            return Ok(*v);
        }
        let (driver, verdict) = chain
            .iter()
            .find_map(|options| {
                let answer = Answer::of(wcnf, &coremax_cli::run(options, wcnf));
                let status = answer
                    .status
                    .filter(|s| *s != MaxSatStatus::Unknown && answer.verified)?;
                let verdict = Verdict {
                    status,
                    cost: answer.cost,
                };
                Some((&options.algorithm, verdict))
            })
            .ok_or_else(|| {
                let names: Vec<&str> = chain.iter().map(|o| o.algorithm.as_str()).collect();
                format!(
                    "no key driver ({}) gave a verified exact verdict on instance {fp:016x}",
                    names.join(", ")
                )
            })?;
        *self.solved.entry(driver.clone()).or_default() += 1;
        // One write per line, so that appends never interleave mid-line.
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(format!("{}\n", format_line(fp, verdict)).as_bytes()))
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))?;
        self.known.insert(fp, verdict);
        Ok(verdict)
    }
}

fn format_line(fp: u64, v: Verdict) -> String {
    let status = match v.status {
        MaxSatStatus::Optimal => "optimal",
        MaxSatStatus::Infeasible => "infeasible",
        MaxSatStatus::Unknown => "unknown",
    };
    let cost = v.cost.map_or_else(|| "-".to_string(), |c| c.to_string());
    format!("{fp:016x} {status} {cost}")
}

fn parse_line(line: &str) -> Option<(u64, Verdict)> {
    let mut fields = line.split(' ');
    let fp = u64::from_str_radix(fields.next()?, 16).ok()?;
    let status = match fields.next()? {
        "optimal" => MaxSatStatus::Optimal,
        "infeasible" => MaxSatStatus::Infeasible,
        _ => return None,
    };
    let cost = match fields.next()? {
        "-" => None,
        c => Some(c.parse().ok()?),
    };
    fields
        .next()
        .is_none()
        .then_some((fp, Verdict { status, cost }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 2: every clause soft, optimum 2.
    const EXAMPLE2: &str = "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n";

    #[test]
    fn corrupted_cost_is_caught() {
        let wcnf = coremax_cli::parse_problem(EXAMPLE2).unwrap();
        let key = Verdict {
            status: MaxSatStatus::Optimal,
            cost: Some(2),
        };
        let solution = coremax_cli::run(&Options::default(), &wcnf).unwrap();
        assert_eq!(
            judge(&Answer::of(&wcnf, &Ok(solution.clone())), key),
            Judgement::Exact
        );

        // A cost that its model does not attain fails verify_solution.
        let mut corrupted = solution.clone();
        corrupted.cost = Some(3);
        corrupted.lower_bound = 3;
        let answer = Answer::of(&wcnf, &Ok(corrupted));
        assert!(!answer.verified);
        assert_eq!(judge(&answer, key), Judgement::Wrong);

        // A self-consistent verdict that disagrees with the key is caught
        // by the key.
        let off_key = Verdict {
            cost: Some(1),
            ..key
        };
        assert_eq!(
            judge(&Answer::of(&wcnf, &Ok(solution)), off_key),
            Judgement::Wrong
        );
    }

    #[test]
    fn aborted_runs_fail_unless_their_interval_excludes_the_optimum() {
        let key = Verdict {
            status: MaxSatStatus::Optimal,
            cost: Some(5),
        };
        let aborted = |lower_bound, cost| Answer {
            status: Some(MaxSatStatus::Unknown),
            cost,
            lower_bound,
            verified: true,
        };
        assert_eq!(judge(&aborted(2, Some(7)), key), Judgement::Failed);
        assert_eq!(judge(&aborted(6, Some(7)), key), Judgement::Wrong);
        assert_eq!(judge(&aborted(2, Some(4)), key), Judgement::Wrong);
        let error = Answer::of(&WcnfFormula::new(), &Err("boom".into()));
        assert_eq!(judge(&error, key), Judgement::Failed);
    }

    #[test]
    fn key_chain_falls_back_and_skips_torn_lines() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test-key-chain.txt");
        // A torn line, as a run killed between two appends could leave.
        std::fs::write(
            &path,
            "00000000000000ab optimal 200000000000000cd optimal 3\n",
        )
        .unwrap();
        let mut key = AnswerKey::open(path.clone()).unwrap();
        assert!(key.known.is_empty());

        // The first driver gets no time, so the second settles the key.
        let wcnf = coremax_cli::parse_problem(EXAMPLE2).unwrap();
        let driver = |algorithm: &str, timeout_ms| Options {
            algorithm: algorithm.into(),
            timeout_ms,
            ..Options::default()
        };
        let chain = [driver("wmsu1", Some(0)), driver("msu3", None)];
        let optimum = Verdict {
            status: MaxSatStatus::Optimal,
            cost: Some(2),
        };
        assert_eq!(key.verdict(7, &wcnf, &chain), Ok(optimum));
        assert_eq!(key.solved, BTreeMap::from([("msu3".to_string(), 1)]));
        assert!(key.verdict(8, &wcnf, &chain[..1]).is_err());

        // The verdict is cached behind the torn line.
        let reopened = AnswerKey::open(path.clone()).unwrap();
        assert_eq!(reopened.known, HashMap::from([(7, optimum)]));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn key_lines_round_trip() {
        for v in [
            Verdict {
                status: MaxSatStatus::Optimal,
                cost: Some(17),
            },
            Verdict {
                status: MaxSatStatus::Infeasible,
                cost: None,
            },
        ] {
            assert_eq!(parse_line(&format_line(0xabc, v)), Some((0xabc, v)));
        }
        assert_eq!(parse_line("zz optimal 1"), None);
        assert_eq!(parse_line("01 unknown 1"), None);
    }
}
