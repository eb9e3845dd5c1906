//! Differential property tests for the observability stack: turning
//! the tracing machinery on must be observationally inert. Every
//! solver configuration — bare drivers, the preprocessing wrapper,
//! the parallel portfolio — is solved once with no sink installed and
//! once with the full sink stack (progress + JSONL trace + collector,
//! timing on), and the two runs must agree on status, cost, and model
//! cost. On top of the differential check, the captured artifacts
//! themselves are validated:
//!
//! - progress `o` lines are strictly decreasing (monotone incumbents);
//! - every `bounds` event with a known incumbent satisfies `lb <= ub`;
//! - every JSONL trace line parses as a JSON object with a `t_us`
//!   timestamp, and `span_enter`/`span_exit` pairs balance per thread
//!   with matching phases.
//!
//! The sink registry is process-global, so every test serializes
//! through one lock.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use coremax::{
    verify_solution, MaxSatSolution, MaxSatSolver, MaxSatStatus, Msu1, Msu3, Msu4, Preprocessed,
    Stratified, Wmsu1,
};
use coremax_cnf::{Lit, WcnfFormula};
use coremax_obs::json::Value;
use coremax_obs::{
    json, CollectorSink, Event, EventSink, FanoutSink, JsonlTraceSink, ProgressSink,
};
use coremax_par::Portfolio;
use proptest::prelude::*;

/// Serializes every test that installs the process-global sink.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A writer mirroring everything into a shared byte buffer.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn buf_to_string(buf: &Arc<Mutex<Vec<u8>>>) -> String {
    String::from_utf8(buf.lock().unwrap_or_else(|e| e.into_inner()).clone())
        .expect("sink output is UTF-8")
}

/// Random *unweighted* partial MaxSAT instance.
fn arb_unweighted(max_vars: i32) -> impl Strategy<Value = WcnfFormula> {
    let lit = (1..=max_vars).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..=3);
    (
        prop::collection::vec(clause.clone(), 0..8),
        prop::collection::vec(clause, 1..10),
    )
        .prop_map(move |(hard, soft)| {
            let mut w = WcnfFormula::with_vars(max_vars as usize);
            for c in hard {
                w.add_hard(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()));
            }
            for c in soft {
                w.add_soft(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()), 1);
            }
            w
        })
}

/// Random *weighted* partial MaxSAT instance.
fn arb_weighted(max_vars: i32) -> impl Strategy<Value = WcnfFormula> {
    let lit = (1..=max_vars).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..=3);
    let weighted = (clause.clone(), 1u64..=6);
    (
        prop::collection::vec(clause, 0..8),
        prop::collection::vec(weighted, 1..8),
    )
        .prop_map(move |(hard, soft)| {
            let mut w = WcnfFormula::with_vars(max_vars as usize);
            for c in hard {
                w.add_hard(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()));
            }
            for (c, weight) in soft {
                w.add_soft(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()), weight);
            }
            w
        })
}

/// Progress `o` lines must be strictly decreasing.
fn check_progress_monotone(progress: &str, label: &str) {
    let mut last: Option<u64> = None;
    for line in progress.lines() {
        if let Some(rest) = line.strip_prefix("o ") {
            let cost: u64 = rest
                .parse()
                .unwrap_or_else(|e| panic!("{label}: bad o line {line:?}: {e}"));
            prop_assert!(
                last.is_none_or(|prev| cost < prev),
                "{} printed non-improving incumbent {} after {:?}",
                label,
                cost,
                last
            );
            last = Some(cost);
        }
    }
}

/// Every captured bounds event with an incumbent must be a valid
/// interval.
fn check_bounds_events(events: &[(Duration, Event)], label: &str) {
    for (_, ev) in events {
        if let Event::Bounds { lb, ub: Some(ub) } = ev {
            prop_assert!(lb <= ub, "{} emitted bounds lb={} > ub={}", label, lb, ub);
        }
    }
}

/// Every JSONL line parses; span events balance per thread with
/// matching phases.
fn check_trace_wellformed(trace: &str, label: &str) {
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    for line in trace.lines() {
        let v =
            json::parse(line).unwrap_or_else(|e| panic!("{label}: bad trace line {line:?}: {e}"));
        prop_assert!(
            v.get("t_us").and_then(Value::as_u64).is_some(),
            "{} trace line lacks t_us: {}",
            label,
            line
        );
        let kind = v.get("ev").and_then(Value::as_str).unwrap_or_default();
        if kind == "span_enter" || kind == "span_exit" {
            let tid = v.get("tid").and_then(Value::as_u64).unwrap_or(0);
            let phase = v
                .get("phase")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            let stack = stacks.entry(tid).or_default();
            if kind == "span_enter" {
                stack.push(phase);
            } else {
                let open = stack.pop();
                prop_assert_eq!(
                    open.as_deref(),
                    Some(phase.as_str()),
                    "{} span_exit without matching span_enter: {}",
                    label,
                    line
                );
            }
        }
    }
    for (tid, stack) in &stacks {
        prop_assert!(
            stack.is_empty(),
            "{} thread {} left spans open: {:?}",
            label,
            tid,
            stack
        );
    }
}

/// Solves twice — sinks off, then the full sink stack — and checks
/// both the differential contract and the captured artifacts.
fn differential(w: &WcnfFormula, mut solve: impl FnMut() -> MaxSatSolution, label: &str) {
    let baseline = solve();

    let progress_buf = Arc::new(Mutex::new(Vec::new()));
    let trace_buf = Arc::new(Mutex::new(Vec::new()));
    let collector = Arc::new(CollectorSink::new());
    let traced = {
        let sinks: Vec<Arc<dyn EventSink>> = vec![
            Arc::new(ProgressSink::to_writer(
                Box::new(SharedBuf(progress_buf.clone())),
                Duration::ZERO,
            )),
            Arc::new(JsonlTraceSink::to_writer(Box::new(SharedBuf(
                trace_buf.clone(),
            )))),
            collector.clone(),
        ];
        let _guard = coremax_obs::install(Arc::new(FanoutSink::new(sinks)), true);
        solve()
    };

    prop_assert_eq!(
        traced.status,
        baseline.status,
        "{} status changed under tracing",
        label
    );
    prop_assert_eq!(
        traced.cost,
        baseline.cost,
        "{} cost changed under tracing",
        label
    );
    prop_assert!(
        verify_solution(w, &traced),
        "{} traced solution failed verification",
        label
    );
    if traced.status == MaxSatStatus::Optimal {
        let model = traced.model.as_ref().expect("optimal has model");
        prop_assert_eq!(
            w.cost(model),
            traced.cost,
            "{} traced model lies about cost",
            label
        );
    }

    check_progress_monotone(&buf_to_string(&progress_buf), label);
    check_bounds_events(&collector.events(), label);
    check_trace_wellformed(&buf_to_string(&trace_buf), label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unweighted_solvers_are_trace_invariant(w in arb_unweighted(6)) {
        let _l = obs_lock();
        differential(&w, || Msu3::new().solve(&w), "msu3");
        differential(&w, || Msu4::v2().solve(&w), "msu4-v2");
        differential(&w, || Msu1::new().solve(&w), "msu1");
        differential(&w, || Preprocessed::new(Msu4::v2()).solve(&w), "msu4-v2+simp");
    }

    #[test]
    fn weighted_solvers_are_trace_invariant(w in arb_weighted(6)) {
        let _l = obs_lock();
        differential(&w, || Wmsu1::new().solve(&w), "wmsu1");
        differential(&w, || Stratified::new(Msu3::new()).solve(&w), "strat-msu3");
        differential(&w, || Preprocessed::new(Wmsu1::new()).solve(&w), "wmsu1+simp");
    }

    #[test]
    fn portfolio_is_trace_invariant(w in arb_weighted(5)) {
        let _l = obs_lock();
        // Unlimited budget: the race always ends exactly, so the
        // winner's `(status, cost)` is deterministic by the
        // thread-count-invariance guarantee — tracing must not
        // perturb it either.
        differential(&w, || Portfolio::new(2).solve(&w).solution, "portfolio");
    }

    // Member lifecycles balance for every job count:
    // each member slot is claimed exactly once (started or skipped),
    // every started member ends exactly once (finished or cancelled),
    // skipped members never end, and the winner — when one exists —
    // was started. Regression: workers observing the race stop flag
    // used to drop claimed members with no lifecycle event at all.
    #[test]
    fn portfolio_member_lifecycles_balance(
        w in arb_weighted(5),
        jobs in 1usize..=8,
    ) {
        let _l = obs_lock();
        let collector = Arc::new(CollectorSink::new());
        let outcome = {
            let _guard = coremax_obs::install(collector.clone(), true);
            Portfolio::new(jobs).solve(&w)
        };
        let n = Portfolio::default_members().len();
        let (mut started, mut skipped, mut ended) = (vec![0u32; n], vec![0u32; n], vec![0u32; n]);
        for (_, ev) in collector.events() {
            match ev {
                Event::MemberStarted { index, .. } => started[index as usize] += 1,
                Event::MemberSkipped { index, .. } => skipped[index as usize] += 1,
                Event::MemberFinished { index, .. } | Event::MemberCancelled { index, .. } => {
                    ended[index as usize] += 1;
                }
                _ => {}
            }
        }
        for i in 0..n {
            prop_assert_eq!(
                started[i] + skipped[i],
                1,
                "member {} claimed {} times (jobs={})",
                i, started[i] + skipped[i], jobs
            );
            prop_assert_eq!(
                ended[i],
                started[i],
                "member {} started {} but ended {} times (jobs={})",
                i, started[i], ended[i], jobs
            );
        }
        if let Some(winner) = outcome.winner_index {
            prop_assert_eq!(started[winner], 1, "winner must have started");
        }
    }
}
