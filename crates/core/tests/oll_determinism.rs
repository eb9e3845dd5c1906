//! `Oll` repeats its work exactly. On weighted input, weight-aware
//! hardening turns a batch of working softs into hard units at once;
//! the order they reach the engine steers its search, so it must not
//! depend on a hash map's per-run iteration order.

use std::sync::Arc;

use coremax::{MaxSatSolver, Oll};
use coremax_instances::{weighted_suite, SuiteConfig};
use coremax_obs::{CollectorSink, Event};

#[test]
fn oll_hardening_order_is_deterministic() {
    // The only test in this binary, so the process-global sink is ours.
    let collector = Arc::new(CollectorSink::new());
    let _guard = coremax_obs::install(collector.clone(), false);
    let mut hardened = 0;
    for instance in weighted_suite(&SuiteConfig { scale: 1, seed: 7 }) {
        let mut first = None;
        for run in 0..10 {
            let solution = Oll::new().solve(&instance.wcnf);
            hardened += solution.stats.hardened;
            let order: Vec<(u64, u64)> = collector
                .take()
                .into_iter()
                .filter_map(|(_, event)| match event {
                    Event::SoftHardened { weight, gap } => Some((weight, gap)),
                    _ => None,
                })
                .collect();
            // Work counters only: with a sink installed, SAT calls are
            // also timed.
            let mut work = solution.stats.sat;
            work.phase = Default::default();
            let this = (work, order);
            match &first {
                None => first = Some(this),
                Some(first) => assert_eq!(first, &this, "{} run {run}", instance.name),
            }
        }
    }
    assert!(hardened > 0, "hardening never fired");
}
