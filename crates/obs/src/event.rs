//! The structured event vocabulary of the stack.

use crate::json::escape_into;
use crate::Phase;

/// One solve-lifecycle event.
///
/// Events are plain data, cheap to construct, and carry raw `u64`
/// weights/costs (the `coremax_cnf::Weight` alias) so this crate
/// depends on nothing. Field meanings are documented per variant; the
/// JSONL encoding is `{"t_us": …, "ev": "<kind>", …fields…}` with the
/// field names used here.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    // ---- SAT engine ----
    /// The CDCL engine restarted. Counters are cumulative.
    Restart {
        /// Restarts so far (this one included).
        restarts: u64,
        /// Conflicts analysed so far.
        conflicts: u64,
        /// Learned clauses currently retained.
        learned: u64,
    },
    /// Periodic conflict-rate sample (every 1024 conflicts); rates are
    /// derived from successive samples' sink timestamps.
    ConflictRate {
        /// Conflicts analysed so far.
        conflicts: u64,
        /// Literals propagated so far.
        propagations: u64,
    },
    /// Learned-clause database reduction ran.
    ReduceDb {
        /// Learned clauses retained before the reduction.
        learned_before: u64,
        /// Learned clauses retained after it.
        learned_after: u64,
    },
    /// The clause arena was garbage-collected.
    Gc {
        /// Bytes of arena storage reclaimed.
        bytes_reclaimed: u64,
    },
    /// The arena memory watermark fired: every unprotected learned
    /// clause was shed.
    WatermarkReduction {
        /// Learned clauses retained before the shed.
        learned_before: u64,
        /// Learned clauses retained after it.
        learned_after: u64,
    },

    // ---- Phase spans (coarse phases only; see [`Phase::traced`]) ----
    /// A coarse phase span opened on thread `tid`.
    SpanEnter {
        /// The phase being entered.
        phase: Phase,
        /// Emitting thread's tag ([`crate::thread_tag`]).
        tid: u64,
    },
    /// The matching span closed.
    SpanExit {
        /// The phase being left.
        phase: Phase,
        /// Emitting thread's tag.
        tid: u64,
        /// Span duration in microseconds.
        dur_us: u64,
    },

    // ---- Core-guided MaxSAT drivers ----
    /// An unsatisfiable core was extracted.
    CoreExtracted {
        /// Soft clauses in the core.
        size: u64,
        /// Minimum weight over the core's soft clauses (1 when
        /// unweighted).
        weight: u64,
    },
    /// A relaxation/cardinality constraint was encoded.
    RelaxationEncoded {
        /// Fresh blocking (relaxation) variables introduced.
        blocking_vars: u64,
        /// CNF clauses the encoding added.
        clauses: u64,
    },
    /// The certified interval moved: `lb` is the proven lower bound,
    /// `ub` the incumbent cost (`None` while no model is known).
    /// Invariant: `lb <= ub` whenever `ub` is present.
    Bounds {
        /// Proven lower bound on the optimum.
        lb: u64,
        /// Incumbent (upper bound) cost, if any model is known.
        ub: Option<u64>,
    },
    /// A model strictly better than every previous one was found;
    /// `cost` is its exact soft-clause cost (the new upper bound).
    Incumbent {
        /// The incumbent's exact cost.
        cost: u64,
    },
    /// An OLL-style solver raised an existing totalizer's bound in
    /// place, reusing its internal nodes and emitting only the new
    /// layers.
    TotalizerExtended {
        /// The totalizer's new bound (outputs `0..=bound` exist).
        bound: u64,
        /// CNF clauses the extension added (the new layers only).
        clauses: u64,
    },
    /// A soft clause was made permanently hard because its residual
    /// weight exceeded the certified gap `ub − lb` (OLL weight-aware
    /// hardening).
    SoftHardened {
        /// Residual weight of the hardened soft clause.
        weight: u64,
        /// The certified gap that justified the hardening.
        gap: u64,
    },
    /// A stratification driver opened a weight stratum.
    StratumOpened {
        /// 0-based stratum index (heaviest first).
        index: u64,
        /// Smallest soft-clause weight admitted into this stratum.
        weight: u64,
        /// Soft clauses active once this stratum is included.
        softs: u64,
    },
    /// The stratum was solved (or abandoned on budget exhaustion).
    StratumClosed {
        /// 0-based stratum index.
        index: u64,
        /// Cumulative cost after closing this stratum.
        cost: u64,
    },

    // ---- Preprocessing ----
    /// One named pass of a `coremax_simp` round completed.
    SimpPass {
        /// Pass name (`"subsume"`, `"probe"`, `"bve"`).
        pass: &'static str,
        /// 1-based round number.
        round: u64,
        /// Clauses/variables/literals the pass removed or rewrote
        /// (pass-specific unit, 0 when the pass was a no-op).
        removed: u64,
    },

    // ---- Parallel portfolio ----
    /// A portfolio worker picked up member `index` and began solving.
    MemberStarted {
        /// Member slot index.
        index: u64,
        /// Member solver name.
        name: &'static str,
    },
    /// The member's solve returned.
    MemberFinished {
        /// Member slot index.
        index: u64,
        /// Member solver name.
        name: &'static str,
        /// `"optimal"`, `"infeasible"` or `"unknown"`.
        status: &'static str,
    },
    /// The member observed the race stop flag and was cancelled
    /// before (or while) solving.
    MemberCancelled {
        /// Member slot index.
        index: u64,
        /// Member solver name.
        name: &'static str,
    },
    /// A worker claimed member `index` but the race had already been
    /// won; the member was skipped without ever building a solver.
    MemberSkipped {
        /// Member slot index.
        index: u64,
        /// Member solver name.
        name: &'static str,
    },
    /// The portfolio chose its answer.
    WinnerChosen {
        /// Winning member slot index.
        index: u64,
        /// Winning member solver name.
        name: &'static str,
    },
}

impl Event {
    /// Stable snake-case discriminant name (the `"ev"` field of the
    /// JSONL encoding).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Restart { .. } => "restart",
            Event::ConflictRate { .. } => "conflict_rate",
            Event::ReduceDb { .. } => "reduce_db",
            Event::Gc { .. } => "gc",
            Event::WatermarkReduction { .. } => "watermark_reduction",
            Event::SpanEnter { .. } => "span_enter",
            Event::SpanExit { .. } => "span_exit",
            Event::CoreExtracted { .. } => "core",
            Event::RelaxationEncoded { .. } => "relax",
            Event::Bounds { .. } => "bounds",
            Event::Incumbent { .. } => "incumbent",
            Event::TotalizerExtended { .. } => "totalizer_extended",
            Event::SoftHardened { .. } => "soft_hardened",
            Event::StratumOpened { .. } => "stratum_opened",
            Event::StratumClosed { .. } => "stratum_closed",
            Event::SimpPass { .. } => "simp_pass",
            Event::MemberStarted { .. } => "member_started",
            Event::MemberFinished { .. } => "member_finished",
            Event::MemberCancelled { .. } => "member_cancelled",
            Event::MemberSkipped { .. } => "member_skipped",
            Event::WinnerChosen { .. } => "winner_chosen",
        }
    }

    /// Appends the event's payload as JSON object fields —
    /// `"ev": "<kind>", "<field>": <value>, …` — without braces, so a
    /// sink can prepend its own fields (e.g. a timestamp).
    pub fn fields_to_json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        fn num(out: &mut String, name: &str, v: u64) {
            let _ = write!(out, ", \"{name}\": {v}");
        }
        let _ = write!(out, "\"ev\": \"{}\"", self.kind());
        match self {
            Event::Restart {
                restarts,
                conflicts,
                learned,
            } => {
                num(out, "restarts", *restarts);
                num(out, "conflicts", *conflicts);
                num(out, "learned", *learned);
            }
            Event::ConflictRate {
                conflicts,
                propagations,
            } => {
                num(out, "conflicts", *conflicts);
                num(out, "propagations", *propagations);
            }
            Event::ReduceDb {
                learned_before,
                learned_after,
            }
            | Event::WatermarkReduction {
                learned_before,
                learned_after,
            } => {
                num(out, "learned_before", *learned_before);
                num(out, "learned_after", *learned_after);
            }
            Event::Gc { bytes_reclaimed } => num(out, "bytes_reclaimed", *bytes_reclaimed),
            Event::SpanEnter { phase, tid } => {
                let _ = write!(out, ", \"phase\": \"{}\"", phase.name());
                num(out, "tid", *tid);
            }
            Event::SpanExit { phase, tid, dur_us } => {
                let _ = write!(out, ", \"phase\": \"{}\"", phase.name());
                num(out, "tid", *tid);
                num(out, "dur_us", *dur_us);
            }
            Event::CoreExtracted { size, weight } => {
                num(out, "size", *size);
                num(out, "weight", *weight);
            }
            Event::RelaxationEncoded {
                blocking_vars,
                clauses,
            } => {
                num(out, "blocking_vars", *blocking_vars);
                num(out, "clauses", *clauses);
            }
            Event::Bounds { lb, ub } => {
                num(out, "lb", *lb);
                match ub {
                    Some(u) => num(out, "ub", *u),
                    None => {
                        let _ = write!(out, ", \"ub\": null");
                    }
                }
            }
            Event::Incumbent { cost } => num(out, "cost", *cost),
            Event::TotalizerExtended { bound, clauses } => {
                num(out, "bound", *bound);
                num(out, "clauses", *clauses);
            }
            Event::SoftHardened { weight, gap } => {
                num(out, "weight", *weight);
                num(out, "gap", *gap);
            }
            Event::StratumOpened {
                index,
                weight,
                softs,
            } => {
                num(out, "index", *index);
                num(out, "weight", *weight);
                num(out, "softs", *softs);
            }
            Event::StratumClosed { index, cost } => {
                num(out, "index", *index);
                num(out, "cost", *cost);
            }
            Event::SimpPass {
                pass,
                round,
                removed,
            } => {
                let mut s = String::new();
                escape_into(&mut s, pass);
                let _ = write!(out, ", \"pass\": \"{s}\"");
                num(out, "round", *round);
                num(out, "removed", *removed);
            }
            Event::MemberStarted { index, name }
            | Event::MemberCancelled { index, name }
            | Event::MemberSkipped { index, name } => {
                num(out, "index", *index);
                let mut s = String::new();
                escape_into(&mut s, name);
                let _ = write!(out, ", \"name\": \"{s}\"");
            }
            Event::MemberFinished {
                index,
                name,
                status,
            } => {
                num(out, "index", *index);
                let mut s = String::new();
                escape_into(&mut s, name);
                let _ = write!(out, ", \"name\": \"{s}\", \"status\": \"{status}\"");
            }
            Event::WinnerChosen { index, name } => {
                num(out, "index", *index);
                let mut s = String::new();
                escape_into(&mut s, name);
                let _ = write!(out, ", \"name\": \"{s}\"");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_encodes_to_valid_json_fields() {
        let samples = [
            Event::Restart {
                restarts: 1,
                conflicts: 100,
                learned: 50,
            },
            Event::ConflictRate {
                conflicts: 1024,
                propagations: 99999,
            },
            Event::ReduceDb {
                learned_before: 100,
                learned_after: 50,
            },
            Event::Gc {
                bytes_reclaimed: 4096,
            },
            Event::WatermarkReduction {
                learned_before: 9,
                learned_after: 2,
            },
            Event::SpanEnter {
                phase: Phase::SatCall,
                tid: 1,
            },
            Event::SpanExit {
                phase: Phase::SatCall,
                tid: 1,
                dur_us: 12,
            },
            Event::CoreExtracted { size: 3, weight: 2 },
            Event::RelaxationEncoded {
                blocking_vars: 3,
                clauses: 9,
            },
            Event::Bounds { lb: 1, ub: Some(4) },
            Event::Bounds { lb: 0, ub: None },
            Event::Incumbent { cost: 4 },
            Event::TotalizerExtended {
                bound: 2,
                clauses: 11,
            },
            Event::SoftHardened { weight: 9, gap: 3 },
            Event::StratumOpened {
                index: 0,
                weight: 8,
                softs: 5,
            },
            Event::StratumClosed { index: 0, cost: 2 },
            Event::SimpPass {
                pass: "bve",
                round: 1,
                removed: 7,
            },
            Event::MemberStarted {
                index: 2,
                name: "msu3",
            },
            Event::MemberFinished {
                index: 2,
                name: "msu3",
                status: "optimal",
            },
            Event::MemberCancelled {
                index: 4,
                name: "msu1",
            },
            Event::MemberSkipped {
                index: 5,
                name: "oll",
            },
            Event::WinnerChosen {
                index: 2,
                name: "msu3",
            },
        ];
        for ev in &samples {
            let mut body = String::from("{");
            ev.fields_to_json_into(&mut body);
            body.push('}');
            let parsed = crate::json::parse(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
            let obj = parsed.as_object().expect("object");
            assert_eq!(
                obj.iter().find(|(k, _)| k == "ev").map(|(_, v)| v.as_str()),
                Some(Some(ev.kind())),
                "{body}"
            );
        }
    }
}
