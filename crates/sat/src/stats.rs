//! Solver statistics.

use std::fmt;

use coremax_obs::PhaseTimes;

/// Number of buckets in the learned-clause LBD histogram:
/// `[1..=2, 3..=5, 6..=9, 10..]`.
pub const LBD_HIST_BUCKETS: usize = 4;

/// Counters describing the work a [`crate::Solver`] has performed.
///
/// All counters are cumulative over the lifetime of the solver (across
/// multiple `solve` calls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of literals enqueued by the dedicated binary-clause watch
    /// lists (a subset of the implications behind `propagations`).
    pub bin_propagations: u64,
    /// Number of conflicts analysed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Restarts triggered by the Luby schedule.
    pub restarts_luby: u64,
    /// Restarts triggered by the glucose-style adaptive LBD policy.
    pub restarts_glucose: u64,
    /// Number of learned clauses currently retained.
    pub learned_clauses: u64,
    /// Number of learned clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Peak number of simultaneously retained learned clauses.
    pub peak_learned: u64,
    /// Learned glue clauses (LBD ≤ 2; protected from deletion). The
    /// LBD counts only decision levels above the running solve's
    /// assumption prefix.
    pub glue_clauses: u64,
    /// Histogram of learn-time LBD values (levels above the assumption
    /// prefix, at least 1); buckets are `[1..=2, 3..=5, 6..=9, 10..]`.
    pub lbd_hist: [u64; LBD_HIST_BUCKETS],
    /// Clause-arena garbage collections performed.
    pub gc_runs: u64,
    /// Bytes of clause-arena storage reclaimed by garbage collection.
    pub gc_bytes_reclaimed: u64,
    /// Capacity-growth events of the conflict-analysis scratch buffers.
    /// Stays flat once the solver reaches steady state: conflicts then
    /// perform zero transient heap allocations.
    pub scratch_reallocs: u64,
    /// Total literals in learned clauses (before minimisation).
    pub max_literals: u64,
    /// Total literals in learned clauses (after minimisation).
    pub tot_literals: u64,
    /// Solve calls beyond the first on the same solver instance — the
    /// calls that reuse learned clauses, activities and phases instead
    /// of starting cold.
    pub incremental_solves: u64,
    /// Learned clauses already in the database at the start of each
    /// incremental solve call, summed over calls: the work carried over
    /// instead of being re-derived.
    pub clauses_retained: u64,
    /// Aggressive database reductions triggered by the clause-arena
    /// memory watermark ([`crate::SolverConfig::arena_watermark_words`]):
    /// memory pressure handled by shedding learned clauses instead of
    /// growing towards allocation failure.
    pub watermark_reductions: u64,
    /// Per-phase wall-time breakdown (propagate / analyze / reduce_db
    /// / gc / sat_call). All zero unless `coremax_obs` timing was
    /// enabled while the solver ran.
    pub phase: PhaseTimes,
}

impl SolverStats {
    /// Bucket index in [`SolverStats::lbd_hist`] for an LBD value.
    #[must_use]
    pub fn lbd_bucket(lbd: u32) -> usize {
        match lbd {
            0..=2 => 0,
            3..=5 => 1,
            6..=9 => 2,
            _ => 3,
        }
    }

    /// Accumulates another stats snapshot into `self` (histogram buckets
    /// and peaks included). Used by the MaxSAT layer to aggregate the
    /// counters of the many SAT solvers one optimisation run creates.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.bin_propagations += other.bin_propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.restarts_luby += other.restarts_luby;
        self.restarts_glucose += other.restarts_glucose;
        self.learned_clauses += other.learned_clauses;
        self.deleted_clauses += other.deleted_clauses;
        self.peak_learned = self.peak_learned.max(other.peak_learned);
        self.glue_clauses += other.glue_clauses;
        for (a, b) in self.lbd_hist.iter_mut().zip(other.lbd_hist.iter()) {
            *a += b;
        }
        self.gc_runs += other.gc_runs;
        self.gc_bytes_reclaimed += other.gc_bytes_reclaimed;
        self.scratch_reallocs += other.scratch_reallocs;
        self.max_literals += other.max_literals;
        self.tot_literals += other.tot_literals;
        self.incremental_solves += other.incremental_solves;
        self.clauses_retained += other.clauses_retained;
        self.watermark_reductions += other.watermark_reductions;
        self.phase.absorb(&other.phase);
    }

    /// Appends the full counter tree as a JSON object (hand-rolled, no
    /// serde; used by `--stats-json` and the bench artifacts).
    pub fn to_json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"decisions\": {}, \"propagations\": {}, \"bin_propagations\": {}, \
             \"conflicts\": {}, \"restarts\": {}, \"restarts_luby\": {}, \
             \"restarts_glucose\": {}, \"learned_clauses\": {}, \"deleted_clauses\": {}, \
             \"peak_learned\": {}, \"glue_clauses\": {}, \"lbd_hist\": [{}, {}, {}, {}], \
             \"gc_runs\": {}, \"gc_bytes_reclaimed\": {}, \"scratch_reallocs\": {}, \
             \"max_literals\": {}, \"tot_literals\": {}, \"incremental_solves\": {}, \
             \"clauses_retained\": {}, \"watermark_reductions\": {}, \"phase_times\": ",
            self.decisions,
            self.propagations,
            self.bin_propagations,
            self.conflicts,
            self.restarts,
            self.restarts_luby,
            self.restarts_glucose,
            self.learned_clauses,
            self.deleted_clauses,
            self.peak_learned,
            self.glue_clauses,
            self.lbd_hist[0],
            self.lbd_hist[1],
            self.lbd_hist[2],
            self.lbd_hist[3],
            self.gc_runs,
            self.gc_bytes_reclaimed,
            self.scratch_reallocs,
            self.max_literals,
            self.tot_literals,
            self.incremental_solves,
            self.clauses_retained,
            self.watermark_reductions,
        );
        self.phase.to_json_into(out);
        out.push('}');
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} bin_props={} conflicts={} \
             restarts={} (luby={} glucose={}) learned={} deleted={} peak_learned={} \
             glue={} lbd_hist=[{},{},{},{}] gc_runs={} gc_bytes={} scratch_reallocs={} \
             inc_solves={} clauses_retained={} watermark_reductions={}",
            self.decisions,
            self.propagations,
            self.bin_propagations,
            self.conflicts,
            self.restarts,
            self.restarts_luby,
            self.restarts_glucose,
            self.learned_clauses,
            self.deleted_clauses,
            self.peak_learned,
            self.glue_clauses,
            self.lbd_hist[0],
            self.lbd_hist[1],
            self.lbd_hist[2],
            self.lbd_hist[3],
            self.gc_runs,
            self.gc_bytes_reclaimed,
            self.scratch_reallocs,
            self.incremental_solves,
            self.clauses_retained,
            self.watermark_reductions
        )?;
        if !self.phase.is_zero() {
            write!(f, " phase=[{}]", self.phase)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = SolverStats::default();
        assert_eq!(s.decisions, 0);
        assert_eq!(s.conflicts, 0);
        assert_eq!(s.bin_propagations, 0);
        assert_eq!(s.lbd_hist, [0; LBD_HIST_BUCKETS]);
    }

    #[test]
    fn display_contains_fields() {
        let s = SolverStats {
            decisions: 3,
            conflicts: 2,
            ..SolverStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("decisions=3"));
        assert!(text.contains("conflicts=2"));
        assert!(text.contains("gc_runs=0"));
        assert!(text.contains("inc_solves=0"));
        assert!(text.contains("clauses_retained=0"));
    }

    #[test]
    fn lbd_buckets_cover_ranges() {
        assert_eq!(SolverStats::lbd_bucket(1), 0);
        assert_eq!(SolverStats::lbd_bucket(2), 0);
        assert_eq!(SolverStats::lbd_bucket(3), 1);
        assert_eq!(SolverStats::lbd_bucket(5), 1);
        assert_eq!(SolverStats::lbd_bucket(6), 2);
        assert_eq!(SolverStats::lbd_bucket(9), 2);
        assert_eq!(SolverStats::lbd_bucket(10), 3);
        assert_eq!(SolverStats::lbd_bucket(1000), 3);
    }

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = SolverStats {
            decisions: 1,
            peak_learned: 5,
            lbd_hist: [1, 0, 0, 0],
            ..SolverStats::default()
        };
        let b = SolverStats {
            decisions: 2,
            peak_learned: 3,
            lbd_hist: [0, 2, 0, 1],
            ..SolverStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.decisions, 3);
        assert_eq!(a.peak_learned, 5);
        assert_eq!(a.lbd_hist, [1, 2, 0, 1]);
    }
}
