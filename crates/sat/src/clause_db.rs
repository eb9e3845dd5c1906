//! Arena storage for original and learned clauses.

use coremax_cnf::Lit;

/// Internal reference to a clause: the word offset of its header in the
/// arena (MiniSAT's region-allocator `CRef`).
///
/// `CRef`s are *positional*: garbage collection compacts the arena and
/// remaps every live reference through the table returned by
/// [`ClauseDb::collect_garbage`]. Holding a `CRef` across a collection
/// without remapping it is a bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CRef(pub(crate) u32);

impl CRef {
    pub(crate) const UNDEF: CRef = CRef(u32::MAX);

    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    pub(crate) fn is_undef(self) -> bool {
        self.0 == u32::MAX
    }
}

// Header layout, in arena words relative to the clause's `CRef`:
// `[len][flags|lbd<<4][activity bits][lit 0]…[lit len-1]`.
// Headers are stored through `Lit::from_code`/`Lit::code` round-trips:
// the arena is a single `Vec<Lit>`, so a clause's header and literals
// share cache lines — one memory fetch serves the whole propagation
// visit. No word is ever *used* as a literal unless it is one.
const HDR_LEN: usize = 0;
const HDR_FLAGS: usize = 1;
const HDR_ACT: usize = 2;
const HDR_SIZE: usize = 3;

const FLAG_LEARNED: u32 = 1;
const FLAG_DELETED: u32 = 2;
const FLAG_MASK: u32 = FLAG_LEARNED | FLAG_DELETED;
const LBD_SHIFT: u32 = 4;

/// Flat clause arena in the MiniSAT region-allocator style. Deleted
/// clauses stay in place (marked and skipped everywhere) until
/// [`ClauseDb::collect_garbage`] compacts the arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClauseDb {
    arena: Vec<Lit>,
    /// Refs of learned clauses; may contain deleted entries between a
    /// reduction and the next collection ([`Self::learned_refs`] filters).
    learnts: Vec<CRef>,
    num_clauses: usize,
    num_learned: usize,
    /// Arena words (headers + literals) held by deleted clauses.
    wasted_words: usize,
}

/// Outcome of a garbage collection: a sorted old-offset → new-offset
/// table, plus the bytes returned to the allocator's working set.
pub(crate) struct GcRemap {
    /// `(old_cref, new_cref)` for every surviving clause, sorted by old.
    pairs: Vec<(u32, u32)>,
    pub(crate) bytes_reclaimed: u64,
}

impl GcRemap {
    /// New position of `old`, or `CRef::UNDEF` if it was collected.
    #[inline]
    pub(crate) fn remap(&self, old: CRef) -> CRef {
        if old.is_undef() {
            return CRef::UNDEF;
        }
        match self.pairs.binary_search_by_key(&old.0, |&(o, _)| o) {
            Ok(i) => CRef(self.pairs[i].1),
            Err(_) => CRef::UNDEF,
        }
    }
}

impl ClauseDb {
    pub(crate) fn new() -> Self {
        ClauseDb::default()
    }

    #[inline]
    fn word(&self, idx: usize) -> u32 {
        self.arena[idx].code()
    }

    #[inline]
    fn set_word(&mut self, idx: usize, value: u32) {
        self.arena[idx] = Lit::from_code(value);
    }

    /// Adds a clause; `len >= 1` expected (empty clauses are handled
    /// before reaching the arena).
    ///
    /// Arena invariant, uniform across the level-0 and learned load
    /// paths: stored clauses never contain two literals of the same
    /// variable. Problem clauses are sorted and deduplicated (and
    /// tautologies discarded) by `Solver::add_clause` before they get
    /// here; learned clauses satisfy it by construction of first-UIP
    /// analysis.
    pub(crate) fn add(&mut self, lits: &[Lit], learned: bool) -> CRef {
        debug_assert!(!lits.is_empty());
        debug_assert!(
            lits.iter()
                .enumerate()
                .all(|(i, a)| lits[i + 1..].iter().all(|b| b.var() != a.var())),
            "arena clauses must be duplicate- and tautology-free"
        );
        let cref = CRef(self.arena.len() as u32);
        self.arena.push(Lit::from_code(lits.len() as u32));
        self.arena
            .push(Lit::from_code(if learned { FLAG_LEARNED } else { 0 }));
        self.arena.push(Lit::from_code(0.0f32.to_bits()));
        self.arena.extend_from_slice(lits);
        self.num_clauses += 1;
        if learned {
            self.num_learned += 1;
            self.learnts.push(cref);
        }
        cref
    }

    #[inline]
    pub(crate) fn lits(&self, c: CRef) -> &[Lit] {
        let len = self.word(c.index() + HDR_LEN) as usize;
        &self.arena[c.index() + HDR_SIZE..c.index() + HDR_SIZE + len]
    }

    #[inline]
    pub(crate) fn len(&self, c: CRef) -> usize {
        self.word(c.index() + HDR_LEN) as usize
    }

    /// `(start, len)` of the clause's literal slice in absolute arena
    /// indices: one header read for callers that then index the arena
    /// directly (hot propagation path).
    #[inline]
    pub(crate) fn span(&self, c: CRef) -> (usize, usize) {
        (
            c.index() + HDR_SIZE,
            self.word(c.index() + HDR_LEN) as usize,
        )
    }

    /// Direct arena access by absolute literal index (from [`Self::span`]).
    #[inline]
    pub(crate) fn lit_at(&self, idx: usize) -> Lit {
        self.arena[idx]
    }

    /// Swaps two literals by absolute arena index.
    #[inline]
    pub(crate) fn swap_lits(&mut self, a: usize, b: usize) {
        self.arena.swap(a, b);
    }

    #[inline]
    pub(crate) fn is_learned(&self, c: CRef) -> bool {
        self.word(c.index() + HDR_FLAGS) & FLAG_LEARNED != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, c: CRef) -> bool {
        self.word(c.index() + HDR_FLAGS) & FLAG_DELETED != 0
    }

    pub(crate) fn mark_deleted(&mut self, c: CRef) {
        debug_assert!(!self.is_deleted(c));
        let flags = self.word(c.index() + HDR_FLAGS);
        self.set_word(c.index() + HDR_FLAGS, flags | FLAG_DELETED);
        self.wasted_words += HDR_SIZE + self.len(c);
        self.num_clauses -= 1;
        if flags & FLAG_LEARNED != 0 {
            self.num_learned -= 1;
        }
    }

    #[inline]
    pub(crate) fn activity(&self, c: CRef) -> f32 {
        f32::from_bits(self.word(c.index() + HDR_ACT))
    }

    #[inline]
    pub(crate) fn lbd(&self, c: CRef) -> u32 {
        self.word(c.index() + HDR_FLAGS) >> LBD_SHIFT
    }

    /// Records a (new or improved) LBD for a clause.
    #[inline]
    pub(crate) fn set_lbd(&mut self, c: CRef, lbd: u32) {
        let flags = self.word(c.index() + HDR_FLAGS) & FLAG_MASK;
        self.set_word(c.index() + HDR_FLAGS, flags | (lbd << LBD_SHIFT));
    }

    pub(crate) fn bump_activity(&mut self, c: CRef, inc: f32) -> bool {
        let act = self.activity(c) + inc;
        self.set_word(c.index() + HDR_ACT, act.to_bits());
        act > 1e20
    }

    pub(crate) fn rescale_activities(&mut self) {
        let mut off = 0usize;
        while off < self.arena.len() {
            let len = self.word(off + HDR_LEN) as usize;
            let act = f32::from_bits(self.word(off + HDR_ACT)) * 1e-20;
            self.set_word(off + HDR_ACT, act.to_bits());
            off += HDR_SIZE + len;
        }
    }

    /// Number of live clauses.
    pub(crate) fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    pub(crate) fn num_learned(&self) -> usize {
        self.num_learned
    }

    /// Arena words currently held by deleted clauses.
    #[inline]
    pub(crate) fn wasted_words(&self) -> usize {
        self.wasted_words
    }

    /// Total arena words (live and deleted).
    #[inline]
    pub(crate) fn total_words(&self) -> usize {
        self.arena.len()
    }

    /// Iterates over live learned clause references.
    pub(crate) fn learned_refs(&self) -> impl Iterator<Item = CRef> + '_ {
        self.learnts
            .iter()
            .copied()
            .filter(|&c| !self.is_deleted(c))
    }

    /// Compacts the arena: drops deleted clauses, slides live clauses
    /// (header and literals) down in place, and returns the remap table
    /// the owner must apply to every stored `CRef` (watch lists,
    /// reasons).
    pub(crate) fn collect_garbage(&mut self) -> GcRemap {
        let old_words = self.arena.len();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(self.num_clauses);
        let mut read = 0usize;
        let mut write = 0usize;
        while read < old_words {
            let words = HDR_SIZE + self.word(read + HDR_LEN) as usize;
            if self.word(read + HDR_FLAGS) & FLAG_DELETED == 0 {
                self.arena.copy_within(read..read + words, write);
                pairs.push((read as u32, write as u32));
                write += words;
            }
            read += words;
        }
        self.arena.truncate(write);
        self.wasted_words = 0;
        self.learnts.clear();
        for &(_, new) in &pairs {
            let c = CRef(new);
            if self.is_learned(c) {
                self.learnts.push(c);
            }
        }
        GcRemap {
            pairs,
            bytes_reclaimed: ((old_words - write) * std::mem::size_of::<Lit>()) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::Lit;

    fn l(d: i32) -> Lit {
        Lit::from_dimacs(d).unwrap()
    }

    #[test]
    fn add_and_read_back() {
        let mut db = ClauseDb::new();
        let a = db.add(&[l(1), l(2)], false);
        let b = db.add(&[l(-1)], false);
        assert_eq!(db.lits(a), &[l(1), l(2)]);
        assert_eq!(db.lits(b), &[l(-1)]);
        assert_eq!(db.len(a), 2);
        assert_eq!(db.num_clauses(), 2);
        assert!(!db.is_learned(a));
        let (start, len) = db.span(a);
        assert_eq!(len, 2);
        assert_eq!(db.lit_at(start), l(1));
        assert_eq!(db.lit_at(start + 1), l(2));
    }

    #[test]
    fn learned_bookkeeping() {
        let mut db = ClauseDb::new();
        let a = db.add(&[l(1), l(2)], true);
        let _b = db.add(&[l(3), l(4)], false);
        assert_eq!(db.num_learned(), 1);
        assert!(db.is_learned(a));
        let learned: Vec<CRef> = db.learned_refs().collect();
        assert_eq!(learned, vec![a]);
        db.mark_deleted(a);
        assert_eq!(db.num_learned(), 0);
        assert!(db.is_deleted(a));
        assert_eq!(db.learned_refs().count(), 0);
        assert_eq!(db.wasted_words(), 5);
    }

    #[test]
    fn activity_bump_and_rescale() {
        let mut db = ClauseDb::new();
        let a = db.add(&[l(1), l(2)], true);
        assert!(!db.bump_activity(a, 1.0));
        assert!((db.activity(a) - 1.0).abs() < 1e-6);
        assert!(db.bump_activity(a, 1e20_f32 * 2.0));
        db.rescale_activities();
        assert!(db.activity(a) < 1e6);
    }

    #[test]
    fn lbd_stored_and_updated() {
        let mut db = ClauseDb::new();
        let a = db.add(&[l(1), l(2), l(3)], true);
        assert_eq!(db.lbd(a), 0);
        db.set_lbd(a, 3);
        assert_eq!(db.lbd(a), 3);
        assert!(db.is_learned(a));
        db.set_lbd(a, 2);
        assert_eq!(db.lbd(a), 2);
        assert!(!db.is_deleted(a));
    }

    #[test]
    fn lits_are_mutable_via_swap() {
        let mut db = ClauseDb::new();
        let a = db.add(&[l(1), l(2), l(3)], false);
        let (start, _) = db.span(a);
        db.swap_lits(start, start + 2);
        assert_eq!(db.lits(a), &[l(3), l(2), l(1)]);
    }

    #[test]
    fn gc_compacts_and_remaps() {
        let mut db = ClauseDb::new();
        let a = db.add(&[l(1), l(2)], false);
        let b = db.add(&[l(3), l(4), l(5)], true);
        let c = db.add(&[l(-1), l(-2)], true);
        db.set_lbd(c, 2);
        db.mark_deleted(b);
        assert_eq!(db.wasted_words(), 6);
        let remap = db.collect_garbage();
        assert_eq!(db.num_clauses(), 2);
        assert_eq!(db.wasted_words(), 0);
        let (na, nb, nc) = (remap.remap(a), remap.remap(b), remap.remap(c));
        assert!(nb.is_undef());
        assert_eq!(db.lits(na), &[l(1), l(2)]);
        assert_eq!(db.lits(nc), &[l(-1), l(-2)]);
        assert!(db.is_learned(nc));
        assert_eq!(db.lbd(nc), 2);
        assert_eq!(db.num_learned(), 1);
        let learned: Vec<CRef> = db.learned_refs().collect();
        assert_eq!(learned, vec![nc]);
        assert!(remap.bytes_reclaimed > 0);
        assert_eq!(remap.remap(CRef::UNDEF), CRef::UNDEF);
    }

    #[test]
    fn gc_noop_when_nothing_deleted() {
        let mut db = ClauseDb::new();
        let a = db.add(&[l(1), l(2)], false);
        let remap = db.collect_garbage();
        assert_eq!(remap.remap(a), a);
        assert_eq!(db.lits(a), &[l(1), l(2)]);
    }

    #[test]
    fn cref_undef() {
        assert!(CRef::UNDEF.is_undef());
        assert!(!CRef(0).is_undef());
    }
}
