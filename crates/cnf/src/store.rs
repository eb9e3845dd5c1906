//! The clause store behind both formula types.

use crate::{Clause, Lit};

/// Clauses stored back to back in one literal arena, with the end of
/// each clause in a second array.
///
/// [`CnfFormula`](crate::CnfFormula) keeps its clauses in one store and
/// [`WcnfFormula`](crate::WcnfFormula) its hard and its soft clauses in
/// one each, so a formula of any size lives in a few growing
/// allocations instead of one per clause. A clause is handed out as a
/// [`Clause`], a view of its slice of the arena. Two stores are equal
/// when they hold the same clauses in the same order.
///
/// # Examples
///
/// ```
/// use coremax_cnf::{ClauseStore, Lit};
/// let lit = |d| Lit::from_dimacs(d).unwrap();
/// let mut store = ClauseStore::new();
/// store.push([lit(1), lit(-2)]);
/// store.push([]);
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.get(0).lits(), [lit(1), lit(-2)]);
/// assert!(store.get(1).is_empty());
/// assert_eq!(store.iter().map(|c| c.len()).collect::<Vec<_>>(), [2, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClauseStore {
    /// Every clause's literals, clause after clause.
    lits: Vec<Lit>,
    /// The exclusive end of each clause in `lits`; a clause starts where
    /// the one before it ends.
    ends: Vec<usize>,
}

impl ClauseStore {
    /// An empty store. It allocates nothing until the first push.
    #[must_use]
    pub fn new() -> Self {
        ClauseStore::default()
    }

    /// Reserves room for `clauses` more clauses holding `lits` more
    /// literals in all.
    pub fn reserve(&mut self, clauses: usize, lits: usize) {
        self.ends.reserve(clauses);
        self.lits.reserve(lits);
    }

    /// Number of clauses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if the store holds no clause.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total number of literals over all clauses.
    #[must_use]
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// Appends a clause and returns its literals as stored.
    pub fn push<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> &[Lit] {
        let start = self.lits.len();
        self.lits.extend(lits);
        self.ends.push(self.lits.len());
        &self.lits[start..]
    }

    /// Replaces every literal of every clause by its image under `f`,
    /// in place (a variable renaming, say).
    pub fn map_lits(&mut self, mut f: impl FnMut(Lit) -> Lit) {
        for lit in &mut self.lits {
            *lit = f(*lit);
        }
    }

    /// Appends one literal to the clause being written: the literals
    /// after the last clause's end, which [`ClauseStore::close_clause`]
    /// turns into a clause.
    pub(crate) fn push_lit(&mut self, lit: Lit) {
        self.lits.push(lit);
    }

    /// Ends the clause being written.
    pub(crate) fn close_clause(&mut self) {
        self.ends.push(self.lits.len());
    }

    /// The clause at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> Clause<'_> {
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        Clause::new(&self.lits[start..self.ends[index]])
    }

    /// Iterates over the clauses in the order they were pushed.
    #[must_use]
    pub fn iter(&self) -> Clauses<'_> {
        Clauses {
            lits: &self.lits,
            ends: self.ends.iter(),
            start: 0,
        }
    }
}

impl<'a> IntoIterator for &'a ClauseStore {
    type Item = Clause<'a>;
    type IntoIter = Clauses<'a>;

    fn into_iter(self) -> Clauses<'a> {
        self.iter()
    }
}

/// Iterator over the clauses of a [`ClauseStore`].
#[derive(Debug, Clone)]
pub struct Clauses<'a> {
    lits: &'a [Lit],
    ends: std::slice::Iter<'a, usize>,
    /// Where the next clause starts.
    start: usize,
}

impl<'a> Iterator for Clauses<'a> {
    type Item = Clause<'a>;

    fn next(&mut self) -> Option<Clause<'a>> {
        let end = *self.ends.next()?;
        let start = std::mem::replace(&mut self.start, end);
        Some(Clause::new(&self.lits[start..end]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Clauses<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d).unwrap()
    }

    #[test]
    fn clauses_come_back_in_order_including_empty_ones() {
        let mut store = ClauseStore::new();
        assert!(store.is_empty());
        assert_eq!(store.push([lit(1), lit(-2)]), [lit(1), lit(-2)]);
        store.push([]);
        store.push([lit(3)]);
        assert_eq!((store.len(), store.num_lits()), (3, 3));
        let all: Vec<&[Lit]> = store.iter().map(Clause::lits).collect();
        assert_eq!(all, [&[lit(1), lit(-2)][..], &[], &[lit(3)]]);
        assert_eq!(store.get(2).lits(), [lit(3)]);
        assert_eq!(store.iter().len(), 3);
    }

    #[test]
    fn open_clause_closes_into_the_next_slot() {
        let mut store = ClauseStore::new();
        store.push([lit(1)]);
        store.push_lit(lit(2));
        store.push_lit(lit(-3));
        assert_eq!(store.len(), 1);
        store.close_clause();
        assert_eq!(store.get(1).lits(), [lit(2), lit(-3)]);
    }

    #[test]
    fn literals_map_in_place() {
        let mut store = ClauseStore::new();
        store.push([lit(1), lit(-2)]);
        store.push([lit(3)]);
        store.map_lits(|l| !l);
        assert_eq!(store.get(0).lits(), [lit(-1), lit(2)]);
        assert_eq!(store.get(1).lits(), [lit(-3)]);
    }

    #[test]
    fn equality_is_clause_by_clause() {
        let mut a = ClauseStore::new();
        a.push([lit(1), lit(2)]);
        let mut b = ClauseStore::new();
        b.push([lit(1)]);
        b.push([lit(2)]);
        assert_ne!(a, b, "same literals, different clauses");
        let mut c = ClauseStore::new();
        c.reserve(4, 8);
        c.push([lit(1), lit(2)]);
        assert_eq!(a, c);
    }
}
