//! Per-literal watch lists carved from one arena.
//!
//! Every list is a window of one vector: `cap` entries from `start`, of
//! which the first `len` are live. Loading and dropping an engine then
//! allocate per arena growth, not per literal, which is how Kissat
//! keeps its watches. A push onto a full list extends it in place when
//! it ends the arena, and otherwise moves it to the arena's end at
//! twice its capacity; the window it leaves is garbage until the next
//! compaction, which the solver runs when it collects its clause arena.
//! A list at least doubles whenever it moves, so the windows it left
//! behind sum to less than its current one, and garbage never exceeds
//! half the arena. Every operation keeps each list's order, so
//! propagation visits watchers in the order they were pushed whatever
//! the layout.

use crate::solver::grow;

/// One list's window of the arena.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    start: u32,
    len: u32,
    cap: u32,
}

/// Capacity of a list's first window.
const FIRST_CAP: usize = 2;

/// One watch list per literal index, all in one arena.
#[derive(Debug)]
pub(crate) struct WatchLists<T> {
    arena: Vec<T>,
    slots: Vec<Slot>,
}

impl<T> Default for WatchLists<T> {
    fn default() -> Self {
        WatchLists {
            arena: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<T: Copy> WatchLists<T> {
    /// Extends the table to `num_lits` lists; the new ones are empty.
    pub(crate) fn ensure_lits(&mut self, num_lits: usize) {
        if num_lits > self.slots.len() {
            grow(&mut self.slots, num_lits, Slot::default());
        }
    }

    /// The list of literal index `lit`, in push order.
    #[inline]
    pub(crate) fn list(&self, lit: usize) -> &[T] {
        let s = self.slots[lit];
        &self.arena[s.start as usize..(s.start + s.len) as usize]
    }

    /// Arena position of the first entry of `lit`'s list, and its
    /// length. Positions stay valid across [`WatchLists::push`] onto
    /// other lists, so a walk can keep and drop entries in place
    /// with [`WatchLists::get`], [`WatchLists::set`] and
    /// [`WatchLists::truncate`].
    #[inline]
    pub(crate) fn span(&self, lit: usize) -> (usize, usize) {
        let s = self.slots[lit];
        (s.start as usize, s.len as usize)
    }

    #[inline]
    pub(crate) fn get(&self, pos: usize) -> T {
        self.arena[pos]
    }

    #[inline]
    pub(crate) fn set(&mut self, pos: usize, w: T) {
        self.arena[pos] = w;
    }

    /// Keeps the first `len` entries of `lit`'s list.
    #[inline]
    pub(crate) fn truncate(&mut self, lit: usize, len: usize) {
        debug_assert!(len <= self.slots[lit].len as usize);
        self.slots[lit].len = len as u32;
    }

    /// Appends `w` to `lit`'s list. Every other list keeps its
    /// positions, so a walk may push onto any list but its own.
    #[inline]
    pub(crate) fn push(&mut self, lit: usize, w: T) {
        let s = self.slots[lit];
        if s.len == s.cap {
            self.enlarge(lit, w);
        } else {
            self.arena[(s.start + s.len) as usize] = w;
            self.slots[lit].len += 1;
        }
    }

    /// Pushes `w` onto the full list `lit`: doubles its window in place
    /// when it ends the arena, and otherwise copies it to a window twice
    /// its size at the end. The new window's spare entries are filled
    /// with copies of `w`.
    fn enlarge(&mut self, lit: usize, w: T) {
        let Slot { start, len, cap } = self.slots[lit];
        let (mut start, len, cap) = (start as usize, len as usize, cap as usize);
        let new_cap = (2 * cap).max(FIRST_CAP);
        if start + cap != self.arena.len() {
            let old = start;
            start = self.arena.len();
            self.arena.extend_from_within(old..old + len);
        }
        self.arena.resize(start + new_cap, w);
        // Every window lies inside the arena, so this bounds every slot
        // field; compaction only ever shrinks the arena.
        assert!(
            u32::try_from(self.arena.len()).is_ok(),
            "watch arena exceeds u32 range"
        );
        self.slots[lit] = Slot {
            start: start as u32,
            len: len as u32 + 1,
            cap: new_cap as u32,
        };
    }

    /// Rewrites the arena without garbage: every list, in literal order,
    /// keeps the entries for which `keep` returns true (it may also
    /// rewrite them) in their order, and its window shrinks to its
    /// length.
    pub(crate) fn compact(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        let live = self.slots.iter().map(|s| s.len as usize).sum();
        let mut arena = Vec::with_capacity(live);
        for s in &mut self.slots {
            let start = arena.len();
            let old = s.start as usize..(s.start + s.len) as usize;
            for mut w in self.arena[old].iter().copied() {
                if keep(&mut w) {
                    arena.push(w);
                }
            }
            let len = (arena.len() - start) as u32;
            *s = Slot {
                start: start as u32,
                len,
                cap: len,
            };
        }
        self.arena = arena;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Case count, overridable via `PROPTEST_CASES` (the CI incremental
    /// job raises it to 256).
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(64)
    }

    /// Each list equals its model in order, the windows are disjoint
    /// and inside the arena, and the garbage (arena entries outside
    /// every window) is at most half the arena: a list that has moved
    /// `k` times since the last compaction left windows summing to less
    /// than its current one.
    fn check(lists: &WatchLists<u32>, model: &[Vec<u32>]) {
        assert_eq!(lists.slots.len(), model.len());
        for (lit, want) in model.iter().enumerate() {
            assert_eq!(lists.list(lit), want.as_slice(), "list {lit}");
        }
        let mut windows: Vec<(usize, usize)> = lists
            .slots
            .iter()
            .filter(|s| s.cap > 0)
            .map(|s| (s.start as usize, (s.start + s.cap) as usize))
            .collect();
        windows.sort_unstable();
        for pair in windows.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlapping windows {pair:?}");
        }
        assert!(windows.last().is_none_or(|w| w.1 <= lists.arena.len()));
        let live: usize = windows.iter().map(|w| w.1 - w.0).sum();
        assert!(2 * (lists.arena.len() - live) <= lists.arena.len());
    }

    /// A tiny deterministic stream for the choices inside one step.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        // Random pushes, propagation-style keep/drop walks that move
        // entries onto other lists, GC-style remap-and-drop compactions
        // and table growth leave every list equal to a `Vec<Vec<_>>`
        // model, entry for entry and in order.
        #[test]
        fn lists_match_a_vec_of_vecs(
            steps in prop::collection::vec((0..16u32, 0..16usize, 1..u64::MAX), 1..300)
        ) {
            let mut lists = WatchLists::default();
            lists.ensure_lits(4);
            let mut model: Vec<Vec<u32>> = vec![Vec::new(); 4];
            let mut fresh = 0u32;
            for (kind, lit, seed) in steps {
                let n = model.len();
                let lit = lit % n;
                let mut state = seed;
                match kind {
                    // Pushes: several in a row onto one list extend it
                    // in place once it ends the arena.
                    0..=8 => {
                        for _ in 0..1 + next(&mut state) % 3 {
                            fresh += 1;
                            lists.push(lit, fresh);
                            model[lit].push(fresh);
                        }
                    }
                    // A walk over `lit`'s list as `propagate` makes it:
                    // keep, rewrite, drop, or move onto another list.
                    9..=12 => {
                        let (begin, len) = lists.span(lit);
                        let mut kept = begin;
                        let mut stays = Vec::new();
                        for i in begin..begin + len {
                            let w = lists.get(i);
                            match next(&mut state) % 4 {
                                0 => {}
                                1 => {
                                    let other = (lit + 1 + next(&mut state) as usize % (n - 1)) % n;
                                    lists.push(other, w);
                                    model[other].push(w);
                                }
                                2 => {
                                    lists.set(kept, w + 1_000_000);
                                    kept += 1;
                                    stays.push(w + 1_000_000);
                                }
                                _ => {
                                    lists.set(kept, w);
                                    kept += 1;
                                    stays.push(w);
                                }
                            }
                        }
                        lists.truncate(lit, kept - begin);
                        model[lit] = stays;
                    }
                    // A collection: remap every entry, drop some.
                    13 | 14 => {
                        let modulus = 2 + (seed % 5) as u32;
                        let keep = |w: &u32| !w.is_multiple_of(modulus);
                        lists.compact(|w| {
                            *w += 7;
                            keep(w)
                        });
                        for list in &mut model {
                            for w in list.iter_mut() {
                                *w += 7;
                            }
                            list.retain(keep);
                        }
                    }
                    // More literals, as `ensure_vars` adds.
                    _ => {
                        let grown = (n + 1 + lit % 4).min(16);
                        lists.ensure_lits(grown);
                        model.resize(grown, Vec::new());
                    }
                }
                check(&lists, &model);
            }
        }
    }
}
