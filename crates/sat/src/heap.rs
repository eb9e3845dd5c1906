//! Indexed binary max-heap ordered by variable activity (VSIDS order).

use coremax_cnf::Var;

/// A binary max-heap over variables keyed by externally stored
/// activities, with O(log n) increase-key via an index map.
///
/// This is the classic MiniSAT `order_heap`: the heap holds candidate
/// decision variables, `decay`/`bump` operations live in the solver, and
/// the heap is told to sift entries whose activity changed.
#[derive(Debug, Clone, Default)]
pub struct ActivityHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    index: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl ActivityHeap {
    /// Creates an empty heap.
    #[must_use]
    pub fn new() -> Self {
        ActivityHeap::default()
    }

    /// Grows the index map to cover `num_vars` variables.
    pub fn grow(&mut self, num_vars: usize) {
        if self.index.len() < num_vars {
            self.index.resize(num_vars, ABSENT);
        }
    }

    /// Returns `true` if the heap has no elements.
    #[cfg(test)]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of enqueued variables.
    #[cfg(test)]
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if `var` is currently in the heap.
    #[must_use]
    pub fn contains(&self, var: Var) -> bool {
        self.index
            .get(var.index())
            .is_some_and(|&pos| pos != ABSENT)
    }

    /// Inserts `var` if absent.
    pub fn insert(&mut self, var: Var, activity: &[f64]) {
        self.grow(var.index() + 1);
        if self.contains(var) {
            return;
        }
        self.heap.push(var);
        self.index[var.index()] = self.heap.len() - 1;
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Removes and returns the variable with maximal activity.
    pub fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.index[top.index()] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores the heap property for `var` after its activity increased.
    pub fn update(&mut self, var: Var, activity: &[f64]) {
        if let Some(&pos) = self.index.get(var.index()) {
            if pos != ABSENT {
                self.sift_up(pos, activity);
            }
        }
    }

    fn less(&self, a: Var, b: Var, activity: &[f64]) -> bool {
        // Max-heap on activity; tie-break on index for determinism.
        let (aa, ab) = (activity[a.index()], activity[b.index()]);
        if aa != ab {
            return aa > ab;
        }
        a.index() < b.index()
    }

    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.less(self.heap[pos], self.heap[parent], activity) {
                self.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        loop {
            let left = 2 * pos + 1;
            let right = left + 1;
            let mut best = pos;
            if left < self.heap.len() && self.less(self.heap[left], self.heap[best], activity) {
                best = left;
            }
            if right < self.heap.len() && self.less(self.heap[right], self.heap[best], activity) {
                best = right;
            }
            if best == pos {
                break;
            }
            self.swap(pos, best);
            pos = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.index[self.heap[a].index()] = a;
        self.index[self.heap[b].index()] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![1.0, 5.0, 3.0, 4.0];
        let mut h = ActivityHeap::new();
        for i in 0..4 {
            h.insert(v(i), &activity);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop(&activity))
            .map(|x| x.index() as u32)
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let activity = vec![1.0, 2.0];
        let mut h = ActivityHeap::new();
        h.insert(v(0), &activity);
        h.insert(v(0), &activity);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn update_after_bump_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for i in 0..3 {
            h.insert(v(i), &activity);
        }
        activity[0] = 10.0;
        h.update(v(0), &activity);
        assert_eq!(h.pop(&activity), Some(v(0)));
    }

    #[test]
    fn ties_break_by_index() {
        let activity = vec![1.0, 1.0, 1.0];
        let mut h = ActivityHeap::new();
        h.insert(v(2), &activity);
        h.insert(v(0), &activity);
        h.insert(v(1), &activity);
        assert_eq!(h.pop(&activity), Some(v(0)));
        assert_eq!(h.pop(&activity), Some(v(1)));
        assert_eq!(h.pop(&activity), Some(v(2)));
        assert!(h.pop(&activity).is_none());
        assert!(h.is_empty());
    }

    #[test]
    fn contains_tracks_membership() {
        let activity = vec![1.0];
        let mut h = ActivityHeap::new();
        assert!(!h.contains(v(0)));
        h.insert(v(0), &activity);
        assert!(h.contains(v(0)));
        h.pop(&activity);
        assert!(!h.contains(v(0)));
    }
}
