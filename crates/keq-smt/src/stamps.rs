//! Epoch-stamped membership over a bank's [`TermId`]s.
//!
//! The solver front end walks one obligation DAG per query inside a bank
//! that only grows. A dense `u32` stamp per bank node marks the nodes of
//! the current walk: a node is in the set when its stamp equals the
//! current epoch, so starting the next walk is one increment instead of a
//! clear, and membership is an array load instead of a hash lookup.
//!
//! The set is scratch, not per-bank state: a walk needs it only while it
//! runs, and a set sized for the largest bank serves every smaller one.
//! So each thread keeps one, and every front-end walk on that thread
//! borrows it through [`walk`], whichever solver or bank the walk serves.

use std::cell::Cell;

use crate::term::TermId;

thread_local! {
    static LOCAL: Cell<Stamps> = Cell::new(Stamps::default());
}

/// Runs `f` with this thread's set, emptied and sized for ids below `len`.
pub(crate) fn walk<R>(len: usize, f: impl FnOnce(&mut Stamps) -> R) -> R {
    let mut set = LOCAL.take();
    set.begin(len);
    let out = f(&mut set);
    LOCAL.set(set);
    out
}

/// Replaces this thread's set, so tests can start it at a chosen epoch.
#[cfg(test)]
pub(crate) fn install(set: Stamps) {
    LOCAL.set(set);
}

/// A set of [`TermId`]s that empties itself at every [`begin`](Self::begin).
#[derive(Debug, Clone, Default)]
pub(crate) struct Stamps {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Stamps {
    /// A set whose next walk starts at `epoch + 1`, so tests can drive
    /// the counter across its wrap.
    #[cfg(test)]
    pub(crate) fn at_epoch(epoch: u32) -> Self {
        Stamps { stamp: Vec::new(), epoch }
    }

    /// Empties the set and sizes it for ids below `len`. On the rare wrap
    /// of the epoch counter every stamp is reset, so no stale stamp from
    /// 2^32 walks ago can read as current.
    fn begin(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Adds `id`; returns whether it was absent.
    pub(crate) fn insert(&mut self, id: TermId) -> bool {
        let s = &mut self.stamp[id.index()];
        let fresh = *s != self.epoch;
        *s = self.epoch;
        fresh
    }

    /// Whether `id` was added since the last [`begin`](Self::begin).
    pub(crate) fn contains(&self, id: TermId) -> bool {
        self.stamp[id.index()] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_resets_every_stamp() {
        let mut s = Stamps::default();
        s.begin(4);
        assert!(s.insert(TermId(2)));
        assert!(!s.insert(TermId(2)));
        // Skip the 2^32 - 2 walks in between: the next begin wraps.
        s.epoch = u32::MAX;
        s.begin(4);
        assert_eq!(s.epoch, 1, "the epoch skips zero, the never-stamped value");
        assert!(!s.contains(TermId(2)), "a stamp from before the wrap must not read as current");
        assert!(s.insert(TermId(2)));
        assert!(s.contains(TermId(2)));
    }
}
