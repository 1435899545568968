//! Buffer recycling for the scheduler's commit scratch.
//!
//! [`Pool<T>`] is a plain value pool (a mutexed free list with hit/miss
//! counters). The scheduler keeps one per buffer family (commit entry
//! vectors, wake-record vectors, runnable-index vectors, push scratch),
//! so a steady-state epoch commit draws every buffer it needs from a
//! free list instead of the allocator (DESIGN.md §10).
//!
//! Pooling is **unobservable**: a pooled buffer is always handed out
//! drained, so simulated clocks, delivery orders, and traces are
//! identical whether a buffer is fresh or recycled. The only observable
//! artifacts are the wall-clock hit/miss counters exported (never gated)
//! through [`crate::obs::SchedProfile`]. Unobservability is also what
//! lets a fleet hand one set of pools to every universe it admits:
//! capacity is the single thing that crosses a universe boundary — never
//! bytes, lengths, or ordering (DESIGN.md §11).
//!
//! Message payloads are *not* pooled: they are ordinary `Vec`
//! allocations, freed on drop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A mutexed free list of reusable values with hit/miss counters.
///
/// [`Pool::take`] pops a recycled value or falls back to `T::default()`;
/// [`Pool::put`] returns one. The caller is responsible for resetting the
/// value (e.g. `Vec::clear`) before or after `put` — the pool itself
/// never looks inside.
#[derive(Debug, Default)]
pub(crate) struct Pool<T> {
    items: Mutex<Vec<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T: Default> Pool<T> {
    /// Pop a recycled value, or construct a default one on a miss.
    pub(crate) fn take(&self) -> T {
        match self.items.lock().expect("pool poisoned").pop() {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                T::default()
            }
        }
    }

    /// Return a (reset) value to the free list.
    pub(crate) fn put(&self, item: T) {
        self.items.lock().expect("pool poisoned").push(item);
    }

    /// `(hits, misses)` since construction.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_and_counts() {
        let p: Pool<Vec<u32>> = Pool::default();
        let mut a = p.take(); // miss
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        a.clear();
        p.put(a);
        let b = p.take(); // hit
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        assert_eq!(p.counters(), (1, 1));
    }
}
