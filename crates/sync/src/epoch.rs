//! The epoch-versioned snapshot cell — the publish/subscribe primitive
//! behind `sp_core`'s `RoutingService`.
//!
//! A long-lived serving process owns one logical value (a topology
//! snapshot) that a writer replaces wholesale while many readers keep
//! querying. The safe way to do that without ever blocking a reader
//! mid-query is the fill-then-publish discipline: the writer builds the
//! **entire** next value off to the side, then swaps one `Arc` pointer;
//! readers that loaded the old pointer keep a fully-formed value alive
//! for as long as they hold it.
//!
//! [`EpochCell`] packages that discipline plus the bookkeeping serving
//! needs on top:
//!
//! * a monotonic **epoch counter** ([`EpochCell::epoch`], one atomic
//!   load) stamped on every published value, so answers computed
//!   against a snapshot can carry provenance and consistency tests can
//!   assert `answer.epoch <= service.epoch()` at all times;
//! * a consistent [`EpochCell::load`] returning the `(epoch, Arc)`
//!   pair together, so a pinned snapshot can never be attributed to the
//!   wrong epoch;
//! * publication ordering that keeps the counter invariant: the epoch
//!   number is advanced **before** the pointer swap (both inside the
//!   writer-side critical section), so no reader can observe a value
//!   stamped later than the counter it reads;
//! * serialized writers: [`EpochCell::update`] derives the next value
//!   from the current one under a writer lock that
//!   [`EpochCell::publish`] also takes, so two updates never derive
//!   from the same epoch and drop each other's change. Readers never
//!   touch that lock.
//!
//! Readers sharing one session cache the [`Pinned`] pair and re-load
//! only when [`EpochCell::epoch`] moved — the steady-state query path
//! is one relaxed-ordering-free atomic load, no lock. The swap protocol
//! itself (fill → bump → publish, and the seeded publish-before-fill
//! bug the explorer must catch) and the serialized load → derive →
//! publish of two updaters (with a seeded unserialized variant that
//! loses an update) are model-checked schedule-exhaustively in this
//! crate's `interleavings` test suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// One loaded `(epoch, value)` pair: the snapshot a reader pinned and
/// the epoch it was published at. Cloning clones the `Arc`, not the
/// value.
#[derive(Debug)]
pub struct Pinned<T> {
    /// The epoch `value` was published at.
    pub epoch: u64,
    /// The published value; fully formed before it became reachable.
    pub value: Arc<T>,
}

impl<T> Clone for Pinned<T> {
    fn clone(&self) -> Pinned<T> {
        Pinned {
            epoch: self.epoch,
            value: Arc::clone(&self.value),
        }
    }
}

/// An epoch-versioned `Arc` snapshot slot: writers publish fully-formed
/// values, readers pin `(epoch, Arc)` pairs and never observe a torn or
/// future-stamped snapshot.
///
/// ```
/// use sp_sync::EpochCell;
///
/// let cell = EpochCell::new(vec![1, 2, 3]);
/// assert_eq!(cell.epoch(), 0);
/// let pinned = cell.load(); // readers pin the current snapshot…
/// let e = cell.publish(vec![4, 5, 6]); // …while a writer swaps in the next
/// assert_eq!(e, 1);
/// assert_eq!(*pinned.value, vec![1, 2, 3]); // the pin stays fully intact
/// assert_eq!(*cell.load().value, vec![4, 5, 6]);
/// ```
#[derive(Debug)]
pub struct EpochCell<T> {
    /// Last published epoch. Advanced inside the write critical section
    /// *before* the slot swap, so `epoch()` is always >= the stamp of
    /// any loadable snapshot.
    epoch: AtomicU64,
    /// The published snapshot. The lock is held only to swap or clone
    /// the `Arc` — never while a snapshot is being built or queried.
    slot: RwLock<Arc<T>>,
    /// Serializes writers: held by `update` from its load through its
    /// swap, and by `publish` around its swap. It guards no data, so a
    /// writer that panicked while holding it leaves nothing half-done.
    writer: Mutex<()>,
}

impl<T> EpochCell<T> {
    /// A cell holding `value` at epoch 0.
    pub fn new(value: T) -> EpochCell<T> {
        EpochCell {
            epoch: AtomicU64::new(0),
            slot: RwLock::new(Arc::new(value)),
            writer: Mutex::new(()),
        }
    }

    /// The last published epoch — one atomic load, the wait-free
    /// staleness probe sessions use before deciding to re-pin.
    pub fn epoch(&self) -> u64 {
        // sp-analyze: allow(concurrency, single-word epoch counter is the primitive this module exists to own)
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the current snapshot: the `(epoch, Arc)` pair read together
    /// under the read lock, so the stamp always matches the value. The
    /// lock is held only for the `Arc` clone.
    pub fn load(&self) -> Pinned<T> {
        let slot = self.slot.read().unwrap_or_else(PoisonError::into_inner);
        // Reading the counter inside the read lock keeps the pair
        // consistent: publish holds the write lock across bump + swap.
        Pinned {
            // sp-analyze: allow(concurrency, single-word epoch counter is the primitive this module exists to own)
            epoch: self.epoch.load(Ordering::Acquire),
            value: Arc::clone(&slot),
        }
    }

    /// Publishes a fully-formed `value` as the next epoch and returns
    /// its epoch number. Concurrent publishers and updaters serialize
    /// on the writer lock; readers holding earlier pins are unaffected
    /// — their `Arc` keeps the old snapshot alive.
    ///
    /// Build the value **before** calling this (the fill-then-publish
    /// discipline): the writer lock and the slot's write lock are held
    /// only for the counter bump and the pointer swap.
    pub fn publish(&self, value: T) -> u64 {
        self.publish_arc(Arc::new(value))
    }

    /// [`EpochCell::publish`] for a value the caller already wrapped in
    /// an `Arc` (e.g. one shared with bookkeeping outside the cell).
    pub fn publish_arc(&self, value: Arc<T>) -> u64 {
        let _writer = crate::lock_recover(&self.writer);
        self.swap(value)
    }

    /// Derives the next epoch from the current one and publishes it:
    /// `f` gets the current value, and what it returns becomes the next
    /// epoch, whose number is returned. The writer lock is held from
    /// the load through the swap, so no other update or publish lands
    /// in between and no update is lost. Readers keep loading the
    /// current epoch while `f` runs.
    ///
    /// `f` must not publish to or update this cell: the writer lock is
    /// not reentrant.
    pub fn update(&self, f: impl FnOnce(&T) -> T) -> u64 {
        let _writer = crate::lock_recover(&self.writer);
        let next = f(&self.load().value);
        self.swap(Arc::new(next))
    }

    /// Bumps the epoch and swaps `value` in; the caller holds the
    /// writer lock.
    fn swap(&self, value: Arc<T>) -> u64 {
        let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
        // Bump first, then swap: a reader that observes the new value
        // (reachable only after the swap) therefore also observes a
        // counter >= its stamp. The reverse order would let an answer
        // carry an epoch the service does not admit to yet.
        // sp-analyze: allow(concurrency, single-word epoch counter is the primitive this module exists to own)
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        // sp-analyze: allow(concurrency, single-word epoch counter is the primitive this module exists to own)
        self.epoch.store(epoch, Ordering::Release);
        *slot = value;
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cell_is_epoch_zero() {
        let cell = EpochCell::new(41);
        assert_eq!(cell.epoch(), 0);
        let p = cell.load();
        assert_eq!((p.epoch, *p.value), (0, 41));
    }

    #[test]
    fn publish_bumps_the_epoch_and_swaps_the_value() {
        let cell = EpochCell::new(String::from("a"));
        assert_eq!(cell.publish(String::from("b")), 1);
        assert_eq!(cell.publish(String::from("c")), 2);
        let p = cell.load();
        assert_eq!((p.epoch, p.value.as_str()), (2, "c"));
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn pinned_snapshots_survive_later_publishes() {
        let cell = EpochCell::new(vec![0u8; 4]);
        let old = cell.load();
        cell.publish(vec![1u8; 4]);
        cell.publish(vec![2u8; 4]);
        assert_eq!((old.epoch, old.value.as_slice()), (0, &[0u8; 4][..]));
        let new = cell.load();
        assert_eq!((new.epoch, new.value.as_slice()), (2, &[2u8; 4][..]));
    }

    #[test]
    fn loaded_stamp_never_exceeds_the_counter() {
        // Racing readers against a publisher: every pinned stamp must
        // be <= the counter read *afterwards* (monotonic admission).
        let cell = Arc::new(EpochCell::new(0u64));
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for i in 1..=200u64 {
                    cell.publish(i);
                }
            })
        };
        for _ in 0..2000 {
            let p = cell.load();
            assert!(p.epoch <= cell.epoch(), "stamp ran ahead of the counter");
            assert_eq!(*p.value, p.epoch, "value torn from its stamp");
        }
        writer.join().unwrap();
        assert_eq!(cell.epoch(), 200);
    }

    #[test]
    fn update_derives_from_the_current_value() {
        let cell = EpochCell::new(vec![1]);
        let pinned = cell.load();
        assert_eq!(cell.update(|v| [v.as_slice(), &[2]].concat()), 1);
        cell.publish(vec![7]);
        assert_eq!(cell.update(|v| [v.as_slice(), &[8]].concat()), 3);
        assert_eq!(*cell.load().value, vec![7, 8]);
        assert_eq!(*pinned.value, vec![1]);
    }

    #[test]
    fn pinned_clone_shares_the_arc() {
        let cell = EpochCell::new([7u64; 8]);
        let a = cell.load();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.value, &b.value));
        assert_eq!(a.epoch, b.epoch);
    }
}
