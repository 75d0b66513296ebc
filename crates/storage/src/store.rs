//! The storage-engine trait seam.
//!
//! The policy engines, the predictors and the simulator arena reach the
//! §5 history table only through two traits:
//!
//! * [`HistoryRead`] — the object-safe read surface Algorithm 4 and the
//!   incremental predictor consume (window aggregates, the sorted login
//!   cache, the mutation version).
//! * [`HistoryStore`] — the mutation surface of Algorithms 2 and 3 plus
//!   the invariant hook the engines call.
//!
//! [`HistoryBackend`] is the wrapper the engines actually store; its one
//! variant holds the B+Tree [`HistoryTable`].

use crate::history::{DeleteOutcome, HistoryTable, StorageStats};
use prorp_types::{ActivityEvent, EventKind, Seconds, Timestamp};

/// Read surface of a history store — everything Algorithm 4, the
/// incremental prediction index, and the backup path consume.
///
/// The trait is object-safe on purpose: predictors take
/// `&dyn HistoryRead`, so one compiled predictor body serves the
/// engine's [`HistoryBackend`] and a bare [`HistoryTable`] alike (the
/// time-travel replay predicts over the latter).
pub trait HistoryRead {
    /// `MIN`/`MAX` of login (`event_type = 1`) timestamps inside the
    /// closed window `[lo, hi]` (Algorithm 4 lines 19–24); `None` when
    /// no login falls inside.
    fn first_last_login_in(&self, lo: Timestamp, hi: Timestamp) -> Option<(Timestamp, Timestamp)>;

    /// Number of logins inside the closed window `[lo, hi]`.
    fn count_logins_in(&self, lo: Timestamp, hi: Timestamp) -> i64;

    /// `MIN`, `MAX` *and* `COUNT` of login timestamps inside `[lo, hi]`
    /// in one scan; `None` when no login falls inside.
    fn login_window_stats(
        &self,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Option<(Timestamp, Timestamp, i64)>;

    /// Whether any event (login *or* logout) falls inside `[lo, hi]`.
    fn any_event_in(&self, lo: Timestamp, hi: Timestamp) -> bool;

    /// Oldest stored timestamp — the database's observable lifespan start.
    fn min_timestamp(&self) -> Option<Timestamp>;

    /// Newest stored timestamp.
    fn max_timestamp(&self) -> Option<Timestamp>;

    /// Number of tuples currently visible.
    fn len(&self) -> usize;

    /// Whether the store holds no visible tuples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonically increasing mutation version: bumped on every insert
    /// that stored a tuple and every trim that deleted at least one.
    /// Engines key prediction caches on `(version, now)`.
    fn version(&self) -> u64;

    /// The sorted login (`event_type = 1`) timestamps — the incremental
    /// predictor's change-point sweep substrate.
    fn logins(&self) -> &[i64];

    /// All visible events in timestamp order.
    fn events(&self) -> Vec<ActivityEvent>;

    /// Storage-overhead statistics (Figure 10a–b).
    fn stats(&self) -> StorageStats;
}

/// Mutation surface of a history store — Algorithms 2 and 3 plus the
/// invariant audit hook.
pub trait HistoryStore: HistoryRead {
    /// Algorithm 2 — insert-if-not-exists.  Returns `true` when a tuple
    /// was stored.
    fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool;

    /// Convenience wrapper over
    /// [`insert_history`](HistoryStore::insert_history).
    fn insert_event(&mut self, ev: ActivityEvent) -> bool {
        self.insert_history(ev.ts, ev.kind)
    }

    /// Algorithm 3 — trim to the last `h` time units, keeping the oldest
    /// tuple, and report whether the database is "old".
    fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome;

    /// Does nothing.  Stores once kept a per-period slot-occupancy index
    /// for the incremental predictor; its change-point sweep needs only
    /// the login cache, so the index is gone.  The method stays for
    /// callers outside this workspace that still configure it, and will
    /// be removed together with those calls.
    fn configure_slot_index(&mut self, _period: Seconds, _slot_len: Seconds) {}

    /// Audit the store's structural invariants, panicking with a
    /// description on violation (strict-invariants builds and property
    /// tests).
    fn check_invariants(&self);
}

/// Which history storage engine a store runs on.  The §5 B+Tree is the
/// only one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum StorageBackend {
    /// The clustered slotted-page B+Tree of §5.
    #[default]
    BTree,
}

impl StorageBackend {
    /// Stable lowercase label for experiment tables and JSON output.
    pub const fn label(self) -> &'static str {
        match self {
            StorageBackend::BTree => "btree",
        }
    }
}

/// The history store each policy engine holds, `Clone` for the
/// rebalance/backup paths.  The whole surface lives on the
/// [`HistoryRead`] + [`HistoryStore`] trait impls — import the traits to
/// call it.
#[derive(Clone, Debug)]
pub enum HistoryBackend {
    /// B+Tree-backed [`HistoryTable`] (§5).
    BTree(HistoryTable),
}

impl Default for HistoryBackend {
    fn default() -> Self {
        HistoryBackend::BTree(HistoryTable::new())
    }
}

impl HistoryBackend {
    /// An empty store of the given backend kind.
    pub fn new(kind: StorageBackend) -> Self {
        match kind {
            StorageBackend::BTree => HistoryBackend::BTree(HistoryTable::new()),
        }
    }

    fn table(&self) -> &HistoryTable {
        match self {
            HistoryBackend::BTree(t) => t,
        }
    }

    fn table_mut(&mut self) -> &mut HistoryTable {
        match self {
            HistoryBackend::BTree(t) => t,
        }
    }
}

impl HistoryRead for HistoryBackend {
    fn first_last_login_in(&self, lo: Timestamp, hi: Timestamp) -> Option<(Timestamp, Timestamp)> {
        self.table().first_last_login_in(lo, hi)
    }
    fn count_logins_in(&self, lo: Timestamp, hi: Timestamp) -> i64 {
        self.table().count_logins_in(lo, hi)
    }
    fn login_window_stats(
        &self,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Option<(Timestamp, Timestamp, i64)> {
        self.table().login_window_stats(lo, hi)
    }
    fn any_event_in(&self, lo: Timestamp, hi: Timestamp) -> bool {
        self.table().any_event_in(lo, hi)
    }
    fn min_timestamp(&self) -> Option<Timestamp> {
        self.table().min_timestamp()
    }
    fn max_timestamp(&self) -> Option<Timestamp> {
        self.table().max_timestamp()
    }
    fn len(&self) -> usize {
        self.table().len()
    }
    fn version(&self) -> u64 {
        self.table().version()
    }
    fn logins(&self) -> &[i64] {
        self.table().logins()
    }
    fn events(&self) -> Vec<ActivityEvent> {
        self.table().events()
    }
    fn stats(&self) -> StorageStats {
        self.table().stats()
    }
}

impl HistoryStore for HistoryBackend {
    fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        self.table_mut().insert_history(ts, kind)
    }
    fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome {
        self.table_mut().delete_old_history(h, now)
    }
    fn check_invariants(&self) {
        self.table().check_invariants()
    }
}

impl HistoryRead for HistoryTable {
    fn first_last_login_in(&self, lo: Timestamp, hi: Timestamp) -> Option<(Timestamp, Timestamp)> {
        HistoryTable::first_last_login_in(self, lo, hi)
    }
    fn count_logins_in(&self, lo: Timestamp, hi: Timestamp) -> i64 {
        HistoryTable::count_logins_in(self, lo, hi)
    }
    fn login_window_stats(
        &self,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Option<(Timestamp, Timestamp, i64)> {
        HistoryTable::login_window_stats(self, lo, hi)
    }
    fn any_event_in(&self, lo: Timestamp, hi: Timestamp) -> bool {
        HistoryTable::any_event_in(self, lo, hi)
    }
    fn min_timestamp(&self) -> Option<Timestamp> {
        HistoryTable::min_timestamp(self)
    }
    fn max_timestamp(&self) -> Option<Timestamp> {
        HistoryTable::max_timestamp(self)
    }
    fn len(&self) -> usize {
        HistoryTable::len(self)
    }
    fn version(&self) -> u64 {
        HistoryTable::version(self)
    }
    fn logins(&self) -> &[i64] {
        HistoryTable::logins(self)
    }
    fn events(&self) -> Vec<ActivityEvent> {
        HistoryTable::events(self)
    }
    fn stats(&self) -> StorageStats {
        HistoryTable::stats(self)
    }
}

impl HistoryStore for HistoryTable {
    fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        HistoryTable::insert_history(self, ts, kind)
    }
    fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome {
        HistoryTable::delete_old_history(self, h, now)
    }
    fn check_invariants(&self) {
        HistoryTable::check_invariants(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn exercise(mut b: HistoryBackend) {
        assert!(b.is_empty());
        assert!(b.insert_history(t(100), EventKind::Start));
        assert!(!b.insert_history(t(100), EventKind::End), "IF NOT EXISTS");
        assert!(b.insert_history(t(200), EventKind::End));
        assert_eq!(b.len(), 2);
        assert_eq!(b.version(), 2);
        assert_eq!(b.logins(), &[100]);
        assert_eq!(b.first_last_login_in(t(0), t(300)), Some((t(100), t(100))));
        assert_eq!(
            b.login_window_stats(t(0), t(300)),
            Some((t(100), t(100), 1))
        );
        assert_eq!(b.count_logins_in(t(0), t(300)), 1);
        assert!(b.any_event_in(t(150), t(250)));
        assert_eq!(b.min_timestamp(), Some(t(100)));
        assert_eq!(b.max_timestamp(), Some(t(200)));
        assert_eq!(b.events().len(), 2);
        assert_eq!(b.stats().tuples, 2);
        b.check_invariants();
    }

    #[test]
    fn backend_exposes_the_history_surface() {
        exercise(HistoryBackend::new(StorageBackend::BTree));
    }

    #[test]
    fn default_backend_is_the_btree() {
        assert!(matches!(
            HistoryBackend::default(),
            HistoryBackend::BTree(_)
        ));
        assert_eq!(StorageBackend::default(), StorageBackend::BTree);
        assert_eq!(StorageBackend::BTree.label(), "btree");
    }

    #[test]
    fn trait_objects_dispatch_through_the_enum() {
        let mut b = HistoryBackend::new(StorageBackend::BTree);
        {
            let store: &mut dyn HistoryStore = &mut b;
            store.insert_event(ActivityEvent::start(t(10)));
            store.insert_event(ActivityEvent::end(t(20)));
        }
        let read: &dyn HistoryRead = &b;
        assert_eq!(read.len(), 2);
        assert!(!read.is_empty());
        assert_eq!(read.logins(), &[10]);
    }
}
