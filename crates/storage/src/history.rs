//! The per-database activity history table — `sys.pause_resume_history`.
//!
//! Schema (§5): `time_snapshot BIGINT` (unique, clustered B-tree index) and
//! `event_type INT` (1 = start of activity, 0 = end).  The two maintenance
//! procedures are transliterated here:
//!
//! * [`HistoryTable::insert_history`] — Algorithm 2: insert-if-not-exists;
//! * [`HistoryTable::delete_old_history`] — Algorithm 3: trim to the last
//!   `h` time units while *keeping the oldest tuple* so the database's
//!   lifespan remains computable, and report whether the database is "old"
//!   (existed for at least `h`).
//!
//! The prediction procedure's range aggregation (Algorithm 4 lines 19–24:
//! `MIN`/`MAX` of login timestamps within a window) is served by
//! [`HistoryTable::first_last_login_in`] and its one-pass combined form
//! [`HistoryTable::login_window_stats`].
//!
//! # Prediction-index support
//!
//! Alongside the clustered B-tree the table keeps, at every mutation
//! site (`InsertHistory`, `DeleteOldHistory`, restore), a sorted cache of
//! login timestamps ([`HistoryTable::logins`]) in lockstep with the
//! index — `O(1)` amortised for the in-order appends the tracker
//! produces, and drained by range on trims.  The incremental predictor's
//! change-point sweep reads nothing else: it finds each period row's
//! first login with one binary search over this cache.
//!
//! A monotonically increasing mutation [`version`](HistoryTable::version)
//! is bumped on every content change so engines can key prediction
//! caches on `(version, now)`.

use crate::btree::BTree;
use crate::page::{self, Record};
use prorp_types::{ActivityEvent, EventKind, Seconds, Timestamp};
use std::ops::Bound;

/// Result of one [`HistoryTable::delete_old_history`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeleteOutcome {
    /// Whether the database existed before the start of recent history —
    /// the `@old` output parameter of Algorithm 3 that gates reliable
    /// prediction in Algorithm 1 (lines 10, 19, 26).
    pub old: bool,
    /// Number of tuples permanently deleted.
    pub deleted: usize,
}

/// Storage-overhead figures for one history table (Figure 10a–b).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StorageStats {
    /// Number of tuples currently stored.
    pub tuples: usize,
    /// Logical size: tuples × 16 bytes (two 64-bit integers, §9.3).
    pub logical_bytes: usize,
    /// Physical size when serialised to 8-KiB slotted pages.
    pub page_bytes: usize,
    /// Number of pages the table serialises to.
    pub pages: usize,
    /// Depth of the clustered index.
    pub index_depth: usize,
}

/// The `sys.pause_resume_history` table of one database.
#[derive(Clone, Debug, Default)]
pub struct HistoryTable {
    index: BTree<i64>,
    /// Sorted cache of login (`event_type = 1`) timestamps, maintained in
    /// lockstep with the clustered index.
    logins: Vec<i64>,
    /// Monotonically increasing mutation version: bumped whenever the
    /// stored tuple set actually changes.
    version: u64,
}

impl HistoryTable {
    /// An empty history.
    pub fn new() -> Self {
        HistoryTable::default()
    }

    /// Algorithm 2 — `sys.InsertHistory(@time, @type)`.
    ///
    /// Inserts the event unless a tuple with the same `time_snapshot`
    /// already exists (the `IF NOT EXISTS` guard).  Returns `true` when a
    /// tuple was inserted.  `O(log n)` via the clustered index; the login
    /// cache is updated `O(1)` amortised for the in-order appends the
    /// activity tracker produces.
    pub fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        if self.index.contains_key(ts.as_secs()) {
            return false;
        }
        self.index
            .insert(ts.as_secs(), i64::from(kind.as_i32()))
            .expect("contains_key checked; insert cannot collide");
        if kind == EventKind::Start {
            let t = ts.as_secs();
            match self.logins.last() {
                Some(&newest) if newest > t => {
                    let pos = self.logins.partition_point(|&x| x < t);
                    self.logins.insert(pos, t);
                }
                _ => self.logins.push(t),
            }
        }
        self.version += 1;
        true
    }

    /// Convenience wrapper over [`insert_history`](Self::insert_history)
    /// for an [`ActivityEvent`].
    pub fn insert_event(&mut self, ev: ActivityEvent) -> bool {
        self.insert_history(ev.ts, ev.kind)
    }

    /// Algorithm 3 — `sys.DeleteOldHistory(@h, @now, @old OUTPUT)`.
    ///
    /// Computes `historyStart = now − h`.  If the oldest tuple predates it,
    /// the database is old and every tuple strictly between the oldest
    /// tuple and `historyStart` is deleted (the oldest tuple itself is kept
    /// to preserve the lifespan).  Otherwise the database is new and
    /// nothing is deleted.
    pub fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome {
        let history_start = (now - h).as_secs();
        let Some((min_ts, _)) = self.index.min_entry() else {
            return DeleteOutcome {
                old: false,
                deleted: 0,
            };
        };
        if min_ts < history_start {
            let deleted = self.index.delete_exclusive_range(min_ts, history_start);
            if deleted > 0 {
                // Mirror the trim on the login cache: the deleted keys are
                // exactly those strictly inside `(min_ts, history_start)`.
                let lo = self.logins.partition_point(|&t| t <= min_ts);
                let hi = self.logins.partition_point(|&t| t < history_start);
                self.logins.drain(lo..hi);
                self.version += 1;
            }
            DeleteOutcome { old: true, deleted }
        } else {
            DeleteOutcome {
                old: false,
                deleted: 0,
            }
        }
    }

    /// `SELECT MIN(time_snapshot), MAX(time_snapshot) WHERE event_type = 1
    /// AND lo <= time_snapshot AND time_snapshot <= hi`
    /// (Algorithm 4 lines 19–24).
    ///
    /// Returns `None` when no login falls inside the closed window.
    pub fn first_last_login_in(
        &self,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Option<(Timestamp, Timestamp)> {
        let mut first = None;
        let mut last = None;
        for (k, v) in self
            .index
            .range(Bound::Included(lo.as_secs()), Bound::Included(hi.as_secs()))
        {
            if *v == 1 {
                if first.is_none() {
                    first = Some(Timestamp(k));
                }
                last = Some(Timestamp(k));
            }
        }
        first.zip(last)
    }

    /// Number of logins (`event_type = 1`) inside the closed window
    /// `[lo, hi]` — used by the login-count confidence ablation.
    pub fn count_logins_in(&self, lo: Timestamp, hi: Timestamp) -> i64 {
        self.index
            .range(Bound::Included(lo.as_secs()), Bound::Included(hi.as_secs()))
            .filter(|(_, v)| **v == 1)
            .count() as i64
    }

    /// `MIN`, `MAX` *and* `COUNT` of login timestamps inside the closed
    /// window `[lo, hi]`, in one index range scan — the combined form of
    /// [`first_last_login_in`](Self::first_last_login_in) +
    /// [`count_logins_in`](Self::count_logins_in) that lets Algorithm 4's
    /// Logins-basis ablation stop double-scanning every window.
    ///
    /// Returns `None` when no login falls inside the window.
    pub fn login_window_stats(
        &self,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Option<(Timestamp, Timestamp, i64)> {
        let mut first = None;
        let mut last = None;
        let mut count = 0i64;
        for (k, v) in self
            .index
            .range(Bound::Included(lo.as_secs()), Bound::Included(hi.as_secs()))
        {
            if *v == 1 {
                if first.is_none() {
                    first = Some(Timestamp(k));
                }
                last = Some(Timestamp(k));
                count += 1;
            }
        }
        Some((first?, last?, count))
    }

    /// Whether any event (login *or* logout) falls inside `[lo, hi]`.
    pub fn any_event_in(&self, lo: Timestamp, hi: Timestamp) -> bool {
        self.index
            .range(Bound::Included(lo.as_secs()), Bound::Included(hi.as_secs()))
            .next()
            .is_some()
    }

    /// Oldest tuple's timestamp — the database's observable lifespan start.
    pub fn min_timestamp(&self) -> Option<Timestamp> {
        self.index.min_entry().map(|(k, _)| Timestamp(k))
    }

    /// Newest tuple's timestamp.
    pub fn max_timestamp(&self) -> Option<Timestamp> {
        self.index.max_entry().map(|(k, _)| Timestamp(k))
    }

    /// Number of tuples stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the history holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The table's mutation version: bumped on every insert that stored a
    /// tuple and every trim that deleted at least one.  A prediction whose
    /// inputs are `(version, now)` can be cached until either changes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The sorted login (`event_type = 1`) timestamps, maintained in
    /// lockstep with the clustered index — the incremental predictor's
    /// change-point sweep substrate.
    pub fn logins(&self) -> &[i64] {
        &self.logins
    }

    /// All events in timestamp order — the materialised read-only view §5
    /// plans to publish to customers.
    pub fn events(&self) -> Vec<ActivityEvent> {
        self.index
            .iter()
            .map(|(k, v)| ActivityEvent {
                ts: Timestamp(k),
                kind: if *v == 1 {
                    EventKind::Start
                } else {
                    EventKind::End
                },
            })
            .collect()
    }

    /// Events as page records (the backup stream now serialises through
    /// [`events`](HistoryTable::events); this remains for round-trip
    /// tests of the bulk-load path).
    #[cfg(test)]
    pub(crate) fn records(&self) -> Vec<Record> {
        self.index
            .iter()
            .map(|(k, v)| Record { key: k, value: *v })
            .collect()
    }

    /// Rebuild from page records (backup restore path).  Backup streams
    /// are written in key order, so the clustered index is bulk-loaded in
    /// one `O(n)` bottom-up pass.
    pub(crate) fn from_records(records: &[Record]) -> Result<Self, prorp_types::ProrpError> {
        let pairs: Vec<(i64, i64)> = records.iter().map(|r| (r.key, r.value)).collect();
        // Key order is a bulk-load precondition, so the filtered login
        // cache comes out sorted for free.
        let logins = records
            .iter()
            .filter(|r| r.value == 1)
            .map(|r| r.key)
            .collect();
        Ok(HistoryTable {
            index: BTree::bulk_load(pairs)?,
            logins,
            version: 0,
        })
    }

    /// Verify the table's structural invariants: the clustered index's
    /// B-tree properties (key ordering, node occupancy, depth balance) and
    /// the login cache being exactly the index's `event_type = 1` keys in
    /// order.  Used by the strict-invariants checker and property tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        self.index.check_invariants();
        let expected: Vec<i64> = self
            .index
            .iter()
            .filter(|(_, v)| **v == 1)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            self.logins, expected,
            "login cache diverged from the clustered index"
        );
    }

    /// Storage-overhead statistics (Figure 10a–b).
    pub fn stats(&self) -> StorageStats {
        let tuples = self.len();
        let pages = page::pages_for(tuples);
        StorageStats {
            tuples,
            logical_bytes: tuples * page::RECORD_SIZE,
            page_bytes: pages * page::PAGE_SIZE,
            pages,
            index_depth: self.index.depth(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn insert_is_idempotent_per_timestamp() {
        let mut h = HistoryTable::new();
        assert!(h.insert_history(t(100), EventKind::Start));
        assert!(!h.insert_history(t(100), EventKind::End));
        assert_eq!(h.len(), 1);
        // The original event type wins (IF NOT EXISTS semantics).
        assert_eq!(h.events()[0].kind, EventKind::Start);
    }

    #[test]
    fn delete_old_history_keeps_oldest_tuple() {
        let mut h = HistoryTable::new();
        // Events at days 0, 1, 2, ..., 40 (start events).
        for d in 0..=40 {
            h.insert_history(t(d * 86_400), EventKind::Start);
        }
        let now = t(40 * 86_400);
        let outcome = h.delete_old_history(Seconds::days(28), now);
        assert!(outcome.old);
        // historyStart = day 12. Tuples strictly between day 0 and day 12
        // are deleted: days 1..=11 → 11 tuples.
        assert_eq!(outcome.deleted, 11);
        assert_eq!(h.min_timestamp(), Some(t(0)), "oldest tuple preserved");
        assert!(h.any_event_in(t(12 * 86_400), now));
        assert!(!h.any_event_in(t(1), t(12 * 86_400 - 1)));
    }

    #[test]
    fn young_database_is_not_old() {
        let mut h = HistoryTable::new();
        h.insert_history(t(1_000), EventKind::Start);
        let outcome = h.delete_old_history(Seconds::days(28), t(2_000));
        assert!(!outcome.old);
        assert_eq!(outcome.deleted, 0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn delete_on_empty_history_is_noop() {
        let mut h = HistoryTable::new();
        let outcome = h.delete_old_history(Seconds::days(28), t(1_000_000));
        assert_eq!(
            outcome,
            DeleteOutcome {
                old: false,
                deleted: 0
            }
        );
    }

    #[test]
    fn boundary_tuple_at_history_start_survives() {
        let mut h = HistoryTable::new();
        let now = t(100_000);
        let hist = Seconds(10_000);
        let start = (now - hist).as_secs(); // 90_000
        h.insert_history(t(50_000), EventKind::Start); // oldest, kept
        h.insert_history(t(start), EventKind::Start); // exactly at boundary
        h.insert_history(t(95_000), EventKind::End);
        let outcome = h.delete_old_history(hist, now);
        assert!(outcome.old);
        assert_eq!(outcome.deleted, 0, "boundary tuple is not strictly inside");
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn first_last_login_filters_event_type() {
        let mut h = HistoryTable::new();
        h.insert_history(t(10), EventKind::End); // not a login
        h.insert_history(t(20), EventKind::Start);
        h.insert_history(t(30), EventKind::End);
        h.insert_history(t(40), EventKind::Start);
        h.insert_history(t(50), EventKind::End);
        assert_eq!(h.first_last_login_in(t(0), t(100)), Some((t(20), t(40))));
        assert_eq!(h.first_last_login_in(t(25), t(100)), Some((t(40), t(40))));
        assert_eq!(h.first_last_login_in(t(41), t(100)), None);
        // Closed bounds include both ends.
        assert_eq!(h.first_last_login_in(t(20), t(20)), Some((t(20), t(20))));
    }

    #[test]
    fn events_view_is_ordered_and_typed() {
        let mut h = HistoryTable::new();
        h.insert_history(t(30), EventKind::End);
        h.insert_history(t(10), EventKind::Start);
        let evs = h.events();
        assert_eq!(
            evs,
            vec![ActivityEvent::start(t(10)), ActivityEvent::end(t(30))]
        );
    }

    #[test]
    fn login_window_stats_combines_min_max_count() {
        let mut h = HistoryTable::new();
        h.insert_history(t(10), EventKind::End);
        h.insert_history(t(20), EventKind::Start);
        h.insert_history(t(30), EventKind::End);
        h.insert_history(t(40), EventKind::Start);
        h.insert_history(t(50), EventKind::Start);
        for (lo, hi) in [(0, 100), (25, 100), (41, 100), (20, 20), (0, 5)] {
            let combined = h.login_window_stats(t(lo), t(hi));
            let split = h
                .first_last_login_in(t(lo), t(hi))
                .map(|(f, l)| (f, l, h.count_logins_in(t(lo), t(hi))));
            assert_eq!(combined, split, "window [{lo}, {hi}]");
        }
        assert_eq!(h.login_window_stats(t(0), t(100)), Some((t(20), t(50), 3)));
    }

    #[test]
    fn version_bumps_only_on_content_change() {
        let mut h = HistoryTable::new();
        assert_eq!(h.version(), 0);
        h.insert_history(t(100), EventKind::Start);
        assert_eq!(h.version(), 1);
        h.insert_history(t(100), EventKind::End); // duplicate: no change
        assert_eq!(h.version(), 1);
        h.insert_history(t(200_000), EventKind::End);
        assert_eq!(h.version(), 2);
        // Trim that deletes nothing (boundary tuple kept) must not bump.
        h.delete_old_history(Seconds(150_000), t(250_000));
        assert_eq!(h.version(), 2);
        h.insert_history(t(150), EventKind::Start);
        assert_eq!(h.version(), 3);
        let outcome = h.delete_old_history(Seconds(10_000), t(200_000));
        assert_eq!(outcome.deleted, 1);
        assert_eq!(h.version(), 4);
    }

    #[test]
    fn login_cache_tracks_out_of_order_inserts_and_trims() {
        let mut h = HistoryTable::new();
        for &ts in &[500, 100, 300, 200, 400] {
            h.insert_history(t(ts), EventKind::Start);
            h.insert_history(t(ts + 50), EventKind::End);
        }
        assert_eq!(h.logins(), &[100, 200, 300, 400, 500]);
        h.check_invariants();
        // Trim to the last 150 s: keeps the oldest tuple (100) and
        // everything >= 350.
        let outcome = h.delete_old_history(Seconds(150), t(500));
        assert!(outcome.old);
        assert_eq!(h.logins(), &[100, 400, 500]);
        h.check_invariants();
    }

    #[test]
    fn restored_table_rebuilds_login_cache_without_slot_index() {
        let mut h = HistoryTable::new();
        for d in 0..4 {
            h.insert_history(t(d * 86_400 + 100), EventKind::Start);
            h.insert_history(t(d * 86_400 + 200), EventKind::End);
        }
        let restored = HistoryTable::from_records(&h.records()).unwrap();
        assert_eq!(restored.logins(), h.logins());
        assert_eq!(restored.version(), 0);
        restored.check_invariants();
    }

    #[test]
    fn stats_match_paper_arithmetic() {
        let mut h = HistoryTable::new();
        for i in 0..500 {
            h.insert_history(t(i * 60), EventKind::Start);
        }
        let s = h.stats();
        assert_eq!(s.tuples, 500);
        // 500 tuples × 16 B = 8 000 B ≈ the "within 7 KB on average" of
        // Figure 10b for ~450-tuple histories.
        assert_eq!(s.logical_bytes, 8_000);
        assert_eq!(s.pages, 2);
        assert_eq!(s.page_bytes, 2 * page::PAGE_SIZE);
        assert!(s.index_depth >= 1);
    }
}
