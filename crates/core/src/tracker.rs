//! Customer-activity tracking (§5).
//!
//! The paper is specific about *what* is recorded and *when*: the start
//! and end of **customer** activity (system-maintenance resumes are
//! ignored), with timestamps captured **on the critical login path** for
//! precision while the tuple insertion itself runs **off the critical
//! path on a timer**.  [`ActivityTracker`] reproduces that split: `record`
//! captures the precise timestamp into a small buffer, and `flush` moves
//! buffered events into the history store (Algorithm 2 semantics).  The
//! engines flush before every read of the history — the prediction path
//! must never observe a stale store.
//!
//! The tracker owns its history through the storage seam's
//! [`HistoryBackend`] wrapper.

use prorp_storage::{HistoryBackend, HistoryStore};
use prorp_types::{ActivityEvent, EventKind, Timestamp};

/// Buffered writer of activity events into a [`HistoryBackend`].
#[derive(Clone, Debug, Default)]
pub struct ActivityTracker {
    history: HistoryBackend,
    pending: Vec<ActivityEvent>,
    /// Events suppressed by the Algorithm 2 uniqueness guard.
    duplicates_suppressed: u64,
}

impl ActivityTracker {
    /// A tracker over an empty B+Tree-backed history.
    pub fn new() -> Self {
        ActivityTracker::default()
    }

    /// Capture a precise event timestamp (critical path: O(1), no index
    /// access).
    pub fn record(&mut self, ts: Timestamp, kind: EventKind) {
        self.pending.push(ActivityEvent { ts, kind });
    }

    /// Move buffered events into the history store (off the critical
    /// path).  Returns how many tuples were inserted; duplicates by
    /// timestamp are suppressed per Algorithm 2.
    pub fn flush(&mut self) -> usize {
        let mut inserted = 0;
        for ev in self.pending.drain(..) {
            if self.history.insert_event(ev) {
                inserted += 1;
            } else {
                self.duplicates_suppressed += 1;
            }
        }
        inserted
    }

    /// Number of events waiting to be flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Events suppressed by the uniqueness guard so far.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Read access to the (flushed) history.
    pub fn history(&self) -> &HistoryBackend {
        &self.history
    }

    /// Mutable access to the history for maintenance (Algorithm 3 runs
    /// against the flushed store).
    pub fn history_mut(&mut self) -> &mut HistoryBackend {
        &mut self.history
    }

    /// Replace the history wholesale (restore after a move, §3.3).
    /// Pending events recorded on this node are preserved and will flush
    /// into the restored store.
    pub fn replace_history(&mut self, history: HistoryBackend) {
        self.history = history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_storage::HistoryRead;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn record_is_buffered_until_flush() {
        let mut tr = ActivityTracker::new();
        tr.record(t(10), EventKind::Start);
        tr.record(t(20), EventKind::End);
        assert_eq!(tr.pending_len(), 2);
        assert!(tr.history().is_empty());
        assert_eq!(tr.flush(), 2);
        assert_eq!(tr.pending_len(), 0);
        assert_eq!(tr.history().len(), 2);
    }

    #[test]
    fn duplicate_timestamps_are_suppressed() {
        let mut tr = ActivityTracker::new();
        tr.record(t(10), EventKind::Start);
        tr.record(t(10), EventKind::End); // same second: unique key wins
        assert_eq!(tr.flush(), 1);
        assert_eq!(tr.duplicates_suppressed(), 1);
        // Across flushes too.
        tr.record(t(10), EventKind::Start);
        assert_eq!(tr.flush(), 0);
        assert_eq!(tr.duplicates_suppressed(), 2);
    }

    #[test]
    fn replace_history_keeps_pending_events() {
        let mut tr = ActivityTracker::new();
        tr.record(t(5), EventKind::Start);
        tr.flush();
        tr.record(t(30), EventKind::End); // pending across the move
        let mut restored = HistoryBackend::default();
        restored.insert_history(t(5), EventKind::Start);
        restored.insert_history(t(10), EventKind::End);
        tr.replace_history(restored);
        assert_eq!(tr.pending_len(), 1);
        tr.flush();
        assert_eq!(tr.history().len(), 3);
    }
}
