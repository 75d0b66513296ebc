//! Next-activity prediction (§6 of the paper).
//!
//! The deployed predictor is the probabilistic sliding-window detector of
//! Algorithm 4, here in a native implementation over the B-tree-indexed
//! history table ([`probabilistic`]), supporting both the daily default and
//! the weekly seasonality variant §9.2 mentions.  [`incremental`] returns
//! the same predictions bit for bit as a change-point sweep over the
//! table's sorted login cache; the simulator runs it by default and keeps
//! the scan as the reference.
//!
//! The paper argues (§1, §3.2, §10) that simple statistical/probabilistic
//! techniques are accurate enough in practice and evaluates against that
//! backdrop; [`baselines`] supplies the comparison points used in our
//! reproduction of that argument (a no-op predictor, a recent-gap
//! predictor, and an hour-of-day histogram predictor), plus a
//! fault-injecting wrapper exercising the §3.2 "default to reactive"
//! requirement.  [`oracle`] knows the future trace and powers the optimal
//! policy of Figure 2(c).  [`accuracy`] scores predictions against actual
//! sessions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod baselines;
pub mod incremental;
pub mod oracle;
pub mod probabilistic;
pub mod seasonality;

pub use accuracy::{score_prediction, AccuracyReport, PredictionOutcome};
pub use baselines::{FailEvery, HourlyHistogramPredictor, LastGapPredictor, NeverPredictor};
pub use incremental::{IncrementalPredictor, SharedScratch, SweepScratch};
pub use oracle::OraclePredictor;
pub use probabilistic::{ConfidenceBasis, ProbabilisticPredictor};
pub use seasonality::{
    detect_seasonality, recurrence_score, score_seasonalities, SeasonalityScores,
};

use prorp_storage::HistoryRead;
use prorp_types::{Prediction, ProrpError, Timestamp};

/// A next-activity predictor.
///
/// `predict` consumes the database's activity history (already trimmed by
/// Algorithm 3) and the current time, and returns the next predicted
/// activity interval within the configured horizon, or `None` when no
/// activity is expected (Algorithm 4's `start = 0` sentinel).
///
/// The history arrives through the storage seam's read trait
/// ([`HistoryRead`]), so one compiled predictor serves the engines'
/// history store and the tables time-travel replays rebuild alike.
///
/// Errors signal component failure; per §3.2 the caller must degrade to
/// the reactive policy, never crash the database.
pub trait Predictor {
    /// Predict the next activity after `now`.
    fn predict(
        &mut self,
        history: &dyn HistoryRead,
        now: Timestamp,
    ) -> Result<Option<Prediction>, ProrpError>;

    /// Short name for telemetry and experiment tables.
    fn name(&self) -> &'static str;
}
