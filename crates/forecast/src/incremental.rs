//! Algorithm 4 as a change-point sweep over the sorted login cache —
//! bit-identical to [`ProbabilisticPredictor`], without the B-tree scans.
//!
//! [`ProbabilisticPredictor`]: crate::ProbabilisticPredictor
//!
//! The naive reference performs `window_positions × periods_in_history`
//! B-tree range scans per prediction (~5,700 at the Table 1 defaults).
//! This implementation reads the history table's sorted login cache
//! ([`HistoryRead::logins`]) instead, in three steps:
//!
//! 1. **Occupied rows only.**  Across the whole horizon, period row `d`
//!    compares windows inside `[now − d·P, now + p − d·P]`; one
//!    `partition_point` finds the row's first login at or after the
//!    start, and rows with no login before the end are dropped.  A young
//!    or sparse database keeps a handful of the `h/P` rows, often none.
//! 2. **Monotone cursors.**  Each kept row holds two cursors — the first
//!    login `>= lo` and the first login `> hi` — that only move forward
//!    as the window slides.  `logins[f]` / `logins[e − 1]` / `e − f` are
//!    exactly the `MIN` / `MAX` / `COUNT` the reference's range scan
//!    returns.
//! 3. **Change-point jumps.**  While no window has qualified yet, the
//!    window count (and login count) of a position depends only on
//!    *which* logins each row holds, and can only grow where a login
//!    enters some row's window (`login + d·P − w`).  Between two such
//!    points logins only leave, so every row's set at a skipped
//!    position is a subset of its set at the current one, and a position
//!    that did not qualify has no skipped successor that does.  The
//!    sweep therefore jumps straight to the first slide position at or
//!    after the nearest entry, and stops when no login is left to enter.
//!    Once a window qualifies, the hill-climb steps one slide at a time
//!    and stops at the first non-improving position, exactly like the
//!    reference.
//!
//! Cost: `O(periods · log n)` for the row slices plus
//! `O(visited change points × occupied rows)` for the sweep, with cursor
//! moves amortised over the logins of each row's slice.  While nothing
//! qualifies, the visited change points are at most the logins of the
//! occupied rows.
//!
//! The equivalence is enforced by the `prediction_index` differential
//! suite in `crates/testkit` (proptest fleets, both seasonalities, both
//! confidence bases) and by unit tests below.
//!
//! Row cursors live behind a cheap shared handle
//! ([`SweepScratch::shared`]) so a shard runner hosting thousands of
//! engines reuses one buffer instead of reallocating per database.

use crate::probabilistic::ConfidenceBasis;
use crate::Predictor;
use prorp_storage::HistoryRead;
use prorp_types::{PolicyConfig, Prediction, ProrpError, Timestamp};
use std::cell::RefCell;
use std::rc::Rc;

/// Reusable row cursors for the sweep; one instance can serve any number
/// of predictors on the same thread (see [`SweepScratch::shared`]).
#[derive(Debug, Default)]
pub struct SweepScratch {
    rows: Vec<Row>,
}

/// Cursors of one occupied period row.
#[derive(Clone, Copy, Debug)]
struct Row {
    /// `d·P`: the row's window is `[win_start − shift, … + w]`.
    shift: i64,
    /// First login `>=` the row's current window start.
    f: usize,
    /// First login `>` the row's current window end.
    e: usize,
}

impl SweepScratch {
    /// A fresh scratch behind the shared handle the sim's shard runner
    /// hands to every engine it builds.
    pub fn shared() -> SharedScratch {
        Rc::new(RefCell::new(SweepScratch::default()))
    }
}

/// Shared handle to a [`SweepScratch`]; `Rc` because engines of one
/// shard live and run on that shard's worker thread.
pub type SharedScratch = Rc<RefCell<SweepScratch>>;

/// Algorithm 4 as an exact change-point sweep.
///
/// Produces exactly the same `Option<Prediction>` (start, end *and*
/// confidence) as [`ProbabilisticPredictor`] for every history and every
/// `now` — the naive implementation stays in the tree as the reference
/// the differential oracles compare against.  It works on any
/// [`HistoryRead`] store and needs nothing beyond the sorted login
/// cache every store keeps.
///
/// [`ProbabilisticPredictor`]: crate::ProbabilisticPredictor
#[derive(Clone, Debug)]
pub struct IncrementalPredictor {
    config: PolicyConfig,
    basis: ConfidenceBasis,
    scratch: SharedScratch,
}

impl IncrementalPredictor {
    /// Build a predictor from validated knobs with a private scratch.
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyConfig::validate`] failures.
    pub fn new(config: PolicyConfig) -> Result<Self, ProrpError> {
        Self::with_basis(config, ConfidenceBasis::Windows)
    }

    /// Build with an explicit confidence basis (ablation support).
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyConfig::validate`] failures.
    pub fn with_basis(config: PolicyConfig, basis: ConfidenceBasis) -> Result<Self, ProrpError> {
        Self::with_scratch(config, basis, SweepScratch::shared())
    }

    /// Build sharing cursor scratch with other predictors of the same
    /// thread (the sim's per-shard reuse path).
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyConfig::validate`] failures.
    pub fn with_scratch(
        config: PolicyConfig,
        basis: ConfidenceBasis,
        scratch: SharedScratch,
    ) -> Result<Self, ProrpError> {
        config.validate()?;
        Ok(IncrementalPredictor {
            config,
            basis,
            scratch,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// Core of Algorithm 4 as a change-point sweep; same contract as
    /// [`ProbabilisticPredictor::predict_at`](crate::ProbabilisticPredictor::predict_at).
    pub fn predict_at(&self, history: &dyn HistoryRead, now: Timestamp) -> Option<Prediction> {
        let w = self.config.window.as_secs();
        let s = self.config.slide.as_secs();
        let horizon = self.config.horizon.as_secs();
        let period = self.config.seasonality.period().as_secs();
        let periods = self.config.periods_in_history();
        debug_assert!(periods >= 1, "validated config covers >= 1 period");
        // Degenerate horizon (`w > p`, including the `p = 0` disable
        // sentinel): no window position fits.
        if w > horizon {
            return None;
        }

        let logins = history.logins();
        let now = now.as_secs();
        let mut scratch = self.scratch.borrow_mut();
        let rows = &mut scratch.rows;
        rows.clear();
        // Earliest instant a login enters some row's window: every
        // position before it is empty in every row.
        let mut first_entry = i64::MAX;
        // Step 1: keep the period rows holding a login somewhere in the
        // horizon; the others contribute nothing at any position.
        for prev in 1..=periods {
            let shift = period * prev;
            let f = logins.partition_point(|&t| t < now - shift);
            if f < logins.len() && logins[f] <= now + horizon - shift {
                first_entry = first_entry.min(logins[f] + shift - w);
                rows.push(Row { shift, f, e: f });
            }
        }
        if rows.is_empty() {
            return None;
        }

        let last_start = now + horizon - w;
        let mut win_start = position_at_or_after(now, first_entry, s);
        let mut best: Option<Prediction> = None;

        // Outer loop (Algorithm 4 lines 9–47): slide across the horizon.
        while win_start <= last_start {
            let mut windows_with_activity: i64 = 0;
            let mut login_count: i64 = 0;
            let mut earliest_offset = w; // line 11: init to @w
            let mut last_offset = 0; // line 12

            // Nearest instant after `win_start` at which a login enters
            // some row's window (past `last_start` for logins beyond the
            // row's part of the horizon).
            let mut next_entry = i64::MAX;

            // Inner loop (lines 15–35) over the occupied rows only.
            for row in rows.iter_mut() {
                let lo = win_start - row.shift;
                let hi = lo + w;
                while row.f < logins.len() && logins[row.f] < lo {
                    row.f += 1;
                }
                while row.e < logins.len() && logins[row.e] <= hi {
                    row.e += 1;
                }
                if row.f < row.e {
                    earliest_offset = earliest_offset.min(logins[row.f] - lo);
                    last_offset = last_offset.max(logins[row.e - 1] - lo);
                    windows_with_activity += 1;
                    login_count += (row.e - row.f) as i64;
                }
                if row.e < logins.len() {
                    next_entry = next_entry.min(logins[row.e] + row.shift - w);
                }
            }

            let prob = match self.basis {
                ConfidenceBasis::Windows => windows_with_activity as f64 / periods as f64,
                ConfidenceBasis::Logins => (login_count as f64 / periods as f64).min(1.0),
            };
            let improves = match &best {
                None => windows_with_activity > 0 && prob >= self.config.confidence,
                Some(b) => prob > b.confidence,
            };
            if improves {
                best = Some(Prediction {
                    start: Timestamp(win_start + earliest_offset),
                    end: Timestamp(win_start + last_offset),
                    confidence: prob,
                });
            } else if best.is_some() {
                break; // first non-improving window after a hit
            } else if next_entry == i64::MAX {
                break; // no login enters again: nothing can qualify
            } else {
                // Step 3: positions before `next_entry` only lose logins,
                // so none of them can qualify either.
                win_start = position_at_or_after(win_start, next_entry, s);
                continue;
            }
            win_start += s;
        }
        best
    }
}

/// The first slide position `from + k·s` (`k >= 0`) at or after `at`.
fn position_at_or_after(from: i64, at: i64, s: i64) -> i64 {
    from + (at - from + s - 1).max(0) / s * s
}

impl Predictor for IncrementalPredictor {
    fn predict(
        &mut self,
        history: &dyn HistoryRead,
        now: Timestamp,
    ) -> Result<Option<Prediction>, ProrpError> {
        Ok(self.predict_at(history, now))
    }

    fn name(&self) -> &'static str {
        "probabilistic-incremental"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbabilisticPredictor;
    use prorp_storage::HistoryTable;
    use prorp_types::{EventKind, Seasonality, Seconds};

    const DAY: i64 = 86_400;
    const HOUR: i64 = 3_600;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn config(c: f64, w_hours: i64) -> PolicyConfig {
        PolicyConfig::builder()
            .confidence(c)
            .window(Seconds::hours(w_hours))
            .history_len(Seconds::days(5))
            .build()
            .unwrap()
    }

    /// A deterministic pseudo-random history: `n` events hashed into
    /// `[0, days)` days at second granularity.
    fn scrambled_history(n: u64, days: i64, seed: u64) -> HistoryTable {
        let mut h = HistoryTable::new();
        let mut x = seed | 1;
        for _ in 0..n {
            // SplitMix64 step.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let ts = (z % (days as u64 * DAY as u64)) as i64;
            let kind = if z & (1 << 40) == 0 {
                EventKind::Start
            } else {
                EventKind::End
            };
            h.insert_history(t(ts), kind);
        }
        h
    }

    fn assert_identical(cfg: PolicyConfig, basis: ConfidenceBasis, h: &HistoryTable, now: i64) {
        let naive = ProbabilisticPredictor::with_basis(cfg, basis).unwrap();
        let incr = IncrementalPredictor::with_basis(cfg, basis).unwrap();
        assert_eq!(
            naive.predict_at(h, t(now)),
            incr.predict_at(h, t(now)),
            "divergence at now={now} basis={basis:?}"
        );
    }

    /// Logins pinned to the edges of the windows Algorithm 4 compares:
    /// for slide index `k` and period row `d`, one login at
    /// `win_start − d·P + edge` where `win_start = now + k·s`.
    fn pinned_history(cfg: &PolicyConfig, now: i64, pins: &[(i64, i64, i64)]) -> HistoryTable {
        let s = cfg.slide.as_secs();
        let period = cfg.seasonality.period().as_secs();
        let mut h = HistoryTable::new();
        for &(k, d, edge) in pins {
            h.insert_history(t(now + k * s - d * period + edge), EventKind::Start);
        }
        h
    }

    /// Boundary-pinned inputs for the change-point jump, with every
    /// window edge `−1`, `0`, `w`, `w + 1` at the first, second, middle
    /// and last slide positions:
    /// * a lone login in the oldest row, which the sweep must find;
    /// * one row's login entering exactly where another row's leaves,
    ///   so a jump that lands one position late sees one row, not two;
    /// * every edge of every such position in the first, second and
    ///   oldest rows at once.
    fn pinned_cases(cfg: &PolicyConfig, now: i64) -> Vec<HistoryTable> {
        let w = cfg.window.as_secs();
        let n = cfg.window_positions();
        let periods = cfg.periods_in_history();
        let edges = [-1, 0, w, w + 1];
        let mut all = Vec::new();
        let mut cases = Vec::new();
        for k in [0, 1, n / 2, n - 1] {
            for edge in edges {
                cases.push(pinned_history(cfg, now, &[(k, periods, edge)]));
                for other in edges {
                    cases.push(pinned_history(cfg, now, &[(k, 1, edge), (k, 2, other)]));
                }
                for d in [1, 2, periods] {
                    all.push((k, d, edge));
                }
            }
        }
        cases.push(pinned_history(cfg, now, &all));
        cases
    }

    #[test]
    fn matches_naive_on_scrambled_histories() {
        for seed in 0..8u64 {
            let h = scrambled_history(400, 6, seed);
            for now in [0, 3 * DAY + 7, 5 * DAY, 5 * DAY + 12_345, 6 * DAY] {
                for basis in [ConfidenceBasis::Windows, ConfidenceBasis::Logins] {
                    assert_identical(config(0.3, 2), basis, &h, now);
                    assert_identical(config(0.05, 1), basis, &h, now);
                }
            }
        }

        // Boundary-pinned histories under knobs that stress the jump.
        let weekly = PolicyConfig::builder()
            .seasonality(Seasonality::Weekly)
            .window(Seconds::hours(3))
            .history_len(Seconds::days(28))
            .build()
            .unwrap();
        let knobs = [
            config(0.3, 2),
            // A slide that does not divide the window.
            PolicyConfig {
                slide: Seconds::minutes(7),
                ..config(0.3, 2)
            },
            // A horizon longer than the period: one login lands in two
            // period rows.
            PolicyConfig {
                horizon: Seconds::hours(48),
                ..config(0.3, 2)
            },
            // Weekly seasonality with a horizon shorter than the period.
            weekly,
        ];
        for cfg in knobs {
            let now = 40 * DAY + 17;
            for h in pinned_cases(&cfg, now) {
                // Algorithm 3 keeps the oldest tuple even when it is older
                // than `h`; pin one a period past the oldest row.
                let mut trimmed = h.clone();
                let oldest =
                    now - (cfg.periods_in_history() + 1) * cfg.seasonality.period().as_secs();
                trimmed.insert_history(t(oldest), EventKind::Start);
                trimmed.delete_old_history(cfg.history_len, t(now));
                assert_eq!(trimmed.min_timestamp(), Some(t(oldest)));
                for c in [0.01, 0.3, 0.6] {
                    let cfg = PolicyConfig {
                        confidence: c,
                        ..cfg
                    };
                    for basis in [ConfidenceBasis::Windows, ConfidenceBasis::Logins] {
                        assert_identical(cfg, basis, &h, now);
                        assert_identical(cfg, basis, &trimmed, now);
                    }
                }
            }
        }
    }

    #[test]
    fn matches_naive_under_weekly_seasonality() {
        let weekly = PolicyConfig::builder()
            .seasonality(Seasonality::Weekly)
            .confidence(0.4)
            .window(Seconds::hours(3))
            .history_len(Seconds::days(28))
            .build()
            .unwrap();
        for seed in 0..4u64 {
            let h = scrambled_history(300, 28, seed);
            for now in [28 * DAY, 28 * DAY + 9 * HOUR + 17] {
                for basis in [ConfidenceBasis::Windows, ConfidenceBasis::Logins] {
                    assert_identical(weekly, basis, &h, now);
                }
            }
        }
    }

    #[test]
    fn zero_horizon_predicts_nothing() {
        let cfg = PolicyConfig {
            horizon: Seconds::ZERO,
            ..config(0.3, 2)
        };
        let mut h = HistoryTable::new();
        for d in 0..5 {
            h.insert_history(t(d * DAY + 9 * HOUR), EventKind::Start);
        }
        let p = IncrementalPredictor {
            config: cfg,
            basis: ConfidenceBasis::Windows,
            scratch: SweepScratch::shared(),
        };
        assert_eq!(p.predict_at(&h, t(5 * DAY)), None);
    }

    #[test]
    fn shared_scratch_serves_many_predictors() {
        let scratch = SweepScratch::shared();
        let a = IncrementalPredictor::with_scratch(
            config(0.5, 2),
            ConfidenceBasis::Windows,
            scratch.clone(),
        )
        .unwrap();
        let b =
            IncrementalPredictor::with_scratch(config(0.15, 1), ConfidenceBasis::Logins, scratch)
                .unwrap();
        let h = scrambled_history(200, 6, 3);
        let naive_a = ProbabilisticPredictor::new(config(0.5, 2)).unwrap();
        let naive_b =
            ProbabilisticPredictor::with_basis(config(0.15, 1), ConfidenceBasis::Logins).unwrap();
        for now in [5 * DAY, 5 * DAY + 600, 5 * DAY + 1_200] {
            assert_eq!(a.predict_at(&h, t(now)), naive_a.predict_at(&h, t(now)));
            assert_eq!(b.predict_at(&h, t(now)), naive_b.predict_at(&h, t(now)));
        }
    }

    #[test]
    fn trait_impl_reports_name_and_predicts() {
        let mut p = IncrementalPredictor::new(config(0.5, 2)).unwrap();
        assert_eq!(p.name(), "probabilistic-incremental");
        let h = scrambled_history(100, 6, 1);
        assert!(crate::Predictor::predict(&mut p, &h, t(5 * DAY)).is_ok());
    }
}
