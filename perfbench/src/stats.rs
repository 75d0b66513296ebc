//! The benchmark's own arithmetic: percentiles with the sample rule,
//! run-to-run summaries, and operation accounting.

/// A percentile read from a sample set, with the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile (nearest-rank).
    pub value: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
    /// How many samples lie strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`.
///
/// Refuses a percentile with fewer than [`MIN_BEYOND`] samples beyond
/// its rank: a p99 needs at least 1000 samples, a p50 at least 20.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = samples.len();
    // Nearest rank: the smallest rank r (1-based) with r >= q * n.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Five-number summary of one metric over a run's repeats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
    /// Number of values.
    pub n: usize,
}

/// Summarise `values` (at least one).  Quartiles use the same
/// "exclusive" interpolation as Python's `statistics.quantiles(n=4)`;
/// with fewer than two values they collapse onto the single value.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "cannot summarise zero values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |j: usize| -> f64 {
        if n < 2 {
            return v[0];
        }
        // Python: m = n + 1; position j*m/4 (1-based), clamped.
        let pos = (j * (n + 1)) as f64 / 4.0;
        if pos <= 1.0 {
            return v[0];
        }
        if pos >= n as f64 {
            return v[n - 1];
        }
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Summary {
        min: v[0],
        q1: quantile(1),
        median,
        q3: quantile(3),
        max: v[n - 1],
        n,
    }
}

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A 2xx reply, or a completed run whose outputs checked out.
    Served,
    /// A 503 that carries the database record for an open incident:
    /// the API answered as designed, so the read counts as served.
    IncidentRecord,
    /// A non-2xx reply other than the incident 503.
    BadStatus(u16),
    /// The connection failed or the reply could not be read.
    ConnectionError,
    /// A run that aborted or whose outputs failed a correctness check.
    Incorrect,
}

impl Outcome {
    /// Classify an HTTP reply.  A 503 counts as served only when the
    /// body is the database record (it names the open incident).
    pub fn of_reply(status: u16, body: &str) -> Outcome {
        match status {
            200..=299 => Outcome::Served,
            503 if body.contains("\"open_incident\":{") => Outcome::IncidentRecord,
            other => Outcome::BadStatus(other),
        }
    }

    /// Whether the operation counts as failed.
    pub fn failed(self) -> bool {
        !matches!(self, Outcome::Served | Outcome::IncidentRecord)
    }
}

/// Attempted and failed operation counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl OpCount {
    /// Count one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome.failed() {
            self.failed += 1;
        }
    }

    /// Fold another count in.
    pub fn add(&mut self, other: OpCount) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed share of attempted operations, in percent (0 when nothing
    /// was attempted).
    pub fn failed_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * self.failed as f64 / self.attempted as f64
    }

    /// Complement of [`failed_pct`](Self::failed_pct): the share served.
    pub fn served_pct(&self) -> f64 {
        100.0 - self.failed_pct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly 10 beyond.
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (990.0, 1000, 10));
        // 999 samples: rank 990, only 9 beyond.
        assert!(percentile(&ramp(999), 0.99).is_err());
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let p = percentile(&ramp(20), 0.5).unwrap();
        assert_eq!((p.value, p.beyond), (10.0, 10));
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(2000);
        v.reverse();
        assert_eq!(percentile(&v, 0.99).unwrap().value, 1980.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&ramp(10));
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summarize(&[4.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (4.0, 4.0, 4.0, 4.0, 4.0)
        );
    }

    #[test]
    fn failed_pct_counts_every_failure_kind() {
        let mut c = OpCount::default();
        c.record(Outcome::Served);
        c.record(Outcome::of_reply(204, ""));
        c.record(Outcome::of_reply(
            503,
            r#"{"db":3,"state":"physically-paused","open_incident":{"at":5,"kind":"retry-exhausted"}}"#,
        ));
        c.record(Outcome::of_reply(
            503,
            r#"{"error":"driver thread is gone"}"#,
        ));
        c.record(Outcome::of_reply(404, r#"{"error":"unknown database"}"#));
        c.record(Outcome::ConnectionError);
        c.record(Outcome::Incorrect);
        assert_eq!(
            c,
            OpCount {
                attempted: 7,
                failed: 4
            }
        );
        assert!((c.failed_pct() - 400.0 / 7.0).abs() < 1e-12);
        assert!((c.served_pct() + c.failed_pct() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn incident_record_503_is_served_but_a_null_incident_is_not() {
        assert_eq!(
            Outcome::of_reply(503, r#"{"open_incident":{"at":1,"kind":"stuck"}}"#),
            Outcome::IncidentRecord
        );
        assert!(Outcome::of_reply(503, r#"{"open_incident":null}"#).failed());
        let mut c = OpCount::default();
        c.add(OpCount {
            attempted: 3,
            failed: 0,
        });
        assert_eq!(c.failed_pct(), 0.0);
        assert_eq!(OpCount::default().failed_pct(), 0.0);
    }
}
