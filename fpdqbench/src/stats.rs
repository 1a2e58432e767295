//! The benchmark's own arithmetic: percentiles, batch occupancy from
//! server counters, and failure accounting.

/// A tail percentile is reported only when at least this many samples
/// lie strictly beyond it.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(q·n)`. `None` for an empty slice or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// [`percentile`] for a tail: `None` unless at least [`MIN_TAIL`]
/// samples lie beyond the chosen rank (p90 needs ≥ 100 samples).
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    if sorted.len().saturating_sub(rank) < MIN_TAIL {
        return None;
    }
    percentile(sorted, q)
}

/// Median of unsorted values (the mean of the middle pair for even
/// counts). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Mean rows per engine step: the request-steps the clients were served
/// (`completed × steps`) over the change in the server's `steps`
/// counter. Both counter reads must bracket a quiet server (no request
/// in flight), or the ratio counts partial requests. `None` when the
/// counter did not advance or went backwards.
pub fn occupancy(
    completed: u64,
    steps_per_request: u64,
    steps_before: u64,
    steps_after: u64,
) -> Option<f64> {
    let engine_steps = steps_after.checked_sub(steps_before).filter(|&d| d > 0)?;
    Some((completed * steps_per_request) as f64 / engine_steps as f64)
}

/// What became of one attempted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// 200 with the expected image bytes.
    Ok,
    /// Any status other than 200.
    Status(u16),
    /// The response did not arrive within the client timeout.
    Timeout,
    /// Connect, write or read failed.
    ConnError,
    /// 200, but the image differs from the offline reference.
    Mismatch,
}

/// Counts of [`Outcome`]s over one measured phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests answered 200 with the right bytes.
    pub ok: u64,
    /// Non-200 answers.
    pub non_200: u64,
    /// Client timeouts.
    pub timeouts: u64,
    /// Connection errors.
    pub conn_errors: u64,
    /// 200 answers whose image differs from the reference.
    pub mismatches: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Status(_) => self.non_200 += 1,
            Outcome::Timeout => self.timeouts += 1,
            Outcome::ConnError => self.conn_errors += 1,
            Outcome::Mismatch => self.mismatches += 1,
        }
    }

    /// Every attempt that did not succeed.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&v, 1.5), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, ten lie beyond it.
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        // 99 samples: rank 90, only nine beyond — too few.
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        // A small run cannot report any tail.
        assert_eq!(tail_percentile(&ramp(5), 0.5), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
        // The median of 20 samples keeps ten beyond it.
        assert_eq!(tail_percentile(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn occupancy_from_counter_deltas() {
        // 30 requests × 20 steps over 400 engine steps: 1.5 rows a step.
        assert_eq!(occupancy(30, 20, 1000, 1400), Some(1.5));
        // Every step full at two clients.
        assert_eq!(occupancy(10, 20, 0, 100), Some(2.0));
        // No engine step, or a counter that went backwards, has no ratio.
        assert_eq!(occupancy(0, 20, 50, 50), None);
        assert_eq!(occupancy(3, 20, 60, 50), None);
    }

    #[test]
    fn failures_count_non_200_timeouts_and_mismatches() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Status(429),
            Outcome::Status(500),
            Outcome::Timeout,
            Outcome::ConnError,
            Outcome::Mismatch,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.ok, 3);
        assert_eq!((t.non_200, t.timeouts, t.conn_errors, t.mismatches), (2, 1, 1, 1));
        assert_eq!(t.failed(), 5);
        assert_eq!(t.error_rate(), 5.0 / 8.0);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
