//! The three rules the reported numbers rest on: the median, the tail
//! percentile that still has ten samples beyond it, and the epoch at
//! which the loss first reaches the target.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); NaN when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail reading: `value` is the sample at `percentile`, with `beyond`
/// samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile that has at least [`TAIL_MIN_BEYOND`] samples
/// beyond it. With too few samples for any tail (`n <= 10`) this is the
/// median, and `beyond` says how little backs it.
pub fn tail(samples: &[f64]) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_MIN_BEYOND {
        return Tail {
            percentile: 50.0,
            value: median(samples),
            beyond: n / 2,
        };
    }
    let idx = n - TAIL_MIN_BEYOND - 1;
    Tail {
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        value: v[idx],
        beyond: TAIL_MIN_BEYOND,
    }
}

/// Index of the first epoch whose mean loss is at or below `target`.
pub fn first_crossing(epoch_losses: &[f64], target: f64) -> Option<usize> {
    epoch_losses.iter().position(|&l| l <= target)
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them;
/// `None` below two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.percentile), (10.0, 50.0));

        // Eleven samples: only the minimum has ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).value, 1.0);
    }

    #[test]
    fn tail_falls_back_to_median_when_no_tail_exists() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.percentile, t.beyond), (3.0, 50.0, 1));
    }

    #[test]
    fn crossing_is_the_first_epoch_at_or_below_target() {
        let losses = [4.0, 3.0, 2.5, 2.6, 2.0];
        assert_eq!(first_crossing(&losses, 2.55), Some(2));
        assert_eq!(first_crossing(&losses, 2.5), Some(2));
        assert_eq!(first_crossing(&losses, 4.5), Some(0));
        assert_eq!(first_crossing(&losses, 1.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,...,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 2.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
