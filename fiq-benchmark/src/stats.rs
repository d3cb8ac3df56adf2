//! Order statistics and the noise-aware A/B verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so a spread computed here matches one
//! computed by a script over the same numbers.

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value: every caller passes at least
/// one measured number.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, as `statistics.quantiles(values, n=4)`
/// computes them. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measured values are never NaN"));
    v
}

/// The verdict on one (workload, metric) pair of an A/B comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9 of 10 pairs and the medians differ by
    /// more than the parent's interquartile range.
    Gain,
    /// No gain, no regression, and both sides repeat within the bound.
    Ok,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// A side's spread is wider than the bound, so "no change" cannot be
    /// claimed.
    Unresolved,
}

impl Verdict {
    /// The word `compare` prints.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares paired runs: `parent[i]` and `change[i]` ran back to back.
/// `bound` is the share of the parent's median by which the change may
/// be worse before it counts as a regression.
///
/// # Panics
///
/// Panics when the sides are empty or of different lengths.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    assert_eq!(parent.len(), change.len(), "runs must be paired");
    let better = |c: f64, p: f64| if higher_is_better { c > p } else { c < p };
    let (pm, cm) = (median(parent), median(change));
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let [pq1, _, pq3] = quartiles(parent);
    if wins * 10 >= parent.len() * 9 && better(cm, pm) && (cm - pm).abs() > pq3 - pq1 {
        return Verdict::Gain;
    }
    let worse_by = if higher_is_better { pm - cm } else { cm - pm };
    if worse_by > bound * pm.abs() {
        return Verdict::Regressed;
    }
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if (relative_spread(parent) > bound || relative_spread(change) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert!(
            close(q[0], 1.25) && close(q[1], 2.5) && close(q[2], 3.75),
            "{q:?}"
        );
        // Two points clamp to the ends: statistics.quantiles([1, 2], n=4)
        // == [0.75, 1.5, 2.25].
        let q = quartiles(&[1.0, 2.0]);
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_of_odd_even_and_tied_values() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[5.0; 10]), 5.0));
        assert!(close(relative_spread(&[5.0; 10]), 0.0));
    }

    #[test]
    fn ten_clear_wins_are_a_gain() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Gain);
        // The same numbers read as a throughput are a regression.
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Regressed);
    }

    #[test]
    fn eight_wins_of_ten_is_not_a_gain() {
        let parent = [100.0; 10];
        let mut change = [95.0; 10];
        change[0] = 101.0;
        change[1] = 102.0;
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Ok);
        // Nine of ten is enough.
        change[1] = 95.0;
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Gain);
    }

    #[test]
    fn ties_count_for_neither_side() {
        // Nine ties and one win: one win of ten pairs is no gain.
        let parent = [100.0; 10];
        let mut change = [100.0; 10];
        change[3] = 90.0;
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Ok);
    }

    #[test]
    fn a_median_shift_inside_the_parent_spread_is_no_gain() {
        // Every pair is won, but by less than the parent's IQR.
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + 4.0 * f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(verdict(&parent, &change, false, 0.5), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_change_dominates() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + 10.0 * f64::from(i)).collect();
        let change = parent.clone();
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unresolved);
        // Every change run below every parent run: not unresolved, and
        // since 10/10 pairs win by more than the IQR, a gain.
        let change: Vec<f64> = parent.iter().map(|p| p - 200.0).collect();
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Gain);
    }

    #[test]
    fn worse_by_more_than_the_bound_regresses() {
        let parent = [100.0; 10];
        assert_eq!(
            verdict(&parent, &[111.0; 10], false, 0.1),
            Verdict::Regressed
        );
        assert_eq!(verdict(&parent, &[109.0; 10], false, 0.1), Verdict::Ok);
    }
}
