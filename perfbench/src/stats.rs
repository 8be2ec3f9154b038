//! The order statistics the benchmark reports: medians, the tail rule,
//! the self time of a span, and the traced run's overhead.

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle samples for an even count;
/// 0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over whole rounds of `round` consecutive samples of each
/// round's mean; with `round` 0 or 1, the plain median. A partial last
/// round is left out.
pub fn median_round_mean(xs: &[f64], round: usize) -> f64 {
    let round = round.max(1);
    let means: Vec<f64> = xs
        .chunks_exact(round)
        .map(|c| c.iter().sum::<f64>() / round as f64)
        .collect();
    median(&means)
}

/// A tail latency: the highest percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, and how many samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the percentile.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Total samples.
    pub samples: usize,
}

/// The tail rule: with `n` samples sorted ascending, the sample at index
/// `n − 1 − TAIL_BEYOND` has exactly `TAIL_BEYOND` samples beyond it, so
/// its percentile, `100 · (n − TAIL_BEYOND) / n`, is the highest one that
/// does. With too few samples for any such percentile, the maximum stands
/// in and the percentile reads 100.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= TAIL_BEYOND {
        return Tail {
            value: v.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: v[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    }
}

/// A span's self time: its length minus the part of it that the union of
/// its children's intervals covers. Children may overlap each other and
/// may stick out of the span; only the covered part inside counts once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (s, e) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(cs, ce)| (cs.max(s), ce.min(e)))
        .filter(|(cs, ce)| cs < ce)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (cs, ce) in clipped {
        cur = match cur {
            Some((a, b)) if cs <= b => Some((a, b.max(ce))),
            Some((a, b)) => {
                covered += b - a;
                Some((cs, ce))
            }
            None => Some((cs, ce)),
        };
    }
    if let Some((a, b)) = cur {
        covered += b - a;
    }
    (e - s) - covered
}

/// Tracing overhead in percent: how much longer a traced item takes than
/// an untraced one (negative when noise makes the traced run faster).
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced <= 0.0 {
        return 0.0;
    }
    (traced / untraced - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_round_mean_takes_whole_rounds() {
        // Kinds 1, 2, 9 repeat: a plain median lands on one kind, the
        // round mean on their mix; the partial round (100) is left out.
        let xs = [1.0, 2.0, 9.0, 1.0, 2.0, 9.0, 1.0, 2.0, 15.0, 100.0];
        assert_eq!(median_round_mean(&xs, 3), 4.0);
        assert_eq!(median_round_mean(&xs, 0), median(&xs));
        assert_eq!(median_round_mean(&xs, 1), median(&xs));
        assert_eq!(median_round_mean(&[], 3), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100: the 90th sample has ten above it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // 400 samples: the rule reaches p97.5.
        let xs: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile, t.samples), (390.0, 97.5, 400));
    }

    #[test]
    fn tail_of_a_short_run_is_its_maximum() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!((t.value, t.percentile, t.samples), (9.0, 100.0, 3));
        // Eleven samples: the smallest is the only one with ten beyond.
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested in another.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the span are clipped to it.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        // Children outside the span do not count.
        assert_eq!(self_time((50, 100), &[(0, 50), (100, 120)]), 50);
        // Fully covered.
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn overhead_compares_traced_to_untraced() {
        assert!((overhead_pct(1.05, 1.0) - 5.0).abs() < 1e-9);
        assert!((overhead_pct(0.98, 1.0) + 2.0).abs() < 1e-9);
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    }
}
