//! Order statistics, per-program aggregation and seed derivation.
//!
//! Every end-to-end metric combines groups of samples (one per program, or
//! per program and tier) with the geometric mean of the per-group values,
//! so `ast` counts as much as `fmm`.
//!
//! The central value of a group is its lower decile, not its median. The
//! benchmark's host is a shared two-core machine whose speed swings by up
//! to 1.8x in bursts lasting seconds (other tenants' load): a burst only
//! adds time, so a group's fastest decile tracks the code's own cost while
//! its median jumps with the share of the run a burst covered. Measured
//! over 10 s windows of fused VM runs, the geometric mean of per-program
//! medians ranged over 37% of its median, the lower deciles over 13%.
//! Tail percentiles pool the samples of all groups after dividing each by
//! its group's central value, so a p90 needs 100 samples in total rather
//! than 100 per group, and take the median over stretches of the run, so
//! one burst does not move them (see [`Groups::tail`]).

use std::collections::BTreeMap;
use std::time::Duration;

/// Quantile `q` of `xs` by linear interpolation between closest ranks
/// (the same rule as Python's `statistics.quantiles(.., method="inclusive")`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The smallest sample count for which quantile `q` has at least ten
/// samples beyond it.
pub fn min_samples_for(q: f64) -> usize {
    // 1 - 0.9 is a hair under 0.1 in floating point: round off the error
    // before taking the ceiling
    let n = 10.0 / (1.0 - q);
    ((n * 1e6).round() / 1e6).ceil() as usize
}

/// The quantile a group's central value is taken at: the lower decile.
pub const LOW: f64 = 0.1;

/// Stretches of a run an end-to-end tail is the median over.
pub const TAIL_WINDOWS: usize = 5;

/// Samples of one quantity, keyed by group (a program, or a program and
/// tier).
#[derive(Clone, Debug, Default)]
pub struct Groups {
    by_group: BTreeMap<String, Vec<f64>>,
}

impl Groups {
    /// Records one sample for `group`.
    pub fn push(&mut self, group: &str, x: f64) {
        match self.by_group.get_mut(group) {
            Some(v) => v.push(x),
            None => {
                self.by_group.insert(group.to_string(), vec![x]);
            }
        }
    }

    /// Each group's name, sample count and central value.
    pub fn centers(&self) -> impl Iterator<Item = (&str, usize, f64)> {
        self.by_group
            .iter()
            .map(|(g, v)| (g.as_str(), v.len(), quantile(v, LOW)))
    }

    /// The samples of one group (empty when it has none).
    #[cfg(test)]
    pub fn of(&self, group: &str) -> &[f64] {
        self.by_group.get(group).map_or(&[], Vec::as_slice)
    }

    /// Geometric mean over groups of each group's quantile `q` (NaN,
    /// which fails the run, when there are no samples).
    pub fn combined(&self, q: f64) -> f64 {
        if self.by_group.is_empty() {
            return f64::NAN;
        }
        let qs: Vec<f64> = self.by_group.values().map(|v| quantile(v, q)).collect();
        geomean(&qs)
    }

    /// The central value: [`Groups::combined`] at the lower decile.
    pub fn center(&self) -> f64 {
        self.combined(LOW)
    }

    /// Tail quantile `q` over `windows` stretches of the run: every sample
    /// is divided by its group's central value; each group's samples are
    /// cut, in the order they were pushed (the order they were taken),
    /// into `windows` runs of consecutive samples; within each stretch the
    /// ratios of all groups are pooled and their `q` quantile taken. The
    /// tail is the median of the stretches' quantiles times
    /// [`Groups::center`]. A burst of other tenants' load that covers
    /// fewer than half of the stretches leaves it alone, where it would
    /// move a quantile over the whole run. With one window, and every
    /// group's distribution of the same shape, this equals the geometric
    /// mean of the per-group `q` quantiles.
    pub fn tail(&self, q: f64, windows: usize) -> f64 {
        if self.by_group.is_empty() {
            return f64::NAN;
        }
        let mut stretches = vec![Vec::new(); windows];
        for v in self.by_group.values() {
            let c = quantile(v, LOW);
            for (i, x) in v.iter().enumerate() {
                stretches[i * windows / v.len()].push(x / c);
            }
        }
        let qs: Vec<f64> = stretches
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| quantile(s, q))
            .collect();
        self.center() * median(&qs)
    }
}

/// SplitMix64: derives independent, reproducible seeds from the workload
/// seed (`mix(seed, tag)`), and doubles as the benchmark's own small PRNG.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.99), 1000);
    }

    #[test]
    fn tail_of_same_shaped_programs_is_the_geomean_of_their_tails() {
        let mut p = Groups::default();
        for i in 1..=100 {
            p.push("a", i as f64);
            p.push("b", 10.0 * i as f64);
        }
        let a90 = quantile(p.of("a"), 0.9);
        let b90 = quantile(p.of("b"), 0.9);
        assert!((p.tail(0.9, 1) - geomean(&[a90, b90])).abs() < 1e-9);
    }

    #[test]
    fn a_burst_in_one_stretch_leaves_the_tail_alone() {
        let (mut calm, mut burst) = (Groups::default(), Groups::default());
        for w in 0..TAIL_WINDOWS {
            for i in 1..=100 {
                calm.push("a", i as f64);
                burst.push("a", if w == 2 { 3.0 * i as f64 } else { i as f64 });
            }
        }
        let (calm, burst) = (calm.tail(0.9, TAIL_WINDOWS), burst.tail(0.9, TAIL_WINDOWS));
        assert!((calm - burst).abs() < 1e-9, "{calm} vs {burst}");
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
    }
}
