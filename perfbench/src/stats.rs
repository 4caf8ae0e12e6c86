//! Pure helpers: order statistics, the tail-percentile rule, failure
//! shares, the flavor-step arithmetic and the workload generator.

/// The tail percentile every workload reports: the highest that keeps
/// at least [`MIN_BEYOND_TAIL`] samples beyond it in a 40 s run even if
/// verdicts got twice as slow (a run holds 600 or more verdicts on each
/// workload with 2 hardware threads). The run's count and
/// [`tail_percentile`] of it are recorded beside it.
pub const TAIL_P: f64 = 95.0;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND_TAIL`] of `n` samples beyond it, or `None` when even
/// the lowest rung does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND_TAIL)
}

/// Samples of `n` that lie strictly beyond the `p`-th percentile under
/// the nearest-rank definition used by [`percentile`].
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile of `n` samples,
/// computed in integer per-mille so that e.g. p99.9 of 10 000 samples is
/// exactly rank 9 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of unsorted samples (`p` in 0..=100).
///
/// # Panics
/// On an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
/// On an empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Median of the pairwise differences `a[i] - b[i]`: what one variant
/// adds over another run on the same inputs, free of the inputs' own
/// spread (0 when there are no pairs).
///
/// # Panics
/// If the two sample sets differ in length.
pub fn paired_delta(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired samples differ in length");
    if a.is_empty() {
        return 0.0;
    }
    let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median(&d)
}

/// Failed operations as a share of attempted ones (0 when none were
/// attempted, so an empty run never reads as a failure rate).
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Median wall time of each tool configuration, stepping from the
/// uninstrumented run to the full MUST & CuSan stack one layer at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlavorTimes {
    /// `Vanilla`.
    pub vanilla: f64,
    /// `TSan`.
    pub tsan: f64,
    /// `CuSan` with `track_access_ranges = false`.
    pub cusan_no_ranges: f64,
    /// `CuSan`.
    pub cusan: f64,
    /// `MUST & CuSan`.
    pub must_cusan: f64,
}

/// The per-layer split of [`FlavorTimes`]: each field is the time one
/// more layer adds. Named after the metrics they feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerDeltas {
    /// `apps.vanilla_s`: the simulated app alone.
    pub apps_vanilla: f64,
    /// `tsan.host_s`: host-access instrumentation.
    pub tsan_host: f64,
    /// `cusan.intercept_s`: CUDA interception, stream fibers, clock ops.
    pub cusan_intercept: f64,
    /// `tsan.shadow_s`: the range annotations' shadow walk.
    pub tsan_shadow: f64,
    /// `must.s`: MPI interception and request fibers.
    pub must: f64,
}

impl FlavorTimes {
    /// Successive differences; they telescope to `must_cusan`.
    pub fn deltas(&self) -> LayerDeltas {
        LayerDeltas {
            apps_vanilla: self.vanilla,
            tsan_host: self.tsan - self.vanilla,
            cusan_intercept: self.cusan_no_ranges - self.tsan,
            tsan_shadow: self.cusan - self.cusan_no_ranges,
            must: self.must_cusan - self.cusan,
        }
    }
}

/// SplitMix64: a tiny, seedable generator for workload plans. The same
/// seed always yields the same sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range");
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= MIN_BEYOND_TAIL, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn paired_delta_ignores_the_spread_of_inputs() {
        // Medians of each side differ by 20, but every pair by 1.
        let b = [10.0, 50.0, 90.0, 30.0];
        let a = [11.0, 51.0, 91.0, 31.0];
        assert_eq!(paired_delta(&a, &b), 1.0);
        assert_eq!(paired_delta(&[], &[]), 0.0);
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(0, 250), 0.0);
        assert_eq!(failed_share(5, 250), 0.02);
        assert_eq!(failed_share(3, 3), 1.0);
    }

    #[test]
    fn flavor_deltas_telescope_to_the_full_stack() {
        let t = FlavorTimes {
            vanilla: 0.0141,
            tsan: 0.0152,
            cusan_no_ranges: 0.0168,
            cusan: 0.0226,
            must_cusan: 0.0239,
        };
        let d = t.deltas();
        assert_eq!(d.apps_vanilla, 0.0141);
        assert!((d.tsan_host - 0.0011).abs() < 1e-12);
        assert!((d.cusan_intercept - 0.0016).abs() < 1e-12);
        assert!((d.tsan_shadow - 0.0058).abs() < 1e-12);
        assert!((d.must - 0.0013).abs() < 1e-12);
        let total = d.apps_vanilla + d.tsan_host + d.cusan_intercept + d.tsan_shadow + d.must;
        assert!((total - t.must_cusan).abs() < 1e-12);
    }

    #[test]
    fn rng_is_reproducible_and_in_range() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let x = r.range(3, 9);
            assert!((3..=9).contains(&x));
        }
    }
}
