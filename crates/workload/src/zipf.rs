//! Zipfian sampling (the YCSB generator of Gray et al.).

use rand::Rng;

/// A zipfian distribution over `{0, 1, …, n−1}` with exponent `θ`,
/// matching YCSB's `ZipfianGenerator`: rank 0 is the most popular item.
///
/// The paper uses θ = 0.99, "the default in YCSB", which "resembles the
/// strong skew that characterizes many production systems" (§V-A).
///
/// # Example
///
/// ```
/// use paris_workload::Zipfian;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = Zipfian::new(1_000, 0.99);
/// let mut rng = StdRng::seed_from_u64(7);
/// let sample = zipf.sample(&mut rng);
/// assert!(sample < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a zipfian distribution over `n` items with exponent
    /// `theta` (0 < θ < 1 for the YCSB formulation).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs at least one item");
        assert!(
            theta > 0.0 && theta < 1.0,
            "YCSB zipfian requires 0 < theta < 1"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The exponent θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) && self.n >= 2 {
            return 1;
        }
        let rank = ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Probability mass of rank `i` (for distribution tests).
    pub fn pmf(&self, rank: u64) -> f64 {
        assert!(rank < self.n);
        1.0 / ((rank + 1) as f64).powf(self.theta) / self.zetan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn single_item_always_returns_zero() {
        let z = Zipfian::new(1, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(42);
        let samples = 200_000;
        let mut head = 0u64; // rank < 100 (top 1%)
        for _ in 0..samples {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        let frac = head as f64 / samples as f64;
        // θ=0.99 over 10k items puts roughly 55-70% of mass on the top 1%.
        assert!(frac > 0.45, "zipf not skewed enough: {frac}");
        assert!(frac < 0.85, "zipf too skewed: {frac}");
    }

    #[test]
    fn empirical_frequency_tracks_pmf_for_top_ranks() {
        let z = Zipfian::new(1_000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let samples = 300_000;
        let mut counts = [0u64; 3];
        for _ in 0..samples {
            let r = z.sample(&mut rng);
            if r < 3 {
                counts[r as usize] += 1;
            }
        }
        for rank in 0..3u64 {
            let expected = z.pmf(rank);
            let got = counts[rank as usize] as f64 / samples as f64;
            let rel = (got - expected).abs() / expected;
            // The YCSB sampler approximates ranks ≥ 2 with a continuous
            // inverse-CDF, which is mildly biased for the head — allow 20%.
            assert!(
                rel < 0.20,
                "rank {rank}: expected {expected:.4}, got {got:.4}"
            );
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipfian::new(500, 0.8);
        let total: f64 = (0..500).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let z = Zipfian::new(1_000, 0.99);
        let run = |seed| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn rejects_zero_items() {
        let _ = Zipfian::new(0, 0.99);
    }

    #[test]
    #[should_panic(expected = "0 < theta < 1")]
    fn rejects_bad_theta() {
        let _ = Zipfian::new(10, 1.5);
    }
}
