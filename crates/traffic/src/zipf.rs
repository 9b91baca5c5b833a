//! Zipf traffic skew.
//!
//! ISP traffic per destination prefix is heavily skewed: "the prefixes
//! driving most Internet traffic ... are typically few" (§1, citing
//! Sarrar et al., *Leveraging Zipf's law for traffic offloading*). The
//! uniform-failure experiments of §5.1.3 explicitly "assign traffic to
//! entries mimicking a Zipf distribution", and the CAIDA-like trace
//! synthesizer builds its per-prefix weights from this module.

/// A normalized Zipf weight vector over `n` ranks with exponent `s`.
///
/// `weights()[r]` is the traffic share of the rank-`r` item (rank 0 is the
/// heaviest). Exponents around 1.0–1.2 match measured prefix popularity.
#[derive(Debug, Clone)]
pub struct Zipf {
    weights: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf distribution over `n` items.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(s.is_finite() && s >= 0.0, "bad exponent");
        let mut weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        Zipf { weights }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the distribution has no items (never: `new` forbids it).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Normalized weight of rank `r` (0-based).
    pub fn weight(&self, r: usize) -> f64 {
        self.weights[r]
    }

    /// All weights, heaviest first.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Cumulative share of the top `k` ranks.
    pub fn top_share(&self, k: usize) -> f64 {
        self.weights.iter().take(k).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_normalize_and_decrease() {
        let z = Zipf::new(1000, 1.1);
        let sum: f64 = z.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(z.weights().windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(z.len(), 1000);
        assert!(!z.is_empty());
    }

    #[test]
    fn skew_concentrates_traffic_at_the_top() {
        // The paper's premise: few prefixes drive most traffic. At s = 1.1
        // over 250 K prefixes, the top 10 K (4 %) must carry most bytes —
        // the §5.2 methodology fails the "top 10,000 prefixes (which carry
        // ≥ 95 % of the total traffic)".
        let z = Zipf::new(250_000, 1.1);
        let top10k = z.top_share(10_000);
        assert!(top10k > 0.80, "top-10K share {top10k}");
        let top500 = z.top_share(500);
        assert!(top500 > 0.5, "top-500 share {top500}");
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.weight(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "zero items")]
    fn empty_rejected() {
        Zipf::new(0, 1.0);
    }
}
