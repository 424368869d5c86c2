//! The harness's own seeded generator. The benchmark draws drill-down
//! ranges, Zipf ranks and verification samples from this, not from the
//! vendored `rand`, so an edit to that crate cannot silently change the
//! load (the product's generators are covered by the workload
//! fingerprint instead).

/// SplitMix64: tiny, full-period, and good enough for sampling.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one `(seed, stream, index)` coordinate, so request
    /// `index` is a pure function of the seed no matter which client
    /// issues it or how many requests ran before it.
    pub fn at(seed: u64, stream: u64, index: u64) -> Self {
        SplitMix64(mix(mix(seed, stream), index))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // The modulo bias is below 2^-40 for every `n` used here.
        self.next_u64() % n
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines two words into one well-mixed word.
pub fn mix(a: u64, b: u64) -> u64 {
    finalize(a ^ finalize(b.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "empty Zipf support");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The rank whose CDF interval contains `u ∈ [0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_coordinate_same_stream() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::at(42, 3, 17);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::at(42, 3, 17);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = SplitMix64::at(43, 3, 17);
        assert_ne!(a[0], other.next_u64());
        let mut r = SplitMix64::at(1, 0, 0);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let zipf = Zipf::new(200, 1.0);
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.999_999_9), 199);
        let mut r = SplitMix64::at(9, 0, 0);
        let mut counts = vec![0u32; 200];
        for _ in 0..100_000 {
            counts[zipf.rank(r.next_f64())] += 1;
        }
        // Rank 0 carries 1/H(200) ≈ 17 % of the mass, rank 1 half of that.
        assert!((16_000..18_500).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        let mut again = SplitMix64::at(9, 0, 0);
        let mut first = SplitMix64::at(9, 0, 0);
        assert_eq!(zipf.rank(again.next_f64()), zipf.rank(first.next_f64()));
    }
}
