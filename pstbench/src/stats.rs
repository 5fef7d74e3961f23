//! Seeded randomness and the summary statistics every workload shares.

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// makes is a pure function of `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed: streams of the same
    /// seed are independent, so adding a draw to one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An exponential gap with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf popularity over ranks `0..n` with exponent `s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of `rank`.
    pub fn probability(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }
}

/// The `i`-th of `n` sizes spaced geometrically from `lo` to `hi`.
pub fn log_spaced(lo: f64, hi: f64, i: usize, n: usize) -> usize {
    (lo * (hi / lo).powf(i as f64 / (n - 1).max(1) as f64)).round() as usize
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Least-squares slope of `ln y` against `ln x` over the positive pairs:
/// 1.0 means time grows linearly with size.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    if logs.len() < 2 {
        return 0.0;
    }
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// FNV-1a over bytes: fingerprints of outputs that later passes must
/// reproduce exactly.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds a sequence of integers into a fingerprint.
pub fn fingerprint(values: impl IntoIterator<Item = u64>, start: u64) -> u64 {
    values
        .into_iter()
        .fold(start, |h, v| fnv1a(&v.to_le_bytes(), h))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
    }

    #[test]
    fn slope_of_a_power_law_is_its_exponent() {
        let pts: Vec<(f64, f64)> = (1..8)
            .map(|i| (i as f64, 3.0 * (i as f64).powf(1.5)))
            .collect();
        assert!((loglog_slope(&pts) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zipf_probabilities_fall_with_rank_and_sum_to_one() {
        let z = Zipf::new(10, 1.0);
        let p: Vec<f64> = (0..10).map(|r| z.probability(r)).collect();
        assert!(p.windows(2).all(|w| w[0] > w[1]));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[0] / p[1] - 2.0).abs() < 1e-12);
    }
}
