//! Small shared pieces: the seeded input generator, output digests,
//! nearest-rank percentiles and the tail-percentile rule, metric-name
//! validation.

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_u64() as usize % items.len()]
    }

    /// `k` distinct items of `items`, in their original order.
    pub fn subset<T: Copy>(&mut self, items: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..items.len()).collect();
        for i in 0..k.min(idx.len()) {
            let j = i + self.next_u64() as usize % (idx.len() - i);
            idx.swap(i, j);
        }
        let mut chosen = idx[..k.min(idx.len())].to_vec();
        chosen.sort_unstable();
        chosen.into_iter().map(|i| items[i]).collect()
    }
}

/// FNV-1a over everything written into it: the digest of an op's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `pct`% of the sample at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` in a sample of `n`.
pub fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile (at most 99) of an `n`-sample with at
/// least [`TAIL_BEYOND`] samples above its nearest rank; `None` when the
/// sample is too small to have a tail at all.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n - rank(n, f64::from(p)) >= TAIL_BEYOND)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit and
/// are at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(150), Some(93));
        for n in 20..2000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, f64::from(p)) >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, f64::from(p + 1)) < TAIL_BEYOND, "n={n} p={p} not highest");
            }
        }
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names() {
        assert!(valid_metric_name("op_p50_ms"));
        assert!(valid_metric_name("sweep.run_ms"));
        assert!(valid_metric_name("tensor.gemv-gflops"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".x"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("p/s"));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(3);
        for _ in 0..100 {
            let s = r.subset(&[1, 2, 3, 4, 5], 2);
            assert_eq!(s.len(), 2);
            assert!(s[0] < s[1]);
            assert!((4..=9).contains(&r.range(4, 9)));
        }
    }

    #[test]
    fn digest_distinguishes() {
        let of = |b: &[u8]| {
            let mut d = Digest::default();
            d.bytes(b);
            d.finish()
        };
        assert_eq!(of(b"abc"), of(b"abc"));
        assert_ne!(of(b"abc"), of(b"abd"));
    }
}
