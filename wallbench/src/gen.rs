//! Seeded input generation, kept inside the benchmark so the program's own
//! random streams never shape the inputs: the same `--seed` gives the same
//! operation sequence on every commit.

/// SplitMix64: tiny, fast, and good enough for workload shapes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `label`.
    pub fn new(seed: u64, label: u64) -> Self {
        let mut rng = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.fill(&mut out);
        out
    }
}

/// Zipf(s = 1) over `n` items whose popularity ranks are a seeded
/// permutation, so the hot item differs between seeds.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    rank_to_item: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, rng: &mut Rng) -> Self {
        let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut rank_to_item: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank_to_item.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf { cdf, rank_to_item }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.rank_to_item[rank]
    }
}
