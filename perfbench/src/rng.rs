//! The benchmark's own seeded generator. Inputs and schedules derive
//! from `--seed` alone through this SplitMix64 stream, so they do not
//! depend on the program's RNG shims or on thread timing.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for one purpose (`tag`) under the same seed.
    pub fn fork(&self, tag: u64) -> Self {
        let mut r = Self(self.0 ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Exponential inter-arrival gap in nanoseconds for a Poisson
    /// process of `rate` events per second.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        let u = 1.0 - self.unit();
        (-u.ln() / rate * 1e9) as u64
    }
}

/// Arrival times (ns from phase start) of a Poisson process of `rate`
/// per second over `span_ns`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, span_ns: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out;
    }
    let mut t = rng.exp_gap_ns(rate);
    while t < span_ns {
        out.push(t);
        t += rng.exp_gap_ns(rate);
    }
    out
}
