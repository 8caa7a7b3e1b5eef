//! Seeded randomness, percentiles, summaries and process memory.

/// SplitMix64: the benchmark's only source of randomness, seeded from the
/// command line.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
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

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential inter-arrival time with the given mean, in whole ns
    /// (at least 1).
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        let u = 1.0 - self.unit();
        ((-u.ln() * mean_ns) as u64).max(1)
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
    *values.select_nth_unstable(rank).1
}

/// The `q`-quantile of `(value, weight)` pairs by nearest rank; 0 when empty.
pub fn weighted_quantile(pairs: &mut [(u64, u64)], q: f64) -> u64 {
    pairs.sort_unstable();
    let total: u64 = pairs.iter().map(|p| p.1).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for &(v, w) in pairs.iter() {
        seen += w;
        if seen >= rank {
            return v;
        }
    }
    pairs.last().map_or(0, |p| p.0)
}

/// Median, min, max and count of a sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Median (mean of the middle pair for even counts).
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Number of values.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (all zero when empty).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Self {
            median,
            min: v[0],
            max: v[n - 1],
            n,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
