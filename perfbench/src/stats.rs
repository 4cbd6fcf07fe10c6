//! Sample statistics: the percentile rule, medians, per-class latency
//! histograms and the work digest.

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Operation class (a heuristic kind, a request type, a rate skew …).
    pub class: &'static str,
    /// Wall time of the operation in nanoseconds.
    pub ns: u64,
    /// Whether the operation completed and passed its workload's check.
    pub ok: bool,
}

/// Fewest samples that must lie strictly beyond a percentile for it to be
/// reported at all.
pub const MIN_BEYOND: usize = 10;

/// Fewest operations a timed phase must complete so that `op_p90_ms` is
/// defined under [`MIN_BEYOND`].
pub const MIN_OPS_FOR_P90: usize = 100;

/// Nearest-rank percentile (`0 < p < 1`) of op latencies in milliseconds.
///
/// A failed operation counts as missing every latency limit, so it enters
/// as `+∞`. Returns `None` unless at least [`MIN_BEYOND`] samples lie beyond
/// the percentile's rank.
pub fn percentile_ms(samples: &[Sample], p: f64) -> Option<f64> {
    let mut ms: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.ok {
                s.ns as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    percentile_sorted(&ms, p)
}

/// [`percentile_ms`] on already sorted values.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Fraction of attempted operations that completed and passed their check.
pub fn ok_fraction(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|s| s.ok).count() as f64 / samples.len() as f64
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty list");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty list).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Log2-bucketed latency histogram of one op class: bucket `b` counts the
/// samples with `2^(b-1) µs ≤ latency < 2^b µs` (bucket 0: below 1 µs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    pub buckets: Vec<u64>,
    pub failed: u64,
}

impl Histogram {
    pub fn add(&mut self, sample: &Sample) {
        if !sample.ok {
            self.failed += 1;
            return;
        }
        let us = sample.ns / 1_000;
        let bucket = (u64::BITS - us.leading_zeros()) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }
}

/// Per-class histograms, classes in first-seen order.
pub fn histograms(samples: &[Sample]) -> Vec<(&'static str, Histogram)> {
    let mut out: Vec<(&'static str, Histogram)> = Vec::new();
    for s in samples {
        let i = match out.iter().position(|(c, _)| *c == s.class) {
            Some(i) => i,
            None => {
                out.push((s.class, Histogram::default()));
                out.len() - 1
            }
        };
        out[i].1.add(s);
    }
    out
}

/// FNV-1a over the deterministic outputs of a workload: period bits, LP
/// counters, tree counts, serve counters.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(ms: u64) -> Sample {
        Sample {
            class: "op",
            ns: ms * 1_000_000,
            ok: true,
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<Sample> = (1..=99).map(ok).collect();
        // rank ceil(0.9·99) = 90 leaves 9 beyond: undefined.
        assert_eq!(percentile_ms(&samples, 0.9), None);
        let samples: Vec<Sample> = (1..=100).map(ok).collect();
        // rank 90 leaves exactly 10 beyond.
        assert_eq!(percentile_ms(&samples, 0.9), Some(90.0));
        assert_eq!(percentile_ms(&samples, 0.5), Some(50.0));
        // p99 over 100 samples: 1 beyond, undefined; over 1000: 10 beyond.
        assert_eq!(percentile_ms(&samples, 0.99), None);
        let samples: Vec<Sample> = (1..=1000).map(ok).collect();
        assert_eq!(percentile_ms(&samples, 0.99), Some(990.0));
        assert_eq!(percentile_ms(&[], 0.5), None);
    }

    #[test]
    fn percentile_keeps_nanosecond_resolution() {
        let samples: Vec<Sample> = (0..40)
            .map(|i| Sample {
                class: "op",
                ns: 11_000 + i * 10,
                ok: true,
            })
            .collect();
        let p50 = percentile_ms(&samples, 0.5).unwrap();
        assert!((p50 - 0.011_19).abs() < 1e-12, "{p50}");
    }

    #[test]
    fn failed_ops_count_against_ok_frac_and_push_percentiles_up() {
        let mut samples: Vec<Sample> = (1..=100).map(ok).collect();
        for s in samples.iter_mut().take(20) {
            s.ok = false;
        }
        assert_eq!(ok_fraction(&samples), 0.8);
        // 20 failures sort beyond every success: p90 lands on a failure.
        assert_eq!(percentile_ms(&samples, 0.9), Some(f64::INFINITY));
        // p50 is the 50th value among successes 21..=100 and 20 infinities.
        assert_eq!(percentile_ms(&samples, 0.5), Some(70.0));
        assert_eq!(ok_fraction(&[]), 0.0);
        let h = histograms(&samples);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].1.failed, 20);
        assert_eq!(h[0].1.buckets.iter().sum::<u64>(), 80);
    }

    #[test]
    fn median_and_histogram_buckets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut h = Histogram::default();
        for ns in [500, 1_000, 1_999, 2_000, 3_000_000] {
            h.add(&Sample {
                class: "x",
                ns,
                ok: true,
            });
        }
        // <1 µs → 0; 1 µs → 1; 2 µs → 2; 3000 µs → 12.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[12], 1);
    }
}
