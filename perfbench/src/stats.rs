//! Summary statistics over raw latency samples and registry histograms.

use dl_obs::HistogramSnapshot;

/// Fewest samples a reported percentile must leave above it.
pub const TAIL_SAMPLES: usize = 10;

/// A percentile read off a sample set: the percentile actually reported,
/// its value and the number of samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub p: f64,
    pub value: u64,
    pub samples: usize,
}

/// The value at percentile `p` of `sorted` (ascending), lowered to the
/// highest percentile that still has at least [`TAIL_SAMPLES`] samples
/// beyond it. `None` when there are too few samples for any such
/// percentile.
pub fn tail_percentile(sorted: &[u64], p: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let wanted = ((p.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).max(1);
    let rank = wanted.min(n - TAIL_SAMPLES);
    Some(Quantile { p: rank as f64 / n as f64, value: sorted[rank - 1], samples: n })
}

/// Median of `sorted` (ascending); the mean of the middle pair for an
/// even count. Zero when empty.
pub fn median_u64(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2] as f64,
        _ => (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0,
    }
}

/// Median of unsorted floats. Zero when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The largest value histogram bucket `i` holds, read through the public
/// percentile of a one-observation snapshot.
fn bucket_upper(i: usize, len: usize) -> u64 {
    let mut buckets = vec![0; len];
    buckets[i] = 1;
    HistogramSnapshot { buckets, count: 1, sum: 0 }.percentile(1.0)
}

/// Percentile `p` of a registry histogram, interpolated linearly by rank
/// inside the bucket that holds it. The registry's own percentile reports
/// the bucket's upper bound, which repeats exactly from run to run and
/// hides any change smaller than a bucket (up to 25%).
pub fn hist_percentile(h: &HistogramSnapshot, p: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * h.count as f64).max(1.0);
    let mut seen = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (seen + n) as f64 >= rank {
            let hi = bucket_upper(i, h.buckets.len()) as f64;
            let lo = if i == 0 { 0.0 } else { bucket_upper(i - 1, h.buckets.len()) as f64 + 1.0 };
            let frac = (rank - seen as f64) / n as f64;
            return lo + (hi - lo) * frac;
        }
        seen += n;
    }
    bucket_upper(h.buckets.len() - 1, h.buckets.len()) as f64
}

/// `after - before`, bucket by bucket: the observations recorded between
/// two snapshots of one histogram.
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets = after
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &a)| a.saturating_sub(before.buckets.get(i).copied().unwrap_or(0)))
        .collect();
    HistogramSnapshot {
        buckets,
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
    }
}

/// `struct rusage` of Linux: two `timeval`s, then fourteen `long`s, the
/// first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process in MiB, or `None` if
/// `getrusage(2)` fails.
pub fn peak_rss_mb() -> Option<f64> {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage { times: [0; 4], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` getrusage(2) fills, and the call keeps no pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0).then(|| usage.maxrss as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_obs::Histogram;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=1000).collect();
        let q = tail_percentile(&samples, 0.99).unwrap();
        assert_eq!((q.p, q.value, q.samples), (0.99, 990, 1000));
        assert_eq!(samples.iter().filter(|&&v| v > q.value).count(), 10);

        // 500 samples cannot support a p99 (5 beyond it): report p98.
        let samples: Vec<u64> = (1..=500).collect();
        let q = tail_percentile(&samples, 0.99).unwrap();
        assert_eq!((q.p, q.value), (0.98, 490));
        assert_eq!(samples.iter().filter(|&&v| v > q.value).count(), 10);

        // The median of a small set is unaffected.
        let q = tail_percentile(&samples, 0.5).unwrap();
        assert_eq!((q.p, q.value), (0.5, 250));

        assert!(tail_percentile(&samples[..10], 0.5).is_none());
        let q = tail_percentile(&samples[..11], 0.99).unwrap();
        assert_eq!(q.value, 1);
    }

    #[test]
    fn peak_rss_is_a_high_water_mark() {
        // Other tests in this binary run concurrently, so only the
        // direction is certain.
        let before = peak_rss_mb().expect("getrusage");
        let block = std::hint::black_box(vec![1u8; 16 << 20]);
        let after = peak_rss_mb().expect("getrusage");
        assert!(after >= before, "{before} -> {after}");
        assert!(after > 16.0, "{after} MiB with 16 MiB touched");
        drop(block);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median_u64(&[1, 2, 9]), 2.0);
        assert_eq!(median_u64(&[1, 2, 4, 9]), 3.0);
        assert_eq!(median_f64(&[9.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_u64(&[]), 0.0);
    }

    #[test]
    fn histogram_percentile_interpolates_inside_the_bucket() {
        let h = Histogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        let p50 = hist_percentile(&snap, 0.5);
        // Within 25% of the true median, and not pinned to a bucket bound.
        assert!((p50 - 1500.0).abs() / 1500.0 < 0.25, "p50 {p50}");
        assert_ne!(p50, snap.percentile(0.5) as f64);
        assert!(hist_percentile(&snap, 0.99) <= snap.percentile(0.99) as f64);

        let before = snap.clone();
        h.record(5);
        let d = hist_delta(&h.snapshot(), &before);
        assert_eq!((d.count, d.sum), (1, 5));
        assert_eq!(hist_percentile(&d, 0.5), 5.0);
    }
}
