//! Order statistics over one run's samples.

/// The `q`-quantile (`0 < q <= 1`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of all samples at or below it.
/// `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a sample vector in place (NaN-free by construction: every sample
/// is a measured duration or count).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The median of unsorted samples (nearest rank), `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    sort(&mut v);
    nearest_rank(&v, 0.5)
}

/// Median over `chunks` equal runs of consecutive samples (in the order
/// they were taken) of each run's nearest-rank `q`-quantile. `None`
/// with fewer samples than chunks.
pub fn chunked_quantile(samples: &[f64], chunks: usize, q: f64) -> Option<f64> {
    let n = samples.len();
    if chunks == 0 || n < chunks {
        return None;
    }
    let per_chunk: Vec<f64> = (0..chunks)
        .filter_map(|c| {
            let mut chunk = samples[n * c / chunks..n * (c + 1) / chunks].to_vec();
            sort(&mut chunk);
            nearest_rank(&chunk, q)
        })
        .collect();
    median(&per_chunk)
}

/// Median completion rate (per second) over `chunks` equal runs of
/// consecutive ops, from each op's completion time (ns since the loop
/// started, ascending). Each chunk's rate is its op count over the time
/// from the previous chunk's last completion to its own. `None` with
/// fewer ops than chunks.
pub fn chunked_rate(done_at_ns: &[f64], chunks: usize) -> Option<f64> {
    let n = done_at_ns.len();
    if chunks == 0 || n < chunks {
        return None;
    }
    let mut rates = Vec::with_capacity(chunks);
    let mut prev_end = 0.0;
    let mut prev_idx = 0;
    for c in 1..=chunks {
        let idx = n * c / chunks;
        let end = done_at_ns[idx - 1];
        rates.push((idx - prev_idx) as f64 / ((end - prev_end) / 1e9));
        prev_end = end;
        prev_idx = idx;
    }
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_ten() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.01), Some(1.0));
    }

    #[test]
    fn nearest_rank_on_one_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(90.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
    }

    #[test]
    fn single_sample_and_empty() {
        assert_eq!(nearest_rank(&[7.5], 0.5), Some(7.5));
        assert_eq!(nearest_rank(&[7.5], 0.99), Some(7.5));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn chunked_rate_on_a_steady_and_a_stalled_loop() {
        // One op every millisecond: 1000 ops/s in every chunk.
        let steady: Vec<f64> = (1..=100).map(|i| i as f64 * 1e6).collect();
        let r = chunked_rate(&steady, 10).unwrap();
        assert!((r - 1000.0).abs() < 1e-6, "{r}");
        // A 50 ms stall before op 50 slows one chunk only.
        let stalled: Vec<f64> = steady
            .iter()
            .enumerate()
            .map(|(i, t)| if i >= 49 { t + 50e6 } else { *t })
            .collect();
        let r = chunked_rate(&stalled, 10).unwrap();
        assert!((r - 1000.0).abs() < 1e-6, "{r}");
        assert_eq!(chunked_rate(&steady[..5], 10), None);
    }

    #[test]
    fn chunked_quantile_ignores_one_slow_chunk() {
        // Ten chunks of 1..=10; one chunk is ten times slower.
        let mut v: Vec<f64> = (0..10).flat_map(|_| (1..=10).map(f64::from)).collect();
        for x in &mut v[30..40] {
            *x *= 10.0;
        }
        assert_eq!(chunked_quantile(&v, 10, 0.9), Some(9.0));
        assert_eq!(chunked_quantile(&v, 10, 0.5), Some(5.0));
        assert_eq!(chunked_quantile(&v[..9], 10, 0.5), None);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0, 7.0]), Some(5.0));
        // Even count: nearest rank takes the lower middle sample.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }
}
