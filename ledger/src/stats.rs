//! Order statistics: which percentile a sample supports, nearest-rank
//! quantiles, and the quartile spread the noise table reports.

/// Percentiles a timing may be reported at, highest first.
const LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Samples strictly beyond the nearest-rank `p` quantile of `n` samples.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of the `p` quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it — the tail a sample of `n` can support. `None` below 40 samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    highest_supported(n).is_some_and(|best| best >= p)
}

/// Nearest-rank quantile of an ascending slice (0.0 when empty).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

pub fn median_of(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    quantile(&v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Disturbance on a shared machine is one-sided — a neighbour, a
/// scheduling stall or a halted virtual CPU only ever makes a stretch
/// slower — and it comes in episodes of seconds: within one run the
/// rate of quarter-second stretches swings by ±25 % while their best
/// quarter repeats within a few percent. So block-wise estimates take
/// the **quartile on the good side**: the upper quartile of block rates,
/// the lower quartile of window latencies. A regression moves every
/// block and therefore the quartile; an episode moves the blocks it
/// covers and, below three quarters of the run, not the quartile.
const GOOD_SIDE: f64 = 0.25;

/// Events per second while every client was active (the completions up
/// to `busy_ns`): the upper quartile of the rates of consecutive blocks
/// of `block` completions. Blocks are counted, not timed, so that each
/// holds the same work — a whole number of cycles of a cyclic script —
/// and a block's rate says how fast the machine was, not which queries
/// fell into it. Falls back to `count ÷ elapsed` below four blocks
/// (`--smoke`).
pub fn blocked_rate(
    done_ns: &[u64],
    busy_ns: u64,
    block: usize,
    elapsed: std::time::Duration,
) -> f64 {
    let busy = done_ns.partition_point(|&t| t <= busy_ns);
    let ends: Vec<u64> =
        done_ns[..busy].chunks_exact(block.max(1)).map(|b| b[b.len() - 1]).collect();
    if ends.len() < 4 {
        return done_ns.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    }
    let starts = std::iter::once(0).chain(ends.iter().copied());
    let rates = starts.zip(&ends).map(|(t0, &t1)| block as f64 / ((t1 - t0).max(1) as f64 / 1e9));
    upper_quartile(rates.collect())
}

pub fn upper_quartile(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    quantile(&v, 1.0 - GOOD_SIDE)
}

pub fn lower_quartile(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    quantile(&v, GOOD_SIDE)
}

/// Most windows a latency sample is cut into.
const MAX_LATENCY_WINDOWS: usize = 15;

/// The `p` quantile of `samples` (in arrival order) as the lower
/// quartile of per-window quantiles: the sample is cut into as many
/// equal windows (at most 15) as still leave each one ten samples
/// beyond `p`. One window when the sample cannot be cut.
pub fn windowed_quantile(samples: &[f64], p: f64) -> (f64, usize) {
    let n = samples.len();
    let windows = (1..=MAX_LATENCY_WINDOWS).rev().find(|w| supports(n / w, p)).unwrap_or(1);
    let per_window: Vec<f64> = samples
        .chunks(n.div_ceil(windows).max(1))
        .map(|w| {
            let mut w = w.to_vec();
            sort(&mut w);
            quantile(&w, p)
        })
        .collect();
    (lower_quartile(per_window), windows)
}

/// Median, quartiles and `(q3 − q1) / median` of repeated measurements.
/// Quartiles follow Python's `statistics.quantiles(v, n=4)` (exclusive
/// method), which is what the acceptance harness computes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub rel: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        let m = v.first().copied().unwrap_or(0.0);
        return Spread { median: m, q1: m, q3: m, rel: 0.0 };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let (q1, median, q3) = (cut(1), cut(2), cut(3));
    let rel = if median == 0.0 { 0.0 } else { (q3 - q1) / median.abs() };
    Spread { median, q1, q3, rel }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(39), None);
        assert_eq!(highest_supported(40), Some(0.75));
        assert_eq!(highest_supported(100), Some(0.9));
        // 200 deltas → p95 has exactly ten beyond; 199 do not.
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(199), Some(0.9));
        // 1000 queries → p99; 999 fall back to p95.
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert!(supports(45_000, 0.99) && !supports(500, 0.99));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn blocked_rate_ignores_an_episode_and_follows_a_regression() {
        // One completion per ms for 2000 completions, except that those
        // numbered 500..1250 take `slow` ms each.
        let stream = |slow: u64| -> Vec<u64> {
            let mut t = 0;
            (0..2000u64)
                .map(|i| {
                    t += if (500..1250).contains(&i) { slow } else { 1 } * 1_000_000;
                    t
                })
                .collect()
        };
        let disturbed = stream(5);
        let elapsed = std::time::Duration::from_nanos(*disturbed.last().unwrap());
        assert_eq!(blocked_rate(&disturbed, u64::MAX, 250, elapsed), 1000.0);
        assert!(2000.0 / elapsed.as_secs_f64() < 500.0, "count ÷ elapsed would have read 400");
        // Slower everywhere is a regression, and reads as one.
        let regressed: Vec<u64> = (1..=2000u64).map(|i| i * 5_000_000).collect();
        assert_eq!(blocked_rate(&regressed, u64::MAX, 250, elapsed), 200.0);
        // Completions after the first client ran dry do not count: with
        // the fast tail cut off, every block left is a slow one.
        let slow_start: Vec<u64> =
            disturbed.iter().map(|t| t.saturating_sub(500_000_000)).collect();
        assert_eq!(blocked_rate(&slow_start[500..], u64::MAX, 125, elapsed), 1000.0);
        assert_eq!(blocked_rate(&slow_start[500..], 3_750_000_000, 125, elapsed), 200.0);
        // Fewer than four blocks fall back to count ÷ elapsed.
        let one_s = std::time::Duration::from_secs(1);
        assert_eq!(blocked_rate(&disturbed[..800], u64::MAX, 250, one_s), 800.0);
    }

    #[test]
    fn windowed_quantile_takes_the_good_quartile_of_windows() {
        // 3000 samples of 1.0 with one window-sized burst of 50.0: the
        // plain p99 sits inside the burst, the windowed one does not.
        let mut v = vec![1.0; 3000];
        for x in &mut v[1000..1100] {
            *x = 50.0;
        }
        assert_eq!(windowed_quantile(&v, 0.99), (1.0, 3));
        let mut sorted = v.clone();
        sort(&mut sorted);
        assert_eq!(quantile(&sorted, 0.99), 50.0);
        // Slower everywhere moves it.
        let slow: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
        assert_eq!(windowed_quantile(&slow, 0.99).0, 2.0);
        // Window counts: as many as still support the percentile.
        assert_eq!(windowed_quantile(&v[..500], 0.9).1, 5);
        assert_eq!(windowed_quantile(&v[..50], 0.75).1, 1);
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.rel - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
