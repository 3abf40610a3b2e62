//! Order statistics for per-job samples.

/// A tail reading: the value, the percentile it sits at, and the number
/// of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Its percentile, 0–100 (of the smallest batch, for a batched tail).
    pub pct: f64,
    /// Samples in the population.
    pub n: usize,
    /// Batches whose tails the value is the median of (1: not batched).
    pub batches: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile that has at least [`TAIL_BEYOND`] samples
/// beyond it: with `n` sorted samples that is the sample at index
/// `n - 11`, at percentile `100 (n - 10) / n`. With too few samples for
/// any such percentile the maximum is returned at percentile 100, and the
/// sample count printed beside it says why.
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 0.0,
            n,
            batches: 1,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: v[n - 1],
            pct: 100.0,
            n,
            batches: 1,
        };
    }
    let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Tail {
        value: v[n - TAIL_BEYOND - 1],
        pct,
        n,
        batches: 1,
    }
}

/// Jobs per batch of [`batched_tail`], at least.
pub const BATCH: usize = 100;

/// `n` jobs in order, cut into `n / 100` batches of 100 to 199
/// consecutive jobs; one batch when `n < 200`.
fn batches(n: usize) -> Vec<std::ops::Range<usize>> {
    let k = (n / BATCH).max(1);
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

/// The tail of a long run of jobs, steady against a burst of machine
/// noise that lands in one stretch of it: each batch's [`tail`] (p90 for
/// 100 jobs), and the median of those. Under 200 samples this is the
/// plain [`tail`].
pub fn batched_tail(xs: &[f64]) -> Tail {
    let parts = batches(xs.len());
    let k = parts.len();
    if k < 2 {
        return tail(xs);
    }
    let tails: Vec<Tail> = parts.into_iter().map(|r| tail(&xs[r])).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let pct = tails.iter().map(|t| t.pct).fold(100.0, f64::min);
    Tail {
        value: median(&values),
        pct,
        n: xs.len(),
        batches: k,
    }
}

/// Share of the jobs [`middle`] leaves out at each end.
pub const TRIM: f64 = 0.1;

/// The indexes of the middle jobs by `xs`: all but the [`TRIM`] share
/// with the smallest values and the [`TRIM`] share with the largest
/// (rounded down, so fewer than ten jobs are all kept). Ties go by index.
pub fn middle(xs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]).then(a.cmp(&b)));
    let cut = (xs.len() as f64 * TRIM) as usize;
    idx[cut..xs.len() - cut].to_vec()
}

/// The mean of the [`middle`] samples; 0 for an empty slice. Unlike the
/// median it moves smoothly when the samples fall into a few distinct
/// levels (timer steps, a host that alternates between two speeds),
/// and unlike the mean a stall that hits a few jobs does not move it.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let m = middle(xs);
    ratio(m.iter().map(|&i| xs[i]).sum(), m.len() as f64)
}

/// Throughput over the [`middle`] jobs by time: job `i` handled
/// `items[i]` items in `secs[i]` seconds, and the rate is Σ items over
/// Σ seconds of the jobs kept.
pub fn trimmed_rate(items: &[f64], secs: &[f64]) -> f64 {
    assert_eq!(items.len(), secs.len(), "one item count per job");
    let m = middle(secs);
    ratio(
        m.iter().map(|&i| items[i]).sum(),
        m.iter().map(|&i| secs[i]).sum(),
    )
}

/// `num / den`, or 0 when nothing was measured (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 100 samples 1..=100: ten lie beyond 90, so the tail is p90.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_rises_with_the_sample_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.pct, 99.0);
        // Eleven samples: the smallest one has ten beyond it.
        let t = tail(&(1..=11).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.n), (1.0, 11));
    }

    #[test]
    fn batched_tail_is_the_median_of_batch_tails() {
        // 300 jobs: three batches of 100, one with a burst of 30 slow jobs.
        let mut xs: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        for x in &mut xs[100..130] {
            *x = 1000.0;
        }
        let t = batched_tail(&xs);
        assert_eq!((t.value, t.pct, t.n, t.batches), (89.0, 90.0, 300, 3));
        // The plain tail lands inside the burst.
        assert_eq!(tail(&xs).value, 1000.0);
        // Uneven split: 250 jobs make two batches of 125.
        let t = batched_tail(&(0..250).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.batches, t.pct), (2, 92.0));
        assert_eq!(batched_tail(&[1.0, 2.0]), tail(&[1.0, 2.0]));
    }

    #[test]
    fn middle_drops_a_tenth_at_each_end() {
        // 20 jobs: the two fastest and the two slowest are left out.
        let xs: Vec<f64> = (0..20).map(|i| f64::from((i * 7) % 20)).collect();
        let mut kept: Vec<f64> = middle(&xs).into_iter().map(|i| xs[i]).collect();
        kept.sort_by(f64::total_cmp);
        assert_eq!(kept, (2..18).map(f64::from).collect::<Vec<_>>());
        // Under ten jobs nothing is dropped; ties keep the lower index.
        assert_eq!(middle(&[3.0, 1.0, 2.0]).len(), 3);
        assert_eq!(middle(&[1.0; 10]), (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn trimmed_mean_follows_the_mix_of_levels_and_ignores_stalls() {
        // Jobs at 10 or 20 ms: the median jumps from 10 to 20 as the share
        // of slow jobs passes a half, the trimmed mean moves with it.
        let mix = |slow: usize| {
            let mut xs = vec![10.0; 100];
            for x in &mut xs[..slow] {
                *x = 20.0;
            }
            xs
        };
        assert_eq!((median(&mix(49)), median(&mix(51))), (10.0, 20.0));
        assert!((trimmed_mean(&mix(49)) - 14.875).abs() < 1e-9);
        assert!((trimmed_mean(&mix(51)) - 15.125).abs() < 1e-9);
        // Five stalled jobs of 1000 ms fall in the dropped tenth.
        let mut xs = vec![10.0; 100];
        for x in &mut xs[..5] {
            *x = 1000.0;
        }
        assert_eq!(trimmed_mean(&xs), 10.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn trimmed_rate_counts_the_middle_jobs_by_time() {
        // 20 jobs of 10 items in 1 s, but one stalled to 50 s and one
        // failed (0 items) in 0.5 s: both are dropped.
        let mut items = vec![10.0; 20];
        let mut secs = vec![1.0; 20];
        secs[3] = 50.0;
        (items[7], secs[7]) = (0.0, 0.5);
        assert_eq!(trimmed_rate(&items, &secs), 10.0);
        assert_eq!(trimmed_rate(&[], &[]), 0.0);
    }

    #[test]
    fn tail_of_a_small_population_is_its_maximum() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!((t.value, t.pct, t.n), (9.0, 100.0, 3));
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
