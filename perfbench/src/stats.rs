//! The benchmark's own arithmetic: medians, the tail-percentile rule and
//! its block-by-block form, backlog detection and max-rate selection over
//! a rate ladder.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of `values`: the lowest and highest quarter
/// (rounded down) are dropped. Robust to a stray slow sample like a
/// median, yet tracks the mix of a two-mode sample smoothly where a
/// median jumps between the modes. 0 for an empty slice.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// A tail percentile and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported: 99 when the sample allows it, 100 for
    /// the maximum.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
    /// Sample count (of one block, for a [`block_tail`]).
    pub n: usize,
    /// Blocks whose tails the value is the median of; 1 for a plain tail.
    pub blocks: usize,
}

impl Tail {
    /// How the tail was chosen, for the report.
    pub fn describe(&self) -> String {
        if self.blocks > 1 {
            format!(
                "tail = median over {} blocks of p{:.1} with {} samples beyond (n={} each)",
                self.blocks, self.pct, self.beyond, self.n
            )
        } else if self.beyond == 0 {
            format!("tail = max of n={} (too few samples for p90 with 10 beyond)", self.n)
        } else {
            format!("tail = p{:.1} with {} samples beyond (n={})", self.pct, self.beyond, self.n)
        }
    }
}

/// Samples needed before the tail is a percentile: with fewer, no
/// percentile at or above p90 has ten samples beyond it.
pub const TAIL_MIN_SAMPLES: usize = 100;

/// The highest percentile, capped at p99, that has at least ten samples
/// beyond it (nearest rank). Below [`TAIL_MIN_SAMPLES`] that percentile
/// would sit below p90, so the maximum is returned instead, with
/// `beyond == 0`. `None` for an empty sample.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n < TAIL_MIN_SAMPLES {
        return Some(Tail { pct: 100.0, value: v[n - 1], beyond: 0, n, blocks: 1 });
    }
    // Nearest rank of p99 is ceil(0.99 n); index = rank - 1.
    let k99 = (99 * n).div_ceil(100) - 1;
    let k = k99.min(n - 11);
    let pct = if k == k99 { 99.0 } else { 100.0 * (k + 1) as f64 / n as f64 };
    Some(Tail { pct, value: v[k], beyond: n - 1 - k, n, blocks: 1 })
}

/// Fewest whole blocks [`block_tail`] takes a median over.
pub const MIN_BLOCKS: usize = 3;

/// The tail of a long run taken block by block: `values`, in run order,
/// are cut into consecutive blocks of `block` samples (a short remainder
/// is dropped), and the median of the blocks' [`tail`]s is returned with
/// one block's percentile, `beyond` and `n`. A burst of host interference
/// that fills a block or two sets a whole-run tail, but not this median.
/// With fewer than [`MIN_BLOCKS`] whole blocks it is the whole run's
/// [`tail`].
pub fn block_tail(values: &[f64], block: usize) -> Option<Tail> {
    let blocks = values.len().checked_div(block).unwrap_or(0);
    if blocks < MIN_BLOCKS {
        return tail(values);
    }
    let tails: Vec<Tail> = values.chunks_exact(block).filter_map(tail).collect();
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    Some(Tail { value, blocks, ..tails[0] })
}

/// The median over the same blocks as [`block_tail`] of each block's
/// completion rate, per second: its sample count over the sum of its
/// `walls_s`. With fewer than [`MIN_BLOCKS`] whole blocks it is the whole
/// run's rate; 0 for an empty sample.
pub fn block_rate(walls_s: &[f64], block: usize) -> f64 {
    let rate = |w: &[f64]| {
        let total: f64 = w.iter().sum();
        if total > 0.0 {
            w.len() as f64 / total
        } else {
            0.0
        }
    };
    if block == 0 || walls_s.len() / block < MIN_BLOCKS {
        return rate(walls_s);
    }
    median(&walls_s.chunks_exact(block).map(rate).collect::<Vec<_>>())
}

/// Whether a rate step's backlog grew: the median slot wait (time a
/// request spent due but unsent) of the step's last quarter exceeds that
/// of its first quarter by more than `slack_ms`. `waits_ms` is in due
/// order. Steps with fewer than 8 requests are judged steady.
pub fn backlog_growing(waits_ms: &[f64], slack_ms: f64) -> bool {
    let n = waits_ms.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    median(&waits_ms[n - q..]) - median(&waits_ms[..q]) > slack_ms
}

/// Outcome of one step of an open-loop rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency from due time, ms.
    pub tail_ms: f64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Whether the backlog grew during the step.
    pub growing: bool,
}

impl Step {
    /// Whether the step met `limit_ms` without failures or a growing
    /// backlog. A failed request counts as missing the limit.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.growing && self.tail_ms <= limit_ms
    }
}

/// Index of the highest step of an ascending ladder that passes with
/// every lower step passing too; `None` when the first step fails.
pub fn max_passing(steps: &[Step], limit_ms: f64) -> Option<usize> {
    steps.iter().take_while(|s| s.passes(limit_ms)).count().checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), 4.5);
        assert_eq!(interquartile_mean(&[2.0, 4.0, 9.0]), 5.0, "n < 4 drops nothing");
        assert_eq!(interquartile_mean(&[]), 0.0);
        // Two modes: the figure moves with the mix instead of jumping.
        let mostly_fast = [1.0, 1.0, 1.0, 1.0, 1.0, 21.0, 21.0, 21.0];
        let mostly_slow = [1.0, 1.0, 1.0, 21.0, 21.0, 21.0, 21.0, 21.0];
        assert_eq!(interquartile_mean(&mostly_fast), 6.0);
        assert_eq!(interquartile_mean(&mostly_slow), 16.0);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v).expect("non-empty");
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 1980.0, 20));

        // At n = 1010 the p99 rank is 1000 (ceil 999.9), with 10 beyond.
        let v: Vec<f64> = (1..=1010).map(f64::from).collect();
        let t = tail(&v).expect("non-empty");
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 1000.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_rank_with_exactly_ten_beyond() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect(); // unsorted input
        let t = tail(&v).expect("non-empty");
        assert_eq!((t.value, t.beyond, t.n), (190.0, 10, 200));
        assert!((t.pct - 95.0).abs() < 1e-12);

        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("non-empty");
        assert_eq!((t.value, t.beyond), (90.0, 10));
        assert!((t.pct - 90.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 9.0, 1.0]).expect("non-empty");
        assert_eq!((t.pct, t.value, t.beyond, t.n), (100.0, 9.0, 0, 3));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.value, t.beyond)), Some((99.0, 0)));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn block_tail_is_the_median_of_the_blocks_tails() {
        // Five blocks of 100: tails 90, 190, ..., 490 (the 90th of each).
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = block_tail(&v, 100).expect("non-empty");
        assert_eq!((t.value, t.beyond, t.n, t.blocks), (290.0, 10, 100, 5));
        assert!((t.pct - 90.0).abs() < 1e-12);

        // A burst filling one block moves the whole-run tail, not this.
        let mut burst: Vec<f64> = (0..500).map(|i| f64::from(i % 100)).collect();
        burst[100..200].iter_mut().for_each(|x| *x += 1000.0);
        assert_eq!(block_tail(&burst, 100).map(|t| t.value), Some(89.0));
        assert_eq!(tail(&burst).map(|t| t.value), Some(1089.0));

        // A remainder short of a block is dropped.
        let v: Vec<f64> = (1..=550).map(f64::from).collect();
        assert_eq!(block_tail(&v, 100).map(|t| (t.value, t.blocks)), Some((290.0, 5)));
    }

    #[test]
    fn block_tail_needs_three_blocks() {
        let v: Vec<f64> = (1..=299).map(f64::from).collect();
        assert_eq!(block_tail(&v, 100), tail(&v));
        assert_eq!(block_tail(&v, 0), tail(&v));
        assert!(block_tail(&[], 100).is_none());
    }

    #[test]
    fn block_rate_is_the_median_block_rate() {
        // Blocks of two samples: rates 2/s, 20/s and 0.1/s.
        let walls = [0.5, 0.5, 0.05, 0.05, 5.0, 15.0];
        assert!((block_rate(&walls, 2) - 2.0).abs() < 1e-12);
        // Too few blocks: the whole run's rate.
        assert!((block_rate(&walls[..4], 2) - 4.0 / 1.1).abs() < 1e-12);
        assert_eq!(block_rate(&[], 2), 0.0);
    }

    #[test]
    fn backlog_detection_sees_a_ramp_not_noise() {
        let steady: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        assert!(!backlog_growing(&steady, 10.0));
        let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(backlog_growing(&ramp, 10.0));
        assert!(!backlog_growing(&[0.0, 100.0], 10.0), "too few requests to judge");
    }

    fn step(rate: f64, tail_ms: f64) -> Step {
        Step { rate, tail_ms, failed: 0, growing: false }
    }

    #[test]
    fn max_rate_is_the_last_step_of_the_passing_prefix() {
        let limit = 50.0;
        let ladder = [step(30.0, 12.0), step(60.0, 20.0), step(120.0, 49.9), step(240.0, 80.0)];
        assert_eq!(max_passing(&ladder, limit), Some(2));

        // A later step that happens to pass again does not count.
        let mut ragged = ladder.to_vec();
        ragged.push(step(480.0, 10.0));
        assert_eq!(max_passing(&ragged, limit), Some(2));

        // Failures and a growing backlog miss the limit whatever the tail.
        let mut failing = ladder;
        failing[1].failed = 1;
        assert_eq!(max_passing(&failing, limit), Some(0));
        let mut growing = ladder;
        growing[2].growing = true;
        assert_eq!(max_passing(&growing, limit), Some(1));

        assert_eq!(max_passing(&[step(30.0, 51.0)], limit), None);
        assert_eq!(max_passing(&[], limit), None);
    }
}
