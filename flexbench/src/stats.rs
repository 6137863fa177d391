//! Medians, percentiles and the tail rule.

/// The percentile ladder the tail is chosen from.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The nearest-rank percentile `p` of ascending `sorted` values.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A latency summary: the median and the tail, where the tail is the
/// highest ladder percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = |p: f64| n - ((p / 100.0) * n as f64).ceil() as usize;
    let tail_pct = LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(p) >= 10)
        .unwrap_or(50.0);
    Some(Summary {
        count: n,
        p50: percentile(&v, 50.0),
        tail: percentile(&v, tail_pct),
        tail_pct,
    })
}

/// Windows a run's samples are split into for the tail.
const WINDOWS: usize = 4;
/// Fewest samples a window holds.
const WINDOW_MIN: usize = 40;

/// [`summarize`] for samples in completion order, with the tail
/// estimated per window: the percentile is chosen from the run's sample
/// count, the samples are cut into up to four consecutive windows of at
/// least forty, and the median of the windows' values at that percentile
/// is reported. A burst of host contention then moves one window's tail,
/// not the run's. The p50 is over all samples.
pub fn summarize_windows(in_order: &[f64]) -> Option<(Summary, usize)> {
    let all = summarize(in_order)?;
    let windows = (in_order.len() / WINDOW_MIN).clamp(1, WINDOWS);
    let size = in_order.len() / windows;
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * size
            };
            let mut v = in_order[w * size..end].to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, all.tail_pct)
        })
        .collect();
    Some((
        Summary {
            tail: median(&tails),
            ..all
        },
        windows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.p50, s.tail_pct, s.tail), (50.0, 90.0, 90.0));
        let s = summarize(&v[..39]).unwrap();
        assert_eq!(s.tail_pct, 50.0);
        let s = summarize(&v[..40]).unwrap();
        assert_eq!(s.tail_pct, 75.0);
    }

    #[test]
    fn window_tails_ignore_one_bad_window() {
        let mut v: Vec<f64> = (0..160).map(|i| f64::from(i % 40)).collect();
        for x in &mut v[..40] {
            *x += 1000.0;
        }
        let (s, windows) = summarize_windows(&v).unwrap();
        assert_eq!(windows, 4);
        assert_eq!((s.tail_pct, s.tail), (90.0, 35.0));
    }
}
