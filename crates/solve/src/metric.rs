//! Schedule-ranking metrics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The objective minimized when Algorithm 1 compares the schedules of
/// different tilings and dataflows.
///
/// The paper's default is `latency x transferred data` (Algorithm 1
/// line 5). §5 notes the metric "can easily be adjusted to particular
/// goals" and evaluates a transfer-weighted variant (Figure 9 (b/c));
/// the other variants exist for those experiments.
///
/// # Examples
///
/// ```
/// use flexer_solve::Metric;
///
/// let m = Metric::LatencyTimesTransfer;
/// assert_eq!(m.score(10, 20), 200.0);
/// assert!(Metric::Transfer.score(10, 20) < Metric::Transfer.score(10, 30));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum Metric {
    /// `latency x transfer` — the paper's default.
    #[default]
    LatencyTimesTransfer,
    /// Latency only.
    Latency,
    /// Transferred bytes only (Figure 9 (c)'s "minimal data transfer"
    /// policy).
    Transfer,
    /// `latency x transfer^weight` with `weight > 1` — reductions in
    /// data transfers weighted higher than performance (Figure 9 (b)).
    TransferWeighted {
        /// Exponent applied to the transferred bytes.
        weight: f64,
    },
}

impl Metric {
    /// A hashable fingerprint: the variant discriminant plus the
    /// weight's bit pattern (the `f64` makes the type itself neither
    /// `Eq` nor `Hash`). Used by the search cache key and the schedule
    /// store's content address.
    #[must_use]
    pub fn fingerprint(&self) -> (u8, u64) {
        match *self {
            Metric::LatencyTimesTransfer => (0, 0),
            Metric::Latency => (1, 0),
            Metric::Transfer => (2, 0),
            Metric::TransferWeighted { weight } => (3, weight.to_bits()),
        }
    }

    /// Scores a schedule; lower is better.
    #[must_use]
    pub fn score(&self, latency: u64, transfer_bytes: u64) -> f64 {
        let l = latency as f64;
        let t = transfer_bytes as f64;
        match *self {
            Metric::LatencyTimesTransfer => l * t,
            Metric::Latency => l,
            Metric::Transfer => t,
            Metric::TransferWeighted { weight } => l * t.powf(weight),
        }
    }

    /// Whether the score is non-decreasing in both latency and
    /// transferred bytes. Admissible-bound pruning is only sound for
    /// monotone metrics: `score(lb_latency, lb_transfer)` must never
    /// exceed the true score. Every built-in metric is monotone except
    /// [`Metric::TransferWeighted`] with a negative weight.
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        match *self {
            Metric::LatencyTimesTransfer | Metric::Latency | Metric::Transfer => true,
            Metric::TransferWeighted { weight } => weight >= 0.0,
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::LatencyTimesTransfer => write!(f, "latency x transfer"),
            Metric::Latency => write!(f, "latency"),
            Metric::Transfer => write!(f, "transfer"),
            Metric::TransferWeighted { weight } => {
                write!(f, "latency x transfer^{weight}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_metric() {
        assert_eq!(Metric::default(), Metric::LatencyTimesTransfer);
    }

    #[test]
    fn scores_order_schedules_correctly() {
        // Schedule A: fast but heavy traffic. B: slow but light.
        let (la, ta) = (100u64, 1000u64);
        let (lb, tb) = (200u64, 400u64);
        assert!(
            Metric::LatencyTimesTransfer.score(lb, tb) < Metric::LatencyTimesTransfer.score(la, ta)
        );
        assert!(Metric::Latency.score(la, ta) < Metric::Latency.score(lb, tb));
        assert!(Metric::Transfer.score(lb, tb) < Metric::Transfer.score(la, ta));
    }

    #[test]
    fn transfer_weighting_shifts_the_tradeoff() {
        // With weight 1 equals the default; higher weights favour the
        // low-traffic schedule more strongly.
        let m1 = Metric::TransferWeighted { weight: 1.0 };
        assert_eq!(m1.score(7, 11), Metric::LatencyTimesTransfer.score(7, 11));
        let m3 = Metric::TransferWeighted { weight: 3.0 };
        // A: (100, 1000), B: (500, 500): default prefers A...
        assert!(
            Metric::LatencyTimesTransfer.score(100, 1000)
                < Metric::LatencyTimesTransfer.score(500, 500)
        );
        // ...the weighted metric prefers B.
        assert!(m3.score(500, 500) < m3.score(100, 1000));
    }

    #[test]
    fn monotonicity_classification() {
        assert!(Metric::LatencyTimesTransfer.is_monotone());
        assert!(Metric::Latency.is_monotone());
        assert!(Metric::Transfer.is_monotone());
        assert!(Metric::TransferWeighted { weight: 2.0 }.is_monotone());
        assert!(Metric::TransferWeighted { weight: 0.0 }.is_monotone());
        assert!(!Metric::TransferWeighted { weight: -1.0 }.is_monotone());
    }

    #[test]
    fn fingerprints_distinguish_variants() {
        let all = [
            Metric::LatencyTimesTransfer,
            Metric::Latency,
            Metric::Transfer,
            Metric::TransferWeighted { weight: 2.0 },
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.fingerprint(), b.fingerprint());
            }
        }
        assert_ne!(
            Metric::TransferWeighted { weight: 2.0 }.fingerprint(),
            Metric::TransferWeighted { weight: 3.0 }.fingerprint()
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Metric::default().to_string(), "latency x transfer");
        assert_eq!(
            Metric::TransferWeighted { weight: 2.0 }.to_string(),
            "latency x transfer^2"
        );
    }
}
