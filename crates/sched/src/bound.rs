//! The branch-and-bound machinery of the tiling × dataflow search.
//!
//! The admissible [`ScheduleBound`] and its constructor
//! [`lower_bound`] live in `flexer-solve` and are re-exported here.
//! This module keeps the pieces that only make sense inside a running
//! search:
//!
//! * [`Incumbent`] — the best score found so far for one layer,
//!   shared lock-free across worker threads;
//! * [`Cutoff`] — the strict comparison against the incumbent that
//!   aborts provably-losing candidates mid-schedule.
//!
//! Because the bound is admissible and the cutoff strict, pruning is
//! exact: winners are byte-identical to the exhaustive search's (see
//! DESIGN.md §10).

use crate::metric::{decode_score, encode_score, Metric};
use std::sync::atomic::{AtomicU64, Ordering};

pub use flexer_solve::{lower_bound, lower_bound_resident, ScheduleBound};

/// The best score found so far for one layer, shared across worker
/// threads.
///
/// Scores are stored monotone-encoded (see `metric::encode_score`) so
/// [`Incumbent::observe`] is a single `AtomicU64::fetch_min` —
/// lock-free and only ever decreasing.
#[derive(Debug)]
pub struct Incumbent(AtomicU64);

impl Incumbent {
    /// A fresh incumbent at `+inf` (nothing found yet).
    #[must_use]
    pub fn new() -> Self {
        Self(AtomicU64::new(encode_score(f64::INFINITY)))
    }

    /// Records a completed candidate's score; keeps the minimum.
    pub fn observe(&self, score: f64) {
        self.0.fetch_min(encode_score(score), Ordering::Relaxed);
    }

    /// The best score observed so far (`+inf` if none).
    #[must_use]
    pub fn get(&self) -> f64 {
        decode_score(self.0.load(Ordering::Relaxed))
    }
}

impl Default for Incumbent {
    fn default() -> Self {
        Self::new()
    }
}

/// A pruning cutoff handed to the OoO scheduler: the layer's shared
/// incumbent plus the metric scoring partial schedules against it.
///
/// Latency and transferred bytes only grow as a schedule commits steps,
/// so for a monotone metric the running score of a partial schedule
/// never exceeds its final score — once it *strictly* exceeds the
/// incumbent the candidate provably cannot win (nor tie), and the run
/// aborts with [`crate::SchedError::Pruned`]. Strictness is what keeps
/// pruning exact: a candidate tying the incumbent is still scheduled to
/// completion, preserving the exhaustive search's first-in-work-order
/// tie-break.
#[derive(Debug, Clone, Copy)]
pub struct Cutoff<'a> {
    incumbent: &'a Incumbent,
    metric: Metric,
}

impl<'a> Cutoff<'a> {
    /// Pairs a shared incumbent with the search metric.
    #[must_use]
    pub fn new(incumbent: &'a Incumbent, metric: Metric) -> Self {
        Self { incumbent, metric }
    }

    /// Whether a (partial) schedule at `latency` cycles and
    /// `transfer_bytes` bytes is already strictly worse than the
    /// incumbent.
    #[must_use]
    pub fn exceeded(&self, latency: u64, transfer_bytes: u64) -> bool {
        self.metric.score(latency, transfer_bytes) > self.incumbent.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incumbent_keeps_the_minimum() {
        let inc = Incumbent::new();
        assert_eq!(inc.get(), f64::INFINITY);
        inc.observe(100.0);
        assert_eq!(inc.get(), 100.0);
        inc.observe(250.0);
        assert_eq!(inc.get(), 100.0);
        inc.observe(25.0);
        assert_eq!(inc.get(), 25.0);
    }

    #[test]
    fn cutoff_is_strict() {
        let inc = Incumbent::new();
        inc.observe(Metric::Latency.score(100, 0));
        let cutoff = Cutoff::new(&inc, Metric::Latency);
        // Equal score ties the incumbent: NOT exceeded (strictness
        // preserves the first-in-work-order tie-break).
        assert!(!cutoff.exceeded(100, 0));
        assert!(!cutoff.exceeded(99, u64::MAX));
        assert!(cutoff.exceeded(101, 0));
    }

    #[test]
    fn fresh_incumbent_never_cuts() {
        let inc = Incumbent::new();
        let cutoff = Cutoff::new(&inc, Metric::LatencyTimesTransfer);
        assert!(!cutoff.exceeded(u64::MAX, u64::MAX));
    }
}
