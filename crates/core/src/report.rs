//! Network-level results and baseline comparisons.

use flexer_sched::{LayerSearchResult, SearchStats};
use flexer_sim::TrafficClass;
use std::fmt;

/// The scheduling result of a whole network: one search result per
/// layer, scheduled independently (the paper schedules layer by
/// layer; end-to-end numbers aggregate over layers, §5).
#[derive(Debug, Clone)]
pub struct NetworkResult {
    network: String,
    layers: Vec<LayerSearchResult>,
}

impl NetworkResult {
    /// Assembles a result from per-layer searches in network order —
    /// how the driver and the serving layer build every report.
    #[must_use]
    pub fn new(network: impl Into<String>, layers: Vec<LayerSearchResult>) -> Self {
        Self {
            network: network.into(),
            layers,
        }
    }

    /// The network's name.
    #[must_use]
    pub fn network(&self) -> &str {
        &self.network
    }

    /// Per-layer results in network order.
    #[must_use]
    pub fn layers(&self) -> &[LayerSearchResult] {
        &self.layers
    }

    /// The result for one layer.
    #[must_use]
    pub fn layer(&self, name: &str) -> Option<&LayerSearchResult> {
        self.layers.iter().find(|l| l.layer == name)
    }

    /// End-to-end inference latency: the sum of the per-layer
    /// latencies (layers execute back to back).
    #[must_use]
    pub fn total_latency(&self) -> u64 {
        self.layers.iter().map(|l| l.schedule.latency()).sum()
    }

    /// Total transferred bytes over all layers.
    #[must_use]
    pub fn total_transfer_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.schedule.transfer_bytes())
            .sum()
    }

    /// Total transferred bytes of one traffic class over all layers.
    #[must_use]
    pub fn class_transfer_bytes(&self, class: TrafficClass) -> u64 {
        self.layers
            .iter()
            .map(|l| l.schedule.traffic().class_bytes(class))
            .sum()
    }

    /// Total `(tiling, dataflow)` pairs evaluated by the searches.
    #[must_use]
    pub fn total_evaluated(&self) -> usize {
        self.layers.iter().map(|l| l.evaluated).sum()
    }

    /// Search-effort counters summed over every layer's search:
    /// scheduler steps, candidate sets generated/pruned/evaluated,
    /// rollback traffic, evictions, compactions and per-phase time.
    #[must_use]
    pub fn total_stats(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for l in &self.layers {
            total.merge(&l.stats);
        }
        total
    }

    /// Whether every layer's winning schedule passed differential
    /// verification (searched with `SearchOptions::validate` or via
    /// `Flexer::verify_network`). `false` for an empty result or when
    /// any layer was not verified.
    #[must_use]
    pub fn verified(&self) -> bool {
        !self.layers.is_empty() && self.layers.iter().all(|l| l.stats.schedules_verified > 0)
    }
}

impl fmt::Display for NetworkResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} layers, {} cycles, {} B transferred | search: {}",
            self.network,
            self.layers.len(),
            self.total_latency(),
            self.total_transfer_bytes(),
            self.total_stats()
        )
    }
}

/// Flexer versus the best static loop-order schedule for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerComparison<'a> {
    /// Layer name.
    pub layer: &'a str,
    /// Flexer's latency in cycles.
    pub flexer_latency: u64,
    /// Baseline latency in cycles.
    pub baseline_latency: u64,
    /// Flexer's transferred bytes.
    pub flexer_transfer: u64,
    /// Baseline transferred bytes.
    pub baseline_transfer: u64,
}

impl LayerComparison<'_> {
    /// `baseline latency / flexer latency` (higher is better for
    /// Flexer; the paper's Figures 8/9 y-axis).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        ratio(self.baseline_latency, self.flexer_latency)
    }

    /// `baseline transfer / flexer transfer` (the paper's data
    /// transfer reduction).
    #[must_use]
    pub fn transfer_reduction(&self) -> f64 {
        ratio(self.baseline_transfer, self.flexer_transfer)
    }
}

/// Flexer versus the baseline for a whole network.
#[derive(Debug, Clone)]
pub struct NetworkComparison {
    flexer: NetworkResult,
    baseline: NetworkResult,
}

impl NetworkComparison {
    /// Pairs an out-of-order result with its static baseline. Both
    /// sides must cover the same network, layer for layer.
    #[must_use]
    pub fn new(flexer: NetworkResult, baseline: NetworkResult) -> Self {
        debug_assert_eq!(flexer.network(), baseline.network());
        debug_assert_eq!(flexer.layers().len(), baseline.layers().len());
        Self { flexer, baseline }
    }

    /// Flexer's network result.
    #[must_use]
    pub fn flexer(&self) -> &NetworkResult {
        &self.flexer
    }

    /// The baseline's network result.
    #[must_use]
    pub fn baseline(&self) -> &NetworkResult {
        &self.baseline
    }

    /// End-to-end speedup of Flexer over the baseline (Figure 8 top).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        ratio(self.baseline.total_latency(), self.flexer.total_latency())
    }

    /// End-to-end data-transfer reduction (Figure 8 bottom).
    #[must_use]
    pub fn transfer_reduction(&self) -> f64 {
        ratio(
            self.baseline.total_transfer_bytes(),
            self.flexer.total_transfer_bytes(),
        )
    }

    /// Per-layer comparisons in network order (Figure 9 (a)).
    pub fn per_layer(&self) -> impl Iterator<Item = LayerComparison<'_>> + '_ {
        self.flexer
            .layers()
            .iter()
            .zip(self.baseline.layers())
            .map(|(f, b)| {
                debug_assert_eq!(f.layer, b.layer);
                LayerComparison {
                    layer: &f.layer,
                    flexer_latency: f.schedule.latency(),
                    baseline_latency: b.schedule.latency(),
                    flexer_transfer: f.schedule.transfer_bytes(),
                    baseline_transfer: b.schedule.transfer_bytes(),
                }
            })
    }
}

impl NetworkComparison {
    /// Renders a per-layer comparison table followed by the end-to-end
    /// summary, ready to print.
    ///
    /// # Examples
    ///
    /// ```
    /// use flexer::prelude::*;
    ///
    /// let net = Network::new("n", vec![ConvLayer::new("c1", 16, 14, 14, 16)?])?;
    /// let driver = Flexer::new(ArchConfig::preset(ArchPreset::Arch1))
    ///     .with_options(SearchOptions::quick());
    /// let table = driver.compare_network(&net)?.render_table();
    /// assert!(table.contains("c1"));
    /// assert!(table.contains("end-to-end"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>8} {:>12} {:>12} {:>9}",
            "layer", "flexer cyc", "static cyc", "speedup", "flexer B", "static B", "xfer red"
        );
        for lc in self.per_layer() {
            let _ = writeln!(
                out,
                "{:<16} {:>12} {:>12} {:>8.3} {:>12} {:>12} {:>9.3}",
                lc.layer,
                lc.flexer_latency,
                lc.baseline_latency,
                lc.speedup(),
                lc.flexer_transfer,
                lc.baseline_transfer,
                lc.transfer_reduction()
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>8.3} {:>12} {:>12} {:>9.3}",
            "end-to-end",
            self.flexer.total_latency(),
            self.baseline.total_latency(),
            self.speedup(),
            self.flexer.total_transfer_bytes(),
            self.baseline.total_transfer_bytes(),
            self.transfer_reduction()
        );
        let stats = self.flexer.total_stats();
        let _ = writeln!(out, "search effort (flexer): {}", stats);
        if stats.candidates_bounded > 0 {
            let _ = writeln!(
                out,
                "pruning (flexer): {} candidates bounded, {} skipped by bound, {} cut mid-run",
                stats.candidates_bounded, stats.candidates_pruned, stats.early_exits
            );
        }
        if self.flexer.verified() && self.baseline.verified() {
            let _ = writeln!(
                out,
                "legality: every schedule passed differential verification"
            );
        }
        out
    }
}

impl fmt::Display for NetworkComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: speedup {:.2}x, transfer reduction {:.2}x",
            self.flexer.network(),
            self.speedup(),
            self.transfer_reduction()
        )
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        if numerator == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        numerator as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_denominators() {
        assert_eq!(ratio(0, 0), 1.0);
        assert_eq!(ratio(5, 0), f64::INFINITY);
        assert_eq!(ratio(10, 4), 2.5);
    }

    #[test]
    fn layer_comparison_ratios() {
        let c = LayerComparison {
            layer: "l",
            flexer_latency: 50,
            baseline_latency: 100,
            flexer_transfer: 80,
            baseline_transfer: 100,
        };
        assert_eq!(c.speedup(), 2.0);
        assert_eq!(c.transfer_reduction(), 1.25);
    }
}
