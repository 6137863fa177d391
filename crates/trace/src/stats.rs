//! Latency statistics over deterministic traces.
//!
//! Under the default [`ClockMode::Logical`](crate::ClockMode::Logical)
//! a span's duration is the number of events recorded inside it — a
//! pure function of the work performed, byte-identical across runs.
//! That makes tick durations the only latency measure a CI gate can
//! assert percentiles on without wall-clock flake: "the p99 `layer`
//! span stays under N ticks" is a statement about search effort, not
//! about machine load.
//!
//! Two entry points cover both sides of a service boundary:
//!
//! - [`LatencySummary::of_trace`] walks an in-memory [`Trace`] (the
//!   producer side — a search that just ran).
//! - [`parse_rendered_tree`] re-reads the plain-text span tree emitted
//!   by [`crate::text::render_tree`] (the consumer side — e.g. a
//!   client that received a `span_tree` string over the wire and wants
//!   to hold the server to a latency SLO).
//!
//! [`percentile`] is shared nearest-rank math, and [`LatencySummary`]
//! packages the p50/p99 pair every gate wants.

use crate::event::EventKind;
use crate::trace::Trace;
use std::fmt;

/// One span recovered from a rendered tree: enough to aggregate
/// latency by name without the original [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSpan {
    /// The stable span id (`#n` in the rendering).
    pub id: u64,
    /// The span name.
    pub name: String,
    /// Opening timestamp.
    pub start: u64,
    /// Duration in the trace's clock units (ticks under the logical
    /// clock).
    pub dur: u64,
    /// Nesting depth within its lane (root spans are depth 1).
    pub depth: usize,
}

/// Durations of every span named `name`, walking lanes in id order and
/// events in recording order — the same deterministic order as
/// [`Trace::span_ids`], so the result is byte-stable under the logical
/// clock.
///
/// The trace is expected to be well-formed (see [`Trace::check`]);
/// unbalanced lanes yield only the spans whose exits were recorded.
#[must_use]
fn span_durations(trace: &Trace, name: &str) -> Vec<u64> {
    let mut out = Vec::new();
    for lane in trace.lanes() {
        // (enter index, enter ts, matches) stack; durations resolve at
        // exit but must be emitted in *enter* order to stay stable, so
        // collect (enter index, duration) then sort.
        let mut stack: Vec<(usize, u64, bool)> = Vec::new();
        let mut found: Vec<(usize, u64)> = Vec::new();
        for (index, event) in lane.events.iter().enumerate() {
            match event.kind {
                EventKind::Enter { name: n } => stack.push((index, event.ts, n == name)),
                EventKind::Exit => {
                    if let Some((enter, ts, matches)) = stack.pop() {
                        if matches {
                            found.push((enter, event.ts - ts));
                        }
                    }
                }
                EventKind::Counter { .. } => {}
            }
        }
        found.sort_by_key(|&(enter, _)| enter);
        out.extend(found.into_iter().map(|(_, dur)| dur));
    }
    out
}

/// Parses the output of [`crate::text::render_tree`] back into spans.
///
/// The rendering is golden-pinned (`#id name [start +dur] attrs…`
/// lines, two-space indentation under a `lane N "name"` header), so
/// this parser is the supported way for a *consumer* of a span tree —
/// e.g. a client holding a `span_tree` response member — to compute
/// latency statistics without the original trace. Lines that are not
/// span lines (lane headers, counters, attributes) are skipped;
/// malformed span lines are skipped rather than guessed at.
#[must_use]
pub fn parse_rendered_tree(text: &str) -> Vec<ParsedSpan> {
    let mut out = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim_start();
        let indent = line.len() - trimmed.len();
        let Some(rest) = trimmed.strip_prefix('#') else {
            continue;
        };
        // "#id name [start +dur] attrs…"
        let mut parts = rest.splitn(3, ' ');
        let Some(id) = parts.next().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let Some(name) = parts.next() else { continue };
        let Some(tail) = parts.next() else { continue };
        let Some(open) = tail.strip_prefix('[') else {
            continue;
        };
        let Some(close) = open.find(']') else {
            continue;
        };
        let mut times = open[..close].splitn(2, " +");
        let (Some(start), Some(dur)) = (
            times.next().and_then(|s| s.parse::<u64>().ok()),
            times.next().and_then(|s| s.parse::<u64>().ok()),
        ) else {
            continue;
        };
        out.push(ParsedSpan {
            id,
            name: name.to_string(),
            start,
            dur,
            // render_tree indents depth-1 spans by two spaces.
            depth: indent / 2,
        });
    }
    out
}

/// Nearest-rank percentile of `values` (`p` in `0.0..=100.0`).
/// Sorts a copy; returns 0 for an empty slice.
#[must_use]
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let p = p.clamp(0.0, 100.0);
    // Nearest-rank: the smallest value with at least ⌈p/100·n⌉
    // observations at or below it.
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// The p50/p99 pair (plus extremes) of one span population — what a
/// latency-SLO gate asserts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: usize,
    /// Median duration.
    pub p50: u64,
    /// 99th-percentile duration.
    pub p99: u64,
    /// Largest duration.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes a set of durations.
    #[must_use]
    pub fn of(durations: &[u64]) -> Self {
        Self {
            count: durations.len(),
            p50: percentile(durations, 50.0),
            p99: percentile(durations, 99.0),
            max: durations.iter().copied().max().unwrap_or(0),
        }
    }

    /// Summarizes every span named `name` in `trace`.
    #[must_use]
    pub fn of_trace(trace: &Trace, name: &str) -> Self {
        Self::of(&span_durations(trace, name))
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={} p99={} max={}",
            self.count, self.p50, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::{TraceConfig, Tracer};
    use crate::text::render_tree;

    fn sample_trace() -> Trace {
        let t = Tracer::new(TraceConfig::default());
        let mut lane = t.lane(0, "search");
        let outer = lane.enter("layer");
        lane.attr("name", "c1");
        let inner = lane.enter("candidate");
        lane.counter("sets", 3);
        lane.exit(inner);
        lane.exit(outer);
        let outer = lane.enter("layer");
        lane.exit(outer);
        Trace::from_lanes(t.config(), vec![lane])
    }

    #[test]
    fn durations_are_logical_tick_counts() {
        let trace = sample_trace();
        // First layer span: enter@0 exit@4 → 4 ticks; second: 1 tick.
        assert_eq!(span_durations(&trace, "layer"), vec![4, 1]);
        assert_eq!(span_durations(&trace, "candidate"), vec![2]);
        assert!(span_durations(&trace, "absent").is_empty());
    }

    #[test]
    fn rendered_tree_round_trips_durations() {
        let trace = sample_trace();
        let text = render_tree(&trace);
        let spans = parse_rendered_tree(&text);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "layer");
        assert_eq!((spans[0].start, spans[0].dur, spans[0].depth), (0, 4, 1));
        assert_eq!(spans[1].name, "candidate");
        assert_eq!((spans[1].dur, spans[1].depth), (2, 2));
        // The two views agree on every population.
        for name in ["layer", "candidate"] {
            let rendered: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur)
                .collect();
            assert_eq!(
                LatencySummary::of_trace(&trace, name),
                LatencySummary::of(&rendered),
                "{name}"
            );
        }
    }

    #[test]
    fn parser_skips_non_span_lines() {
        let spans = parse_rendered_tree(
            "lane 0 \"search\"\n  #0 layer [0 +4] name=c1\n    sets=3 @2\nnot a span\n  #x bad\n",
        );
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].id, 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn summary_displays_both_percentiles() {
        let s = LatencySummary::of(&[1, 2, 3, 4]);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 2);
        assert_eq!(s.p99, 4);
        assert_eq!(s.max, 4);
        let line = s.to_string();
        assert!(line.contains("p50=2") && line.contains("p99=4"), "{line}");
    }
}
