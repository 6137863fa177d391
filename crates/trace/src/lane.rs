//! The recording side: tracer configuration and per-unit-of-work lane
//! buffers.

use crate::event::{Attr, AttrValue, Event, EventKind};
use std::time::Instant;

/// How timestamps are generated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ClockMode {
    /// Deterministic lane-local tick counter (default): event *i* of a
    /// lane gets timestamp *i*. Two runs of the same deterministic
    /// computation produce byte-identical traces — the mode every
    /// golden test uses. Durations are event counts, not time.
    #[default]
    Logical,
    /// Nanoseconds since the tracer epoch, clamped to be non-decreasing
    /// per lane. Span durations are real wall-clock profiles; traces
    /// are *not* byte-stable across runs.
    Wall,
}

/// How much of the pipeline is recorded. Levels are cumulative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceDetail {
    /// Search-level spans only: the search root, per-layer bound
    /// pre-passes, one span per `(tiling, dataflow)` candidate with
    /// its outcome, per-layer reductions and verification (default).
    #[default]
    Search,
    /// Plus one span per scheduler step (Algorithm 1's issue loop)
    /// with set-selection attributes.
    Steps,
    /// Plus per-step memory events: commit spans with eviction /
    /// compaction attributes and SPM occupancy / rollback counters.
    Memory,
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Timestamp source.
    pub clock: ClockMode,
    /// Instrumentation depth.
    pub detail: TraceDetail,
}

/// The cheap, shareable handle instrumentation sites consult.
///
/// A `Tracer` does not collect anything itself: recording happens in
/// per-unit-of-work [`Lane`] buffers it hands out, which the owner of
/// the computation merges into a [`crate::Trace`] in a deterministic
/// order at drain time. That keeps the hot path lock-free — a lane is
/// plain thread-local data — and makes span identity a function of the
/// merge order (for the search: the work-queue order), never of thread
/// interleaving.
#[derive(Debug, Clone, Copy)]
pub struct Tracer {
    enabled: bool,
    config: TraceConfig,
    epoch: Instant,
}

impl Tracer {
    /// An enabled tracer recording under `config`.
    #[must_use]
    pub fn new(config: TraceConfig) -> Self {
        Self {
            enabled: true,
            config,
            epoch: Instant::now(),
        }
    }

    /// A disabled tracer: every lane it hands out drops all events.
    /// The per-event cost of instrumentation under a disabled tracer
    /// is one branch on a `bool`.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            config: TraceConfig::default(),
            epoch: Instant::now(),
        }
    }

    /// Whether lanes record.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The recording configuration.
    #[must_use]
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Creates the recording buffer for one unit of work. `id` decides
    /// where the lane sorts in the drained trace — derive it from a
    /// deterministic work order, not from thread identity.
    #[must_use]
    pub fn lane(&self, id: u32, name: impl Into<String>) -> Lane {
        Lane {
            enabled: self.enabled,
            config: self.config,
            epoch: self.epoch,
            id,
            name: name.into(),
            events: Vec::new(),
            open: Vec::new(),
            last_ts: 0,
        }
    }
}

/// A lock-free per-unit-of-work event buffer.
///
/// All recording methods are no-ops on a disabled lane, so
/// instrumentation can be threaded unconditionally through hot code.
/// Spans follow strict LIFO discipline per lane; attributes attach to
/// the innermost open span.
#[derive(Debug)]
pub struct Lane {
    enabled: bool,
    config: TraceConfig,
    epoch: Instant,
    pub(crate) id: u32,
    pub(crate) name: String,
    pub(crate) events: Vec<Event>,
    /// Indices (into `events`) of the currently open `Enter` events.
    open: Vec<usize>,
    last_ts: u64,
}

/// Token returned by [`Lane::enter`], consumed by [`Lane::exit`].
/// Prevents accidentally closing a span twice.
#[derive(Debug)]
#[must_use = "spans must be closed with Lane::exit"]
pub struct SpanGuard {
    depth: usize,
}

impl Lane {
    /// A permanently disabled lane, for call sites that must pass one
    /// but have no tracer (the untraced public APIs).
    #[must_use]
    pub fn off() -> Lane {
        Tracer::disabled().lane(0, "")
    }

    /// Whether this lane records anything at all.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether this lane records at `detail` or deeper.
    #[inline]
    #[must_use]
    pub fn records(&self, detail: TraceDetail) -> bool {
        self.enabled && self.config.detail >= detail
    }

    /// Whether the lane's output is deterministic across runs (the
    /// logical clock). Instrumentation uses this to skip attaching
    /// wall-time-derived values that would break byte-stable traces.
    #[inline]
    #[must_use]
    pub fn deterministic(&self) -> bool {
        self.config.clock == ClockMode::Logical
    }

    fn now(&mut self) -> u64 {
        let ts = match self.config.clock {
            ClockMode::Logical => self.last_ts + u64::from(!self.events.is_empty()),
            ClockMode::Wall => {
                let ns = self.epoch.elapsed().as_nanos() as u64;
                ns.max(self.last_ts)
            }
        };
        self.last_ts = ts;
        ts
    }

    /// Opens a span. Returns the guard [`Lane::exit`] consumes; on a
    /// disabled lane the guard is inert.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanGuard {
        if !self.enabled {
            return SpanGuard { depth: 0 };
        }
        let ts = self.now();
        self.enter_at(ts, name)
    }

    /// Opens a span at an explicit timestamp (for pre-timed data such
    /// as schedule Gantt lanes, where timestamps are cycle numbers).
    /// Timestamps that would regress are clamped to the lane's last
    /// timestamp, keeping the lane monotone.
    pub fn enter_at(&mut self, ts: u64, name: &'static str) -> SpanGuard {
        if !self.enabled {
            return SpanGuard { depth: 0 };
        }
        self.last_ts = self.last_ts.max(ts);
        self.open.push(self.events.len());
        self.events.push(Event {
            ts: self.last_ts,
            kind: EventKind::Enter { name },
            attrs: Vec::new(),
        });
        SpanGuard {
            depth: self.open.len(),
        }
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when spans are closed out of LIFO
    /// order.
    #[inline]
    pub fn exit(&mut self, guard: SpanGuard) {
        if !self.enabled {
            return;
        }
        let ts = self.now();
        self.exit_at(ts, guard);
    }

    /// Closes the innermost open span at an explicit timestamp.
    pub fn exit_at(&mut self, ts: u64, guard: SpanGuard) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(
            guard.depth,
            self.open.len(),
            "spans must close in LIFO order"
        );
        self.open.pop();
        self.last_ts = self.last_ts.max(ts);
        self.events.push(Event {
            ts: self.last_ts,
            kind: EventKind::Exit,
            attrs: Vec::new(),
        });
    }

    /// Attaches `key=value` to the innermost open span. Dropped when
    /// no span is open.
    #[inline]
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if !self.enabled {
            return;
        }
        if let Some(&idx) = self.open.last() {
            self.events[idx].attrs.push(Attr {
                key,
                value: value.into(),
            });
        }
    }

    /// Records a counter sample (a gauge).
    #[inline]
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        let ts = self.now();
        self.counter_at(ts, name, value);
    }

    /// Records a counter sample at an explicit timestamp.
    fn counter_at(&mut self, ts: u64, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        self.last_ts = self.last_ts.max(ts);
        self.events.push(Event {
            ts: self.last_ts,
            kind: EventKind::Counter { name, value },
            attrs: Vec::new(),
        });
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the lane recorded nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_lane_records_nothing() {
        let mut lane = Lane::off();
        let g = lane.enter("x");
        lane.attr("k", 1u64);
        lane.counter("c", 2);
        lane.exit(g);
        assert!(lane.is_empty());
        assert!(!lane.is_enabled());
        assert!(!lane.records(TraceDetail::Search));
    }

    #[test]
    fn logical_clock_ticks_strictly() {
        let tracer = Tracer::new(TraceConfig::default());
        let mut lane = tracer.lane(0, "l");
        let outer = lane.enter("outer");
        let inner = lane.enter("inner");
        lane.counter("c", 9);
        lane.exit(inner);
        lane.exit(outer);
        let ts: Vec<u64> = lane.events.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4]);
        assert!(lane.open.is_empty());
    }

    #[test]
    fn wall_clock_is_monotone() {
        let tracer = Tracer::new(TraceConfig {
            clock: ClockMode::Wall,
            ..TraceConfig::default()
        });
        let mut lane = tracer.lane(0, "l");
        let g = lane.enter("a");
        lane.exit(g);
        let g = lane.enter("b");
        lane.exit(g);
        let ts: Vec<u64> = lane.events.iter().map(|e| e.ts).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn attrs_attach_to_innermost_open_span() {
        let tracer = Tracer::new(TraceConfig::default());
        let mut lane = tracer.lane(0, "l");
        let outer = lane.enter("outer");
        lane.attr("on", "outer");
        let inner = lane.enter("inner");
        lane.attr("on", "inner");
        lane.exit(inner);
        lane.attr("tail", true);
        lane.exit(outer);
        assert_eq!(lane.events[0].attrs.len(), 2); // "on" + "tail"
        assert_eq!(lane.events[1].attrs.len(), 1);
    }

    #[test]
    fn detail_levels_are_cumulative() {
        let tracer = Tracer::new(TraceConfig {
            detail: TraceDetail::Steps,
            ..TraceConfig::default()
        });
        let lane = tracer.lane(0, "l");
        assert!(lane.records(TraceDetail::Search));
        assert!(lane.records(TraceDetail::Steps));
        assert!(!lane.records(TraceDetail::Memory));
    }

    #[test]
    fn explicit_timestamps_clamp_monotone() {
        let tracer = Tracer::new(TraceConfig::default());
        let mut lane = tracer.lane(0, "gantt");
        let g = lane.enter_at(100, "op");
        lane.exit_at(40, g); // earlier than the enter: clamped to 100
        assert_eq!(lane.events[1].ts, 100);
    }
}
