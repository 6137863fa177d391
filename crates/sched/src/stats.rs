//! Performance counters of a scheduling or search run.

use flexer_trace::Lane;
use serde::{Deserialize, Serialize};

/// Counters describing how much work one scheduling (or layer-search)
/// run performed, and what the transactional candidate evaluation
/// saved over the old clone-per-candidate implementation.
///
/// Counters are additive: per-scheduler stats merge into per-layer
/// stats, which merge into per-network totals (see
/// [`SearchStats::merge`]).
///
/// [`SearchStats::fields`] is the single enumeration of the counters;
/// `merge`, the trace export and the drift tests are all built on it,
/// so a new field that is not wired everywhere fails to compile rather
/// than silently dropping out of one of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Scheduling steps (iterations of Algorithm 1's issue loop).
    pub steps: u64,
    /// Candidate combinations examined by set generation (§4.2).
    pub sets_generated: u64,
    /// Combinations discarded as dataflow-class duplicates (§4.2).
    pub sets_pruned: u64,
    /// Candidate sets trial-planned against the scratchpad.
    pub sets_evaluated: u64,
    /// Journal bytes undone rolling candidate plans back.
    pub rollback_bytes: u64,
    /// Block-map bytes the clone-per-candidate evaluation would have
    /// copied for the same candidates.
    pub clone_bytes_avoided: u64,
    /// Tiles evicted by committed operation sets.
    pub evictions: u64,
    /// Committed sets that required on-chip compaction.
    pub compactions: u64,
    /// Wall-time (ns) spent generating candidate sets.
    pub gen_nanos: u64,
    /// Wall-time (ns) spent evaluating candidate sets.
    pub eval_nanos: u64,
    /// Wall-time (ns) spent committing selected sets.
    pub commit_nanos: u64,
    /// Winning schedules that passed differential verification
    /// (see [`crate::verify_schedule_program`]).
    pub schedules_verified: u64,
    /// Wall-time (ns) spent verifying winning schedules.
    pub verify_nanos: u64,
    /// Search candidates for which an admissible lower bound was
    /// computed (branch-and-bound layer).
    pub candidates_bounded: u64,
    /// Candidates skipped outright because their lower bound was
    /// strictly worse than the layer's incumbent score.
    pub candidates_pruned: u64,
    /// Scheduler runs aborted mid-flight when their running score
    /// strictly exceeded the incumbent.
    pub early_exits: u64,
    /// Wall-time (ns) spent computing lower bounds.
    pub bound_nanos: u64,
    /// Layers answered from the persistent schedule store without a
    /// search (`flexer-store` warm start).
    pub store_hits: u64,
    /// Layers that consulted the persistent store and found no entry.
    pub store_misses: u64,
}

/// What a [`SearchStats`] counter measures — used to format it and to
/// decide whether it is deterministic across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// A count of events or items: deterministic for a fixed search.
    Count,
    /// A byte quantity: deterministic for a fixed search.
    Bytes,
    /// A wall-clock duration: varies run to run, excluded from
    /// deterministic trace exports.
    Nanos,
}

impl SearchStats {
    /// Every counter as `(name, value, kind)`, in declaration order.
    ///
    /// The exhaustive destructuring makes this the compiler-checked
    /// registry of the struct's fields: adding a field without listing
    /// it here is a compile error, and [`SearchStats::merge`] plus the
    /// drift tests derive their field sets from this list.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64, StatKind); 19] {
        let Self {
            steps,
            sets_generated,
            sets_pruned,
            sets_evaluated,
            rollback_bytes,
            clone_bytes_avoided,
            evictions,
            compactions,
            gen_nanos,
            eval_nanos,
            commit_nanos,
            schedules_verified,
            verify_nanos,
            candidates_bounded,
            candidates_pruned,
            early_exits,
            bound_nanos,
            store_hits,
            store_misses,
        } = *self;
        [
            ("steps", steps, StatKind::Count),
            ("sets_generated", sets_generated, StatKind::Count),
            ("sets_pruned", sets_pruned, StatKind::Count),
            ("sets_evaluated", sets_evaluated, StatKind::Count),
            ("rollback_bytes", rollback_bytes, StatKind::Bytes),
            ("clone_bytes_avoided", clone_bytes_avoided, StatKind::Bytes),
            ("evictions", evictions, StatKind::Count),
            ("compactions", compactions, StatKind::Count),
            ("gen_nanos", gen_nanos, StatKind::Nanos),
            ("eval_nanos", eval_nanos, StatKind::Nanos),
            ("commit_nanos", commit_nanos, StatKind::Nanos),
            ("schedules_verified", schedules_verified, StatKind::Count),
            ("verify_nanos", verify_nanos, StatKind::Nanos),
            ("candidates_bounded", candidates_bounded, StatKind::Count),
            ("candidates_pruned", candidates_pruned, StatKind::Count),
            ("early_exits", early_exits, StatKind::Count),
            ("bound_nanos", bound_nanos, StatKind::Nanos),
            ("store_hits", store_hits, StatKind::Count),
            ("store_misses", store_misses, StatKind::Count),
        ]
    }

    /// The deterministic subset of [`SearchStats::fields`]: everything
    /// except wall-clock durations. This is what stats round-trip
    /// tests compare and what deterministic traces export.
    #[must_use]
    pub fn deterministic_fields(&self) -> Vec<(&'static str, u64)> {
        self.fields()
            .into_iter()
            .filter(|(_, _, kind)| *kind != StatKind::Nanos)
            .map(|(name, value, _)| (name, value))
            .collect()
    }

    /// Accumulates `other` into `self`, field by field. The exhaustive
    /// destructuring keeps it in lock-step with the struct definition.
    pub fn merge(&mut self, other: &SearchStats) {
        let SearchStats {
            steps,
            sets_generated,
            sets_pruned,
            sets_evaluated,
            rollback_bytes,
            clone_bytes_avoided,
            evictions,
            compactions,
            gen_nanos,
            eval_nanos,
            commit_nanos,
            schedules_verified,
            verify_nanos,
            candidates_bounded,
            candidates_pruned,
            early_exits,
            bound_nanos,
            store_hits,
            store_misses,
        } = *other;
        self.steps += steps;
        self.sets_generated += sets_generated;
        self.sets_pruned += sets_pruned;
        self.sets_evaluated += sets_evaluated;
        self.rollback_bytes += rollback_bytes;
        self.clone_bytes_avoided += clone_bytes_avoided;
        self.evictions += evictions;
        self.compactions += compactions;
        self.gen_nanos += gen_nanos;
        self.eval_nanos += eval_nanos;
        self.commit_nanos += commit_nanos;
        self.schedules_verified += schedules_verified;
        self.verify_nanos += verify_nanos;
        self.candidates_bounded += candidates_bounded;
        self.candidates_pruned += candidates_pruned;
        self.early_exits += early_exits;
        self.bound_nanos += bound_nanos;
        self.store_hits += store_hits;
        self.store_misses += store_misses;
    }

    /// Emits every counter into a trace lane as a gauge sample. Under
    /// a deterministic (logical-clock) lane, wall-time counters are
    /// skipped — they would break byte-stable traces.
    pub fn record_counters(&self, lane: &mut Lane) {
        if !lane.is_enabled() {
            return;
        }
        for (name, value, kind) in self.fields() {
            if kind == StatKind::Nanos && lane.deterministic() {
                continue;
            }
            lane.counter(name, value);
        }
    }
}

impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "steps {} | sets gen {} pruned {} eval {} | rollback {} B \
             (clone avoided {} B) | evict {} compact {} | verified {} | \
             bound {} pruned {} early-exit {} | \
             store hit {} miss {} | \
             gen {:.2} ms eval {:.2} ms commit {:.2} ms verify {:.2} ms \
             bound {:.2} ms",
            self.steps,
            self.sets_generated,
            self.sets_pruned,
            self.sets_evaluated,
            self.rollback_bytes,
            self.clone_bytes_avoided,
            self.evictions,
            self.compactions,
            self.schedules_verified,
            self.candidates_bounded,
            self.candidates_pruned,
            self.early_exits,
            self.store_hits,
            self.store_misses,
            self.gen_nanos as f64 / 1e6,
            self.eval_nanos as f64 / 1e6,
            self.commit_nanos as f64 / 1e6,
            self.verify_nanos as f64 / 1e6,
            self.bound_nanos as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stats value with every field distinct and nonzero, built from
    /// the field registry so it stays exhaustive by construction.
    fn sequential() -> SearchStats {
        let mut s = SearchStats {
            steps: 1,
            sets_generated: 2,
            sets_pruned: 3,
            sets_evaluated: 4,
            rollback_bytes: 5,
            clone_bytes_avoided: 6,
            evictions: 7,
            compactions: 8,
            gen_nanos: 9,
            eval_nanos: 10,
            commit_nanos: 11,
            schedules_verified: 12,
            verify_nanos: 13,
            candidates_bounded: 14,
            candidates_pruned: 15,
            early_exits: 16,
            bound_nanos: 17,
            store_hits: 18,
            store_misses: 19,
        };
        // Guard the literal above against field additions.
        assert_eq!(s.fields().len(), 19);
        for (i, (name, value, _)) in s.fields().into_iter().enumerate() {
            assert_eq!(value, i as u64 + 1, "field {name} not sequential");
        }
        s.merge(&SearchStats::default());
        s
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = sequential();
        let b = a;
        a.merge(&b);
        for ((name, merged, _), (_, single, _)) in a.fields().into_iter().zip(b.fields()) {
            assert_eq!(merged, single * 2, "field {name} not additive");
        }
    }

    #[test]
    fn field_names_are_unique() {
        let fields = SearchStats::default().fields();
        for (i, (a, _, _)) in fields.iter().enumerate() {
            for (b, _, _) in &fields[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn deterministic_fields_exclude_wall_time() {
        let s = sequential();
        let det = s.deterministic_fields();
        assert_eq!(det.len(), 14);
        assert!(det.iter().all(|(name, _)| !name.ends_with("_nanos")));
        assert!(det.iter().any(|&(name, v)| name == "steps" && v == 1));
        assert!(det
            .iter()
            .any(|&(name, v)| name == "store_misses" && v == 19));
    }

    #[test]
    fn counters_respect_lane_determinism() {
        use flexer_trace::{ClockMode, TraceConfig, Tracer};
        let s = sequential();
        let tracer = Tracer::new(TraceConfig::default());
        let mut lane = tracer.lane(0, "stats");
        s.record_counters(&mut lane);
        assert_eq!(lane.len(), s.deterministic_fields().len());
        let tracer = Tracer::new(TraceConfig {
            clock: ClockMode::Wall,
            ..TraceConfig::default()
        });
        let mut lane = tracer.lane(0, "stats");
        s.record_counters(&mut lane);
        assert_eq!(lane.len(), s.fields().len());
        let mut off = flexer_trace::Lane::off();
        s.record_counters(&mut off);
        assert!(off.is_empty());
    }

    #[test]
    fn display_mentions_every_counter_group() {
        let s = SearchStats::default().to_string();
        assert!(s.contains("steps"));
        assert!(s.contains("rollback"));
        assert!(s.contains("evict"));
        assert!(s.contains("eval"));
        assert!(s.contains("store hit"));
    }
}
