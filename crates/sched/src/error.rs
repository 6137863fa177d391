//! Scheduler error types.

use crate::verify::VerifyError;
use flexer_sim::TimelineError;
use flexer_spm::AllocError;
use flexer_tiling::TilingError;
use std::error::Error;
use std::fmt;

/// Error returned by the schedulers and the search driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// No tiling of the layer fits the target architecture under the
    /// given options.
    NoViableTiling {
        /// The layer that could not be tiled.
        layer: String,
    },
    /// The scheduler could not place an operation's working set in the
    /// on-chip buffer.
    Alloc(AllocError),
    /// The tiling was rejected while building the data-flow graph.
    Tiling(TilingError),
    /// The scheduler stalled: operations remain but none are ready
    /// (impossible for well-formed DFGs; indicates an internal bug and
    /// is surfaced rather than panicking).
    Stalled {
        /// Operations left unscheduled.
        remaining: usize,
    },
    /// Cycle arithmetic overflowed while timing the schedule
    /// (adversarial architecture configurations).
    Timeline(TimelineError),
    /// A winning schedule failed verification — the scheduler produced
    /// an illegal schedule or a program diverging from it (an internal
    /// bug, surfaced rather than silently reported as a result).
    IllegalSchedule(VerifyError),
    /// A search candidate was cut off because its running score already
    /// exceeded the incumbent — not a real failure, just a candidate
    /// the branch-and-bound layer proved could not win.
    Pruned,
    /// A layer shared its search with an identical earlier layer whose
    /// search failed; wraps the replayed error with the originating
    /// layer's name.
    DuplicateOf {
        /// Name of the leader layer whose search actually failed.
        leader: String,
        /// The leader's error.
        error: Box<SchedError>,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoViableTiling { layer } => {
                write!(
                    f,
                    "no viable tiling for layer {layer:?} on this architecture"
                )
            }
            SchedError::Alloc(e) => write!(f, "on-chip allocation failed: {e}"),
            SchedError::Tiling(e) => write!(f, "tiling rejected: {e}"),
            SchedError::Stalled { remaining } => {
                write!(f, "scheduler stalled with {remaining} operations remaining")
            }
            SchedError::Timeline(e) => write!(f, "schedule timing overflowed: {e}"),
            SchedError::IllegalSchedule(e) => {
                write!(f, "winning schedule failed verification: {e}")
            }
            SchedError::Pruned => {
                write!(f, "candidate pruned: running score exceeded the incumbent")
            }
            SchedError::DuplicateOf { leader, error } => {
                write!(f, "search failed for identical layer {leader:?}: {error}")
            }
        }
    }
}

impl Error for SchedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedError::Alloc(e) => Some(e),
            SchedError::Tiling(e) => Some(e),
            SchedError::Timeline(e) => Some(e),
            SchedError::IllegalSchedule(e) => Some(e),
            SchedError::DuplicateOf { error, .. } => Some(error.as_ref()),
            _ => None,
        }
    }
}

impl From<AllocError> for SchedError {
    fn from(e: AllocError) -> Self {
        SchedError::Alloc(e)
    }
}

impl From<TilingError> for SchedError {
    fn from(e: TilingError) -> Self {
        SchedError::Tiling(e)
    }
}

impl From<TimelineError> for SchedError {
    fn from(e: TimelineError) -> Self {
        SchedError::Timeline(e)
    }
}

impl From<VerifyError> for SchedError {
    fn from(e: VerifyError) -> Self {
        SchedError::IllegalSchedule(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SchedError::NoViableTiling {
            layer: "conv1".into(),
        };
        assert!(e.to_string().contains("conv1"));
        let e = SchedError::Stalled { remaining: 3 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn conversions_preserve_source() {
        let e: SchedError = AllocError::ZeroSize.into();
        assert!(matches!(e, SchedError::Alloc(_)));
        assert!(Error::source(&e).is_some());
        let e: SchedError = TilingError::TooManyOps {
            requested: 10,
            max: 5,
        }
        .into();
        assert!(matches!(e, SchedError::Tiling(_)));
    }

    #[test]
    fn duplicate_wrapper_names_the_leader_and_keeps_the_source() {
        let e = SchedError::DuplicateOf {
            leader: "conv2a".into(),
            error: Box::new(SchedError::NoViableTiling {
                layer: "conv2a".into(),
            }),
        };
        assert!(e.to_string().contains("conv2a"));
        assert!(e.to_string().contains("no viable tiling"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn pruned_display_is_not_alarming() {
        assert!(SchedError::Pruned.to_string().contains("pruned"));
    }
}
