//! Resource timelines.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A cycle computation overflowed `u64`.
///
/// Timelines advance monotonically; on adversarial architecture
/// configurations (enormous latencies, degenerate bandwidths) the
/// running cycle counts can exceed `u64::MAX`, which previously
/// wrapped silently in release builds and produced schedules whose
/// "end" preceded their "start". All arithmetic is checked now and
/// surfaces this typed error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimelineError {
    /// `start + cycles` exceeded `u64::MAX` when issuing an operation.
    CycleOverflow {
        /// The start cycle of the operation being issued.
        start: u64,
        /// Its duration in cycles.
        cycles: u64,
    },
    /// A core's accumulated busy-cycle counter exceeded `u64::MAX`.
    BusyOverflow {
        /// The core whose counter overflowed.
        core: u32,
    },
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::CycleOverflow { start, cycles } => {
                write!(
                    f,
                    "cycle count overflow: start {start} + {cycles} cycles exceeds u64"
                )
            }
            TimelineError::BusyOverflow { core } => {
                write!(f, "busy-cycle counter of core {core} overflowed u64")
            }
        }
    }
}

impl Error for TimelineError {}

/// Availability timelines of the accelerator's contended resources:
/// one per NPU core plus the single shared DMA channel to off-chip
/// memory.
///
/// All memory operations serialize on the DMA channel (the paper's
/// architecture has one off-chip link of configurable bandwidth);
/// compute operations occupy exactly one core each.
///
/// # Examples
///
/// ```
/// use flexer_sim::Timeline;
///
/// let mut t = Timeline::new(2);
/// let (s1, e1) = t.issue_dma(50)?;
/// let (s2, e2) = t.issue_dma(30)?;
/// assert_eq!((s1, e1), (0, 50));
/// assert_eq!((s2, e2), (50, 80)); // serialized after the first
///
/// let (cs, ce) = t.issue_compute(0, e1, 100)?;
/// assert_eq!((cs, ce), (50, 150));
/// # Ok::<(), flexer_sim::TimelineError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timeline {
    core_free: Vec<u64>,
    core_busy: Vec<u64>,
    dma_free: u64,
}

impl Timeline {
    /// Creates timelines for `cores` NPU cores, all idle at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0, "at least one core required");
        Self {
            core_free: vec![0; cores as usize],
            core_busy: vec![0; cores as usize],
            dma_free: 0,
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> u32 {
        self.core_free.len() as u32
    }

    /// The cycle at which `core` becomes free.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_free(&self, core: u32) -> u64 {
        self.core_free[core as usize]
    }

    /// Busy cycles accumulated on `core` so far.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_busy(&self, core: u32) -> u64 {
        self.core_busy[core as usize]
    }

    /// The cycle at which the DMA channel becomes free.
    #[must_use]
    pub const fn dma_free(&self) -> u64 {
        self.dma_free
    }

    /// Issues a DMA transfer of `cycles` cycles at the earliest
    /// possible time; returns `(start, end)`.
    ///
    /// # Errors
    ///
    /// [`TimelineError::CycleOverflow`] if the end cycle exceeds
    /// `u64::MAX`.
    pub fn issue_dma(&mut self, cycles: u64) -> Result<(u64, u64), TimelineError> {
        self.issue_dma_after(0, cycles)
    }

    /// Issues a DMA transfer of `cycles` cycles starting no earlier
    /// than `earliest` (e.g. the cycle its data is produced); returns
    /// `(start, end)`.
    ///
    /// # Errors
    ///
    /// [`TimelineError::CycleOverflow`] if the end cycle exceeds
    /// `u64::MAX`.
    pub fn issue_dma_after(
        &mut self,
        earliest: u64,
        cycles: u64,
    ) -> Result<(u64, u64), TimelineError> {
        let start = self.dma_free.max(earliest);
        let end = start
            .checked_add(cycles)
            .ok_or(TimelineError::CycleOverflow { start, cycles })?;
        self.dma_free = end;
        Ok((start, end))
    }

    /// Issues a compute operation of `cycles` cycles on `core`,
    /// starting no earlier than `earliest` (data readiness) and no
    /// earlier than the core's availability; returns `(start, end)`.
    ///
    /// # Errors
    ///
    /// [`TimelineError::CycleOverflow`] if the end cycle exceeds
    /// `u64::MAX`; [`TimelineError::BusyOverflow`] if the core's busy
    /// counter does.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn issue_compute(
        &mut self,
        core: u32,
        earliest: u64,
        cycles: u64,
    ) -> Result<(u64, u64), TimelineError> {
        let idx = core as usize;
        let start = self.core_free[idx].max(earliest);
        let end = start
            .checked_add(cycles)
            .ok_or(TimelineError::CycleOverflow { start, cycles })?;
        let busy = self.core_busy[idx]
            .checked_add(cycles)
            .ok_or(TimelineError::BusyOverflow { core })?;
        self.core_free[idx] = end;
        self.core_busy[idx] = busy;
        Ok((start, end))
    }

    /// The latest cycle at which any resource is busy.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.core_free
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.dma_free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dma_serializes() {
        let mut t = Timeline::new(1);
        assert_eq!(t.issue_dma(10).unwrap(), (0, 10));
        assert_eq!(t.issue_dma(5).unwrap(), (10, 15));
        assert_eq!(t.dma_free(), 15);
    }

    #[test]
    fn cores_are_independent() {
        let mut t = Timeline::new(2);
        assert_eq!(t.issue_compute(0, 0, 100).unwrap(), (0, 100));
        assert_eq!(t.issue_compute(1, 0, 50).unwrap(), (0, 50));
        assert_eq!(t.core_free(0), 100);
        assert_eq!(t.core_free(1), 50);
    }

    #[test]
    fn compute_waits_for_data_and_core() {
        let mut t = Timeline::new(1);
        t.issue_compute(0, 0, 100).unwrap();
        // Data ready at 20 but the core is busy until 100.
        assert_eq!(t.issue_compute(0, 20, 10).unwrap(), (100, 110));
        // Core free at 110, data ready at 200.
        assert_eq!(t.issue_compute(0, 200, 10).unwrap(), (200, 210));
    }

    #[test]
    fn busy_accounting_excludes_idle_gaps() {
        let mut t = Timeline::new(1);
        t.issue_compute(0, 100, 10).unwrap();
        assert_eq!(t.core_busy(0), 10);
        assert_eq!(t.core_free(0), 110);
    }

    #[test]
    fn horizon_covers_all_resources() {
        let mut t = Timeline::new(2);
        t.issue_compute(0, 0, 10).unwrap();
        t.issue_dma(500).unwrap();
        assert_eq!(t.horizon(), 500);
    }

    #[test]
    fn dma_after_respects_earliest_and_queue() {
        let mut t = Timeline::new(1);
        // Earliest in the future: waits.
        assert_eq!(t.issue_dma_after(100, 10).unwrap(), (100, 110));
        // Earliest in the past: queues behind the previous transfer.
        assert_eq!(t.issue_dma_after(50, 10).unwrap(), (110, 120));
    }

    #[test]
    fn dma_overflow_is_a_typed_error_not_a_wrap() {
        let mut t = Timeline::new(1);
        let err = t.issue_dma_after(u64::MAX - 5, 10).unwrap_err();
        assert!(matches!(err, TimelineError::CycleOverflow { .. }), "{err}");
        // The failed issue must not corrupt the timeline.
        assert_eq!(t.dma_free(), 0);
        assert_eq!(t.issue_dma(7).unwrap(), (0, 7));
    }

    #[test]
    fn compute_overflow_is_a_typed_error_not_a_wrap() {
        let mut t = Timeline::new(2);
        let err = t.issue_compute(1, u64::MAX - 1, 2).unwrap_err();
        assert!(matches!(err, TimelineError::CycleOverflow { .. }), "{err}");
        assert_eq!(t.core_free(1), 0);
        assert_eq!(t.core_busy(1), 0);
    }

    #[test]
    fn busy_overflow_is_detected() {
        let mut t = Timeline::new(1);
        t.issue_compute(0, 0, u64::MAX).unwrap();
        // A second op of any length overflows the end cycle first; the
        // busy counter path needs a fresh timeline whose busy sum, but
        // not end cycle, would wrap. End == busy here, so CycleOverflow
        // fires; both are rejected rather than wrapped.
        let err = t.issue_compute(0, 0, 1).unwrap_err();
        assert!(matches!(
            err,
            TimelineError::CycleOverflow { .. } | TimelineError::BusyOverflow { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = Timeline::new(0);
    }

    #[test]
    fn errors_render() {
        let e = TimelineError::CycleOverflow {
            start: 9,
            cycles: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = TimelineError::BusyOverflow { core: 3 };
        assert!(e.to_string().contains('3'));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The hardened invariant: every successful issue satisfies
        // `end >= start >= earliest`, and every overflow is reported
        // as a typed error instead of wrapping.
        fn issued_ops_never_end_before_they_start(
            earliest in prop_oneof![0u64..1_000_000, u64::MAX - 1_000..=u64::MAX],
            cycles in prop_oneof![0u64..1_000_000, u64::MAX - 1_000..=u64::MAX],
            core in 0u32..4,
        ) {
            let mut t = Timeline::new(4);
            match t.issue_dma_after(earliest, cycles) {
                Ok((start, end)) => {
                    prop_assert!(start >= earliest);
                    prop_assert!(end >= start);
                    prop_assert_eq!(end - start, cycles);
                }
                Err(e) => prop_assert!(matches!(e, TimelineError::CycleOverflow { .. })),
            }
            match t.issue_compute(core, earliest, cycles) {
                Ok((start, end)) => {
                    prop_assert!(start >= earliest);
                    prop_assert!(end >= start);
                    prop_assert!(t.core_busy(core) == cycles);
                }
                Err(e) => prop_assert!(matches!(
                    e,
                    TimelineError::CycleOverflow { .. } | TimelineError::BusyOverflow { .. }
                )),
            }
            prop_assert!(t.horizon() >= t.dma_free());
        }
    }
}
