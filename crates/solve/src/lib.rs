//! Admissible scheduling bounds, no SPM simulation required.
//!
//! The exact search in `flexer-sched` evaluates every (tiling,
//! dataflow) candidate by actually running a scheduler — building the
//! DFG, simulating the shared buffer, committing operation sets. This
//! crate supplies the closed-form floor that search prunes against:
//! an admissible [`ScheduleBound`] per (layer, tiling) pair that no
//! legal schedule can beat, scored by the same ranking [`Metric`] as
//! the schedules themselves. Branch-and-bound pruning and the anytime
//! optimality gap both rest on it.
//!
//! Everything here is arithmetic over the layer's tile geometry —
//! no DFG, no scheduler, no simulation — so bounding thousands of
//! candidates costs microseconds, not seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bound;
mod metric;

pub use bound::{lower_bound, lower_bound_resident, ScheduleBound};
pub use metric::Metric;
