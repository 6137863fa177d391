//! Timing engine, schedule records and statistics.
//!
//! The paper's authors evaluate Flexer with a proprietary cycle-
//! accurate simulator; this crate is the reproduction's substitute
//! (DESIGN.md §2). It provides:
//!
//! * [`Timeline`] — resource timelines for the `n` NPU cores and the
//!   shared DMA channel to off-chip memory;
//! * [`ScheduleBuilder`] / [`Schedule`] — the executable record a
//!   scheduler produces: timed compute operations, timed memory
//!   operations, total latency and traffic statistics;
//! * [`TrafficStats`] / [`TrafficClass`] — transferred bytes split by
//!   data type (input, weight, partial sum, output) with per-tile
//!   reload counts (paper Figure 10);
//! * [`SpatialReuseStats`] — inter-NPU sharing events (paper
//!   Figure 11);
//! * [`validate_schedule`] — structural legality checks (every op
//!   scheduled once, dependencies respected, core/DMA exclusivity);
//! * [`interpret_program`] / [`differential_check`] — a program-level
//!   abstract machine that executes a lowered command stream against a
//!   byte-accurate SPM model and cross-checks the observed traffic
//!   against the analytical schedule;
//! * [`onchip_reference_traffic`] — the infinite-buffer lower bound
//!   where every tile moves at most once (Figure 10's "on-chip" bar);
//! * [`schedule_trace`] — the per-core execution timeline of a
//!   schedule as a `flexer-trace` trace (a machine-readable Gantt
//!   chart, loadable into a Chrome-trace viewer).
//!
//! # Examples
//!
//! ```
//! use flexer_sim::{MemOpKind, ScheduleBuilder, TrafficClass};
//! use flexer_tiling::{OpId, TileId};
//!
//! let mut b = ScheduleBuilder::new(2);
//! let tile = TileId::Input { c: 0, s: 0 };
//! let (_, load_done) =
//!     b.record_mem_op(MemOpKind::Load, TrafficClass::Input, tile, 64, 10, Some(OpId::new(0)))?;
//! let (start, end) = b.record_compute(OpId::new(0), 0, load_done, 100)?;
//! assert_eq!(start, load_done);
//! assert_eq!(end, load_done + 100);
//! let schedule = b.finish();
//! assert_eq!(schedule.latency(), end);
//! assert_eq!(schedule.traffic().total_bytes(), 64);
//! # Ok::<(), flexer_sim::TimelineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod gantt;
mod interp;
mod ledger;
mod reference;
mod render;
mod schedule;
mod traffic;
mod validate;
pub mod wire;

pub use engine::{Timeline, TimelineError};
pub use gantt::schedule_trace;
pub use interp::{
    differential_check, interpret_program, DifferentialError, InterpError, InterpStats, SpmCommand,
};
pub use ledger::{LedgerError, ResidencyLedger};
pub use reference::onchip_reference_traffic;
pub use render::{render_gantt, to_tsv};
pub use schedule::{MemOp, MemOpKind, Schedule, ScheduleBuilder, ScheduledOp, SpatialReuseStats};
pub use traffic::{TrafficClass, TrafficStats};
pub use validate::{validate_schedule, ValidationError};
