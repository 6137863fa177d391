//! Schedulers: Flexer's out-of-order list scheduler, the static
//! loop-order baseline, and the Algorithm-1 search driver.
//!
//! The pipeline mirrors the paper's Figure 4:
//!
//! 1. [`search_layer`] (Algorithm 1) iterates over all viable tilings
//!    and dataflows, calls the out-of-order scheduler
//!    ([`OooScheduler`], `GetSchedule`) for each, and returns the
//!    schedule minimizing a configurable [`Metric`]
//!    (default `latency x transferred-data`).
//! 2. Each `GetSchedule` run keeps a ready queue, forms *operation
//!    sets* of up to `n` ready operations ([`generate_sets`], §4.2's
//!    dataflow-map pruning), ranks them with a [`PriorityPolicy`]
//!    (§4.3: memory benefit, then utilization, then memory-op
//!    latency), manages the shared buffer through `flexer-spm`, and
//!    records timing through `flexer-sim`.
//! 3. The same exhaustive search with the in-order loop-order
//!    scheduler ([`StaticScheduler`], [`SchedulerKind::Static`])
//!    produces the paper's baseline: the best static loop-order
//!    schedule. [`Search`] is the one request value behind every
//!    search — scheduler kind, memo cache, deadline and tracing are
//!    its fields.
//!
//! # Examples
//!
//! ```
//! use flexer_arch::{ArchConfig, ArchPreset};
//! use flexer_model::ConvLayer;
//! use flexer_sched::{search_layer, SchedulerKind, Search, SearchOptions};
//!
//! let layer = ConvLayer::new("conv", 32, 14, 14, 32)?;
//! let arch = ArchConfig::preset(ArchPreset::Arch1);
//! let opts = SearchOptions::quick();
//! let ooo = search_layer(&layer, &arch, &opts)?;
//! let base = Search {
//!     kind: SchedulerKind::Static,
//!     ..Search::new(&arch, &opts)
//! }
//! .run_layer(&layer)?;
//! // Both searches return legal schedules with positive latency.
//! assert!(ooo.schedule.latency() > 0);
//! assert!(base.schedule.latency() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bound;
mod combo;
mod error;
mod exec;
mod memo;
mod metric;
mod ooo;
mod priority;
mod program;
mod search;
mod static_sched;
mod stats;
mod verify;
pub mod wire;

pub use bound::{lower_bound, Cutoff, Incumbent, ScheduleBound};
pub use combo::{dataflow_class, generate_sets, ComboOptions, DataflowClass};
pub use error::SchedError;
pub use memo::MemoCache;
pub use metric::Metric;
pub use ooo::{EvalMode, OooScheduler};
pub use priority::{PriorityPolicy, SetEvaluation};
pub use program::{Command, Program, ProgramError};
pub use search::{
    search_layer, solve_layer, sweep_tilings, verify_layer_result, LayerSearchResult, MemoKey,
    SchedulePoint, SchedulerKind, Search, SearchOptions, SearchOutcome, SearchRun, SeedOptions,
    SpillPolicyChoice, TraceOptions,
};
pub use static_sched::StaticScheduler;
pub use stats::{SearchStats, StatKind};
pub use verify::{verify_schedule_program, VerifyError};
