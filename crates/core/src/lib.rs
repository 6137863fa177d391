//! **Flexer** — out-of-order tile scheduling for multi-NPU
//! accelerators.
//!
//! A from-scratch reproduction of *"Flexer: Out-of-Order Scheduling
//! for Multi-NPUs"* (Min, Kwon, Egger — CGO 2023). Flexer schedules
//! the tiled operations of a DNN layer onto multiple NPU cores sharing
//! an on-chip buffer, like a list instruction scheduler treating each
//! NPU as a functional unit: every step it picks the set of ready
//! operations that maximizes data reuse in the shared buffer,
//! inserting loads and spills on the fly. Against the best *static
//! loop-order* schedule it reduces latency and off-chip traffic by
//! exploiting irregular reuse patterns no fixed loop order can
//! express.
//!
//! This facade crate re-exports the subsystem crates and adds the
//! high-level [`Flexer`] driver plus network-level reports.
//!
//! # Quickstart
//!
//! ```
//! use flexer::prelude::*;
//!
//! // A small custom layer on the paper's arch1 (2 cores, 256 KiB).
//! let layer = ConvLayer::new("demo", 32, 14, 14, 32)?;
//! let arch = ArchConfig::preset(ArchPreset::Arch1);
//!
//! let driver = Flexer::new(arch).with_options(SearchOptions::quick());
//! let result = driver.schedule_layer(&layer)?;
//! println!(
//!     "best schedule: {} cycles, {} bytes ({} / {})",
//!     result.schedule.latency(),
//!     result.schedule.transfer_bytes(),
//!     result.factors,
//!     result.dataflow,
//! );
//!
//! // The best static loop-order baseline is the same search with the
//! // other scheduler.
//! let baseline = driver.search(&[layer], SchedulerKind::Static, None, None);
//! let baseline = baseline.into_result()?;
//! assert!(baseline[0].schedule.latency() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`flexer_model`] | Conv-layer specs, VGG16 / ResNet50 / SqueezeNet / YOLOv2 |
//! | [`flexer_arch`] | Hardware configs (Table 1), performance model |
//! | [`flexer_tiling`] | Tilings, dataflows, data-flow graphs |
//! | [`flexer_spm`] | Shared-buffer model, Algorithm-2 spill heuristics |
//! | [`flexer_sim`] | Timelines, schedule records, traffic stats, validation |
//! | [`flexer_sched`] | OoO scheduler, static baseline, Algorithm-1 search |
//! | [`flexer_trace`] | Deterministic tracing: spans, counters, Chrome export |
//! | [`flexer_store`] | Persistent content-addressed schedule cache |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod report;
mod residency;
mod tier;

pub use driver::Flexer;
pub use report::{LayerComparison, NetworkComparison, NetworkResult};
pub use residency::{replay_ledger, EdgeDecision, LedgerOp, ResidencyPlan, ResidentNetworkResult};

pub use flexer_arch as arch;
pub use flexer_model as model;
pub use flexer_sched as sched;
pub use flexer_sim as sim;
pub use flexer_solve as solve;
pub use flexer_spm as spm;
pub use flexer_store as store;
pub use flexer_tiling as tiling;
pub use flexer_trace as trace;

/// The most commonly used items, re-exported for `use flexer::prelude::*`.
pub mod prelude {
    pub use crate::driver::Flexer;
    pub use crate::report::{LayerComparison, NetworkComparison, NetworkResult};
    pub use crate::residency::{
        replay_ledger, EdgeDecision, LedgerOp, ResidencyPlan, ResidentNetworkResult,
    };
    pub use flexer_arch::{
        ArchConfig, ArchConfigBuilder, ArchPreset, EnergyBreakdown, EnergyModel, PerfModel,
        SystolicModel,
    };
    pub use flexer_model::{networks, scale_spatial, ConvLayer, ConvLayerBuilder, Network};
    pub use flexer_sched::{
        EvalMode, Metric, PriorityPolicy, SchedulerKind, Search, SearchOptions, SearchOutcome,
        SearchRun, SearchStats, SpillPolicyChoice, TraceOptions,
    };
    pub use flexer_sim::{
        onchip_reference_traffic, schedule_energy, schedule_trace, validate_schedule, TrafficClass,
    };
    pub use flexer_store::{Lookup, ScheduleStore, StoreCounters};
    pub use flexer_tiling::{Dataflow, Dfg, TileKind, TilingFactors, TilingOptions};
    pub use flexer_trace::{ClockMode, Trace, TraceDetail};
}
