//! Parameterizable multi-NPU accelerator model.
//!
//! The paper evaluates Flexer on a multi-NPU accelerator developed by
//! Samsung Research: `n` NPU cores (each a 32x32 PE array at 1 GHz)
//! sharing an on-chip scratchpad ("global buffer") and a DRAM link of
//! configurable bandwidth (paper §2.1, §5 and Table 1). That hardware
//! and its cycle-accurate simulator are proprietary; this crate
//! provides the analytical substitute described in DESIGN.md §2:
//!
//! * [`ArchConfig`] — the hardware parameters, with the eight Table-1
//!   presets available through [`ArchPreset`];
//! * [`PerfModel`] / [`SystolicModel`] — per-operation latency for a
//!   tiled convolution and per-transfer latency for DMA traffic.
//!
//! The paper only requires that "a cycle-accurate performance model
//! must be available to compute the latency of operations for given
//! data (tile) sizes"; the scheduler is agnostic to how those cycle
//! counts are produced.
//!
//! # Examples
//!
//! ```
//! use flexer_arch::{ArchConfig, ArchPreset, ConvTileDims, PerfModel, SystolicModel};
//!
//! let arch = ArchConfig::preset(ArchPreset::Arch5);
//! assert_eq!(arch.cores(), 4);
//! let model = SystolicModel::new(&arch);
//! let tile = ConvTileDims {
//!     out_channels: 64,
//!     in_channels: 32,
//!     out_height: 14,
//!     out_width: 14,
//!     kernel_h: 3,
//!     kernel_w: 3,
//! };
//! assert!(model.conv_cycles(&tile) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod perf;

pub use config::{ArchConfig, ArchConfigBuilder, ArchConfigError, ArchPreset, CoreClass};
pub use perf::{ConvTileDims, PerfModel, SystolicModel};
