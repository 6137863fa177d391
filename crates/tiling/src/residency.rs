//! Cross-layer SPM tensor residency.
//!
//! Per-layer scheduling round-trips every tensor through DRAM: a
//! layer's output tiles are stored off-chip and the consumer layer
//! loads them back as compulsory input traffic. When the network-level
//! planner decides a producer→consumer edge keeps the tensor resident
//! in a reserved SPM region instead, both sides of the edge schedule
//! against a [`Residency`] that turns those transfers into on-chip
//! gathers/scatters: same DMA-engine occupancy, zero DRAM bytes.

use serde::{Deserialize, Serialize};

/// A layer's view of the network-level residency plan: whether its
/// input tensor arrives resident in SPM (the producer kept it on-chip)
/// and whether its final output tensor stays resident for the consumer
/// (instead of being stored to DRAM).
///
/// The default is fully off — both flags false — which reproduces
/// per-layer scheduling byte-for-byte. The flags are part of the cache
/// key and the store fingerprint: a schedule computed under one
/// residency is never replayed under another.
///
/// # Examples
///
/// ```
/// use flexer_tiling::Residency;
///
/// let off = Residency::default();
/// assert!(!off.input_resident && !off.output_resident);
/// assert!(!off.any());
/// assert!(Residency { input_resident: true, output_resident: false }.any());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Residency {
    /// The layer's input tensor is already resident in SPM: input tile
    /// loads become on-chip gathers (DMA-occupying, zero DRAM bytes).
    #[serde(default)]
    pub input_resident: bool,
    /// The layer's output tensor stays resident in SPM for its
    /// consumer: final output stores become on-chip scatters into the
    /// reserved residency region (DMA-occupying, zero DRAM bytes).
    #[serde(default)]
    pub output_resident: bool,
}

impl Residency {
    /// `true` when either side of the layer is resident.
    #[must_use]
    pub fn any(self) -> bool {
        self.input_resident || self.output_resident
    }
}
