//! Hardware configuration of the multi-NPU accelerator.

use flexer_model::ElementSize;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned for inconsistent [`ArchConfig`] parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchConfigError {
    message: String,
}

impl fmt::Display for ArchConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid architecture configuration: {}", self.message)
    }
}

impl Error for ArchConfigError {}

impl ArchConfigError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

/// The eight hardware configurations of the paper's Table 1.
///
/// |        | cores | on-chip memory | bandwidth |
/// |--------|-------|----------------|-----------|
/// | arch1  | 2     | 256 KiB        | 32 B/cyc  |
/// | arch2  | 2     | 256 KiB        | 64 B/cyc  |
/// | arch3  | 2     | 512 KiB        | 32 B/cyc  |
/// | arch4  | 2     | 512 KiB        | 64 B/cyc  |
/// | arch5  | 4     | 256 KiB        | 32 B/cyc  |
/// | arch6  | 4     | 256 KiB        | 64 B/cyc  |
/// | arch7  | 4     | 512 KiB        | 32 B/cyc  |
/// | arch8  | 4     | 512 KiB        | 64 B/cyc  |
///
/// At the 1 GHz clock of the paper's NPUs, 32 B/cycle equals 32 GB/s.
///
/// # Examples
///
/// ```
/// use flexer_arch::ArchPreset;
///
/// assert_eq!(ArchPreset::all().len(), 8);
/// assert_eq!(ArchPreset::Arch7.to_string(), "arch7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ArchPreset {
    Arch1,
    Arch2,
    Arch3,
    Arch4,
    Arch5,
    Arch6,
    Arch7,
    Arch8,
}

impl ArchPreset {
    /// All eight presets in Table-1 order.
    #[must_use]
    pub const fn all() -> [ArchPreset; 8] {
        [
            ArchPreset::Arch1,
            ArchPreset::Arch2,
            ArchPreset::Arch3,
            ArchPreset::Arch4,
            ArchPreset::Arch5,
            ArchPreset::Arch6,
            ArchPreset::Arch7,
            ArchPreset::Arch8,
        ]
    }

    /// `(cores, spm KiB, bandwidth bytes/cycle)` of this preset.
    #[must_use]
    pub const fn parameters(self) -> (u32, u64, u64) {
        match self {
            ArchPreset::Arch1 => (2, 256, 32),
            ArchPreset::Arch2 => (2, 256, 64),
            ArchPreset::Arch3 => (2, 512, 32),
            ArchPreset::Arch4 => (2, 512, 64),
            ArchPreset::Arch5 => (4, 256, 32),
            ArchPreset::Arch6 => (4, 256, 64),
            ArchPreset::Arch7 => (4, 512, 32),
            ArchPreset::Arch8 => (4, 512, 64),
        }
    }
}

impl fmt::Display for ArchPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = match self {
            ArchPreset::Arch1 => 1,
            ArchPreset::Arch2 => 2,
            ArchPreset::Arch3 => 3,
            ArchPreset::Arch4 => 4,
            ArchPreset::Arch5 => 5,
            ArchPreset::Arch6 => 6,
            ArchPreset::Arch7 => 7,
            ArchPreset::Arch8 => 8,
        };
        write!(f, "arch{n}")
    }
}

impl std::str::FromStr for ArchPreset {
    type Err = ArchConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "arch1" => Ok(ArchPreset::Arch1),
            "arch2" => Ok(ArchPreset::Arch2),
            "arch3" => Ok(ArchPreset::Arch3),
            "arch4" => Ok(ArchPreset::Arch4),
            "arch5" => Ok(ArchPreset::Arch5),
            "arch6" => Ok(ArchPreset::Arch6),
            "arch7" => Ok(ArchPreset::Arch7),
            "arch8" => Ok(ArchPreset::Arch8),
            other => Err(ArchConfigError::new(format!("unknown preset {other:?}"))),
        }
    }
}

/// One class of identical cores within a heterogeneous accelerator:
/// `count` cores with a `pe_rows x pe_cols` array, contributing
/// `spm_share_bytes` to the shared global buffer (per Stream-style
/// big.LITTLE NPU designs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoreClass {
    /// Number of cores of this class.
    pub count: u32,
    /// PE array rows of each core in the class.
    pub pe_rows: u32,
    /// PE array columns of each core in the class.
    pub pe_cols: u32,
    /// Each core's contribution to the shared SPM, in bytes (the
    /// class contributes `count * spm_share_bytes` in total).
    pub spm_share_bytes: u64,
}

impl CoreClass {
    /// Convenience constructor.
    #[must_use]
    pub const fn new(count: u32, pe_rows: u32, pe_cols: u32, spm_share_bytes: u64) -> Self {
        Self {
            count,
            pe_rows,
            pe_cols,
            spm_share_bytes,
        }
    }
}

/// Hardware parameters of a multi-NPU accelerator instance.
///
/// Mirrors the paper's parameterizable architecture (§2.1): the number
/// of NPU cores, the shared on-chip global-buffer size and the DRAM
/// bandwidth are configurable; each core is a `pe_rows x pe_cols`
/// compute array (32x32 in the evaluation, §5).
///
/// A configuration may optionally be *heterogeneous*: built from
/// [`CoreClass`]es with differing PE arrays and SPM shares (see
/// [`ArchConfigBuilder::heterogeneous`]). The scheduler still treats
/// cores as interchangeable units, so the effective parameters are
/// conservative: the core count and SPM are the sums over classes,
/// while the modelled PE array is the *weakest* class's (per-axis
/// minimum) — any schedule valid under the weakest-core latency model
/// is valid on the real mix. The class list is retained for display
/// and cache-key identity.
///
/// # Examples
///
/// ```
/// use flexer_arch::{ArchConfig, ArchPreset};
///
/// let arch = ArchConfig::preset(ArchPreset::Arch3);
/// assert_eq!(arch.cores(), 2);
/// assert_eq!(arch.spm_bytes(), 512 * 1024);
/// assert_eq!(arch.dma_bytes_per_cycle(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArchConfig {
    cores: u32,
    spm_bytes: u64,
    dma_bytes_per_cycle: u64,
    pe_rows: u32,
    pe_cols: u32,
    dram_latency_cycles: u64,
    element_size: ElementSize,
    #[serde(default)]
    core_classes: Vec<CoreClass>,
}

impl ArchConfig {
    /// Creates the configuration for one of the paper's Table-1
    /// presets: 32x32 PEs per core, 100-cycle DRAM access latency and
    /// int8 elements.
    #[must_use]
    pub fn preset(preset: ArchPreset) -> Self {
        let (cores, spm_kib, bpc) = preset.parameters();
        ArchConfigBuilder::new(cores, spm_kib * 1024, bpc)
            .build()
            .expect("table-1 presets are valid")
    }

    /// Number of NPU cores sharing the global buffer.
    #[must_use]
    pub const fn cores(&self) -> u32 {
        self.cores
    }

    /// Size of the shared on-chip global buffer in bytes.
    #[must_use]
    pub const fn spm_bytes(&self) -> u64 {
        self.spm_bytes
    }

    /// Off-chip bandwidth in bytes per cycle (equals GB/s at 1 GHz).
    #[must_use]
    pub const fn dma_bytes_per_cycle(&self) -> u64 {
        self.dma_bytes_per_cycle
    }

    /// Rows of each core's PE array.
    #[must_use]
    pub const fn pe_rows(&self) -> u32 {
        self.pe_rows
    }

    /// Columns of each core's PE array.
    #[must_use]
    pub const fn pe_cols(&self) -> u32 {
        self.pe_cols
    }

    /// Fixed DRAM access latency added to every DMA transfer, in cycles.
    #[must_use]
    pub const fn dram_latency_cycles(&self) -> u64 {
        self.dram_latency_cycles
    }

    /// Element width of activations and weights.
    #[must_use]
    pub const fn element_size(&self) -> ElementSize {
        self.element_size
    }

    /// The heterogeneous core classes this configuration was built
    /// from; empty for homogeneous configurations.
    #[must_use]
    pub fn core_classes(&self) -> &[CoreClass] {
        &self.core_classes
    }

    /// Whether the configuration was built from heterogeneous core
    /// classes.
    #[must_use]
    fn is_heterogeneous(&self) -> bool {
        !self.core_classes.is_empty()
    }

    /// The `hetero1` reference configuration: a big.LITTLE mix of one
    /// 32x32-PE core with a 160 KiB SPM share and two 16x16-PE cores
    /// with 48 KiB shares — 3 cores, 256 KiB total, 32 B/cycle, like
    /// [`ArchPreset::Arch1`] with an extra pair of little cores.
    #[must_use]
    pub fn hetero1() -> Self {
        ArchConfigBuilder::heterogeneous(
            vec![
                CoreClass::new(1, 32, 32, 160 * 1024),
                CoreClass::new(2, 16, 16, 48 * 1024),
            ],
            32,
        )
        .build()
        .expect("static hetero1 spec is valid")
    }
}

impl fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_heterogeneous() {
            write!(f, "hetero [")?;
            for (i, c) in self.core_classes.iter().enumerate() {
                if i > 0 {
                    write!(f, " + ")?;
                }
                write!(f, "{}x {}x{} PEs", c.count, c.pe_rows, c.pe_cols)?;
            }
            return write!(
                f,
                "], {} KiB SPM, {} B/cyc DRAM",
                self.spm_bytes / 1024,
                self.dma_bytes_per_cycle
            );
        }
        write!(
            f,
            "{} cores x {}x{} PEs, {} KiB SPM, {} B/cyc DRAM",
            self.cores,
            self.pe_rows,
            self.pe_cols,
            self.spm_bytes / 1024,
            self.dma_bytes_per_cycle
        )
    }
}

/// Builder for custom [`ArchConfig`] instances.
///
/// # Examples
///
/// ```
/// use flexer_arch::ArchConfigBuilder;
///
/// // An 8-core device with a 1 MiB buffer and a wider DRAM link.
/// let arch = ArchConfigBuilder::new(8, 1024 * 1024, 128)
///     .pe_array(16, 16)
///     .dram_latency(80)
///     .build()?;
/// assert_eq!(arch.cores(), 8);
/// # Ok::<(), flexer_arch::ArchConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArchConfigBuilder {
    config: ArchConfig,
}

impl ArchConfigBuilder {
    /// Starts a configuration from the three Table-1 axes. PE array
    /// defaults to 32x32, DRAM latency to 100 cycles, elements to int8.
    #[must_use]
    pub fn new(cores: u32, spm_bytes: u64, dma_bytes_per_cycle: u64) -> Self {
        Self {
            config: ArchConfig {
                cores,
                spm_bytes,
                dma_bytes_per_cycle,
                pe_rows: 32,
                pe_cols: 32,
                dram_latency_cycles: 100,
                element_size: ElementSize::Int8,
                core_classes: Vec::new(),
            },
        }
    }

    /// Starts a heterogeneous configuration from a list of core
    /// classes. The effective parameters are derived conservatively:
    /// `cores` and `spm_bytes` sum over the classes, the PE array is
    /// the per-axis minimum (weakest core), so the latency model never
    /// underestimates any core. DRAM latency and element size default
    /// as in [`ArchConfigBuilder::new`] and remain settable.
    #[must_use]
    pub fn heterogeneous(classes: Vec<CoreClass>, dma_bytes_per_cycle: u64) -> Self {
        let cores = classes.iter().map(|c| c.count).sum();
        let spm_bytes = classes
            .iter()
            .map(|c| u64::from(c.count) * c.spm_share_bytes)
            .sum();
        let pe_rows = classes.iter().map(|c| c.pe_rows).min().unwrap_or(0);
        let pe_cols = classes.iter().map(|c| c.pe_cols).min().unwrap_or(0);
        let mut b = Self::new(cores, spm_bytes, dma_bytes_per_cycle).pe_array(pe_rows, pe_cols);
        b.config.core_classes = classes;
        b
    }

    /// Sets the per-core PE array extents.
    #[must_use]
    pub fn pe_array(mut self, rows: u32, cols: u32) -> Self {
        self.config.pe_rows = rows;
        self.config.pe_cols = cols;
        self
    }

    /// Sets the fixed DRAM access latency in cycles.
    #[must_use]
    pub fn dram_latency(mut self, cycles: u64) -> Self {
        self.config.dram_latency_cycles = cycles;
        self
    }

    /// Sets the element width.
    #[must_use]
    pub fn element_size(mut self, elem: ElementSize) -> Self {
        self.config.element_size = elem;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchConfigError`] when any structural parameter
    /// (cores, SPM size, bandwidth, PE extents) is zero.
    pub fn build(self) -> Result<ArchConfig, ArchConfigError> {
        let c = &self.config;
        if c.cores == 0 {
            return Err(ArchConfigError::new("core count must be positive"));
        }
        if c.spm_bytes == 0 {
            return Err(ArchConfigError::new("SPM size must be positive"));
        }
        if c.dma_bytes_per_cycle == 0 {
            return Err(ArchConfigError::new("DRAM bandwidth must be positive"));
        }
        if c.pe_rows == 0 || c.pe_cols == 0 {
            return Err(ArchConfigError::new("PE array extents must be positive"));
        }
        for class in &c.core_classes {
            if class.count == 0 || class.pe_rows == 0 || class.pe_cols == 0 {
                return Err(ArchConfigError::new(
                    "core-class counts and PE extents must be positive",
                ));
            }
            if class.spm_share_bytes == 0 {
                return Err(ArchConfigError::new(
                    "core-class SPM shares must be positive",
                ));
            }
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets() {
        let expect = [
            (2u32, 256u64, 32u64),
            (2, 256, 64),
            (2, 512, 32),
            (2, 512, 64),
            (4, 256, 32),
            (4, 256, 64),
            (4, 512, 32),
            (4, 512, 64),
        ];
        for (preset, (cores, kib, bpc)) in ArchPreset::all().into_iter().zip(expect) {
            let arch = ArchConfig::preset(preset);
            assert_eq!(arch.cores(), cores, "{preset}");
            assert_eq!(arch.spm_bytes(), kib * 1024, "{preset}");
            assert_eq!(arch.dma_bytes_per_cycle(), bpc, "{preset}");
            assert_eq!(arch.pe_rows(), 32);
            assert_eq!(arch.pe_cols(), 32);
        }
    }

    #[test]
    fn preset_parse_round_trips() {
        for preset in ArchPreset::all() {
            let parsed: ArchPreset = preset.to_string().parse().unwrap();
            assert_eq!(parsed, preset);
        }
        assert!("arch9".parse::<ArchPreset>().is_err());
    }

    #[test]
    fn builder_customization() {
        let arch = ArchConfigBuilder::new(8, 1 << 20, 128)
            .pe_array(16, 64)
            .dram_latency(50)
            .element_size(ElementSize::Fp16)
            .build()
            .unwrap();
        assert_eq!(arch.cores(), 8);
        assert_eq!(arch.pe_rows(), 16);
        assert_eq!(arch.pe_cols(), 64);
        assert_eq!(arch.dram_latency_cycles(), 50);
        assert_eq!(arch.element_size(), ElementSize::Fp16);
    }

    #[test]
    fn builder_rejects_zero_parameters() {
        assert!(ArchConfigBuilder::new(0, 1024, 32).build().is_err());
        assert!(ArchConfigBuilder::new(2, 0, 32).build().is_err());
        assert!(ArchConfigBuilder::new(2, 1024, 0).build().is_err());
        assert!(ArchConfigBuilder::new(2, 1024, 32)
            .pe_array(0, 32)
            .build()
            .is_err());
    }

    #[test]
    fn display_mentions_key_parameters() {
        let s = ArchConfig::preset(ArchPreset::Arch6).to_string();
        assert!(s.contains("4 cores"));
        assert!(s.contains("256 KiB"));
        assert!(s.contains("64 B/cyc"));
    }

    #[test]
    fn hetero1_effective_parameters_are_conservative() {
        let arch = ArchConfig::hetero1();
        assert!(arch.is_heterogeneous());
        assert_eq!(arch.core_classes().len(), 2);
        // Sums: 1 big + 2 little cores, 160 + 2*48 KiB SPM.
        assert_eq!(arch.cores(), 3);
        assert_eq!(arch.spm_bytes(), 256 * 1024);
        // Weakest-core PE array: the 16x16 littles.
        assert_eq!(arch.pe_rows(), 16);
        assert_eq!(arch.pe_cols(), 16);
        assert_eq!(arch.dma_bytes_per_cycle(), 32);
    }

    #[test]
    fn hetero_effective_pe_minimum_is_per_axis() {
        // A 8x64 class mixed with a 64x8 class models as 8x8.
        let arch = ArchConfigBuilder::heterogeneous(
            vec![
                CoreClass::new(1, 8, 64, 1024),
                CoreClass::new(1, 64, 8, 1024),
            ],
            32,
        )
        .build()
        .unwrap();
        assert_eq!((arch.pe_rows(), arch.pe_cols()), (8, 8));
        assert_eq!(arch.cores(), 2);
        assert_eq!(arch.spm_bytes(), 2048);
    }

    #[test]
    fn hetero_differs_from_equivalent_homogeneous_config() {
        let hetero =
            ArchConfigBuilder::heterogeneous(vec![CoreClass::new(2, 32, 32, 128 * 1024)], 32)
                .build()
                .unwrap();
        let homo = ArchConfigBuilder::new(2, 256 * 1024, 32).build().unwrap();
        assert_eq!(hetero.cores(), homo.cores());
        assert_eq!(hetero.spm_bytes(), homo.spm_bytes());
        // Same effective parameters, distinct identity (cache keys
        // never alias across the two).
        assert_ne!(hetero, homo);
    }

    #[test]
    fn hetero_rejects_degenerate_classes() {
        assert!(
            ArchConfigBuilder::heterogeneous(vec![CoreClass::new(0, 32, 32, 1024)], 32)
                .build()
                .is_err()
        );
        assert!(
            ArchConfigBuilder::heterogeneous(vec![CoreClass::new(1, 0, 32, 1024)], 32)
                .build()
                .is_err()
        );
        assert!(
            ArchConfigBuilder::heterogeneous(vec![CoreClass::new(1, 32, 32, 0)], 32)
                .build()
                .is_err()
        );
        assert!(ArchConfigBuilder::heterogeneous(vec![], 32)
            .build()
            .is_err());
    }

    #[test]
    fn hetero_display_lists_classes() {
        let s = ArchConfig::hetero1().to_string();
        assert!(s.contains("hetero"), "{s}");
        assert!(s.contains("1x 32x32 PEs"), "{s}");
        assert!(s.contains("2x 16x16 PEs"), "{s}");
        assert!(s.contains("256 KiB"), "{s}");
    }
}
