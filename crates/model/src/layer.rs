//! Convolution layer specifications.

use crate::tensor::{ElementSize, TensorShape};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned when a [`ConvLayer`] specification is inconsistent.
///
/// # Examples
///
/// ```
/// use flexer_model::ConvLayerBuilder;
///
/// // A 7x7 kernel cannot slide over a padded 3x3 input.
/// let err = ConvLayerBuilder::new("bad", 3, 3, 3, 8)
///     .kernel(7, 7)
///     .build()
///     .unwrap_err();
/// assert!(err.to_string().contains("kernel"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpecError {
    message: String,
}

impl LayerSpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for LayerSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid layer specification: {}", self.message)
    }
}

impl Error for LayerSpecError {}

/// The largest byte count any one tensor of a layer (input, weights or
/// output) may have at 4 bytes per element, the widest
/// [`ElementSize`]: 1 TiB. Tiles never exceed their tensor, so every
/// later byte count — working sets, DFG transfers, their sums over a
/// layer's few hundred operations — stays far inside `u64`.
const MAX_TENSOR_BYTES: u64 = 1 << 40;

/// The largest multiply-accumulate count a layer may have: 2^56, so the
/// MACs of a network of up to 256 such layers still sum inside `u64`.
const MAX_MACS: u64 = 1 << 56;

/// The product of `factors`, or `None` when it overflows `u64`.
fn checked_product(factors: &[u32]) -> Option<u64> {
    factors
        .iter()
        .try_fold(1u64, |acc, &f| acc.checked_mul(u64::from(f)))
}

/// The operator kind a [`ConvLayer`] describes.
///
/// Every kind lowers to the same tiled datapath — tiles of inputs,
/// weights and outputs moved between DRAM and the shared SPM, consumed
/// by tiled MAC operations — but the kinds differ in how much of the
/// weight tensor each output channel touches:
///
/// * [`Dense`](LayerKind::Dense): ordinary convolution; every output
///   channel reads every input channel (`K x C x R x S` weights).
/// * [`Matmul`](LayerKind::Matmul): an `M x K x N` matrix multiply
///   expressed as a 1x1 pointwise convolution over an `M x 1` spatial
///   extent. Arithmetically identical to a dense pointwise conv — the
///   kind is a semantic tag (transformer FC/QKV projections) and
///   deliberately shares cached schedules with the equivalent conv.
/// * [`Grouped`](LayerKind::Grouped): grouped/depthwise convolution;
///   input and output channels are split into `groups` disjoint
///   groups and channels only interact within their group
///   (`K x C/G x R x S` weights). Depthwise is the `G == C == K`
///   special case.
///
/// # Examples
///
/// ```
/// use flexer_model::{ConvLayer, LayerKind};
///
/// let dw = ConvLayer::depthwise("dw", 32, 14, 14, 1, 1).unwrap();
/// assert_eq!(dw.kind(), LayerKind::Grouped { groups: 32 });
/// assert_eq!(dw.groups(), 32);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Ordinary dense convolution (the default; pre-kind layer specs
    /// deserialize as dense).
    #[default]
    Dense,
    /// Matrix multiply lowered as a pointwise convolution.
    Matmul,
    /// Grouped convolution with `groups` disjoint channel groups.
    Grouped {
        /// Number of channel groups (`G`); depthwise when `G == C == K`.
        groups: u32,
    },
}

impl LayerKind {
    /// Number of channel groups: 1 for dense/matmul, `G` for grouped.
    #[must_use]
    pub const fn groups(self) -> u32 {
        match self {
            Self::Dense | Self::Matmul => 1,
            Self::Grouped { groups } => groups,
        }
    }

    /// Whether the kind restricts channel interaction to groups.
    #[must_use]
    pub const fn is_grouped(self) -> bool {
        matches!(self, Self::Grouped { .. })
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Dense => write!(f, "dense"),
            Self::Matmul => write!(f, "matmul"),
            Self::Grouped { groups } => write!(f, "grouped/{groups}"),
        }
    }
}

/// Hyper-parameters of a 2-D convolution layer.
///
/// This is the unit of work Flexer schedules: the layer is later split
/// into data tiles (`tIN`, `tWT`, `tOT` in the paper's Figure 3) and a
/// data-flow graph of tiled convolutions by the `flexer-tiling` crate.
///
/// Construct instances with [`ConvLayer::new`] for the common 3x3 case
/// or with [`ConvLayerBuilder`] for full control.
///
/// # Examples
///
/// ```
/// use flexer_model::{ConvLayer, ElementSize};
///
/// let layer = ConvLayer::new("conv4_2", 512, 28, 28, 512)?;
/// assert_eq!(layer.out_height(), 28);
/// assert_eq!(layer.macs(), 512u64 * 512 * 28 * 28 * 9);
/// # Ok::<(), flexer_model::LayerSpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvLayer {
    name: String,
    in_channels: u32,
    in_height: u32,
    in_width: u32,
    out_channels: u32,
    kernel_h: u32,
    kernel_w: u32,
    stride: u32,
    padding: u32,
    #[serde(default)]
    kind: LayerKind,
}

impl ConvLayer {
    /// Creates a 3x3, stride-1, padding-1 ("same") convolution — the most
    /// common layer geometry in the evaluated networks.
    ///
    /// # Errors
    ///
    /// Returns [`LayerSpecError`] if the specification is degenerate
    /// (any zero dimension).
    pub fn new(
        name: impl Into<String>,
        in_channels: u32,
        in_height: u32,
        in_width: u32,
        out_channels: u32,
    ) -> Result<Self, LayerSpecError> {
        ConvLayerBuilder::new(name, in_channels, in_height, in_width, out_channels)
            .kernel(3, 3)
            .padding(1)
            .build()
    }

    /// Creates an `M x K x N` matrix multiply lowered onto the tiled
    /// conv datapath: `K` input channels, an `M x 1` spatial extent,
    /// `N` output channels and a 1x1 kernel. The activations play the
    /// `M x K` operand, the weights the `K x N` operand.
    ///
    /// # Errors
    ///
    /// Returns [`LayerSpecError`] if any of `m`, `k`, `n` is zero.
    pub fn matmul(name: impl Into<String>, m: u32, k: u32, n: u32) -> Result<Self, LayerSpecError> {
        let mut layer = ConvLayerBuilder::new(name, k, m, 1, n).build()?;
        layer.kind = LayerKind::Matmul;
        Ok(layer)
    }

    /// Creates a depthwise convolution: one group per channel
    /// (`G == C == K == channels`), so each output channel reads only
    /// its own input channel.
    ///
    /// # Errors
    ///
    /// Returns [`LayerSpecError`] if the specification is degenerate.
    pub fn depthwise(
        name: impl Into<String>,
        channels: u32,
        in_height: u32,
        in_width: u32,
        stride: u32,
        padding: u32,
    ) -> Result<Self, LayerSpecError> {
        ConvLayerBuilder::new(name, channels, in_height, in_width, channels)
            .kernel(3, 3)
            .stride(stride)
            .padding(padding)
            .groups(channels)
            .build()
    }

    /// Layer name (e.g. `"conv4_2"`), unique within a network.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input channels (`C`).
    #[must_use]
    pub const fn in_channels(&self) -> u32 {
        self.in_channels
    }

    /// Input spatial height (`H`).
    #[must_use]
    pub const fn in_height(&self) -> u32 {
        self.in_height
    }

    /// Input spatial width (`W`).
    #[must_use]
    pub const fn in_width(&self) -> u32 {
        self.in_width
    }

    /// Number of output channels (`K`).
    #[must_use]
    pub const fn out_channels(&self) -> u32 {
        self.out_channels
    }

    /// Kernel height (`R`).
    #[must_use]
    pub const fn kernel_h(&self) -> u32 {
        self.kernel_h
    }

    /// Kernel width (`S`).
    #[must_use]
    pub const fn kernel_w(&self) -> u32 {
        self.kernel_w
    }

    /// Convolution stride (same in both spatial dimensions).
    #[must_use]
    pub const fn stride(&self) -> u32 {
        self.stride
    }

    /// Zero padding applied on every spatial border.
    #[must_use]
    pub const fn padding(&self) -> u32 {
        self.padding
    }

    /// Operator kind (dense conv, matmul, grouped conv).
    #[must_use]
    pub const fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Number of channel groups (`G`): 1 for dense/matmul layers.
    #[must_use]
    pub const fn groups(&self) -> u32 {
        self.kind.groups()
    }

    /// Input channels per group (`C / G`).
    #[must_use]
    pub const fn in_channels_per_group(&self) -> u32 {
        self.in_channels / self.kind.groups()
    }

    /// Output channels per group (`K / G`).
    #[must_use]
    pub const fn out_channels_per_group(&self) -> u32 {
        self.out_channels / self.kind.groups()
    }

    /// Output spatial height: `(H + 2*pad - R) / stride + 1`.
    #[must_use]
    pub const fn out_height(&self) -> u32 {
        (self.in_height + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output spatial width: `(W + 2*pad - S) / stride + 1`.
    #[must_use]
    pub const fn out_width(&self) -> u32 {
        (self.in_width + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// Shape of the input activation tensor.
    #[must_use]
    pub fn input_shape(&self) -> TensorShape {
        TensorShape::new(self.in_channels, self.in_height, self.in_width)
    }

    /// Shape of the output activation tensor.
    #[must_use]
    pub fn output_shape(&self) -> TensorShape {
        TensorShape::new(self.out_channels, self.out_height(), self.out_width())
    }

    /// Total multiply-accumulate operations of the layer. Each output
    /// channel reads `C / G` input channels, so grouped layers do a
    /// factor `G` less work than an equivalently shaped dense conv.
    #[must_use]
    pub fn macs(&self) -> u64 {
        u64::from(self.out_channels)
            * u64::from(self.in_channels_per_group())
            * u64::from(self.out_height())
            * u64::from(self.out_width())
            * u64::from(self.kernel_h)
            * u64::from(self.kernel_w)
    }

    /// Byte size of the full input activation tensor.
    #[must_use]
    pub fn input_bytes(&self, elem: ElementSize) -> u64 {
        self.input_shape().bytes(elem)
    }

    /// Byte size of the full weight tensor (`K x C/G x R x S`; `G` is 1
    /// for dense and matmul layers).
    #[must_use]
    pub fn weight_bytes(&self, elem: ElementSize) -> u64 {
        u64::from(self.out_channels)
            * u64::from(self.in_channels_per_group())
            * u64::from(self.kernel_h)
            * u64::from(self.kernel_w)
            * elem.bytes()
    }

    /// Byte size of the full output activation tensor.
    #[must_use]
    pub fn output_bytes(&self, elem: ElementSize) -> u64 {
        self.output_shape().bytes(elem)
    }

    /// Combined byte size of input, weight and output tensors — the
    /// footprint an infinitely large on-chip memory would need to hold
    /// the whole layer at once.
    #[must_use]
    pub fn total_bytes(&self, elem: ElementSize) -> u64 {
        self.input_bytes(elem) + self.weight_bytes(elem) + self.output_bytes(elem)
    }

    /// Returns a copy of this layer with a different name.
    ///
    /// Useful when the same geometry repeats within a network (common
    /// in ResNet-50) but each instance needs a unique identity.
    #[must_use]
    pub fn with_name(&self, name: impl Into<String>) -> Self {
        let mut layer = self.clone();
        layer.name = name.into();
        layer
    }
}

impl fmt::Display for ConvLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} ({}x{} k, s{}, p{}",
            self.name,
            self.input_shape(),
            self.output_shape(),
            self.kernel_h,
            self.kernel_w,
            self.stride,
            self.padding
        )?;
        match self.kind {
            LayerKind::Dense => write!(f, ")"),
            LayerKind::Matmul | LayerKind::Grouped { .. } => write!(f, ", {})", self.kind),
        }
    }
}

/// Builder for [`ConvLayer`] specifications with non-default kernel,
/// stride or padding.
///
/// # Examples
///
/// ```
/// use flexer_model::ConvLayerBuilder;
///
/// // ResNet-50 stem: 7x7 stride-2 convolution.
/// let conv1 = ConvLayerBuilder::new("conv1", 3, 224, 224, 64)
///     .kernel(7, 7)
///     .stride(2)
///     .padding(3)
///     .build()?;
/// assert_eq!(conv1.out_height(), 112);
/// # Ok::<(), flexer_model::LayerSpecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConvLayerBuilder {
    layer: ConvLayer,
}

impl ConvLayerBuilder {
    /// Starts building a layer from its tensor extents. Kernel defaults
    /// to 1x1, stride to 1 and padding to 0.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        in_channels: u32,
        in_height: u32,
        in_width: u32,
        out_channels: u32,
    ) -> Self {
        Self {
            layer: ConvLayer {
                name: name.into(),
                in_channels,
                in_height,
                in_width,
                out_channels,
                kernel_h: 1,
                kernel_w: 1,
                stride: 1,
                padding: 0,
                kind: LayerKind::Dense,
            },
        }
    }

    /// Sets the kernel extents (`R` x `S`).
    #[must_use]
    pub fn kernel(mut self, kernel_h: u32, kernel_w: u32) -> Self {
        self.layer.kernel_h = kernel_h;
        self.layer.kernel_w = kernel_w;
        self
    }

    /// Sets the spatial stride.
    #[must_use]
    pub fn stride(mut self, stride: u32) -> Self {
        self.layer.stride = stride;
        self
    }

    /// Sets the zero padding per border.
    #[must_use]
    pub fn padding(mut self, padding: u32) -> Self {
        self.layer.padding = padding;
        self
    }

    /// Splits the channels into `groups` disjoint groups (grouped
    /// convolution). `groups == 1` is normalized back to a dense layer
    /// so a trivially grouped spec is byte-identical to the dense one.
    #[must_use]
    pub fn groups(mut self, groups: u32) -> Self {
        self.layer.kind = if groups == 1 {
            LayerKind::Dense
        } else {
            LayerKind::Grouped { groups }
        };
        self
    }

    /// Validates and builds the layer.
    ///
    /// # Errors
    ///
    /// Returns [`LayerSpecError`] when any dimension is zero, when the
    /// kernel does not fit the padded input, when the padding is so
    /// large that the convolution would read only padding, or when the
    /// layer is too large for its sizes to be counted exactly: a padded
    /// extent beyond `u32`, a tensor of more than 1 TiB at 4 bytes per
    /// element, or more than 2^56 MACs.
    pub fn build(self) -> Result<ConvLayer, LayerSpecError> {
        let l = &self.layer;
        if l.name.is_empty() {
            return Err(LayerSpecError::new("layer name must not be empty"));
        }
        if l.in_channels == 0 || l.out_channels == 0 {
            return Err(LayerSpecError::new(format!(
                "channel counts must be positive (got C={}, K={})",
                l.in_channels, l.out_channels
            )));
        }
        if l.in_height == 0 || l.in_width == 0 {
            return Err(LayerSpecError::new(format!(
                "input extents must be positive (got {}x{})",
                l.in_height, l.in_width
            )));
        }
        if l.kernel_h == 0 || l.kernel_w == 0 || l.stride == 0 {
            return Err(LayerSpecError::new(
                "kernel extents and stride must be positive",
            ));
        }
        let padded = |extent: u32| u64::from(extent) + 2 * u64::from(l.padding);
        let (padded_h, padded_w) = (padded(l.in_height), padded(l.in_width));
        if padded_h > u64::from(u32::MAX) || padded_w > u64::from(u32::MAX) {
            return Err(LayerSpecError::new(format!(
                "padded input {padded_h}x{padded_w} exceeds {} per side",
                u32::MAX
            )));
        }
        if u64::from(l.kernel_h) > padded_h || u64::from(l.kernel_w) > padded_w {
            return Err(LayerSpecError::new(format!(
                "kernel {}x{} larger than padded input {padded_h}x{padded_w}",
                l.kernel_h, l.kernel_w
            )));
        }
        if l.padding >= l.kernel_h || l.padding >= l.kernel_w {
            return Err(LayerSpecError::new(format!(
                "padding {} must be smaller than the kernel ({}x{})",
                l.padding, l.kernel_h, l.kernel_w
            )));
        }
        if let LayerKind::Grouped { groups } = l.kind {
            if groups == 0 {
                return Err(LayerSpecError::new("group count must be positive"));
            }
            if !l.in_channels.is_multiple_of(groups) || !l.out_channels.is_multiple_of(groups) {
                return Err(LayerSpecError::new(format!(
                    "groups {} must divide both channel counts (C={}, K={})",
                    groups, l.in_channels, l.out_channels
                )));
            }
        }
        let taps = [l.kernel_h, l.kernel_w];
        let (c_g, oh, ow) = (l.in_channels_per_group(), l.out_height(), l.out_width());
        for (tensor, elements) in [
            ("input", [l.in_channels, l.in_height, l.in_width, 1]),
            ("weight", [l.out_channels, c_g, taps[0], taps[1]]),
            ("output", [l.out_channels, oh, ow, 1]),
        ] {
            let bytes = checked_product(&elements).and_then(|e| e.checked_mul(4));
            if bytes.is_none_or(|b| b > MAX_TENSOR_BYTES) {
                return Err(LayerSpecError::new(format!(
                    "{tensor} tensor exceeds {MAX_TENSOR_BYTES} bytes at 4 bytes per element"
                )));
            }
        }
        let macs = checked_product(&[l.out_channels, c_g, oh, ow, taps[0], taps[1]]);
        if macs.is_none_or(|m| m > MAX_MACS) {
            return Err(LayerSpecError::new(format!(
                "layer exceeds {MAX_MACS} multiply-accumulates"
            )));
        }
        Ok(self.layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_conv_shapes() {
        let l = ConvLayer::new("c", 64, 56, 56, 128).unwrap();
        assert_eq!(l.out_height(), 56);
        assert_eq!(l.out_width(), 56);
        assert_eq!(l.kernel_h(), 3);
        assert_eq!(l.stride(), 1);
        assert_eq!(l.padding(), 1);
    }

    #[test]
    fn strided_conv_shapes() {
        let l = ConvLayerBuilder::new("stem", 3, 224, 224, 64)
            .kernel(7, 7)
            .stride(2)
            .padding(3)
            .build()
            .unwrap();
        assert_eq!(l.out_height(), 112);
        assert_eq!(l.out_width(), 112);
    }

    #[test]
    fn pointwise_conv_shapes() {
        let l = ConvLayerBuilder::new("pw", 256, 14, 14, 1024)
            .build()
            .unwrap();
        assert_eq!(l.out_height(), 14);
        assert_eq!(l.kernel_h(), 1);
        assert_eq!(l.macs(), 256 * 1024 * 14 * 14);
    }

    #[test]
    fn unpadded_strided_conv_shapes() {
        // SqueezeNet conv1: 7x7 stride 2, no padding, 224 input.
        let l = ConvLayerBuilder::new("conv1", 3, 224, 224, 96)
            .kernel(7, 7)
            .stride(2)
            .build()
            .unwrap();
        assert_eq!(l.out_height(), 109);
        assert_eq!(l.out_width(), 109);
    }

    #[test]
    fn byte_sizes() {
        let l = ConvLayer::new("c", 512, 28, 28, 512).unwrap();
        assert_eq!(l.input_bytes(ElementSize::Int8), 512 * 28 * 28);
        assert_eq!(l.weight_bytes(ElementSize::Int8), 512 * 512 * 9);
        assert_eq!(l.output_bytes(ElementSize::Int8), 512 * 28 * 28);
        assert_eq!(
            l.total_bytes(ElementSize::Int8),
            2 * 512 * 28 * 28 + 512 * 512 * 9
        );
        assert_eq!(l.input_bytes(ElementSize::Fp16), 2 * 512 * 28 * 28);
    }

    #[test]
    fn macs_match_closed_form() {
        let l = ConvLayerBuilder::new("m", 32, 16, 16, 48)
            .kernel(3, 3)
            .padding(1)
            .build()
            .unwrap();
        assert_eq!(l.macs(), 48 * 32 * 16 * 16 * 9);
    }

    #[test]
    fn rejects_zero_channels() {
        let err = ConvLayerBuilder::new("z", 0, 8, 8, 8).build().unwrap_err();
        assert!(err.to_string().contains("channel"));
    }

    #[test]
    fn rejects_oversized_kernel() {
        let err = ConvLayerBuilder::new("k", 3, 4, 4, 8)
            .kernel(9, 9)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("kernel"));
    }

    #[test]
    fn rejects_excessive_padding() {
        let err = ConvLayerBuilder::new("p", 3, 8, 8, 8)
            .kernel(3, 3)
            .padding(5)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("padding"));
    }

    #[test]
    fn rejects_empty_name() {
        let err = ConvLayerBuilder::new("", 3, 8, 8, 8).build().unwrap_err();
        assert!(err.to_string().contains("name"));
    }

    #[test]
    fn with_name_renames_only() {
        let a = ConvLayer::new("a", 8, 8, 8, 8).unwrap();
        let b = a.with_name("b");
        assert_eq!(b.name(), "b");
        assert_eq!(a.macs(), b.macs());
    }

    #[test]
    fn display_is_informative() {
        let l = ConvLayer::new("conv1_1", 3, 224, 224, 64).unwrap();
        let s = l.to_string();
        assert!(s.contains("conv1_1"));
        assert!(s.contains("3x224x224"));
    }

    #[test]
    fn matmul_lowers_to_pointwise_geometry() {
        // 196 x 192 x 576: a QKV projection over 196 tokens.
        let l = ConvLayer::matmul("qkv", 196, 192, 576).unwrap();
        assert_eq!(l.kind(), LayerKind::Matmul);
        assert_eq!(l.in_channels(), 192);
        assert_eq!(l.in_height(), 196);
        assert_eq!(l.in_width(), 1);
        assert_eq!(l.out_channels(), 576);
        assert_eq!(l.kernel_h(), 1);
        assert_eq!(l.macs(), 196 * 192 * 576);
        assert_eq!(l.weight_bytes(ElementSize::Int8), 192 * 576);
        assert!(l.to_string().contains("matmul"));
    }

    #[test]
    fn matmul_math_matches_the_equivalent_pointwise_conv() {
        let mm = ConvLayer::matmul("x", 64, 32, 48).unwrap();
        let pw = ConvLayerBuilder::new("x", 32, 64, 1, 48).build().unwrap();
        assert_eq!(mm.macs(), pw.macs());
        assert_eq!(
            mm.weight_bytes(ElementSize::Int8),
            pw.weight_bytes(ElementSize::Int8)
        );
        assert_eq!(mm.output_shape(), pw.output_shape());
    }

    #[test]
    fn depthwise_shapes_and_work() {
        let l = ConvLayer::depthwise("dw", 32, 14, 14, 1, 1).unwrap();
        assert_eq!(l.kind(), LayerKind::Grouped { groups: 32 });
        assert_eq!(l.groups(), 32);
        assert_eq!(l.in_channels_per_group(), 1);
        assert_eq!(l.out_channels_per_group(), 1);
        assert_eq!(l.out_height(), 14);
        // One 3x3 filter per channel.
        assert_eq!(l.macs(), 32 * 14 * 14 * 9);
        assert_eq!(l.weight_bytes(ElementSize::Int8), 32 * 9);
        assert!(l.to_string().contains("grouped/32"));
    }

    #[test]
    fn grouped_conv_divides_work_by_group_count() {
        let dense = ConvLayerBuilder::new("g", 32, 8, 8, 16).build().unwrap();
        let grouped = ConvLayerBuilder::new("g", 32, 8, 8, 16)
            .groups(4)
            .build()
            .unwrap();
        assert_eq!(grouped.macs() * 4, dense.macs());
        assert_eq!(
            grouped.weight_bytes(ElementSize::Int8) * 4,
            dense.weight_bytes(ElementSize::Int8)
        );
    }

    #[test]
    fn single_group_normalizes_to_dense() {
        let l = ConvLayerBuilder::new("g1", 8, 8, 8, 8)
            .groups(1)
            .build()
            .unwrap();
        assert_eq!(l.kind(), LayerKind::Dense);
        assert_eq!(l, ConvLayerBuilder::new("g1", 8, 8, 8, 8).build().unwrap());
    }

    #[test]
    fn rejects_indivisible_groups() {
        let err = ConvLayerBuilder::new("g", 9, 8, 8, 8)
            .groups(4)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("groups"));
        let err = ConvLayerBuilder::new("g", 8, 8, 8, 9)
            .groups(4)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("groups"));
        let err = ConvLayerBuilder::new("g", 8, 8, 8, 8)
            .groups(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("group"));
    }

    #[test]
    fn default_kind_is_dense() {
        // Builder-made layers without an explicit kind stay dense, so
        // every pre-kind layer spec in the tree is unchanged.
        let l = ConvLayer::new("old", 8, 8, 8, 8).unwrap();
        assert_eq!(l.kind(), LayerKind::Dense);
        assert_eq!(l.groups(), 1);
        assert_eq!(l.in_channels_per_group(), l.in_channels());
    }

    #[test]
    fn sizes_that_could_overflow_are_rejected() {
        let max = u32::MAX;
        // A padded extent beyond u32.
        let err = ConvLayer::new("tall", 8, max, 8, 8).unwrap_err();
        assert!(err.to_string().contains("padded input"), "{err}");
        // Each tensor past 1 TiB at 4 bytes per element.
        for (c, h, w, k, tensor) in [
            (1 << 16, 1 << 12, 1 << 12, 1, "input"),
            (max, 14, 14, max, "input"),
            (1 << 18, 1, 1, 1 << 18, "weight"),
            (1, 1 << 13, 1 << 13, 1 << 14, "output"),
        ] {
            let err = ConvLayer::new("big", c, h, w, k).unwrap_err();
            assert!(err.to_string().contains(tensor), "{tensor}: {err}");
        }
        // Every tensor in range, but too much work to count.
        let err = ConvLayer::new("busy", 1 << 15, 1 << 11, 1 << 12, 1 << 15).unwrap_err();
        assert!(err.to_string().contains("multiply-accumulates"), "{err}");
        // The largest layer the test suites schedule still builds.
        let huge = ConvLayerBuilder::new("huge", 4096, 1024, 1024, 4096).build();
        assert!(huge.is_ok());
    }
}
