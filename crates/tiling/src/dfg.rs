//! Data-flow graphs of tiled convolutions.

use crate::compulsory::CompulsoryTiles;
use crate::dataflow::{Dataflow, LoopDim};
use crate::factors::TilingFactors;
use crate::op::{OpId, TiledOp};
use crate::residency::Residency;
use crate::tile::{TileId, TileKind};
use flexer_arch::{ArchConfig, ConvTileDims, PerfModel};
use flexer_model::ConvLayer;
use std::error::Error;
use std::fmt;

/// Hard cap on DFG size; a backstop far above any practical search
/// configuration.
const ABSOLUTE_MAX_OPS: u64 = 1 << 20;

/// Error returned when a [`Dfg`] cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TilingError {
    /// The tiling produces more operations than the absolute cap.
    TooManyOps {
        /// Operations the tiling would produce.
        requested: u64,
        /// The maximum supported.
        max: u64,
    },
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::TooManyOps { requested, max } => {
                write!(
                    f,
                    "tiling produces {requested} operations, maximum is {max}"
                )
            }
        }
    }
}

impl Error for TilingError {}

/// The data-flow graph of one tiled layer (paper §3).
///
/// Nodes are tiled convolutions [`TiledOp`]; the only edges are the
/// partial-sum accumulation chains: `tCONV(k, c, s)` for `c > 0`
/// depends on `tCONV(k, c-1, s)`. Operation ids follow the *static
/// loop order* of the dataflow the graph was built for, so
/// `ops()[i..]` in id order is exactly the baseline loop-order
/// execution sequence, and the OoO scheduler uses id order only to
/// break ties deterministically.
///
/// The graph also carries the per-tile byte sizes, initial per-tile
/// operand reference counts and per-op compute latencies that the
/// schedulers and the memory manager consume.
///
/// # Examples
///
/// ```
/// use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};
/// use flexer_model::ConvLayer;
/// use flexer_tiling::{Dataflow, Dfg, TilingFactors};
///
/// let layer = ConvLayer::new("c", 32, 16, 16, 32)?;
/// let arch = ArchConfig::preset(ArchPreset::Arch1);
/// let factors = TilingFactors::normalized(&layer, 2, 2, 2, 1);
/// let dfg = Dfg::build(&layer, factors, Dataflow::Csk, &SystolicModel::new(&arch), &arch)?;
/// assert_eq!(dfg.num_ops(), 8);
/// // Half the ops (c == 0) are initially ready.
/// assert_eq!(dfg.initial_ready().count(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dfg {
    layer: ConvLayer,
    factors: TilingFactors,
    dataflow: Dataflow,
    ops: Vec<TiledOp>,
    pred: Vec<Option<OpId>>,
    succ: Vec<Option<OpId>>,
    in_bytes: Vec<u64>,
    wt_bytes: Vec<u64>,
    ot_bytes: Vec<u64>,
    residency: Residency,
}

impl Dfg {
    /// Builds the DFG of `layer` tiled by `factors`, with operation ids
    /// in the static loop order of `dataflow` and latencies from
    /// `perf`. Residency is off: every tensor round-trips through DRAM.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::TooManyOps`] if the tiling exceeds the
    /// absolute operation cap (2^20).
    pub fn build(
        layer: &ConvLayer,
        factors: TilingFactors,
        dataflow: Dataflow,
        perf: &dyn PerfModel,
        arch: &ArchConfig,
    ) -> Result<Self, TilingError> {
        Self::build_resident(layer, factors, dataflow, perf, arch, Residency::default())
    }

    /// Builds the DFG under a cross-layer residency plan: the
    /// schedulers lower resident input loads to on-chip gathers and
    /// resident final output stores to on-chip scatters.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::TooManyOps`] if the tiling exceeds the
    /// absolute operation cap (2^20).
    pub fn build_resident(
        layer: &ConvLayer,
        factors: TilingFactors,
        dataflow: Dataflow,
        perf: &dyn PerfModel,
        arch: &ArchConfig,
        residency: Residency,
    ) -> Result<Self, TilingError> {
        let grouped = layer.kind().is_grouped();
        let num_ops = factors.num_ops_for(layer);
        if num_ops > ABSOLUTE_MAX_OPS {
            return Err(TilingError::TooManyOps {
                requested: num_ops,
                max: ABSOLUTE_MAX_OPS,
            });
        }
        let num_ops = num_ops as usize;
        let (kt, ct, st) = (factors.k(), factors.c(), factors.spatial());
        let elem = arch.element_size().bytes();

        // Per-tile byte sizes (index math mirrors `tile_bytes`), shared
        // with the search layer's compulsory-traffic bound accounting.
        let (in_bytes, wt_bytes, ot_bytes) =
            CompulsoryTiles::compute(layer, &factors, elem).into_parts();
        let spatial_dims: Vec<(u32, u32)> = (0..st)
            .map(|s| {
                let (sh, sw) = (s / factors.w(), s % factors.w());
                (sh, sw)
            })
            .collect();

        // Enumerate ops in the dataflow's loop order.
        let order = dataflow.order();
        let extent = |dim: LoopDim| match dim {
            LoopDim::K => kt,
            LoopDim::C => ct,
            LoopDim::S => st,
        };
        let (d0, d1, d2) = (order[0], order[1], order[2]);
        let mut ops = Vec::with_capacity(num_ops);
        // (k, c, s) -> op id map used to wire the psum chains. Grouped
        // layers only materialize the diagonal (k == c), so their map
        // collapses to (k, s).
        let mut id_of = vec![OpId::new(0); num_ops];
        let id_index = |k: u32, c: u32, s: u32| {
            if grouped {
                (k * st + s) as usize
            } else {
                ((k * ct + c) * st + s) as usize
            }
        };
        for i0 in 0..extent(d0) {
            for i1 in 0..extent(d1) {
                for i2 in 0..extent(d2) {
                    let mut k = 0;
                    let mut c = 0;
                    let mut s = 0;
                    for (dim, i) in [(d0, i0), (d1, i1), (d2, i2)] {
                        match dim {
                            LoopDim::K => k = i,
                            LoopDim::C => c = i,
                            LoopDim::S => s = i,
                        }
                    }
                    // A grouped weight tensor is block-diagonal: weight
                    // tile WT(k, c) is all zeros off the diagonal, so
                    // only k == c produces an operation.
                    if grouped && k != c {
                        continue;
                    }
                    let id = OpId::new(ops.len() as u32);
                    let (sh, sw) = spatial_dims[s as usize];
                    let latency = if grouped {
                        let dims = ConvTileDims {
                            out_channels: layer.out_channels_per_group(),
                            in_channels: layer.in_channels_per_group(),
                            out_height: factors.h_range(layer, sh).1,
                            out_width: factors.w_range(layer, sw).1,
                            kernel_h: layer.kernel_h(),
                            kernel_w: layer.kernel_w(),
                        };
                        perf.grouped_conv_cycles(factors.group_extent(layer, k), &dims)
                    } else {
                        let dims = ConvTileDims {
                            out_channels: factors.k_extent(layer, k),
                            in_channels: factors.c_extent(layer, c),
                            out_height: factors.h_range(layer, sh).1,
                            out_width: factors.w_range(layer, sw).1,
                            kernel_h: layer.kernel_h(),
                            kernel_w: layer.kernel_w(),
                        };
                        perf.conv_cycles(&dims)
                    };
                    // Grouped ops accumulate no cross-tile psums: each
                    // output channel sees exactly one input-channel
                    // tile, so every op finalizes its output.
                    let needs_psum = !grouped && c > 0;
                    let is_final = grouped || c == ct - 1;
                    let op = TiledOp::new(id, k, c, s, needs_psum, is_final, latency);
                    id_of[id_index(k, c, s)] = id;
                    ops.push(op);
                }
            }
        }

        // Partial-sum chains: (k, c, s) depends on (k, c-1, s).
        let mut pred = vec![None; num_ops];
        let mut succ = vec![None; num_ops];
        for op in &ops {
            if op.needs_psum() {
                let p = id_of[id_index(op.k(), op.c() - 1, op.s())];
                pred[op.id().index()] = Some(p);
                succ[p.index()] = Some(op.id());
            }
        }

        Ok(Self {
            layer: layer.clone(),
            factors,
            dataflow,
            ops,
            pred,
            succ,
            in_bytes,
            wt_bytes,
            ot_bytes,
            residency,
        })
    }

    /// The residency plan the DFG was built under.
    #[must_use]
    pub fn residency(&self) -> Residency {
        self.residency
    }

    /// The layer this DFG tiles.
    #[must_use]
    pub fn layer(&self) -> &ConvLayer {
        &self.layer
    }

    /// The tiling factors the DFG was built with.
    #[must_use]
    pub fn factors(&self) -> TilingFactors {
        self.factors
    }

    /// The dataflow (loop order) the DFG was built for.
    #[must_use]
    pub fn dataflow(&self) -> Dataflow {
        self.dataflow
    }

    /// All operations, in static loop order (ascending [`OpId`]).
    #[must_use]
    pub fn ops(&self) -> &[TiledOp] {
        &self.ops
    }

    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this DFG.
    #[must_use]
    pub fn op(&self, id: OpId) -> &TiledOp {
        &self.ops[id.index()]
    }

    /// Number of operations.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The partial-sum predecessor of `id`, if any.
    #[must_use]
    pub fn pred(&self, id: OpId) -> Option<OpId> {
        self.pred[id.index()]
    }

    /// The partial-sum successor of `id`, if any.
    #[must_use]
    pub fn succ(&self, id: OpId) -> Option<OpId> {
        self.succ[id.index()]
    }

    /// Operations with no unsatisfied dependency (paper Algorithm 1,
    /// line 15), in id order.
    pub fn initial_ready(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops
            .iter()
            .filter(|op| !op.needs_psum())
            .map(TiledOp::id)
    }

    /// Byte size of a tile.
    ///
    /// # Panics
    ///
    /// Panics if the tile indices are out of range for this DFG's
    /// tiling.
    #[must_use]
    pub fn tile_bytes(&self, tile: TileId) -> u64 {
        let st = self.factors.spatial();
        let ct = self.factors.c();
        match tile {
            TileId::Input { c, s } => self.in_bytes[(c * st + s) as usize],
            TileId::Weight { k, c } => {
                if self.layer.kind().is_grouped() {
                    // Grouped weights exist only on the diagonal.
                    debug_assert_eq!(k, c, "off-diagonal grouped weight tile");
                    self.wt_bytes[k as usize]
                } else {
                    self.wt_bytes[(k * ct + c) as usize]
                }
            }
            TileId::Output { k, s } => self.ot_bytes[(k * st + s) as usize],
        }
    }

    /// Number of operations that reference `tile` as an operand over
    /// the whole DFG (reads plus accumulation writes).
    #[must_use]
    pub fn initial_uses(&self, tile: TileId) -> u32 {
        if self.layer.kind().is_grouped() {
            // Diagonal-only ops: input c and output k tiles each meet
            // exactly one op per spatial tile; weights are still shared
            // across the spatial dimension.
            return match tile {
                TileId::Input { .. } | TileId::Output { .. } => 1,
                TileId::Weight { .. } => self.factors.spatial(),
            };
        }
        match tile {
            TileId::Input { .. } => self.factors.k(),
            TileId::Weight { .. } => self.factors.spatial(),
            TileId::Output { .. } => self.factors.c(),
        }
    }

    /// Sum of the byte sizes of all distinct tiles of `kind` — the
    /// amount an infinitely large on-chip buffer would transfer exactly
    /// once (the paper's Figure-10 "on-chip" reference).
    #[must_use]
    pub fn unique_bytes(&self, kind: TileKind) -> u64 {
        match kind {
            TileKind::Input => self.in_bytes.iter().sum(),
            TileKind::Weight => self.wt_bytes.iter().sum(),
            TileKind::Output => self.ot_bytes.iter().sum(),
        }
    }

    /// Multiply-accumulate count of one operation, from its tile
    /// extents. Only the tests' MAC-conservation checks read it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this DFG.
    #[cfg(test)]
    fn op_macs(&self, id: OpId) -> u64 {
        let op = self.op(id);
        let (sh, sw) = (op.s() / self.factors.w(), op.s() % self.factors.w());
        // Grouped channel connectivity is block-diagonal, not the dense
        // k_extent * c_extent cross product.
        let channel_macs = if self.layer.kind().is_grouped() {
            u64::from(self.factors.group_extent(&self.layer, op.k()))
                * u64::from(self.layer.out_channels_per_group())
                * u64::from(self.layer.in_channels_per_group())
        } else {
            u64::from(self.factors.k_extent(&self.layer, op.k()))
                * u64::from(self.factors.c_extent(&self.layer, op.c()))
        };
        channel_macs
            * u64::from(self.factors.h_range(&self.layer, sh).1)
            * u64::from(self.factors.w_range(&self.layer, sw).1)
            * u64::from(self.layer.kernel_h())
            * u64::from(self.layer.kernel_w())
    }

    /// All distinct tiles referenced by this DFG, in sorted order.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> + '_ {
        let st = self.factors.spatial();
        let ct = self.factors.c();
        let kt = self.factors.k();
        let grouped = self.layer.kind().is_grouped();
        let inputs = (0..ct).flat_map(move |c| (0..st).map(move |s| TileId::Input { c, s }));
        // Grouped weight tensors are block-diagonal: only WT(k, k)
        // tiles exist.
        let weights = (0..kt).flat_map(move |k| {
            let cs = if grouped { k..=k } else { 0..=ct - 1 };
            cs.map(move |c| TileId::Weight { k, c })
        });
        let outputs = (0..kt).flat_map(move |k| (0..st).map(move |s| TileId::Output { k, s }));
        inputs.chain(weights).chain(outputs)
    }
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DFG of {} [{} / {}]: {} ops",
            self.layer.name(),
            self.factors,
            self.dataflow,
            self.ops.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_arch::{ArchPreset, SystolicModel};

    fn build(layer: &ConvLayer, k: u32, c: u32, h: u32, w: u32, dataflow: Dataflow) -> Dfg {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let factors = TilingFactors::normalized(layer, k, c, h, w);
        Dfg::build(layer, factors, dataflow, &SystolicModel::new(&arch), &arch).unwrap()
    }

    fn layer() -> ConvLayer {
        ConvLayer::new("t", 32, 16, 16, 32).unwrap()
    }

    #[test]
    fn op_count_matches_factors() {
        let l = layer();
        let dfg = build(&l, 2, 4, 2, 2, Dataflow::Kcs);
        assert_eq!(dfg.num_ops(), 2 * 4 * 4);
    }

    #[test]
    fn static_order_follows_dataflow() {
        let l = layer();
        // KCS: k outer, c middle, s inner.
        let dfg = build(&l, 2, 2, 2, 1, Dataflow::Kcs);
        let seq: Vec<(u32, u32, u32)> = dfg.ops().iter().map(|o| (o.k(), o.c(), o.s())).collect();
        assert_eq!(
            seq,
            [
                (0, 0, 0),
                (0, 0, 1),
                (0, 1, 0),
                (0, 1, 1),
                (1, 0, 0),
                (1, 0, 1),
                (1, 1, 0),
                (1, 1, 1),
            ]
        );
        // CSK: c outer, s middle, k inner.
        let dfg = build(&l, 2, 2, 2, 1, Dataflow::Csk);
        let seq: Vec<(u32, u32, u32)> = dfg.ops().iter().map(|o| (o.k(), o.c(), o.s())).collect();
        assert_eq!(
            seq,
            [
                (0, 0, 0),
                (1, 0, 0),
                (0, 0, 1),
                (1, 0, 1),
                (0, 1, 0),
                (1, 1, 0),
                (0, 1, 1),
                (1, 1, 1),
            ]
        );
    }

    #[test]
    fn psum_chains_connect_consecutive_c() {
        let l = layer();
        let dfg = build(&l, 1, 4, 1, 1, Dataflow::Kcs);
        // Single (k, s): a pure chain of 4 ops.
        assert_eq!(dfg.initial_ready().count(), 1);
        let mut cur = dfg.initial_ready().next().unwrap();
        let mut seen = 1;
        while let Some(next) = dfg.succ(cur) {
            assert_eq!(dfg.pred(next), Some(cur));
            assert_eq!(dfg.op(next).c(), dfg.op(cur).c() + 1);
            cur = next;
            seen += 1;
        }
        assert_eq!(seen, 4);
        assert!(dfg.op(cur).is_final());
    }

    #[test]
    fn final_flag_only_on_last_c() {
        let l = layer();
        let dfg = build(&l, 2, 3, 2, 2, Dataflow::Sck);
        for op in dfg.ops() {
            assert_eq!(op.is_final(), op.c() == 2, "{op}");
            assert_eq!(op.needs_psum(), op.c() > 0, "{op}");
        }
    }

    #[test]
    fn tile_sizes_partition_tensors() {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let l = ConvLayer::new("t", 48, 12, 12, 24).unwrap();
        let dfg = build(&l, 3, 2, 3, 2, Dataflow::Kcs);
        let elem = arch.element_size();
        // Weights and outputs partition exactly.
        assert_eq!(dfg.unique_bytes(TileKind::Weight), l.weight_bytes(elem));
        assert_eq!(dfg.unique_bytes(TileKind::Output), l.output_bytes(elem));
        // Input tiles overlap at halos, so they sum to >= the tensor.
        assert!(dfg.unique_bytes(TileKind::Input) >= l.input_bytes(elem));
    }

    #[test]
    fn pointwise_input_tiles_partition_exactly() {
        let l = flexer_model::ConvLayerBuilder::new("pw", 32, 8, 8, 16)
            .build()
            .unwrap();
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let dfg = build(&l, 2, 2, 2, 2, Dataflow::Kcs);
        assert_eq!(
            dfg.unique_bytes(TileKind::Input),
            l.input_bytes(arch.element_size())
        );
    }

    #[test]
    fn initial_uses_match_reference_counts() {
        let l = layer();
        let dfg = build(&l, 3, 2, 2, 2, Dataflow::Kcs);
        // Count actual operand references.
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<TileId, u32> = BTreeMap::new();
        for op in dfg.ops() {
            for t in op.operands() {
                *counts.entry(t).or_default() += 1;
            }
        }
        for tile in dfg.tiles() {
            assert_eq!(
                dfg.initial_uses(tile),
                counts.get(&tile).copied().unwrap_or(0),
                "{tile}"
            );
        }
    }

    #[test]
    fn latencies_are_positive_and_uniform_for_uniform_tiles() {
        let l = layer();
        let dfg = build(&l, 2, 2, 2, 2, Dataflow::Kcs);
        let lat0 = dfg.ops()[0].latency();
        assert!(lat0 > 0);
        for op in dfg.ops() {
            assert_eq!(op.latency(), lat0);
        }
    }

    #[test]
    fn tiles_enumeration_is_complete_and_sorted() {
        let l = layer();
        let dfg = build(&l, 2, 2, 2, 1, Dataflow::Kcs);
        let tiles: Vec<_> = dfg.tiles().collect();
        assert_eq!(tiles.len(), (2 * 2 + 2 * 2 + 2 * 2) as usize);
        let mut sorted = tiles.clone();
        sorted.sort();
        assert_eq!(tiles, sorted);
    }

    #[test]
    fn oversized_tiling_rejected() {
        // Force a synthetic factors value beyond the cap via a large
        // layer and per-element tiling.
        let l = ConvLayer::new("big", 512, 128, 128, 512).unwrap();
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let factors = TilingFactors::normalized(&l, 512, 512, 128, 128);
        let err = Dfg::build(
            &l,
            factors,
            Dataflow::Kcs,
            &SystolicModel::new(&arch),
            &arch,
        )
        .unwrap_err();
        assert!(matches!(err, TilingError::TooManyOps { .. }));
    }

    fn grouped_layer(groups: u32) -> ConvLayer {
        flexer_model::ConvLayerBuilder::new("g", 32, 16, 16, 32)
            .kernel(3, 3)
            .padding(1)
            .groups(groups)
            .build()
            .unwrap()
    }

    #[test]
    fn grouped_dfg_is_diagonal_only() {
        let l = grouped_layer(8);
        let dfg = build(&l, 4, 4, 2, 2, Dataflow::Kcs);
        // t = 4 channel tiles, 4 spatial tiles: diagonal ops only.
        assert_eq!(dfg.num_ops(), 4 * 4);
        for op in dfg.ops() {
            assert_eq!(op.k(), op.c(), "{op}");
            assert!(!op.needs_psum(), "{op}");
            assert!(op.is_final(), "{op}");
            assert_eq!(dfg.pred(op.id()), None);
            assert_eq!(dfg.succ(op.id()), None);
        }
        // No psum chains: every op is initially ready.
        assert_eq!(dfg.initial_ready().count(), dfg.num_ops());
    }

    #[test]
    fn grouped_weight_tiles_partition_the_block_diagonal_tensor() {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let l = grouped_layer(8);
        let dfg = build(&l, 4, 4, 2, 2, Dataflow::Kcs);
        // unique_bytes must equal the layer's (group-reduced) weight
        // tensor, not the dense K*C cross product.
        assert_eq!(
            dfg.unique_bytes(TileKind::Weight),
            l.weight_bytes(arch.element_size())
        );
        // And the diagonal tiles must sum to the same.
        let from_tiles: u64 = dfg
            .tiles()
            .filter(|t| matches!(t, TileId::Weight { .. }))
            .map(|t| dfg.tile_bytes(t))
            .sum();
        assert_eq!(from_tiles, l.weight_bytes(arch.element_size()));
    }

    #[test]
    fn grouped_tiles_enumeration_matches_op_operands() {
        let l = grouped_layer(4);
        let dfg = build(&l, 2, 2, 2, 1, Dataflow::Csk);
        use std::collections::BTreeSet;
        let enumerated: BTreeSet<TileId> = dfg.tiles().collect();
        let referenced: BTreeSet<TileId> = dfg.ops().iter().flat_map(TiledOp::operands).collect();
        assert_eq!(enumerated, referenced);
    }

    #[test]
    fn grouped_initial_uses_match_reference_counts() {
        let l = grouped_layer(8);
        let dfg = build(&l, 4, 4, 2, 2, Dataflow::Sck);
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<TileId, u32> = BTreeMap::new();
        for op in dfg.ops() {
            for t in op.operands() {
                *counts.entry(t).or_default() += 1;
            }
        }
        for tile in dfg.tiles() {
            assert_eq!(
                dfg.initial_uses(tile),
                counts.get(&tile).copied().unwrap_or(0),
                "{tile}"
            );
        }
    }

    #[test]
    fn grouped_op_macs_sum_to_layer_macs() {
        let l = grouped_layer(8);
        let dfg = build(&l, 4, 4, 2, 2, Dataflow::Kcs);
        let total: u64 = dfg.ops().iter().map(|o| dfg.op_macs(o.id())).sum();
        assert_eq!(total, l.macs());
    }

    #[test]
    fn depthwise_dfg_ops_are_all_independent() {
        let l = ConvLayer::depthwise("dw", 16, 8, 8, 1, 1).unwrap();
        let dfg = build(&l, 4, 1, 2, 2, Dataflow::Kcs);
        assert_eq!(dfg.num_ops(), 4 * 4);
        assert_eq!(dfg.initial_ready().count(), 16);
        let total: u64 = dfg.ops().iter().map(|o| dfg.op_macs(o.id())).sum();
        assert_eq!(total, l.macs());
    }

    #[test]
    fn matmul_dfg_matches_equivalent_pointwise_conv() {
        // Matmul lowers to pointwise conv geometry: same tiling must
        // produce a structurally identical DFG with equal latencies.
        let mm = ConvLayer::matmul("mm", 64, 32, 48).unwrap();
        let pw = flexer_model::ConvLayerBuilder::new("pw", 32, 64, 1, 48)
            .build()
            .unwrap();
        let a = build(&mm, 2, 2, 4, 1, Dataflow::Kcs);
        let b = build(&pw, 2, 2, 4, 1, Dataflow::Kcs);
        assert_eq!(a.num_ops(), b.num_ops());
        for (x, y) in a.ops().iter().zip(b.ops()) {
            assert_eq!((x.k(), x.c(), x.s()), (y.k(), y.c(), y.s()));
            assert_eq!(x.latency(), y.latency());
            assert_eq!(x.needs_psum(), y.needs_psum());
        }
        for tile in a.tiles() {
            assert_eq!(a.tile_bytes(tile), b.tile_bytes(tile), "{tile}");
        }
    }

    #[test]
    fn dfg_display_mentions_layer() {
        let l = layer();
        let dfg = build(&l, 1, 1, 1, 1, Dataflow::Kcs);
        assert!(dfg.to_string().contains("t"));
        assert!(dfg.to_string().contains("1 ops"));
    }
}
