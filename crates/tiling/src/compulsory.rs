//! Compulsory tile-set accounting: the per-tile byte sizes and compute
//! latencies a tiling implies *before* any schedule exists.
//!
//! Every legal schedule of a tiled layer must load each distinct input
//! and weight tile from DRAM at least once and store each output tile
//! at least once (the compulsory traffic), and must run every tiled
//! convolution to completion. These quantities depend only on the
//! (layer, tiling) pair — not on the dataflow or the scheduler — so the
//! search layer uses them to derive admissible lower bounds on latency
//! and transfer without building a DFG or running a scheduler.

use crate::factors::{input_extent, TilingFactors};
use crate::residency::Residency;
use crate::tile::TileKind;
use flexer_arch::{ConvTileDims, PerfModel};
use flexer_model::ConvLayer;

/// Byte sizes of every distinct tile of a tiled layer, grouped by kind.
///
/// Index math matches [`crate::Dfg::tile_bytes`]: inputs at
/// `c * spatial + s`, weights at `k * c_tiles + c`, outputs at
/// `k * spatial + s`. Grouped layers only materialize the diagonal
/// `k == c` weight tiles (an off-diagonal channel-tile pair shares no
/// group), stored at index `k`. [`crate::Dfg::build`] delegates to
/// [`CompulsoryTiles::compute`], so the bound accounting and the
/// scheduler see identical sizes by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompulsoryTiles {
    in_bytes: Vec<u64>,
    wt_bytes: Vec<u64>,
    ot_bytes: Vec<u64>,
}

impl CompulsoryTiles {
    /// Computes the per-tile byte sizes of `layer` tiled by `factors`
    /// with `elem`-byte elements.
    #[must_use]
    pub fn compute(layer: &ConvLayer, factors: &TilingFactors, elem: u64) -> Self {
        let (kt, ct, st) = (factors.k(), factors.c(), factors.spatial());
        let grouped = layer.kind().is_grouped();
        let mut in_bytes = vec![0u64; (ct * st) as usize];
        let mut wt_bytes = vec![0u64; (if grouped { kt } else { kt * ct }) as usize];
        let mut ot_bytes = vec![0u64; (kt * st) as usize];
        let spatial_dims: Vec<(u32, u32)> = (0..st)
            .map(|s| (s / factors.w(), s % factors.w()))
            .collect();
        for c in 0..ct {
            let cc = u64::from(factors.c_extent(layer, c));
            for (s, &(sh, sw)) in spatial_dims.iter().enumerate() {
                let (h0, he) = factors.h_range(layer, sh);
                let (w0, we) = factors.w_range(layer, sw);
                let ih = u64::from(input_extent(
                    h0,
                    he,
                    layer.stride(),
                    layer.kernel_h(),
                    layer.padding(),
                    layer.in_height(),
                ));
                let iw = u64::from(input_extent(
                    w0,
                    we,
                    layer.stride(),
                    layer.kernel_w(),
                    layer.padding(),
                    layer.in_width(),
                ));
                in_bytes[(c * st) as usize + s] = cc * ih * iw * elem;
            }
        }
        let taps = u64::from(layer.kernel_h()) * u64::from(layer.kernel_w());
        for k in 0..kt {
            let kc = u64::from(factors.k_extent(layer, k));
            if grouped {
                // One K/G x C/G weight block per covered group; the
                // dense kc * cc product would overcount by the number
                // of groups in the tile.
                wt_bytes[k as usize] = u64::from(factors.group_extent(layer, k))
                    * u64::from(layer.out_channels_per_group())
                    * u64::from(layer.in_channels_per_group())
                    * taps
                    * elem;
            } else {
                for c in 0..ct {
                    let cc = u64::from(factors.c_extent(layer, c));
                    wt_bytes[(k * ct + c) as usize] = kc * cc * taps * elem;
                }
            }
            for (s, &(sh, sw)) in spatial_dims.iter().enumerate() {
                let he = u64::from(factors.h_range(layer, sh).1);
                let we = u64::from(factors.w_range(layer, sw).1);
                ot_bytes[(k * st) as usize + s] = kc * he * we * elem;
            }
        }
        Self {
            in_bytes,
            wt_bytes,
            ot_bytes,
        }
    }

    /// Sum of the byte sizes of all distinct tiles of `kind`.
    #[must_use]
    pub fn kind_bytes(&self, kind: TileKind) -> u64 {
        match kind {
            TileKind::Input => self.in_bytes.iter().sum(),
            TileKind::Weight => self.wt_bytes.iter().sum(),
            TileKind::Output => self.ot_bytes.iter().sum(),
        }
    }

    /// Total compulsory DRAM traffic in bytes: each distinct input and
    /// weight tile loaded once, each output tile stored once.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.in_bytes
            .iter()
            .chain(&self.wt_bytes)
            .chain(&self.ot_bytes)
            .fold(0u64, |acc, &b| acc.saturating_add(b))
    }

    /// Compulsory *DRAM* traffic under a residency plan: a resident
    /// input tensor arrives on-chip (its tile loads are gathers, zero
    /// DRAM bytes) and a resident output tensor stays on-chip (its
    /// final stores are scatters, zero DRAM bytes); weights always
    /// round-trip through DRAM. With residency off this equals
    /// [`CompulsoryTiles::total_bytes`].
    #[must_use]
    pub fn dram_bytes(&self, residency: Residency) -> u64 {
        let mut total = self.kind_bytes(TileKind::Weight);
        if !residency.input_resident {
            total = total.saturating_add(self.kind_bytes(TileKind::Input));
        }
        if !residency.output_resident {
            total = total.saturating_add(self.kind_bytes(TileKind::Output));
        }
        total
    }

    /// Byte sizes of every compulsory transfer (one per distinct tile),
    /// in tile-index order.
    pub fn transfer_sizes(&self) -> impl Iterator<Item = u64> + '_ {
        self.in_bytes
            .iter()
            .chain(&self.wt_bytes)
            .chain(&self.ot_bytes)
            .copied()
    }

    /// Decomposes into the `(input, weight, output)` byte vectors.
    pub(crate) fn into_parts(self) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        (self.in_bytes, self.wt_bytes, self.ot_bytes)
    }
}

/// Aggregate compute-latency terms of a tiled layer, as consumed by
/// [`flexer_arch::PerfModel::packed_compute_cycles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeEnvelope {
    /// Summed latency of every tiled convolution.
    pub total_cycles: u64,
    /// Longest single tiled convolution.
    pub max_op_cycles: u64,
    /// Longest dependency chain: the slowest partial-sum accumulation
    /// chain, i.e. `max over (k, s) of sum over c` of the op latencies.
    pub chain_cycles: u64,
}

/// Computes the compute envelope of `layer` tiled by `factors` under
/// `perf`. Dataflow-independent: the op multiset and the psum chains
/// are fixed by the tiling alone.
///
/// Grouped layers contribute one operation per *diagonal* channel
/// tile (`k == c`) with no partial-sum chain — each output channel's
/// accumulation completes within its group — so every chain is a
/// single operation.
#[must_use]
pub fn compute_envelope(
    layer: &ConvLayer,
    factors: &TilingFactors,
    perf: &dyn PerfModel,
) -> ComputeEnvelope {
    let (kt, ct) = (factors.k(), factors.c());
    let mut total = 0u64;
    let mut max_op = 0u64;
    let mut chain_max = 0u64;
    if layer.kind().is_grouped() {
        for k in 0..kt {
            let gi = factors.group_extent(layer, k);
            for sh in 0..factors.h() {
                let he = factors.h_range(layer, sh).1;
                for sw in 0..factors.w() {
                    let we = factors.w_range(layer, sw).1;
                    let dims = ConvTileDims {
                        out_channels: layer.out_channels_per_group(),
                        in_channels: layer.in_channels_per_group(),
                        out_height: he,
                        out_width: we,
                        kernel_h: layer.kernel_h(),
                        kernel_w: layer.kernel_w(),
                    };
                    let cycles = perf.grouped_conv_cycles(gi, &dims);
                    total = total.saturating_add(cycles);
                    max_op = max_op.max(cycles);
                    chain_max = chain_max.max(cycles);
                }
            }
        }
        return ComputeEnvelope {
            total_cycles: total,
            max_op_cycles: max_op,
            chain_cycles: chain_max,
        };
    }
    for k in 0..kt {
        let kc = factors.k_extent(layer, k);
        for sh in 0..factors.h() {
            let he = factors.h_range(layer, sh).1;
            for sw in 0..factors.w() {
                let we = factors.w_range(layer, sw).1;
                let mut chain = 0u64;
                for c in 0..ct {
                    let dims = ConvTileDims {
                        out_channels: kc,
                        in_channels: factors.c_extent(layer, c),
                        out_height: he,
                        out_width: we,
                        kernel_h: layer.kernel_h(),
                        kernel_w: layer.kernel_w(),
                    };
                    let cycles = perf.conv_cycles(&dims);
                    total = total.saturating_add(cycles);
                    max_op = max_op.max(cycles);
                    chain = chain.saturating_add(cycles);
                }
                chain_max = chain_max.max(chain);
            }
        }
    }
    ComputeEnvelope {
        total_cycles: total,
        max_op_cycles: max_op,
        chain_cycles: chain_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Dataflow;
    use crate::dfg::Dfg;
    use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};

    fn setup(k: u32, c: u32, h: u32, w: u32) -> (ConvLayer, TilingFactors, ArchConfig) {
        let layer = ConvLayer::new("t", 48, 14, 14, 40).unwrap();
        let factors = TilingFactors::normalized(&layer, k, c, h, w);
        (layer, factors, ArchConfig::preset(ArchPreset::Arch1))
    }

    #[test]
    fn tile_bytes_match_the_dfg() {
        let (layer, factors, arch) = setup(3, 2, 2, 2);
        let perf = SystolicModel::new(&arch);
        let tiles = CompulsoryTiles::compute(&layer, &factors, arch.element_size().bytes());
        let dfg = Dfg::build(&layer, factors, Dataflow::Kcs, &perf, &arch).unwrap();
        for kind in [TileKind::Input, TileKind::Weight, TileKind::Output] {
            assert_eq!(tiles.kind_bytes(kind), dfg.unique_bytes(kind), "{kind:?}");
        }
        for tile in dfg.tiles() {
            assert!(dfg.tile_bytes(tile) > 0, "{tile}");
        }
        assert_eq!(
            tiles.total_bytes(),
            dfg.unique_bytes(TileKind::Input)
                + dfg.unique_bytes(TileKind::Weight)
                + dfg.unique_bytes(TileKind::Output)
        );
        assert_eq!(
            tiles.transfer_sizes().count(),
            dfg.tiles().count(),
            "one compulsory transfer per distinct tile"
        );
    }

    #[test]
    fn envelope_matches_the_dfg_latencies() {
        let (layer, factors, arch) = setup(2, 3, 2, 2);
        let perf = SystolicModel::new(&arch);
        let env = compute_envelope(&layer, &factors, &perf);
        let dfg = Dfg::build(&layer, factors, Dataflow::Csk, &perf, &arch).unwrap();
        let total: u64 = dfg.ops().iter().map(|op| op.latency()).sum();
        let max_op = dfg.ops().iter().map(|op| op.latency()).max().unwrap();
        assert_eq!(env.total_cycles, total);
        assert_eq!(env.max_op_cycles, max_op);
        // Chains run over c at fixed (k, s): walk each chain in the DFG.
        let mut chain_max = 0u64;
        for start in dfg.initial_ready() {
            let mut chain = dfg.op(start).latency();
            let mut cur = start;
            while let Some(next) = dfg.succ(cur) {
                chain += dfg.op(next).latency();
                cur = next;
            }
            chain_max = chain_max.max(chain);
        }
        assert_eq!(env.chain_cycles, chain_max);
        assert!(env.chain_cycles <= env.total_cycles);
        assert!(env.max_op_cycles <= env.chain_cycles);
    }

    #[test]
    fn envelope_is_dataflow_independent_by_construction() {
        let (layer, factors, arch) = setup(2, 2, 2, 1);
        let perf = SystolicModel::new(&arch);
        let env = compute_envelope(&layer, &factors, &perf);
        for df in Dataflow::all() {
            let dfg = Dfg::build(&layer, factors, df, &perf, &arch).unwrap();
            let total: u64 = dfg.ops().iter().map(|op| op.latency()).sum();
            assert_eq!(env.total_cycles, total, "{df}");
        }
    }
}
