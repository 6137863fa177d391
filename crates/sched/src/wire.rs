//! Binary codec for search results, plus the canonical key bytes the
//! persistent schedule store fingerprints.
//!
//! Builds on [`flexer_sim::wire`]'s primitives. Two jobs:
//!
//! * [`canonical_key_bytes`] — the one cache key of a layer search:
//!   the layer *shape* (not its name), the architecture, the scheduler
//!   kind and every winner-relevant search knob. A batch search groups
//!   its in-batch duplicates by these bytes, and `flexer-store` hashes
//!   them into the content address that keys both its entries and the
//!   driver's in-process result tier. `validate`, `prune`, `threads`
//!   and `collect_points` are deliberately absent — they never change
//!   a winner.
//! * [`encode_layer_result`] / [`decode_layer_result`] — a complete
//!   [`LayerSearchResult`] round trip, bit-exact including `f64`
//!   scores, so a warm-started result is indistinguishable from the
//!   searched one.
//!
//! Any change to either encoding must be paired with a bump of the
//!   store's format version; the store crate's golden fingerprint test
//! exists to force that.

use crate::search::{
    LayerSearchResult, SchedulePoint, SchedulerKind, SearchOptions, SearchOutcome,
};
use crate::stats::SearchStats;
use flexer_arch::ArchConfig;
use flexer_model::{ConvLayer, ElementSize};
use flexer_sim::wire::{decode_schedule, encode_schedule, WireError, WireReader, WireWriter};
use flexer_tiling::{Dataflow, TilingFactors};

/// Encodes a [`Dataflow`] as a one-byte tag.
pub fn encode_dataflow(w: &mut WireWriter, d: Dataflow) {
    let tag = match d {
        Dataflow::Kcs => 0,
        Dataflow::Ksc => 1,
        Dataflow::Cks => 2,
        Dataflow::Csk => 3,
        Dataflow::Skc => 4,
        Dataflow::Sck => 5,
    };
    w.u8(tag);
}

/// Decodes a [`Dataflow`].
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_dataflow(r: &mut WireReader<'_>) -> Result<Dataflow, WireError> {
    match r.u8()? {
        0 => Ok(Dataflow::Kcs),
        1 => Ok(Dataflow::Ksc),
        2 => Ok(Dataflow::Cks),
        3 => Ok(Dataflow::Csk),
        4 => Ok(Dataflow::Skc),
        5 => Ok(Dataflow::Sck),
        other => Err(WireError::Invalid {
            what: "Dataflow tag",
            value: u64::from(other),
        }),
    }
}

/// Encodes [`TilingFactors`] as four raw tile counts.
pub fn encode_factors(w: &mut WireWriter, f: TilingFactors) {
    w.u32(f.k());
    w.u32(f.c());
    w.u32(f.h());
    w.u32(f.w());
}

/// Decodes [`TilingFactors`].
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_factors(r: &mut WireReader<'_>) -> Result<TilingFactors, WireError> {
    let (k, c, h, w) = (r.u32()?, r.u32()?, r.u32()?, r.u32()?);
    Ok(TilingFactors::from_raw(k, c, h, w))
}

/// Trailing `u64` slots of the stats encoding that once held retired
/// counters: the store eviction and corruption counts, then the three
/// solver-seeding counters. Format version 4 keeps them so existing
/// entries stay readable; they are written as zeros.
const RETIRED_STATS: usize = 5;

/// Encodes a [`SearchStats`], followed by five zero slots where the
/// retired counters were. The exhaustive destructuring keeps
/// the codec in lock-step with the struct: a new field fails to
/// compile here (and in [`decode_stats`]) until it is wired in.
pub fn encode_stats(w: &mut WireWriter, s: &SearchStats) {
    let SearchStats {
        steps,
        sets_generated,
        sets_pruned,
        sets_evaluated,
        rollback_bytes,
        clone_bytes_avoided,
        evictions,
        compactions,
        gen_nanos,
        eval_nanos,
        commit_nanos,
        schedules_verified,
        verify_nanos,
        candidates_bounded,
        candidates_pruned,
        early_exits,
        bound_nanos,
        store_hits,
        store_misses,
    } = *s;
    for v in [
        steps,
        sets_generated,
        sets_pruned,
        sets_evaluated,
        rollback_bytes,
        clone_bytes_avoided,
        evictions,
        compactions,
        gen_nanos,
        eval_nanos,
        commit_nanos,
        schedules_verified,
        verify_nanos,
        candidates_bounded,
        candidates_pruned,
        early_exits,
        bound_nanos,
        store_hits,
        store_misses,
    ] {
        w.u64(v);
    }
    for _ in 0..RETIRED_STATS {
        w.u64(0);
    }
}

/// Decodes a [`SearchStats`], discarding the five retired slots.
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_stats(r: &mut WireReader<'_>) -> Result<SearchStats, WireError> {
    let stats = SearchStats {
        steps: r.u64()?,
        sets_generated: r.u64()?,
        sets_pruned: r.u64()?,
        sets_evaluated: r.u64()?,
        rollback_bytes: r.u64()?,
        clone_bytes_avoided: r.u64()?,
        evictions: r.u64()?,
        compactions: r.u64()?,
        gen_nanos: r.u64()?,
        eval_nanos: r.u64()?,
        commit_nanos: r.u64()?,
        schedules_verified: r.u64()?,
        verify_nanos: r.u64()?,
        candidates_bounded: r.u64()?,
        candidates_pruned: r.u64()?,
        early_exits: r.u64()?,
        bound_nanos: r.u64()?,
        store_hits: r.u64()?,
        store_misses: r.u64()?,
    };
    // Skipped, not rejected: existing stores and fleet replicas stay
    // warm, and the pinned fingerprints stay valid.
    for _ in 0..RETIRED_STATS {
        r.u64()?;
    }
    Ok(stats)
}

fn encode_point(w: &mut WireWriter, p: &SchedulePoint) {
    encode_factors(w, p.factors);
    encode_dataflow(w, p.dataflow);
    w.u64(p.latency);
    w.u64(p.transfer_bytes);
    w.f64(p.score);
}

fn decode_point(r: &mut WireReader<'_>) -> Result<SchedulePoint, WireError> {
    Ok(SchedulePoint {
        factors: decode_factors(r)?,
        dataflow: decode_dataflow(r)?,
        latency: r.u64()?,
        transfer_bytes: r.u64()?,
        score: r.f64()?,
    })
}

/// Encodes a complete [`LayerSearchResult`] into a byte vector. The
/// encoding is canonical: equal results produce equal bytes.
#[must_use]
pub fn encode_layer_result(result: &LayerSearchResult) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.str(&result.layer);
    encode_schedule(&mut w, &result.schedule);
    encode_factors(&mut w, result.factors);
    encode_dataflow(&mut w, result.dataflow);
    w.f64(result.score);
    w.usize(result.evaluated);
    w.usize(result.points.len());
    for p in &result.points {
        encode_point(&mut w, p);
    }
    encode_stats(&mut w, &result.stats);
    match result.outcome {
        SearchOutcome::Exact => w.u8(0),
        SearchOutcome::Anytime { gap } => {
            w.u8(1);
            w.f64(gap);
        }
    }
    w.into_bytes()
}

/// Decodes a [`LayerSearchResult`] produced by [`encode_layer_result`],
/// rejecting trailing bytes.
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_layer_result(bytes: &[u8]) -> Result<LayerSearchResult, WireError> {
    let mut r = WireReader::new(bytes);
    let layer = r.str()?;
    let schedule = decode_schedule(&mut r)?;
    let factors = decode_factors(&mut r)?;
    let dataflow = decode_dataflow(&mut r)?;
    let score = r.f64()?;
    let evaluated = r.usize()?;
    let n = r.usize()?;
    let mut points = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        points.push(decode_point(&mut r)?);
    }
    let stats = decode_stats(&mut r)?;
    let outcome = match r.u8()? {
        0 => SearchOutcome::Exact,
        1 => SearchOutcome::Anytime { gap: r.f64()? },
        other => {
            return Err(WireError::Invalid {
                what: "SearchOutcome tag",
                value: u64::from(other),
            })
        }
    };
    r.finish()?;
    Ok(LayerSearchResult {
        layer,
        schedule,
        factors,
        dataflow,
        score,
        evaluated,
        points,
        stats,
        outcome,
    })
}

/// The canonical byte encoding of one search's identity: everything
/// that can change the winner, and nothing that cannot. In-batch
/// duplicates are grouped by these bytes, and the store fingerprints
/// them (plus its own format version) into the content address that
/// keys its entries and the driver's in-process result tier.
#[must_use]
pub fn canonical_key_bytes(
    layer: &ConvLayer,
    arch: &ArchConfig,
    opts: &SearchOptions,
    kind: SchedulerKind,
) -> Vec<u8> {
    let mut w = WireWriter::new();
    // Layer *shape*, not name.
    // The operator kind is normalized to (tag, groups): a matmul lowers
    // to exactly the geometry of the equivalent pointwise conv, so the
    // two deliberately alias to one store entry ((0, 1), like Dense);
    // grouped layers encode (1, G).
    let (kind_tag, kind_groups) = match layer.kind() {
        flexer_model::LayerKind::Dense | flexer_model::LayerKind::Matmul => (0, 1),
        flexer_model::LayerKind::Grouped { groups } => (1, groups),
    };
    for v in [
        layer.in_channels(),
        layer.in_height(),
        layer.in_width(),
        layer.out_channels(),
        layer.kernel_h(),
        layer.kernel_w(),
        layer.stride(),
        layer.padding(),
        kind_tag,
        kind_groups,
    ] {
        w.u32(v);
    }
    w.u32(arch.cores());
    w.u64(arch.spm_bytes());
    w.u64(arch.dma_bytes_per_cycle());
    w.u32(arch.pe_rows());
    w.u32(arch.pe_cols());
    w.u64(arch.dram_latency_cycles());
    // Heterogeneous core classes: two configs with equal effective
    // parameters but different class mixes must never alias.
    w.usize(arch.core_classes().len());
    for class in arch.core_classes() {
        w.u32(class.count);
        w.u32(class.pe_rows);
        w.u32(class.pe_cols);
        w.u64(class.spm_share_bytes);
    }
    w.u8(match arch.element_size() {
        ElementSize::Int8 => 0,
        ElementSize::Fp16 => 1,
        ElementSize::Fp32 => 2,
    });
    w.u8(match kind {
        SchedulerKind::Ooo => 0,
        SchedulerKind::Static => 1,
    });
    let (metric_tag, metric_bits) = opts.metric.fingerprint();
    w.u8(metric_tag);
    w.u64(metric_bits);
    w.u8(match opts.priority {
        crate::PriorityPolicy::FlexerDefault => 0,
        crate::PriorityPolicy::MinTransfer => 1,
        crate::PriorityPolicy::MinSpill => 2,
    });
    w.u8(match opts.spill {
        crate::SpillPolicyChoice::Flexer => 0,
        crate::SpillPolicyChoice::FirstFit => 1,
        crate::SpillPolicyChoice::SmallestFirst => 2,
    });
    w.usize(opts.combo.width_cap);
    w.usize(opts.combo.max_combos);
    w.usize(opts.combo.max_sets);
    w.bool(opts.combo.prune);
    w.u8(match opts.eval_mode {
        crate::EvalMode::Transactional => 0,
        crate::EvalMode::CloneBaseline => 1,
    });
    w.usize(opts.tiling.channel_candidates.len());
    for &c in &opts.tiling.channel_candidates {
        w.u32(c);
    }
    w.usize(opts.tiling.spatial_candidates.len());
    for &s in &opts.tiling.spatial_candidates {
        w.u32(s);
    }
    w.u64(opts.tiling.max_ops);
    w.usize(opts.tiling.max_tilings);
    w.usize(opts.dataflows.len());
    for &d in &opts.dataflows {
        encode_dataflow(&mut w, d);
    }
    // Residency changes the byte math of every score, so two searches
    // under different residency assignments must never alias.
    w.bool(opts.residency.input_resident);
    w.bool(opts.residency.output_resident);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search_layer;
    use flexer_arch::ArchPreset;

    fn layer() -> ConvLayer {
        ConvLayer::new("t", 32, 14, 14, 32).unwrap()
    }

    fn arch() -> ArchConfig {
        ArchConfig::preset(ArchPreset::Arch1)
    }

    #[test]
    fn dataflow_round_trips() {
        for d in Dataflow::all() {
            let mut w = WireWriter::new();
            encode_dataflow(&mut w, d);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(decode_dataflow(&mut r).unwrap(), d);
        }
        let mut r = WireReader::new(&[6]);
        assert!(decode_dataflow(&mut r).is_err());
    }

    #[test]
    fn stats_round_trip_is_exhaustive() {
        // fields() values in declaration order reconstruct any stats
        // value; pair up with the codec to catch drift.
        let mut s = SearchStats::default();
        for (i, _) in SearchStats::default().fields().iter().enumerate() {
            // Touch every field with a distinct value via merge of a
            // synthetic per-field delta is overkill; encode/decode the
            // default plus a handful of set fields instead.
            let _ = i;
        }
        s.steps = 7;
        s.store_hits = 3;
        s.store_misses = 1;
        s.bound_nanos = 99;
        let mut w = WireWriter::new();
        encode_stats(&mut w, &s);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 * (s.fields().len() + RETIRED_STATS));
        let mut r = WireReader::new(&bytes);
        let back = decode_stats(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn layer_result_round_trips_bit_exact() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        opts.collect_points = true;
        let result = search_layer(&layer(), &arch(), &opts).unwrap();
        assert!(!result.points.is_empty());
        let bytes = encode_layer_result(&result);
        let back = decode_layer_result(&bytes).unwrap();
        assert_eq!(back.layer, result.layer);
        assert_eq!(back.schedule, result.schedule);
        assert_eq!(back.factors, result.factors);
        assert_eq!(back.dataflow, result.dataflow);
        assert_eq!(back.score.to_bits(), result.score.to_bits());
        assert_eq!(back.evaluated, result.evaluated);
        assert_eq!(back.points.len(), result.points.len());
        assert_eq!(back.stats, result.stats);
        // Canonical: re-encoding reproduces the same bytes.
        assert_eq!(encode_layer_result(&back), bytes);
    }

    #[test]
    fn truncated_result_is_a_typed_error() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        let result = search_layer(&layer(), &arch(), &opts).unwrap();
        let bytes = encode_layer_result(&result);
        assert!(decode_layer_result(&bytes[..bytes.len() / 2]).is_err());
        let mut extended = bytes;
        extended.push(0);
        assert!(matches!(
            decode_layer_result(&extended),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn key_bytes_track_winner_relevant_fields_only() {
        let l = layer();
        let ar = arch();
        let base = SearchOptions::quick();
        let base_bytes = canonical_key_bytes(&l, &ar, &base, SchedulerKind::Ooo);

        // Winner-relevant knobs change the bytes.
        let mut metric = base.clone();
        metric.metric = crate::Metric::Transfer;
        assert_ne!(
            canonical_key_bytes(&l, &ar, &metric, SchedulerKind::Ooo),
            base_bytes
        );
        assert_ne!(
            canonical_key_bytes(&l, &ar, &base, SchedulerKind::Static),
            base_bytes
        );
        let mut eval_mode = base.clone();
        eval_mode.eval_mode = crate::EvalMode::CloneBaseline;
        assert_ne!(
            canonical_key_bytes(&l, &ar, &eval_mode, SchedulerKind::Ooo),
            base_bytes
        );
        let renamed = l.clone().with_name("alias");
        assert_eq!(
            canonical_key_bytes(&renamed, &ar, &base, SchedulerKind::Ooo),
            base_bytes,
            "the key tracks the shape, not the name"
        );

        // Residency changes the winner's byte math: distinct keys.
        let mut resident = base.clone();
        resident.residency.input_resident = true;
        assert_ne!(
            canonical_key_bytes(&l, &ar, &resident, SchedulerKind::Ooo),
            base_bytes
        );
        resident.residency = flexer_tiling::Residency {
            input_resident: false,
            output_resident: true,
        };
        assert_ne!(
            canonical_key_bytes(&l, &ar, &resident, SchedulerKind::Ooo),
            base_bytes
        );

        // validate / prune / threads are winner-neutral.
        let mut neutral = base.clone();
        neutral.validate = true;
        neutral.prune = false;
        neutral.threads = 7;
        neutral.collect_points = true;
        assert_eq!(
            canonical_key_bytes(&l, &ar, &neutral, SchedulerKind::Ooo),
            base_bytes
        );
    }
}
