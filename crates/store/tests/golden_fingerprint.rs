//! Golden pin of the store fingerprint for a fixed (arch, layer,
//! options) triple.
//!
//! The fingerprint is the content address of a persisted schedule: it
//! hashes the canonical key bytes (layer shape, architecture, every
//! winner-relevant search knob, scheduler kind) together with the
//! store format version. If this test fails, the key encoding or the
//! memo-relevant option set drifted — which would silently serve stale
//! schedules to old stores. The fix is never to update the constant
//! alone: bump `flexer_store::FORMAT_VERSION` (re-keying every entry),
//! then re-pin.

use flexer_arch::{ArchConfig, ArchPreset};
use flexer_model::ConvLayer;
use flexer_sched::{SchedulerKind, SearchOptions};
use flexer_store::{fingerprint, FORMAT_VERSION};

/// The pinned address of (Arch1, conv 32x14x14 -> 32, quick options,
/// OoO scheduler) under store format version 4 (operator kind and
/// heterogeneous core classes in the key).
const GOLDEN_OOO: &str = "52f8aa6da620181b0c745eee444445e7";
/// Same triple under the static baseline scheduler.
const GOLDEN_STATIC: &str = "6f782f518f48a73c60b9ae32bb5c58d6";

fn triple() -> (ConvLayer, ArchConfig, SearchOptions) {
    (
        ConvLayer::new("golden", 32, 14, 14, 32).unwrap(),
        ArchConfig::preset(ArchPreset::Arch1),
        SearchOptions::quick(),
    )
}

#[test]
fn fingerprint_bytes_are_pinned() {
    assert_eq!(FORMAT_VERSION, 4, "format bumped: re-pin the goldens");
    let (layer, arch, opts) = triple();
    assert_eq!(
        fingerprint(&layer, &arch, &opts, SchedulerKind::Ooo).hex(),
        GOLDEN_OOO,
        "key encoding drifted — bump flexer_store::FORMAT_VERSION, then re-pin"
    );
    assert_eq!(
        fingerprint(&layer, &arch, &opts, SchedulerKind::Static).hex(),
        GOLDEN_STATIC,
        "key encoding drifted — bump flexer_store::FORMAT_VERSION, then re-pin"
    );
}

#[test]
fn fingerprint_is_stable_across_calls() {
    let (layer, arch, opts) = triple();
    let a = fingerprint(&layer, &arch, &opts, SchedulerKind::Ooo);
    let b = fingerprint(&layer, &arch, &opts, SchedulerKind::Ooo);
    assert_eq!(a, b);
}

#[test]
fn matmul_aliases_the_equivalent_pointwise_conv() {
    // A matmul lowers to exactly the geometry of a 1x1 conv with
    // height = rows and width = 1, so the two share one store entry:
    // a schedule searched for either warm-starts the other.
    let (_, arch, opts) = triple();
    let mm = ConvLayer::matmul("mm", 196, 32, 64).unwrap();
    let pw = flexer_model::ConvLayerBuilder::new("pw", 32, 196, 1, 64)
        .build()
        .unwrap();
    assert_eq!(
        fingerprint(&mm, &arch, &opts, SchedulerKind::Ooo),
        fingerprint(&pw, &arch, &opts, SchedulerKind::Ooo)
    );
}

#[test]
fn grouped_kind_re_keys_the_address() {
    let (_, arch, opts) = triple();
    let dense = ConvLayer::new("d", 32, 14, 14, 32).unwrap();
    let grouped = flexer_model::ConvLayerBuilder::new("d", 32, 14, 14, 32)
        .kernel(3, 3)
        .padding(1)
        .groups(8)
        .build()
        .unwrap();
    assert_ne!(
        fingerprint(&dense, &arch, &opts, SchedulerKind::Ooo),
        fingerprint(&grouped, &arch, &opts, SchedulerKind::Ooo),
        "a grouped layer has different winners and must not alias dense"
    );
    let g4 = flexer_model::ConvLayerBuilder::new("d", 32, 14, 14, 32)
        .kernel(3, 3)
        .padding(1)
        .groups(4)
        .build()
        .unwrap();
    assert_ne!(
        fingerprint(&g4, &arch, &opts, SchedulerKind::Ooo),
        fingerprint(&grouped, &arch, &opts, SchedulerKind::Ooo),
        "the group count is part of the key"
    );
}

#[test]
fn heterogeneous_classes_re_key_the_address() {
    let (layer, _, opts) = triple();
    let hetero = ArchConfig::hetero1();
    // A homogeneous config with hetero1's *effective* parameters.
    let flat = flexer_arch::ArchConfigBuilder::new(
        hetero.cores(),
        hetero.spm_bytes(),
        hetero.dma_bytes_per_cycle(),
    )
    .pe_array(hetero.pe_rows(), hetero.pe_cols())
    .build()
    .unwrap();
    assert_ne!(
        fingerprint(&layer, &hetero, &opts, SchedulerKind::Ooo),
        fingerprint(&layer, &flat, &opts, SchedulerKind::Ooo),
        "class mix is winner-relevant even at equal effective params"
    );
}

#[test]
fn winner_neutral_options_do_not_move_the_address() {
    let (layer, arch, mut opts) = triple();
    let base = fingerprint(&layer, &arch, &opts, SchedulerKind::Ooo);
    opts.validate = true;
    opts.prune = false;
    opts.threads = 3;
    assert_eq!(fingerprint(&layer, &arch, &opts, SchedulerKind::Ooo), base);
}

#[test]
fn winner_relevant_options_move_the_address() {
    let (layer, arch, opts) = triple();
    let base = fingerprint(&layer, &arch, &opts, SchedulerKind::Ooo);
    let mut metric = opts.clone();
    metric.metric = flexer_sched::Metric::Latency;
    assert_ne!(
        fingerprint(&layer, &arch, &metric, SchedulerKind::Ooo),
        base
    );
    let mut tiling = opts.clone();
    tiling.tiling.max_ops += 1;
    assert_ne!(
        fingerprint(&layer, &arch, &tiling, SchedulerKind::Ooo),
        base
    );
    let mut flows = opts.clone();
    flows.dataflows.pop();
    assert_ne!(fingerprint(&layer, &arch, &flows, SchedulerKind::Ooo), base);
    let mut resident = opts;
    resident.residency.input_resident = true;
    assert_ne!(
        fingerprint(&layer, &arch, &resident, SchedulerKind::Ooo),
        base,
        "residency is winner-relevant and must re-key the entry"
    );
}
