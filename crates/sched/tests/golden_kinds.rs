//! Golden winner-equality tests for the new operator kinds and the
//! heterogeneous architecture: matmul, depthwise and grouped layers
//! must search deterministically on every configuration, under both
//! schedulers — and a matmul's winner must be byte-identical to the
//! winner of the pointwise conv it lowers to, which is what makes the
//! store-key aliasing of the two sound.

use flexer_arch::{ArchConfig, ArchPreset};
use flexer_model::{ConvLayer, ConvLayerBuilder};
use flexer_sched::{search_layer, LayerSearchResult, SchedulerKind, Search, SearchOptions};

fn kinds() -> Vec<ConvLayer> {
    vec![
        ConvLayer::matmul("mm", 196, 32, 48).unwrap(),
        ConvLayer::depthwise("dw", 32, 14, 14, 1, 1).unwrap(),
        ConvLayerBuilder::new("g4", 32, 14, 14, 64)
            .kernel(3, 3)
            .padding(1)
            .groups(4)
            .build()
            .unwrap(),
    ]
}

fn archs() -> Vec<ArchConfig> {
    vec![
        ArchConfig::preset(ArchPreset::Arch1),
        ArchConfig::preset(ArchPreset::Arch5),
        ArchConfig::hetero1(),
    ]
}

fn assert_same_winner(a: &LayerSearchResult, b: &LayerSearchResult) {
    assert_eq!(a.schedule, b.schedule, "schedules must be byte-identical");
    assert_eq!(a.factors, b.factors);
    assert_eq!(a.dataflow, b.dataflow);
    assert_eq!(a.score, b.score);
    assert_eq!(a.evaluated, b.evaluated);
}

#[test]
fn new_kinds_search_deterministically_on_every_arch() {
    let mut opts = SearchOptions::quick();
    opts.validate = true; // differential verification on every winner
    for arch in archs() {
        for layer in kinds() {
            let a = search_layer(&layer, &arch, &opts).unwrap();
            let b = search_layer(&layer, &arch, &opts).unwrap();
            assert_same_winner(&a, &b);
            assert!(a.schedule.latency() > 0, "{}", layer.name());
            let sa = Search {
                kind: SchedulerKind::Static,
                ..Search::new(&arch, &opts)
            }
            .run_layer(&layer)
            .unwrap();
            let sb = Search {
                kind: SchedulerKind::Static,
                ..Search::new(&arch, &opts)
            }
            .run_layer(&layer)
            .unwrap();
            assert_same_winner(&sa, &sb);
            // The OoO winner never loses to the static baseline.
            assert!(a.score <= sa.score, "{}", layer.name());
        }
    }
}

#[test]
fn matmul_winner_is_byte_identical_to_its_pointwise_lowering() {
    // ConvLayer::matmul(m, k, n) lowers to a 1x1 conv with k input
    // channels over an m x 1 spatial extent producing n channels. The
    // two share a cache/store key, so their searched winners must be
    // byte-identical — the aliasing proof.
    let mm = ConvLayer::matmul("mm", 196, 32, 48).unwrap();
    let pw = ConvLayerBuilder::new("pw", 32, 196, 1, 48).build().unwrap();
    let opts = SearchOptions::quick();
    for arch in archs() {
        let a = search_layer(&mm, &arch, &opts).unwrap();
        let b = search_layer(&pw, &arch, &opts).unwrap();
        assert_same_winner(&a, &b);
        let sa = Search {
            kind: SchedulerKind::Static,
            ..Search::new(&arch, &opts)
        }
        .run_layer(&mm)
        .unwrap();
        let sb = Search {
            kind: SchedulerKind::Static,
            ..Search::new(&arch, &opts)
        }
        .run_layer(&pw)
        .unwrap();
        assert_same_winner(&sa, &sb);
    }
}

#[test]
fn hetero_arch_produces_a_distinct_deterministic_winner() {
    // The heterogeneous config has conservative effective parameters
    // (weakest-core PE array); its winners must differ from a config
    // with the strongest core's array, and replay byte-identically.
    let layer = ConvLayer::new("c", 32, 14, 14, 32).unwrap();
    let hetero = ArchConfig::hetero1();
    let opts = SearchOptions::quick();
    let a = search_layer(&layer, &hetero, &opts).unwrap();
    let b = search_layer(&layer, &hetero, &opts).unwrap();
    assert_same_winner(&a, &b);
    // Same core count and SPM but a uniform 32x32 PE array: the
    // per-op latencies change, so the score must differ.
    let strong = flexer_arch::ArchConfigBuilder::new(
        hetero.cores(),
        hetero.spm_bytes(),
        hetero.dma_bytes_per_cycle(),
    )
    .pe_array(32, 32)
    .build()
    .unwrap();
    let s = search_layer(&layer, &strong, &opts).unwrap();
    assert!(
        s.score < a.score,
        "an all-strong-core config must beat the hetero mix ({} !< {})",
        s.score,
        a.score
    );
}
