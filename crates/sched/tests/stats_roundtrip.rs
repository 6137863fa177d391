//! Drift tests for [`SearchStats`]: the merge of N per-layer searches
//! must equal one N-layer batch search, field for field. A counter
//! that a future change forgets to merge — or that the batch path
//! flushes differently — fails here instead of silently reporting
//! wrong search-effort numbers.

use flexer_arch::{ArchConfig, ArchPreset};
use flexer_model::ConvLayer;
use flexer_sched::{search_layer, Search, SearchOptions, SearchStats, StatKind};

fn layers() -> [ConvLayer; 3] {
    // Three distinct shapes: no in-batch dedup, so the batch search
    // does exactly the work of the three solo searches.
    [
        ConvLayer::new("a", 16, 14, 14, 32).unwrap(),
        ConvLayer::new("b", 32, 14, 14, 32).unwrap(),
        ConvLayer::new("c", 32, 7, 7, 64).unwrap(),
    ]
}

fn opts() -> SearchOptions {
    let mut opts = SearchOptions::quick();
    opts.threads = 1;
    opts
}

#[test]
fn batch_stats_equal_merged_solo_stats() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let batch = Search::new(&arch, &opts())
        .run(&layers())
        .into_result()
        .unwrap();
    let mut batch_total = SearchStats::default();
    for r in &batch {
        batch_total.merge(&r.stats);
    }
    let mut solo_total = SearchStats::default();
    for l in &layers() {
        solo_total.merge(&search_layer(l, &arch, &opts()).unwrap().stats);
    }
    // Wall-clock fields (bound/verify nanos) legitimately differ
    // between runs; every deterministic counter must match exactly.
    assert_eq!(
        batch_total.deterministic_fields(),
        solo_total.deterministic_fields()
    );
}

#[test]
fn validated_batch_stats_equal_merged_solo_stats() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let mut opts = opts();
    opts.validate = true;
    let batch = Search::new(&arch, &opts)
        .run(&layers())
        .into_result()
        .unwrap();
    let mut batch_total = SearchStats::default();
    for r in &batch {
        batch_total.merge(&r.stats);
    }
    let mut solo_total = SearchStats::default();
    for l in &layers() {
        solo_total.merge(&search_layer(l, &arch, &opts).unwrap().stats);
    }
    assert_eq!(
        batch_total.deterministic_fields(),
        solo_total.deterministic_fields()
    );
    assert_eq!(batch_total.schedules_verified, 3);
}

#[test]
fn merge_covers_every_field() {
    // Build a stats value where field i holds i + 1, merge it into
    // itself, and check every field doubled — via the exhaustive
    // `fields()` registry, so adding a field without extending
    // `merge` fails here.
    let probe = SearchStats {
        steps: 1,
        ..SearchStats::default()
    };
    let mut doubled = probe;
    doubled.merge(&probe);
    for ((name, a, _), (_, b, _)) in probe.fields().iter().zip(doubled.fields().iter()) {
        assert_eq!(*b, a * 2, "field {name} not doubled by merge");
    }
    // And with real search output, not a hand-built probe:
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let real = search_layer(&layers()[1], &arch, &opts()).unwrap().stats;
    let mut twice = real;
    twice.merge(&real);
    for ((name, a, _), (_, b, _)) in real.fields().iter().zip(twice.fields().iter()) {
        assert_eq!(*b, a * 2, "field {name} not doubled by merge");
    }
}

#[test]
fn display_round_trips_every_count_field() {
    // Display must mention the value of every Count-kind field so the
    // report line cannot silently drop a counter.
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let stats = search_layer(&layers()[0], &arch, &opts()).unwrap().stats;
    let line = stats.to_string();
    for (name, value, kind) in stats.fields() {
        if kind == StatKind::Count && value > 0 {
            assert!(
                line.contains(&value.to_string()),
                "field {name}={value} missing from display: {line}"
            );
        }
    }
}
