//! The [`Search`] request's fields are orthogonal to its winners: every
//! combination of memo cache (none, cold, warm), tracing (off, logical
//! clock) and deadline (none, far in the future) returns the plain
//! run's `(factors, dataflow, schedule, score)` for every layer, as a
//! proven optimum, for both schedulers on a 2-core and a 4-core
//! preset.

use flexer_arch::{ArchConfig, ArchPreset};
use flexer_model::ConvLayer;
use flexer_sched::{
    LayerSearchResult, MemoCache, SchedulerKind, Search, SearchOptions, SearchOutcome, TraceOptions,
};
use flexer_trace::ClockMode;
use std::time::{Duration, Instant};

/// Three layers, the last repeating the first one's shape under
/// another name, so every run has a duplicate or memo-replay role.
fn net() -> [ConvLayer; 3] {
    [
        ConvLayer::new("a", 16, 14, 14, 32).unwrap(),
        ConvLayer::new("b", 32, 7, 7, 32).unwrap(),
        ConvLayer::new("a-again", 16, 14, 14, 32).unwrap(),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Cache {
    None,
    Cold,
    Warm,
}

fn assert_same_winner(ctx: &str, got: &LayerSearchResult, want: &LayerSearchResult) {
    assert_eq!(got.factors, want.factors, "{ctx}: tiling differs");
    assert_eq!(got.dataflow, want.dataflow, "{ctx}: dataflow differs");
    assert_eq!(got.schedule, want.schedule, "{ctx}: schedule differs");
    assert_eq!(got.score, want.score, "{ctx}: score differs");
    assert_eq!(got.outcome, SearchOutcome::Exact, "{ctx}: not exact");
}

#[test]
fn every_field_combination_returns_the_plain_winners() {
    let layers = net();
    let mut opts = SearchOptions::quick();
    opts.threads = 1;
    let logical = TraceOptions {
        clock: ClockMode::Logical,
        ..TraceOptions::default()
    };
    for kind in [SchedulerKind::Ooo, SchedulerKind::Static] {
        for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
            let arch = ArchConfig::preset(preset);
            let plain = Search {
                kind,
                ..Search::new(&arch, &opts)
            };
            let want = plain.run(&layers).into_result().unwrap();
            for cache in [Cache::None, Cache::Cold, Cache::Warm] {
                for trace in [None, Some(logical)] {
                    for deadline in [None, Some(Instant::now() + Duration::from_secs(3600))] {
                        let memo = MemoCache::new();
                        if let Cache::Warm = cache {
                            let warmed = Search {
                                cache: Some(&memo),
                                ..plain
                            };
                            warmed.run(&layers).into_result().unwrap();
                        }
                        let search = Search {
                            cache: (!matches!(cache, Cache::None)).then_some(&memo),
                            deadline,
                            trace,
                            ..plain
                        };
                        let run = search.run(&layers);
                        let ctx = format!(
                            "{kind:?}/{preset}/cache={cache:?}/traced={}/deadline={}",
                            trace.is_some(),
                            deadline.is_some()
                        );
                        assert_eq!(run.trace.is_empty(), trace.is_none(), "{ctx}");
                        let got = run.into_result().unwrap();
                        assert_eq!(got.len(), want.len(), "{ctx}");
                        for (g, w) in got.iter().zip(&want) {
                            assert_same_winner(&format!("{ctx}/{}", w.layer), g, w);
                        }
                        if let Cache::Warm = cache {
                            assert!(got.iter().all(|r| r.evaluated == 1), "{ctx}: no replay");
                        }
                    }
                }
            }
        }
    }
}
