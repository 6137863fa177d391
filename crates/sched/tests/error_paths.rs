//! Mutation-style coverage of the scheduler's error paths through the
//! public API: each test drives a real search or scheduler run into a
//! specific [`SchedError`] variant and asserts the exact variant, so a
//! regression that swaps, swallows or re-wraps an error fails loudly
//! instead of surviving behind a generic `is_err()`.

use flexer_arch::{ArchConfig, ArchConfigBuilder, ArchPreset, SystolicModel};
use flexer_model::{ConvLayer, ConvLayerBuilder};
use flexer_sched::{
    search_layer, Cutoff, Incumbent, Metric, OooScheduler, SchedError, Search, SearchOptions,
};
use flexer_sim::TimelineError;
use flexer_tiling::{Dataflow, Dfg, TilingFactors};
use std::error::Error;

fn arch1() -> ArchConfig {
    ArchConfig::preset(ArchPreset::Arch1)
}

fn unschedulable() -> ConvLayer {
    // A 4096-channel, 1024x1024 layer that no tiling of at most 32 ops
    // can shrink into a 256 KiB SPM.
    ConvLayerBuilder::new("huge", 4096, 1024, 1024, 4096)
        .build()
        .unwrap()
}

fn tight_opts() -> SearchOptions {
    let mut opts = SearchOptions::quick();
    opts.tiling.max_ops = 32;
    opts
}

#[test]
fn impossible_incumbent_prunes_the_scheduler_run() {
    // An incumbent of 0.0 means every real schedule's running score
    // strictly exceeds it from the first committed set: the armed
    // cutoff must abort the run with `Pruned`, not a generic failure.
    let layer = ConvLayer::new("t", 32, 14, 14, 32).unwrap();
    let arch = arch1();
    let model = SystolicModel::new(&arch);
    let factors = TilingFactors::normalized(&layer, 2, 2, 2, 2);
    let dfg = Dfg::build(&layer, factors, Dataflow::Kcs, &model, &arch).unwrap();
    let incumbent = Incumbent::new();
    incumbent.observe(0.0);
    let err = OooScheduler::new(&dfg, &arch, &model)
        .with_cutoff(Cutoff::new(&incumbent, Metric::LatencyTimesTransfer))
        .schedule()
        .unwrap_err();
    assert_eq!(err, SchedError::Pruned);
    assert!(err.source().is_none(), "Pruned wraps no inner error");
}

#[test]
fn unarmed_cutoff_never_fires() {
    // The same run without an incumbent observation completes: proves
    // the previous test's `Pruned` came from the cutoff, not the DFG.
    let layer = ConvLayer::new("t", 32, 14, 14, 32).unwrap();
    let arch = arch1();
    let model = SystolicModel::new(&arch);
    let factors = TilingFactors::normalized(&layer, 2, 2, 2, 2);
    let dfg = Dfg::build(&layer, factors, Dataflow::Kcs, &model, &arch).unwrap();
    let incumbent = Incumbent::new();
    let schedule = OooScheduler::new(&dfg, &arch, &model)
        .with_cutoff(Cutoff::new(&incumbent, Metric::LatencyTimesTransfer))
        .schedule()
        .unwrap();
    assert!(schedule.latency() > 0);
}

#[test]
fn duplicate_of_a_failed_leader_wraps_the_leaders_error() {
    let leader = unschedulable();
    let twin = leader.with_name("huge-twin");
    let results = Search::new(&arch1(), &tight_opts())
        .run(&[leader, twin])
        .results;
    assert_eq!(results.len(), 2);
    assert!(
        matches!(
            results[0].as_ref().unwrap_err(),
            SchedError::NoViableTiling { layer } if layer == "huge"
        ),
        "leader fails on its own: {:?}",
        results[0]
    );
    match results[1].as_ref().unwrap_err() {
        SchedError::DuplicateOf { leader, error } => {
            assert_eq!(leader, "huge", "wrapper names the leader layer");
            assert!(
                matches!(&**error, SchedError::NoViableTiling { layer } if layer == "huge"),
                "the replayed error is the leader's own: {error}"
            );
        }
        e => panic!("expected DuplicateOf, got {e}"),
    }
    let err = results[1].as_ref().unwrap_err();
    assert!(err.to_string().contains("huge"), "{err}");
    assert!(err.source().is_some(), "source chain reaches the leader");
}

#[test]
fn collapsed_network_error_is_the_leaders_not_the_duplicates() {
    // The first-error-in-layer-order collapse always surfaces the
    // leader's own failure, never the DuplicateOf wrapper — only the
    // per-layer results above show the wrapper.
    let leader = unschedulable();
    let twin = leader.with_name("huge-twin");
    let err = Search::new(&arch1(), &tight_opts())
        .run(&[leader, twin])
        .into_result()
        .unwrap_err();
    assert!(
        matches!(&err, SchedError::NoViableTiling { layer } if layer == "huge"),
        "{err}"
    );
}

#[test]
fn adversarial_dram_latency_overflows_the_timeline() {
    // With a DRAM latency of u64::MAX / 2 the second DMA of any
    // schedule pushes the cycle count past u64::MAX: the checked
    // timeline arithmetic must surface `Timeline(CycleOverflow)`.
    let arch = ArchConfigBuilder::new(2, 256 * 1024, 16)
        .dram_latency(u64::MAX / 2)
        .build()
        .unwrap();
    let layer = ConvLayer::new("t", 16, 14, 14, 16).unwrap();
    let mut opts = SearchOptions::quick();
    opts.threads = 1;
    // Reach the scheduler itself, not the bound pre-pass.
    opts.prune = false;
    let err = search_layer(&layer, &arch, &opts).unwrap_err();
    assert!(
        matches!(
            err,
            SchedError::Timeline(TimelineError::CycleOverflow { .. })
        ),
        "{err}"
    );
    assert!(err.source().is_some(), "source chain reaches the timeline");
}
