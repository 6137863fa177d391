//! Golden network-level verification: the winning schedules of every
//! evaluation network, on two architecture presets, pass differential
//! verification for both schedulers.
//!
//! Networks are spatially scaled down and truncated so the test runs
//! in debug builds; the `verify` binary in `flexer-bench` runs the
//! full-size sweep in release mode.

use flexer::prelude::*;
use flexer_model::{networks, scale_spatial};

fn slices() -> Vec<Network> {
    networks::all()
        .iter()
        .map(|net| {
            let scaled = scale_spatial(net, 16);
            let n = scaled.layers().len().min(3);
            Network::new(scaled.name(), scaled.layers()[..n].to_vec()).unwrap()
        })
        .collect()
}

#[test]
fn every_network_verifies_on_both_presets() {
    for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
        let driver = Flexer::new(ArchConfig::preset(preset)).with_options(SearchOptions::quick());
        for net in slices() {
            let cmp = driver
                .verify_network(&net)
                .unwrap_or_else(|e| panic!("{preset:?}/{}: {e}", net.name()));
            assert!(cmp.flexer().verified(), "{preset:?}/{} ooo", net.name());
            assert!(
                cmp.baseline().verified(),
                "{preset:?}/{} static",
                net.name()
            );
            assert!(cmp.speedup() > 0.0);
        }
    }
}

#[test]
fn validate_flag_matches_unvalidated_winners() {
    // Verification must be an observer: the same winners come out with
    // and without it (the flag is excluded from the cache key).
    let net = slices().remove(0);
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let plain = Flexer::new(arch.clone()).with_options(SearchOptions::quick());
    let mut opts = SearchOptions::quick();
    opts.validate = true;
    let validated = Flexer::new(arch).with_options(opts);
    let a = plain.schedule_network(&net).unwrap();
    let b = validated.schedule_network(&net).unwrap();
    assert!(!a.verified());
    assert!(b.verified());
    for (x, y) in a.layers().iter().zip(b.layers()) {
        assert_eq!(x.schedule, y.schedule, "{}", x.layer);
        assert_eq!(x.factors, y.factors);
        assert_eq!(x.dataflow, y.dataflow);
    }
}
