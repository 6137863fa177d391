//! Fast in-process smoke for the chaos harness: the full scenario
//! matrix on one seed must come back clean, and the op schedule must
//! be a pure function of the seed.

use flexer_chaos::{run_chaos, ChaosConfig, Profile, Scenario};
use std::path::PathBuf;

/// Removes a smoke run's scratch directory (artifacts included) on
/// drop, so a failing assert cleans up too.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn smoke_config(seed: u64, tag: &str) -> (ChaosConfig, Scratch) {
    let scratch = std::env::temp_dir().join(format!("chaos-smoke-{tag}-{}", std::process::id()));
    let cfg = ChaosConfig {
        seed,
        profile: Profile::Short,
        scratch_dir: scratch.clone(),
        artifact_dir: scratch.clone(),
        serve_bin: None,
        scenarios: Scenario::all(),
        slo: Default::default(),
        connections: 6,
    };
    (cfg, Scratch(scratch))
}

#[test]
fn full_matrix_is_clean_and_deterministic() {
    let (cfg, _scratch) = smoke_config(0xC0FFEE, "a");
    let first = run_chaos(&cfg);
    assert!(
        first.clean(),
        "chaos run caught violations: {:#?}",
        first.violations
    );
    assert!(first.ops > 50, "suspiciously few ops: {}", first.ops);
    assert!(
        first.layer_latency.count > 0,
        "no traced layer spans reached the SLO gate"
    );
    assert!(first.artifact.is_none(), "clean run wrote an artifact");

    // Same seed, same schedule of abuse: the op count and the traced
    // span population must replay exactly.
    let (cfg, _scratch) = smoke_config(0xC0FFEE, "b");
    let second = run_chaos(&cfg);
    assert!(
        second.clean(),
        "replay violations: {:#?}",
        second.violations
    );
    assert_eq!(first.ops, second.ops, "op schedule is not seed-determined");
    assert_eq!(
        first.layer_latency, second.layer_latency,
        "traced span population is not seed-determined"
    );
}

#[test]
fn raised_connection_count_soaks_clean() {
    // The --connections knob: a soak with many more concurrent clients
    // than the default 6 (past the storm threshold, so per-connection
    // ops shed) must still come back violation-free, and its replay
    // line must name the non-default count.
    let (mut cfg, _scratch) = smoke_config(7, "conns");
    cfg.scenarios = vec![Scenario::Soak];
    cfg.connections = 80;
    let report = run_chaos(&cfg);
    assert!(report.clean(), "violations: {:#?}", report.violations);
    assert!(
        report.ops >= 80 * 2,
        "each connection must run its shed op budget: {}",
        report.ops
    );
    // A forced violation under the same config records the knob in the
    // replay artifact.
    cfg.slo = flexer_chaos::SloThresholds {
        layer_p50: 0,
        layer_p99: 0,
    };
    let report = run_chaos(&cfg);
    let artifact: PathBuf = report.artifact.expect("violating run dumps an artifact");
    let text = std::fs::read_to_string(&artifact).expect("artifact readable");
    assert!(
        text.contains("--connections 80"),
        "artifact lacks the connection count: {text}"
    );
}

#[test]
fn scenario_names_round_trip() {
    for scenario in Scenario::all() {
        assert_eq!(Scenario::from_name(scenario.name()), Some(scenario));
    }
    assert_eq!(Scenario::from_name("nope"), None);
}

#[test]
fn failure_artifacts_name_the_seed() {
    // An impossible SLO forces a violation; the artifact must exist
    // and carry the replay seed.
    let (mut cfg, _scratch) = smoke_config(42, "slo");
    cfg.scenarios = vec![Scenario::Soak];
    cfg.slo = flexer_chaos::SloThresholds {
        layer_p50: 0,
        layer_p99: 0,
    };
    let report = run_chaos(&cfg);
    assert!(!report.clean(), "impossible SLO did not trip the gate");
    let artifact: PathBuf = report
        .artifact
        .expect("violating run must dump an artifact");
    let text = std::fs::read_to_string(&artifact).expect("artifact readable");
    assert!(
        text.contains("--seed 42"),
        "artifact lacks replay seed: {text}"
    );
    assert!(
        text.contains("[slo]"),
        "artifact lacks the violation: {text}"
    );
}
