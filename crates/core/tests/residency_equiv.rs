//! Inter-layer residency equivalence and protocol mutation tests.
//!
//! Two guarantees gate the residency planner:
//!
//! 1. **Off means off** — the planner's residency-disabled reference
//!    run is byte-identical to plain per-layer scheduling on every
//!    golden network and on randomly generated chains (the planner is
//!    an overlay, never a perturbation).
//!    On squeezenet at ÷4 the planner also strictly cuts DMA bytes at no worse
//!    latency, with every winner differentially verified.
//! 2. **The cross-layer protocol is enforced** — mutating a real
//!    plan's ledger event stream (dropping a free, duplicating a free,
//!    shrinking the budget, spilling before the consumer) is caught by
//!    the [`ResidencyLedger`] replay, not silently accepted.

use flexer::prelude::*;
use flexer::{replay_ledger, LedgerOp};
use flexer_model::{networks, scale_spatial};
use flexer_sim::LedgerError;
use proptest::prelude::*;

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
fn residency_off_reference_is_byte_identical_on_golden_nets() {
    for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
        let driver = Flexer::new(ArchConfig::preset(preset)).with_options(SearchOptions::quick());
        for net in slices() {
            let plain = driver
                .schedule_network(&net)
                .unwrap_or_else(|e| panic!("{preset:?}/{}: {e}", net.name()));
            let resident = driver
                .schedule_network_resident(&net)
                .unwrap_or_else(|e| panic!("{preset:?}/{}: {e}", net.name()));
            for (a, b) in plain.layers().iter().zip(resident.baseline.layers()) {
                assert_eq!(
                    a.schedule,
                    b.schedule,
                    "{preset:?}/{}/{}: residency-off run diverged",
                    net.name(),
                    a.layer
                );
                assert_eq!(a.factors, b.factors);
                assert_eq!(a.dataflow, b.dataflow);
            }
            // And the resident run itself never regresses the totals.
            assert!(
                resident.result.total_transfer_bytes() <= plain.total_transfer_bytes(),
                "{preset:?}/{}",
                net.name()
            );
            assert!(
                resident.result.total_latency() <= plain.total_latency(),
                "{preset:?}/{}",
                net.name()
            );
        }
    }
}

/// The residency planner on a whole network: squeezenet at ÷4 on both
/// reference presets, every winner differentially verified. The
/// residency-off reference matches a plain search on a separate driver
/// byte for byte, DMA bytes drop strictly at no worse latency, and the
/// plan's protocol replays to exactly the peak it reports.
#[test]
fn squeezenet_residency_strictly_cuts_dma_and_stays_verified() {
    let net = scale_spatial(&networks::by_name("squeezenet").unwrap(), 4);
    for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
        let driver = || {
            let mut opts = SearchOptions::quick();
            opts.threads = 1;
            opts.validate = true;
            Flexer::new(ArchConfig::preset(preset)).with_options(opts)
        };
        let plain = driver().schedule_network(&net).unwrap();
        let resident_driver = driver();
        let resident = resident_driver.schedule_network_resident(&net).unwrap();
        assert_eq!(plain.layers().len(), resident.baseline.layers().len());
        for (a, b) in plain.layers().iter().zip(resident.baseline.layers()) {
            assert_eq!(
                a.schedule, b.schedule,
                "{preset}: residency-off run diverged at {}",
                a.layer
            );
        }
        let (dram_off, dram_on) = (
            plain.total_transfer_bytes(),
            resident.result.total_transfer_bytes(),
        );
        assert!(
            dram_on < dram_off,
            "{preset}: residency must strictly cut DMA bytes ({dram_on} vs {dram_off})"
        );
        assert!(
            resident.result.total_latency() <= plain.total_latency(),
            "{preset}: residency must not cost latency ({} vs {})",
            resident.result.total_latency(),
            plain.total_latency()
        );
        assert!(
            resident.result.verified(),
            "{preset}: resident run unverified"
        );
        let peak = replay_ledger(
            resident_driver.arch().spm_bytes(),
            &resident.plan.ledger_ops(),
        )
        .unwrap();
        assert_eq!(peak, resident.plan.peak_reserved());
    }
}

/// A random chain: consecutive layers agree on channels, so every edge
/// is shape-chained and residency-eligible (modulo SPM pressure).
fn chain_strategy() -> impl Strategy<Value = Network> {
    (
        proptest::collection::vec(prop_oneof![Just(8u32), Just(16), Just(32)], 3..=5),
        prop_oneof![Just(7u32), Just(14)],
    )
        .prop_map(|(channels, hw)| {
            let layers: Vec<ConvLayer> = channels
                .windows(2)
                .enumerate()
                .map(|(i, w)| ConvLayer::new(format!("c{i}"), w[0], hw, hw, w[1]).unwrap())
                .collect();
            Network::new("chain", layers).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_chains_keep_the_planner_invariants(net in chain_strategy()) {
        let driver =
            Flexer::new(ArchConfig::preset(ArchPreset::Arch1)).with_options(SearchOptions::quick());
        let plain = driver.schedule_network(&net).unwrap();
        let resident = driver.schedule_network_resident(&net).unwrap();
        // Off means off: the reference run is the plain run, byte for
        // byte.
        for (a, b) in plain.layers().iter().zip(resident.baseline.layers()) {
            prop_assert_eq!(&a.schedule, &b.schedule, "{}", &a.layer);
        }
        // The resident run dominates the reference: never more DRAM
        // bytes, never more cycles — and strictly fewer bytes when any
        // edge went resident.
        prop_assert!(
            resident.result.total_transfer_bytes() <= plain.total_transfer_bytes()
        );
        prop_assert!(resident.result.total_latency() <= plain.total_latency());
        if resident.plan.resident_edges() > 0 {
            prop_assert!(
                resident.result.total_transfer_bytes() < plain.total_transfer_bytes()
            );
        } else {
            prop_assert_eq!(
                resident.result.total_transfer_bytes(),
                plain.total_transfer_bytes()
            );
        }
        // The plan's protocol replays cleanly within the SPM budget.
        let peak =
            replay_ledger(driver.arch().spm_bytes(), &resident.plan.ledger_ops()).unwrap();
        prop_assert_eq!(peak, resident.plan.peak_reserved());
        prop_assert!(peak <= driver.arch().spm_bytes());
        // Promised residency shows up in the per-layer counters.
        for (i, edge) in resident.plan.edges().iter().enumerate() {
            if edge.resident {
                prop_assert!(resident.result.layers()[i].schedule.resident_out_bytes() > 0);
                prop_assert!(resident.result.layers()[i + 1].schedule.resident_in_bytes() > 0);
            }
        }
    }
}

/// A real plan from the tiny chain, as the mutation substrate.
fn real_plan_ops() -> (u64, Vec<LedgerOp>) {
    let driver =
        Flexer::new(ArchConfig::preset(ArchPreset::Arch1)).with_options(SearchOptions::quick());
    let net = Network::new(
        "tiny",
        vec![
            ConvLayer::new("c1", 16, 14, 14, 32).unwrap(),
            ConvLayer::new("c2", 32, 14, 14, 32).unwrap(),
            ConvLayer::new("c3", 32, 14, 14, 32).unwrap(),
        ],
    )
    .unwrap();
    let r = driver.schedule_network_resident(&net).unwrap();
    assert!(r.plan.resident_edges() > 0, "mutation substrate is empty");
    (driver.arch().spm_bytes(), r.plan.ledger_ops())
}

#[test]
fn mutated_plan_dropping_a_free_leaks() {
    let (budget, mut ops) = real_plan_ops();
    let last_consume = ops
        .iter()
        .rposition(|op| matches!(op, LedgerOp::Consume { .. }))
        .unwrap();
    ops.remove(last_consume);
    let err = replay_ledger(budget, &ops).unwrap_err();
    assert!(matches!(err, LedgerError::Leaked { .. }), "{err}");
}

#[test]
fn mutated_plan_duplicating_a_free_double_frees() {
    let (budget, mut ops) = real_plan_ops();
    let last_consume = ops
        .iter()
        .rposition(|op| matches!(op, LedgerOp::Consume { .. }))
        .unwrap();
    let dup = ops[last_consume].clone();
    ops.push(dup);
    let err = replay_ledger(budget, &ops).unwrap_err();
    assert!(matches!(err, LedgerError::DoubleFree { .. }), "{err}");
}

#[test]
fn mutated_plan_over_a_shrunk_budget_overflows() {
    let (_, ops) = real_plan_ops();
    let biggest = ops
        .iter()
        .filter_map(|op| match op {
            LedgerOp::Reserve { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .max()
        .unwrap();
    let err = replay_ledger(biggest - 1, &ops).unwrap_err();
    assert!(matches!(err, LedgerError::BudgetOverflow { .. }), "{err}");
}

#[test]
fn mutated_plan_spilling_before_the_consumer_is_use_after_free() {
    let (budget, mut ops) = real_plan_ops();
    // Spill the first reserved tensor right after its reservation; its
    // consumer's later retirement becomes a use-after-free.
    let LedgerOp::Reserve { tensor, .. } = ops[0].clone() else {
        panic!("plans start with a reservation");
    };
    ops.insert(1, LedgerOp::Spill { tensor });
    let err = replay_ledger(budget, &ops).unwrap_err();
    assert!(matches!(err, LedgerError::UseAfterFree { .. }), "{err}");
}
