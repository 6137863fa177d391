//! A walk-through of the paper's worked example (Figures 3, 5-7): a
//! two-NPU system executing a tiled convolution whose input-channel
//! dimension splits into several tiles, so partial-sum chains,
//! in-place replacement and cross-k reuse all appear — and the OoO
//! scheduler picks operation orders no loop order generates.

use flexer::arch::SystolicModel;
use flexer::prelude::*;
use flexer::sched::{dataflow_class, generate_sets, ComboOptions, OooScheduler, StaticScheduler};
use flexer::spm::SpmMemory;
use flexer::tiling::{OpId, TileId};

/// A layer in the spirit of Figure 6: several output-channel tiles,
/// several spatial tiles, and input-channel tiles deep enough for
/// partial-sum chains.
fn figure6_dfg(arch: &ArchConfig) -> Dfg {
    let layer = ConvLayer::new("fig6", 32, 16, 16, 32).unwrap();
    let factors = TilingFactors::normalized(&layer, 2, 2, 2, 2);
    let model = SystolicModel::new(arch);
    // KCS, the order of Figure 3 (c): k outer, c middle, s inner.
    Dfg::build(&layer, factors, Dataflow::Kcs, &model, arch).unwrap()
}

#[test]
fn tconv_operands_follow_figure3() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let dfg = figure6_dfg(&arch);
    // tCONV: OT <- IN, WT [, PS] — the first op of each chain has no
    // partial sum, later ones consume their predecessor's output tile.
    for op in dfg.ops() {
        assert_eq!(
            op.input(),
            TileId::Input {
                c: op.c(),
                s: op.s()
            }
        );
        assert_eq!(
            op.weight(),
            TileId::Weight {
                k: op.k(),
                c: op.c()
            }
        );
        assert_eq!(
            op.output(),
            TileId::Output {
                k: op.k(),
                s: op.s()
            }
        );
        match dfg.pred(op.id()) {
            None => assert!(!op.needs_psum()),
            Some(p) => {
                assert!(op.needs_psum());
                assert_eq!(dfg.op(p).output(), op.output());
            }
        }
    }
}

#[test]
fn completing_a_conv_wakes_its_chain_successor() {
    // Figure 3 (c)'s narrative: tCONV1 produces tOT1 which allows
    // tCONV5 (same output tile, next c) to run.
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let dfg = figure6_dfg(&arch);
    let first = dfg.initial_ready().next().unwrap();
    let succ = dfg.succ(first).expect("c=2 gives every chain a successor");
    assert_eq!(dfg.op(succ).c(), dfg.op(first).c() + 1);
    assert_eq!(dfg.op(succ).s(), dfg.op(first).s());
    assert_eq!(dfg.op(succ).k(), dfg.op(first).k());
}

#[test]
fn duplicate_dataflow_classes_are_pruned_like_figure7() {
    // Figure 7 (c): set2 (tCONV5/7) and set3 (tCONV5/8) have identical
    // dataflow maps, so one is pruned.
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let dfg = figure6_dfg(&arch);
    let spm = SpmMemory::new(arch.spm_bytes());
    let ready: Vec<OpId> = dfg.initial_ready().collect();
    // Sets sharing one input tile but differing in which weight tile
    // they add are duplicates of each other.
    let same_s: Vec<OpId> = ready
        .iter()
        .copied()
        .filter(|&id| dfg.op(id).s() == 0)
        .collect();
    let other_s: Vec<OpId> = ready
        .iter()
        .copied()
        .filter(|&id| dfg.op(id).s() == 1)
        .collect();
    let class_a = dataflow_class(&dfg, &spm, &same_s[..2]);
    let class_b = dataflow_class(&dfg, &spm, &other_s[..2]);
    assert_eq!(class_a, class_b, "structurally identical sets must collide");

    // generate_sets with pruning returns strictly fewer sets than the
    // raw combination count.
    let opts = ComboOptions {
        width_cap: ready.len(),
        max_combos: usize::MAX,
        max_sets: usize::MAX,
        prune: true,
    };
    let pruned = generate_sets(&dfg, &spm, &ready, 2, &opts);
    let raw = ready.len() * (ready.len() - 1) / 2;
    assert!(pruned.len() < raw, "{} !< {raw}", pruned.len());

    // At §4.2's scale: four-wide sets over a 16-op window of a larger
    // layer's ready list, C(16, 4) = 1,820 combinations, collapse to
    // 6 dataflow-map classes.
    let arch = ArchConfig::preset(ArchPreset::Arch5);
    let model = SystolicModel::new(&arch);
    let layer = ConvLayer::new("g", 128, 32, 32, 128).unwrap();
    let factors = TilingFactors::normalized(&layer, 8, 1, 4, 4);
    let dfg = Dfg::build(&layer, factors, Dataflow::Csk, &model, &arch).unwrap();
    let spm = SpmMemory::new(arch.spm_bytes());
    let ready: Vec<OpId> = dfg.initial_ready().collect();
    assert!(ready.len() >= 64);
    let sets = |prune| {
        let opts = ComboOptions {
            width_cap: 16,
            max_combos: 4096,
            max_sets: usize::MAX,
            prune,
        };
        generate_sets(&dfg, &spm, &ready[..64], 4, &opts).len()
    };
    assert_eq!(sets(false), 1820);
    assert_eq!(sets(true), 6);
}

#[test]
fn ooo_schedules_orders_no_loop_order_generates() {
    // Figure 7's conclusion: the selected set "is not an operation
    // order that is generated by one of the static loop-order
    // scheduling techniques". Verify the OoO compute order differs
    // from every one of the six loop orders executed statically.
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let model = SystolicModel::new(&arch);
    let layer = ConvLayer::new("fig7", 64, 16, 16, 64).unwrap();
    let factors = TilingFactors::normalized(&layer, 4, 2, 2, 2);
    // Make memory tight enough that reuse decisions matter.
    let tight = ArchConfigBuilder::new(2, 48 * 1024, 32).build().unwrap();

    let order_of = |sched: &flexer::sim::Schedule| -> Vec<(u32, u32, u32)> {
        let dfg = Dfg::build(&layer, factors, Dataflow::Kcs, &model, &tight).unwrap();
        let mut ops: Vec<_> = sched.compute().to_vec();
        ops.sort_by_key(|o| (o.start, o.core));
        ops.iter()
            .map(|o| {
                let op = dfg.op(o.op);
                (op.k(), op.c(), op.s())
            })
            .collect()
    };

    let dfg = Dfg::build(&layer, factors, Dataflow::Kcs, &model, &tight).unwrap();
    let ooo = OooScheduler::new(&dfg, &tight, &model).schedule().unwrap();
    let ooo_order = order_of(&ooo);

    let mut static_orders = Vec::new();
    for df in Dataflow::all() {
        let dfg = Dfg::build(&layer, factors, df, &model, &tight).unwrap();
        let st = StaticScheduler::new(&dfg, &tight, &model)
            .schedule()
            .unwrap();
        // Map back through each DFG's own ids.
        let mut ops: Vec<_> = st.compute().to_vec();
        ops.sort_by_key(|o| (o.start, o.core));
        static_orders.push(
            ops.iter()
                .map(|o| {
                    let op = dfg.op(o.op);
                    (op.k(), op.c(), op.s())
                })
                .collect::<Vec<_>>(),
        );
    }
    assert!(
        static_orders.iter().all(|s| s != &ooo_order),
        "the OoO order coincided with a static loop order"
    );
}

#[test]
fn figure5_in_place_replacement() {
    // Figure 5's narrative: tIN1 "can be overwritten by the same-sized
    // tIN2 because tIN1 is no longer needed".
    use flexer::spm::{AllocMethod, FlexerSpill};
    let mut spm = SpmMemory::new(4096);
    let t_in1 = TileId::Input { c: 0, s: 0 };
    let t_in2 = TileId::Input { c: 1, s: 0 };
    spm.allocate(t_in1, 2048, 1, &FlexerSpill).unwrap();
    // Fill the rest so nothing else is free.
    spm.allocate(TileId::Weight { k: 0, c: 0 }, 2048, 3, &FlexerSpill)
        .unwrap();
    // Last use of tIN1 happens...
    spm.decrement_uses(t_in1);
    // ...and tIN2 replaces it in place, leaving the hot weight alone.
    let outcome = spm.allocate(t_in2, 2048, 2, &FlexerSpill).unwrap();
    assert_eq!(outcome.method, AllocMethod::InPlace);
    assert_eq!(outcome.evictions[0].tile, t_in1);
    assert!(spm.contains(TileId::Weight { k: 0, c: 0 }));
}
