//! One function per table/figure of the paper's evaluation.

use crate::{geomean, ExperimentContext};
use flexer::prelude::*;
use flexer::sched::sweep_tilings;

/// **Table 1** — the eight hardware configurations.
pub fn table1() {
    println!("# Table 1 — hardware configurations used in the evaluation");
    println!(
        "{:<8} {:>8} {:>22} {:>18}",
        "arch", "cores", "on-chip memory (KiB)", "bandwidth (B/cyc)"
    );
    for preset in ArchPreset::all() {
        let (cores, kib, bpc) = preset.parameters();
        println!(
            "{:<8} {:>8} {:>22} {:>18}",
            preset.to_string(),
            cores,
            kib,
            bpc
        );
    }
}

/// **Figure 1** — latency vs off-chip traffic of *every* viable
/// `(tiling, dataflow)` pair on a two-NPU system, for one layer each
/// from ResNet-50 and VGG-16: the OoO scatter versus the best fixed
/// loop order.
///
/// # Panics
///
/// Panics if a search fails on the chosen layers (they are known-good).
pub fn fig01(ctx: &ExperimentContext) {
    ctx.print_header("Figure 1", "latency/traffic scatter, OoO vs best static");
    let vgg = ctx.network("vgg16");
    let resnet = ctx.network("resnet50");
    let cases = [
        (
            "resnet50/conv3_1_1",
            resnet.layer_by_name("conv3_1_1").unwrap(),
        ),
        ("vgg16/conv4_2", vgg.layer_by_name("conv4_2").unwrap()),
    ];
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    for (name, layer) in cases {
        println!("\n## {name} on arch1 ({arch})");
        println!(
            "{:<16} {:<6} {:>12} {:>14} {:>12} {:>14}",
            "tiling", "order", "ooo_cycles", "ooo_bytes", "static_cyc", "static_bytes"
        );
        let (ooo, st) = sweep_tilings(layer, &arch, &ctx.options).expect("sweep succeeds");
        for (o, s) in ooo.iter().zip(&st) {
            println!(
                "{:<16} {:<6} {:>12} {:>14} {:>12} {:>14}",
                o.factors.to_string(),
                format!("{:?}", o.dataflow),
                o.latency,
                o.transfer_bytes,
                s.latency,
                s.transfer_bytes
            );
        }
        let best = |pts: &[flexer::sched::SchedulePoint]| {
            pts.iter()
                .min_by(|a, b| a.score.total_cmp(&b.score))
                .copied()
                .expect("non-empty sweep")
        };
        let (bo, bs) = (best(&ooo), best(&st));
        println!(
            "best OoO   : {} cycles, {} bytes  [{} / {:?}]",
            bo.latency, bo.transfer_bytes, bo.factors, bo.dataflow
        );
        println!(
            "best static: {} cycles, {} bytes  [{} / {:?}]",
            bs.latency, bs.transfer_bytes, bs.factors, bs.dataflow
        );
        println!(
            "-> OoO vs best fixed order: {:.2}x faster, {:.2}x less traffic",
            bs.latency as f64 / bo.latency as f64,
            bs.transfer_bytes as f64 / bo.transfer_bytes as f64
        );
    }
}

/// **Figure 8** — end-to-end speedup and data-transfer reduction of
/// Flexer over the best static loop-order schedule, for all four
/// networks on all eight architectures.
///
/// # Panics
///
/// Panics if a network fails to schedule on a preset (all are viable).
pub fn fig08(ctx: &ExperimentContext) {
    ctx.print_header(
        "Figure 8",
        "end-to-end speedup / transfer reduction, 4 networks x 8 archs",
    );
    println!(
        "\n{:<12} {:<7} {:>9} {:>10} {:>14} {:>14}",
        "network", "arch", "speedup", "xfer_red", "flexer_cycles", "static_cycles"
    );
    let mut speedups = Vec::new();
    let mut reductions = Vec::new();
    for net in ctx.networks() {
        for preset in ArchPreset::all() {
            let driver = ctx.driver(preset);
            let cmp = driver.compare_network(&net).expect("network schedules");
            println!(
                "{:<12} {:<7} {:>9.3} {:>10.3} {:>14} {:>14}",
                net.name(),
                preset.to_string(),
                cmp.speedup(),
                cmp.transfer_reduction(),
                cmp.flexer().total_latency(),
                cmp.baseline().total_latency()
            );
            speedups.push(cmp.speedup());
            reductions.push(cmp.transfer_reduction());
        }
    }
    println!(
        "\ngeomean speedup {:.3}, max {:.3}; geomean transfer reduction {:.3}, max {:.3}",
        geomean(&speedups),
        speedups.iter().copied().fold(f64::MIN, f64::max),
        geomean(&reductions),
        reductions.iter().copied().fold(f64::MIN, f64::max)
    );
}

/// **Figure 9** — (a) layer-by-layer comparison for VGG-16 on arch5;
/// (b) schedules for conv3_1/conv3_2 when the metric weights transfer
/// reductions higher; (c) end-to-end effect of the minimal-transfer
/// policy.
///
/// # Panics
///
/// Panics if VGG-16 fails to schedule on arch5.
pub fn fig09(ctx: &ExperimentContext) {
    ctx.print_header("Figure 9", "per-layer analysis, VGG16 on arch5");
    let net = ctx.network("vgg16");
    let driver = ctx.driver(ArchPreset::Arch5);

    // (a) Layer by layer under the default metric.
    let cmp = driver.compare_network(&net).expect("vgg16 schedules");
    println!("\n## (a) per-layer, default metric (latency x transfer)");
    println!("{:<10} {:>9} {:>10}", "layer", "speedup", "xfer_red");
    for lc in cmp.per_layer() {
        println!(
            "{:<10} {:>9.3} {:>10.3}",
            lc.layer,
            lc.speedup(),
            lc.transfer_reduction()
        );
    }
    let best_speedup = cmp
        .per_layer()
        .map(|l| l.speedup())
        .fold(f64::MIN, f64::max);
    let best_red = cmp
        .per_layer()
        .map(|l| l.transfer_reduction())
        .fold(f64::MIN, f64::max);
    println!("max layer speedup {best_speedup:.3}; max layer transfer reduction {best_red:.3}");

    // (b) conv3_1 / conv3_2 with transfers weighted higher.
    println!("\n## (b) conv3_1/conv3_2 with transfer-weighted metric (weight 8)");
    let weighted = Flexer::new(ArchConfig::preset(ArchPreset::Arch5)).with_options(SearchOptions {
        metric: Metric::TransferWeighted { weight: 8.0 },
        ..ctx.options.clone()
    });
    println!(
        "{:<10} {:>18} {:>9} {:>10}",
        "layer", "metric", "speedup", "xfer_red"
    );
    let baseline = Search {
        kind: SchedulerKind::Static,
        ..Search::new(driver.arch(), driver.options())
    };
    for name in ["conv3_1", "conv3_2"] {
        let layer = net.layer_by_name(name).unwrap();
        let base = baseline.run_layer(layer).expect("baseline schedules");
        for (metric_name, d) in [("default", &driver), ("transfer-weighted", &weighted)] {
            let ooo = d.schedule_layer(layer).expect("layer schedules");
            println!(
                "{:<10} {:>18} {:>9.3} {:>10.3}",
                name,
                metric_name,
                base.schedule.latency() as f64 / ooo.schedule.latency() as f64,
                base.schedule.transfer_bytes() as f64 / ooo.schedule.transfer_bytes() as f64
            );
        }
    }

    // (c) End-to-end with the pure minimal-transfer metric.
    println!("\n## (c) end-to-end: default vs minimal-data-transfer policy");
    let min_transfer =
        Flexer::new(ArchConfig::preset(ArchPreset::Arch5)).with_options(SearchOptions {
            metric: Metric::Transfer,
            ..ctx.options.clone()
        });
    let cmp_min = min_transfer.compare_network(&net).expect("vgg16 schedules");
    println!("{:<22} {:>9} {:>10}", "policy", "speedup", "xfer_red");
    println!(
        "{:<22} {:>9.3} {:>10.3}",
        "default",
        cmp.speedup(),
        cmp.transfer_reduction()
    );
    println!(
        "{:<22} {:>9.3} {:>10.3}",
        "min-transfer",
        cmp_min.speedup(),
        cmp_min.transfer_reduction()
    );
}

/// **Figure 10** — per-data-type off-chip traffic and reload counts
/// for VGG-16 conv4_2 and ResNet-50 conv3_1_1 on arch6, comparing the
/// infinite-buffer reference, Flexer and the best static order.
///
/// # Panics
///
/// Panics if the layers fail to schedule on arch6.
pub fn fig10(ctx: &ExperimentContext) {
    ctx.print_header("Figure 10", "traffic by data type + reload counts, arch6");
    let arch = ArchConfig::preset(ArchPreset::Arch6);
    let model = SystolicModel::new(&arch);
    let vgg = ctx.network("vgg16");
    let resnet = ctx.network("resnet50");
    let cases = [
        ("vgg16/conv4_2", vgg.layer_by_name("conv4_2").unwrap()),
        (
            "resnet50/conv3_1_1",
            resnet.layer_by_name("conv3_1_1").unwrap(),
        ),
    ];
    let driver = ctx.driver(ArchPreset::Arch6);
    let baseline = Search {
        kind: SchedulerKind::Static,
        ..Search::new(driver.arch(), driver.options())
    };
    for (name, layer) in cases {
        println!("\n## {name}");
        println!(
            "{:<9} {:>10} {:>10} {:>10} {:>10} {:>11} | {:>21}",
            "schedule", "IN B", "WT B", "PS B", "OT B", "total B", "max loads IN/WT/OT"
        );
        let ooo = driver.schedule_layer(layer).expect("layer schedules");
        let st = baseline.run_layer(layer).expect("baseline schedules");
        let dfg = Dfg::build(layer, ooo.factors, ooo.dataflow, &model, &arch)
            .expect("winning tiling builds");
        let reference = onchip_reference_traffic(&dfg);
        let row = |tag: &str, t: &flexer::sim::TrafficStats| {
            println!(
                "{:<9} {:>10} {:>10} {:>10} {:>10} {:>11} | {:>6} {:>6} {:>6}",
                tag,
                t.class_bytes(TrafficClass::Input),
                t.class_bytes(TrafficClass::Weight),
                t.class_bytes(TrafficClass::Psum),
                t.class_bytes(TrafficClass::Output),
                t.total_bytes(),
                t.max_loads(TileKind::Input),
                t.max_loads(TileKind::Weight),
                t.max_loads(TileKind::Output),
            );
        };
        row("on-chip", &reference);
        row("flexer", ooo.schedule.traffic());
        row("static", st.schedule.traffic());
        for kind in TileKind::all() {
            let f = ooo.schedule.traffic().has_reload_variation(kind);
            let s = st.schedule.traffic().has_reload_variation(kind);
            println!("reload variation {kind}: flexer={f} static={s}");
        }
    }
}

/// **Figure 11** — spatial (inter-NPU) data reuse: which tile types
/// are shared between cores within one layer, for the stationary loop
/// orders versus Flexer.
///
/// # Panics
///
/// Panics if the layer fails to schedule.
pub fn fig11(ctx: &ExperimentContext) {
    ctx.print_header("Figure 11", "spatial data reuse between NPUs");
    let vgg = ctx.network("vgg16");
    let resnet = ctx.network("resnet50");
    let cases = [
        ("vgg16/conv3_1", vgg.layer_by_name("conv3_1").unwrap()),
        ("vgg16/conv4_2", vgg.layer_by_name("conv4_2").unwrap()),
        (
            "resnet50/conv3_1_1",
            resnet.layer_by_name("conv3_1_1").unwrap(),
        ),
    ];
    let report = |tag: &str, s: &flexer::sim::Schedule| {
        let sr = s.spatial_reuse();
        println!(
            "{:<28} {:>10} {:>10} {:>10} {:>12}",
            tag,
            sr.events(TileKind::Input),
            sr.events(TileKind::Weight),
            sr.events(TileKind::Output),
            sr.kinds_shared()
        );
    };
    for (name, layer) in cases {
        println!("\n## {name} on arch6");
        println!(
            "{:<28} {:>10} {:>10} {:>10} {:>12}",
            "schedule", "IN shares", "WT shares", "OT shares", "kinds shared"
        );
        // The best static schedule of each stationarity class shares at
        // most its stationary type between NPUs.
        for (tag, dataflows) in [
            ("static IN-stationary", vec![Dataflow::Csk, Dataflow::Sck]),
            ("static WT-stationary", vec![Dataflow::Kcs, Dataflow::Cks]),
            ("static OT-stationary", vec![Dataflow::Ksc, Dataflow::Skc]),
        ] {
            let opts = SearchOptions {
                dataflows,
                ..ctx.options.clone()
            };
            let arch = ArchConfig::preset(ArchPreset::Arch6);
            let search = Search {
                kind: SchedulerKind::Static,
                ..Search::new(&arch, &opts)
            };
            let st = search.run_layer(layer).expect("static search succeeds");
            report(tag, &st.schedule);
        }
        let driver = ctx.driver(ArchPreset::Arch6);
        let ooo = driver.schedule_layer(layer).expect("layer schedules");
        report("flexer (OoO)", &ooo.schedule);
    }
    println!(
        "\nEach loop order is locked to one sharing pattern per layer (its stationary \
         type, plus mechanical sharing where the unrolled innermost loop wraps); the OoO \
         schedules pick a different pattern per layer and mix several types within one \
         layer when that is what the buffer state rewards."
    );
}

/// **Figure 12** — priority-function and memory-policy ablation: the
/// `latency x transfer` metric of each Table-2 variant normalized to
/// Flexer's defaults (lower is better).
///
/// Policy differences only manifest under on-chip memory pressure, so
/// the experiment runs the networks' most pressured layers at *full*
/// spatial size (the context's scale applies to nothing here) across
/// the 256-KiB four-core configurations.
///
/// # Panics
///
/// Panics if a layer fails to schedule.
pub fn fig12(ctx: &ExperimentContext) {
    println!("# Figure 12 — reproduces priority / memory-policy ablation (Table 2)");
    println!(
        "# full-size pressured layers, budget={} (FLEXER_BUDGET; FLEXER_SCALE not used here)",
        ctx.budget_name
    );
    let variants: [(&str, PriorityPolicy, SpillPolicyChoice); 5] = [
        (
            "default",
            PriorityPolicy::FlexerDefault,
            SpillPolicyChoice::Flexer,
        ),
        (
            "priority1",
            PriorityPolicy::MinTransfer,
            SpillPolicyChoice::Flexer,
        ),
        (
            "priority2",
            PriorityPolicy::MinSpill,
            SpillPolicyChoice::Flexer,
        ),
        (
            "mempolicy1",
            PriorityPolicy::FlexerDefault,
            SpillPolicyChoice::FirstFit,
        ),
        (
            "mempolicy2",
            PriorityPolicy::FlexerDefault,
            SpillPolicyChoice::SmallestFirst,
        ),
    ];
    // Full-size layers with real buffer pressure, one batch per
    // network the paper plots.
    let vgg = networks::vgg16();
    let resnet = networks::resnet50();
    let squeeze = networks::squeezenet();
    let yolo = networks::yolov2();
    let cases: [(&str, &str, &Network); 8] = [
        ("vgg16", "conv3_2", &vgg),
        ("vgg16", "conv4_2", &vgg),
        ("resnet50", "conv3_1_1", &resnet),
        ("resnet50", "conv2_1_1", &resnet),
        ("squeezenet", "fire5_expand3x3", &squeeze),
        ("squeezenet", "conv10", &squeeze),
        ("yolov2", "conv9", &yolo),
        ("yolov2", "conv15", &yolo),
    ];
    println!(
        "\n{:<12} {:<16} {:<7} {:>9} {:>10} {:>10} {:>11} {:>11}",
        "network", "layer", "arch", "default", "priority1", "priority2", "mempolicy1", "mempolicy2"
    );
    let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for (net_name, layer_name, net) in cases {
        let layer = net.layer_by_name(layer_name).expect("layer exists");
        for preset in [ArchPreset::Arch5, ArchPreset::Arch6] {
            let mut scores = Vec::new();
            for (_, priority, spill) in &variants {
                let driver = Flexer::new(ArchConfig::preset(preset)).with_options(SearchOptions {
                    priority: *priority,
                    spill: *spill,
                    ..ctx.options.clone()
                });
                let r = driver.schedule_layer(layer).expect("layer schedules");
                scores.push(r.schedule.latency() as f64 * r.schedule.transfer_bytes() as f64);
            }
            let base = scores[0];
            print!(
                "{:<12} {:<16} {:<7}",
                net_name,
                layer_name,
                preset.to_string()
            );
            for (i, s) in scores.iter().enumerate() {
                print!(" {:>9.3}", s / base);
                per_variant[i].push(s / base);
            }
            println!();
        }
    }
    print!("\ngeomean                                   ");
    for v in &per_variant {
        print!(" {:>9.3}", geomean(v));
    }
    println!("\n(lower is better; >1 means the ablated variant is worse than Flexer's default)");
}

/// **Verification sweep** — differentially verifies the winning
/// schedules of all four evaluation networks on two presets (the
/// smallest and the mid-size machine): every winner is re-run, lowered
/// to a command program, executed on the SPM abstract machine and
/// cross-checked against its analytical schedule, for both the
/// out-of-order scheduler and the static baseline.
///
/// # Panics
///
/// Panics when any winning schedule fails verification — that is the
/// point: a scheduler bug aborts the run instead of skewing a figure.
pub fn verify(ctx: &ExperimentContext) {
    ctx.print_header(
        "Verification",
        "differential schedule verification, 4 networks x 2 archs x 2 schedulers",
    );
    println!(
        "\n{:<12} {:<7} {:>7} {:>14} {:>14} {:>12}",
        "network", "arch", "layers", "ooo_verified", "stat_verified", "verify_ms"
    );
    for net in ctx.networks() {
        for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
            let driver = ctx.driver(preset);
            let cmp = driver
                .verify_network(&net)
                .unwrap_or_else(|e| panic!("{}/{preset}: {e}", net.name()));
            assert!(cmp.flexer().verified() && cmp.baseline().verified());
            let verify_nanos =
                cmp.flexer().total_stats().verify_nanos + cmp.baseline().total_stats().verify_nanos;
            println!(
                "{:<12} {:<7} {:>7} {:>14} {:>14} {:>12.2}",
                net.name(),
                preset.to_string(),
                net.layers().len(),
                cmp.flexer().total_stats().schedules_verified,
                cmp.baseline().total_stats().schedules_verified,
                verify_nanos as f64 / 1e6
            );
        }
    }
    println!("\nall winning schedules passed differential verification");
}
