//! Reload analysis of one layer: where does the off-chip traffic go,
//! how often is each data type reloaded, and what does the execution
//! look like on the cores and the DMA channel?
//!
//! A miniature of the paper's Figure-10 methodology built from the
//! public API: schedule a layer with both schedulers, compare against
//! the infinite-buffer reference, and render the timelines.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example reload_analysis [layer-name]
//! ```

use flexer::prelude::*;
use flexer::sim::{render_gantt, to_tsv, TrafficStats};

fn traffic_row(tag: &str, t: &TrafficStats) {
    println!(
        "{:<9} {:>11} {:>11} {:>11} {:>11} {:>12}   IN x{} WT x{} OT x{}",
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
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layer_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "conv4_2".to_owned());
    let network = networks::vgg16();
    let layer = network
        .layer_by_name(&layer_name)
        .unwrap_or_else(|| panic!("vgg16 has no layer {layer_name:?}"))
        .clone();
    let arch = ArchConfig::preset(ArchPreset::Arch6);
    println!("layer: {layer}");
    println!("arch : {arch}\n");

    let driver = Flexer::new(arch.clone()).with_options(SearchOptions::quick());
    let ooo = driver.schedule_layer(&layer)?;
    let baseline = Search {
        kind: SchedulerKind::Static,
        ..Search::new(driver.arch(), driver.options())
    }
    .run_layer(&layer)?;

    // Figure-10-style traffic breakdown against the infinite-buffer
    // reference.
    let model = SystolicModel::new(&arch);
    let dfg = Dfg::build(&layer, ooo.factors, ooo.dataflow, &model, &arch)?;
    println!(
        "{:<9} {:>11} {:>11} {:>11} {:>11} {:>12}   max loads per tile",
        "schedule", "IN bytes", "WT bytes", "PS bytes", "OT bytes", "total"
    );
    traffic_row("on-chip", &onchip_reference_traffic(&dfg));
    traffic_row("flexer", ooo.schedule.traffic());
    traffic_row("static", baseline.schedule.traffic());

    for kind in TileKind::all() {
        println!(
            "reload variation {kind}: flexer={} static={}",
            ooo.schedule.traffic().has_reload_variation(kind),
            baseline.schedule.traffic().has_reload_variation(kind),
        );
    }

    // Execution timelines.
    println!("\nflexer (OoO), {}:", ooo.schedule);
    print!("{}", render_gantt(&ooo.schedule, 72));
    println!("\nbest static order, {}:", baseline.schedule);
    print!("{}", render_gantt(&baseline.schedule, 72));

    // Machine-readable event trace (first few rows).
    println!("\nfirst events of the OoO schedule (TSV):");
    for line in to_tsv(&ooo.schedule).lines().take(8) {
        println!("  {line}");
    }
    Ok(())
}
