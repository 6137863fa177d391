//! Schedule a user-defined network on a user-defined accelerator.
//!
//! Demonstrates the public API a downstream user would touch: build
//! custom [`ConvLayer`]s with the builder, assemble a [`Network`],
//! configure a non-Table-1 accelerator with [`ArchConfigBuilder`], and
//! read the per-layer schedule report.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_network
//! ```

use flexer::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small edge-vision backbone: strided stem, two residual-style
    // 3x3 stages, a pointwise expansion head.
    let network = Network::new(
        "edge-backbone",
        vec![
            ConvLayerBuilder::new("stem", 3, 96, 96, 32)
                .kernel(5, 5)
                .stride(2)
                .padding(2)
                .build()?,
            ConvLayer::new("stage1_a", 32, 48, 48, 64)?,
            ConvLayer::new("stage1_b", 64, 48, 48, 64)?,
            ConvLayerBuilder::new("reduce1", 64, 48, 48, 96)
                .kernel(3, 3)
                .stride(2)
                .padding(1)
                .build()?,
            ConvLayer::new("stage2_a", 96, 24, 24, 96)?,
            ConvLayer::new("stage2_b", 96, 24, 24, 96)?,
            ConvLayerBuilder::new("head", 96, 24, 24, 256).build()?,
        ],
    )?;

    // A 3-core accelerator with a 384 KiB buffer and a 48 B/cycle
    // DRAM link — deliberately none of the paper's presets.
    let arch = ArchConfigBuilder::new(3, 384 * 1024, 48)
        .dram_latency(80)
        .build()?;
    println!("network: {network}");
    println!("arch   : {arch}\n");

    let driver = Flexer::new(arch).with_options(SearchOptions::quick());
    let comparison = driver.compare_network(&network)?;

    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>9} {:>22}",
        "layer", "ooo cycles", "static cyc", "speedup", "xfer red", "winning tiling"
    );
    for (lc, lr) in comparison.per_layer().zip(comparison.flexer().layers()) {
        println!(
            "{:<10} {:>12} {:>12} {:>9.2} {:>9.2} {:>14} / {}",
            lc.layer,
            lc.flexer_latency,
            lc.baseline_latency,
            lc.speedup(),
            lc.transfer_reduction(),
            lr.factors,
            lr.dataflow,
        );
    }
    println!(
        "\nend-to-end: {:.2}x speedup, {:.2}x less data transferred",
        comparison.speedup(),
        comparison.transfer_reduction()
    );
    println!(
        "held {} distinct layer-shape winners across {} layers",
        driver.cached_shapes(),
        network.layers().len()
    );
    Ok(())
}
