//! Layer explorer: sweep every (tiling, dataflow) pair of one layer
//! with both schedulers and print the latency/traffic scatter — the
//! data behind the paper's Figure 1 — plus each candidate's
//! admissible lower bound under the search metric and the proven gap
//! between the real OoO schedule and that bound (the quantity the
//! anytime search reports when a deadline cuts it short).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example layer_explorer [layer-name] [arch]
//! ```

use flexer::arch::SystolicModel;
use flexer::prelude::*;
use flexer::sched::sweep_tilings;
use flexer::solve::lower_bound;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let layer_name = args.next().unwrap_or_else(|| "conv4_2".to_owned());
    let arch_name = args.next().unwrap_or_else(|| "arch1".to_owned());

    let network = networks::vgg16();
    let layer = network
        .layer_by_name(&layer_name)
        .unwrap_or_else(|| panic!("vgg16 has no layer {layer_name:?}"))
        .clone();
    let arch = ArchConfig::preset(arch_name.parse()?);
    println!("# {layer} on {arch}");

    let opts = SearchOptions::quick();
    let (ooo, baseline) = sweep_tilings(&layer, &arch, &opts)?;

    // The solver's admissible per-tiling lower bound — the same
    // quantity the search prunes against and the anytime search
    // proves its optimality gap against.
    let perf = SystolicModel::new(&arch);
    println!(
        "# {:<18} {:<22} {:>12} {:>14} {:>12} {:>14} {:>8} {:>8} {:>12} {:>6}",
        "tiling",
        "dataflow",
        "ooo_cyc",
        "ooo_bytes",
        "static_cyc",
        "static_bytes",
        "speedup",
        "x_less_B",
        "bound_cyc",
        "gap"
    );
    for (o, s) in ooo.iter().zip(&baseline) {
        assert_eq!(o.factors, s.factors);
        assert_eq!(o.dataflow, s.dataflow);
        let bound = lower_bound(&layer, &arch, &perf, &o.factors);
        let bound_score = bound.score(opts.metric);
        let gap = if bound_score > 0.0 {
            o.score / bound_score
        } else {
            f64::INFINITY
        };
        println!(
            "{:<20} {:<22} {:>12} {:>14} {:>12} {:>14} {:>8.2} {:>8.2} {:>12} {:>6.2}",
            o.factors.to_string(),
            o.dataflow.to_string(),
            o.latency,
            o.transfer_bytes,
            s.latency,
            s.transfer_bytes,
            s.latency as f64 / o.latency as f64,
            s.transfer_bytes as f64 / o.transfer_bytes as f64,
            bound.latency,
            gap,
        );
    }

    // The Figure-1 takeaway: the best OoO point versus the best static
    // point under the latency x transfer metric.
    let metric = Metric::LatencyTimesTransfer;
    let best = |pts: &[flexer::sched::SchedulePoint]| {
        pts.iter()
            .min_by(|a, b| a.score.total_cmp(&b.score))
            .copied()
            .expect("sweep is non-empty")
    };
    let (bo, bs) = (best(&ooo), best(&baseline));
    println!(
        "\nbest OoO    : {} / {} -> {} cycles, {} B",
        bo.factors, bo.dataflow, bo.latency, bo.transfer_bytes
    );
    println!(
        "best static : {} / {} -> {} cycles, {} B",
        bs.factors, bs.dataflow, bs.latency, bs.transfer_bytes
    );
    println!(
        "metric ({metric}): OoO {:.3e} vs static {:.3e}",
        bo.score, bs.score
    );
    Ok(())
}
