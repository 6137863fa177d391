//! Machine-readable micro-benchmarks.
//!
//! Two suites, one JSON file each:
//!
//! * `BENCH_PR1.json` — the Algorithm-1 layer search under the default
//!   transactional SPM planning versus the clone-per-candidate
//!   baseline. Rows: `{bench, arch, median_ns, evaluated}`.
//! * `BENCH_PR3.json` — the branch-and-bound network search versus the
//!   exhaustive baseline, on both reference presets. Rows:
//!   `{bench, arch, median_ns, evaluated, candidates_pruned,
//!   early_exits}`.
//!
//! * `BENCH_PR4.json` — the tracing layer's cost: the same layer
//!   search untraced, traced at `Search` detail and traced at `Memory`
//!   detail, plus the measured per-event cost of *disabled*
//!   instrumentation and the derived disabled-path overhead
//!   percentage. Rows: `{bench, arch, median_ns, evaluated}` plus one
//!   `{bench: "trace_disabled_overhead", ...}` summary row.
//!
//! Every suite writes its file under one output directory,
//! `FLEXER_BENCH_DIR` (default `target/bench`, created on demand), so
//! a run never rewrites the committed `BENCH_PR*.json` files.
//! `FLEXER_BENCH_ITERS` sets the sample count (default 7, median
//! reported).
//!
//! Pass `--trace-out <path>` to also run a traced network search
//! (SqueezeNet head, arch1, single-threaded for a byte-stable trace)
//! and write its Chrome trace-event JSON to `<path>` — load it in
//! `chrome://tracing` or Perfetto.
//!
//! Pass `--store <dir>` to run the *store* suite instead (the other
//! suites are skipped): the same network is scheduled twice through
//! [`Flexer::with_store`] by two independent driver instances sharing
//! `<dir>`, proving the warm pass answers every layer from the
//! persistent cache, skips the search, and returns byte-identical
//! results. Writes `BENCH_PR5.json`. Point two consecutive invocations at the
//! same directory and even the "first" pass of the second run is warm
//! — that cross-process warm start is what CI asserts.
//!
//! Pass `--residency` to run the *inter-layer residency* suite
//! instead: the network-level residency planner versus the plain
//! per-layer DRAM round-trip on both reference presets, every
//! residency-on schedule differentially verified. Hard-asserts that
//! DMA bytes strictly drop with latency no worse and that the
//! residency-disabled reference stays byte-identical to the plain
//! search. Rows: `{bench, arch, median_ns, dma_bytes, latency_cycles,
//! resident_edges, spilled_edges, dma_bytes_saved}`. Writes
//! `BENCH_PR8.json`.
//!
//! Pass `--zoo` to run the *workload diversity* suite instead: every
//! network in the diverse zoo (transformer encoder, MobileNet-style
//! depthwise net, branching fire net) scheduled with differential
//! verification on Arch1, Arch5 and the heterogeneous configuration,
//! then warm-started from the store by a fresh driver. Hard-asserts
//! every layer of the second pass is a store hit with byte-identical
//! winners, and that the branching net cleanly declines residency.
//! Rows: `{bench, net, arch, cold_ns, warm_ns, layers,
//! latency_cycles, dma_bytes}`. Writes `BENCH_PR9.json`.
//!
//! Pass `--fleet` to run the *fleet serving* suite instead: a
//! standalone `flexer-serve` node versus a 3-node consistent-hash
//! fleet (same total worker budget). Hard-asserts cold responses are
//! byte-identical once provenance is masked and that one anti-entropy
//! pass brings every entry to replica parity. Warm-hit throughput over
//! three parallel connections per side is measured, not asserted: on
//! one 2-vCPU host the fleet's edge is within noise. Rows: `{bench,
//! nodes, connections, workers, requests, samples, min_ns, median_ns,
//! max_ns, rps}` plus one identity row. Writes `BENCH_PR10.json`.

use flexer::prelude::*;
use flexer::trace::Lane;
use std::time::Instant;

struct Row {
    bench: &'static str,
    arch: String,
    median_ns: u128,
    evaluated: usize,
}

/// The path suite file `name` is written to: under `FLEXER_BENCH_DIR`
/// (default `target/bench`), which is created on demand.
fn bench_out(name: &str) -> String {
    let dir = std::env::var("FLEXER_BENCH_DIR").unwrap_or_else(|_| "target/bench".to_owned());
    std::fs::create_dir_all(&dir).expect("create the bench output directory");
    format!("{dir}/{name}")
}

fn median_ns(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_search(
    layer: &ConvLayer,
    arch: &ArchConfig,
    opts: &SearchOptions,
    iters: usize,
) -> (u128, usize) {
    // Warm-up run, then `iters` timed samples.
    let warm = flexer::sched::search_layer(layer, arch, opts).expect("benchmark layer schedules");
    let evaluated = warm.evaluated;
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            let r =
                flexer::sched::search_layer(layer, arch, opts).expect("benchmark layer schedules");
            assert_eq!(r.evaluated, evaluated);
            t.elapsed().as_nanos()
        })
        .collect();
    (median_ns(&mut samples), evaluated)
}

/// One row of the PR 3 suite: a timed network search plus the pruning
/// counters summed over its layers.
struct PruneRow {
    bench: &'static str,
    arch: String,
    median_ns: u128,
    evaluated: usize,
    candidates_pruned: u64,
    early_exits: u64,
}

fn time_network_search(
    net: &Network,
    arch: &ArchConfig,
    opts: &SearchOptions,
    iters: usize,
) -> (u128, Vec<flexer::sched::LayerSearchResult>) {
    // Warm-up run, then `iters` timed samples.
    let search = Search::new(arch, opts);
    let warm = search
        .run(net.layers())
        .into_result()
        .expect("benchmark net schedules");
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            let r = search
                .run(net.layers())
                .into_result()
                .expect("benchmark net schedules");
            let ns = t.elapsed().as_nanos();
            assert_eq!(r.len(), warm.len());
            ns
        })
        .collect();
    (median_ns(&mut samples), warm)
}

/// Benchmarks the branch-and-bound network search against the
/// exhaustive baseline and writes `BENCH_PR3.json`. Returns the rows
/// for the console summary.
fn bench_search_prune(iters: usize) -> Vec<PruneRow> {
    let net = scale_spatial(&networks::by_name("squeezenet").expect("known net"), 4);
    let mut rows = Vec::new();
    for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
        let arch = ArchConfig::preset(preset);
        let mut pruned_opts = SearchOptions::quick();
        pruned_opts.threads = 1;
        pruned_opts.prune = true;
        let mut full_opts = pruned_opts.clone();
        full_opts.prune = false;

        let (pruned_ns, pruned) = time_network_search(&net, &arch, &pruned_opts, iters);
        let (full_ns, full) = time_network_search(&net, &arch, &full_opts, iters);

        // Exactness check: identical winners, candidate for candidate.
        for (p, f) in pruned.iter().zip(full.iter()) {
            assert_eq!(p.factors, f.factors, "{}: tiling differs", p.layer);
            assert_eq!(p.dataflow, f.dataflow, "{}: dataflow differs", p.layer);
            assert!(
                (p.score - f.score).abs() < 1e-9,
                "{}: score differs",
                p.layer
            );
        }

        let mut stats = SearchStats::default();
        let mut evaluated = 0;
        for r in &pruned {
            stats.merge(&r.stats);
            evaluated += r.evaluated;
        }
        let full_evaluated: usize = full.iter().map(|r| r.evaluated).sum();
        rows.push(PruneRow {
            bench: "search_prune",
            arch: preset.to_string(),
            median_ns: pruned_ns,
            evaluated,
            candidates_pruned: stats.candidates_pruned,
            early_exits: stats.early_exits,
        });
        rows.push(PruneRow {
            bench: "search_exhaustive",
            arch: preset.to_string(),
            median_ns: full_ns,
            evaluated: full_evaluated,
            candidates_pruned: 0,
            early_exits: 0,
        });
    }
    rows
}

/// The PR 8 suite: the network-level inter-layer residency planner
/// versus the plain per-layer DRAM round-trip, on both reference
/// presets, with every residency-on schedule differentially verified.
/// Hard-asserts, per architecture: total DMA (DRAM) bytes strictly
/// drop, end-to-end latency is no worse, the residency-disabled
/// reference run is byte-identical to the plain network search, and
/// the plan's cross-layer protocol replays cleanly against the
/// residency ledger. Writes `BENCH_PR8.json`.
fn bench_residency(iters: usize) {
    let out8 = bench_out("BENCH_PR8.json");
    let net = scale_spatial(&networks::by_name("squeezenet").expect("known net"), 4);
    let mut rows = Vec::new();
    for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        // Every residency-on winner must survive the SPM abstract
        // machine and the resident-counter differential check.
        opts.validate = true;
        let driver = Flexer::new(ArchConfig::preset(preset)).with_options(opts);

        let warm = driver
            .schedule_network_resident(&net)
            .expect("benchmark net schedules");
        let mut samples: Vec<u128> = (0..iters)
            .map(|_| {
                let t = Instant::now();
                let r = driver
                    .schedule_network_resident(&net)
                    .expect("benchmark net schedules");
                let ns = t.elapsed().as_nanos();
                assert_eq!(
                    r.result.total_transfer_bytes(),
                    warm.result.total_transfer_bytes()
                );
                ns
            })
            .collect();
        let resident_ns = median_ns(&mut samples);

        // Gate 1: the residency-disabled reference is byte-identical to
        // the plain per-layer network search. Timed under the same
        // warm-cache regime as the resident loop above.
        let plain = driver.schedule_network(&net).expect("plain net schedules");
        let mut samples: Vec<u128> = (0..iters)
            .map(|_| {
                let t = Instant::now();
                let r = driver.schedule_network(&net).expect("plain net schedules");
                let ns = t.elapsed().as_nanos();
                assert_eq!(r.total_transfer_bytes(), plain.total_transfer_bytes());
                ns
            })
            .collect();
        let plain_ns = median_ns(&mut samples);
        for (a, b) in plain.layers().iter().zip(warm.baseline.layers()) {
            assert_eq!(
                a.schedule, b.schedule,
                "{preset}: residency-off run diverged at {}",
                a.layer
            );
        }
        // Gate 2: DMA bytes strictly drop; latency is no worse.
        let (dram_off, dram_on) = (
            plain.total_transfer_bytes(),
            warm.result.total_transfer_bytes(),
        );
        assert!(
            dram_on < dram_off,
            "{preset}: residency must strictly cut DMA bytes ({dram_on} vs {dram_off})"
        );
        assert!(
            warm.result.total_latency() <= plain.total_latency(),
            "{preset}: residency must not cost latency ({} vs {})",
            warm.result.total_latency(),
            plain.total_latency()
        );
        assert!(warm.result.verified(), "{preset}: resident run unverified");
        // Gate 3: the cross-layer protocol replays within the SPM.
        let peak = flexer::replay_ledger(driver.arch().spm_bytes(), &warm.plan.ledger_ops())
            .expect("residency plan violates the ledger");
        assert_eq!(peak, warm.plan.peak_reserved());

        for (bench, ns, dma, latency) in [
            (
                "network_resident",
                resident_ns,
                dram_on,
                warm.result.total_latency(),
            ),
            ("network_dram", plain_ns, dram_off, plain.total_latency()),
        ] {
            rows.push((
                bench,
                preset.to_string(),
                ns,
                dma,
                latency,
                warm.plan.resident_edges(),
                warm.plan.spilled_edges(),
                warm.dma_bytes_saved(),
            ));
        }
        println!(
            "residency gate {preset}: {} resident edges, {} spilled, DMA {} -> {} B \
             (saved {}), latency {} -> {} cycles",
            warm.plan.resident_edges(),
            warm.plan.spilled_edges(),
            dram_off,
            dram_on,
            warm.dma_bytes_saved(),
            plain.total_latency(),
            warm.result.total_latency(),
        );
    }
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"bench\": \"{}\", \"arch\": \"{}\", \"median_ns\": {}, \"dma_bytes\": {}, \
             \"latency_cycles\": {}, \"resident_edges\": {}, \"spilled_edges\": {}, \
             \"dma_bytes_saved\": {}}}{}\n",
            r.0,
            r.1,
            r.2,
            r.3,
            r.4,
            r.5,
            r.6,
            r.7,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out8, &json).expect("write benchmark output");
    println!("wrote {out8}");
}

/// The PR 9 suite: workload diversity. Every network in the diverse
/// zoo — a transformer encoder (matmul layers), a MobileNet-style net
/// (depthwise + pointwise), and a branching fire net — is scheduled
/// with differential verification on, on Arch1, Arch5 and the
/// heterogeneous configuration; then a fresh driver re-schedules the
/// same network over the shared store, hard-asserting that the new
/// operator kinds warm-start: every layer answered from the store,
/// zero searches, masked-byte-identical winners. The branching net is
/// additionally run through the residency planner, which must cleanly
/// decline (no resident edges, byte-identical results). Writes
/// `BENCH_PR9.json`.
fn bench_zoo() {
    let out9 = bench_out("BENCH_PR9.json");
    let archs: Vec<(&str, ArchConfig)> = vec![
        ("arch1", ArchConfig::preset(ArchPreset::Arch1)),
        ("arch5", ArchConfig::preset(ArchPreset::Arch5)),
        ("hetero1", ArchConfig::hetero1()),
    ];
    let mut rows = Vec::new();
    for net in networks::diverse() {
        for (arch_name, arch) in &archs {
            let dir = std::env::temp_dir().join(format!(
                "flexer-zoo-{}-{}-{}",
                net.name(),
                arch_name,
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let driver = |dir: &std::path::Path| {
                let mut opts = SearchOptions::quick();
                opts.validate = true; // differential verification on every winner
                Flexer::new(arch.clone())
                    .with_options(opts)
                    .with_store(dir)
                    .expect("open zoo store")
            };

            let t = Instant::now();
            let cold = driver(&dir)
                .schedule_network(&net)
                .expect("zoo net schedules");
            let cold_ns = t.elapsed().as_nanos();
            assert!(
                cold.verified(),
                "{} on {arch_name}: cold run unverified",
                net.name()
            );

            // A fresh driver (empty memo, as a new process) must answer
            // every layer — including repeated shapes — from the store.
            let t = Instant::now();
            let warm = driver(&dir)
                .schedule_network(&net)
                .expect("zoo net schedules");
            let warm_ns = t.elapsed().as_nanos();
            let layers = net.layers().len() as u64;
            let stats = warm.total_stats();
            assert_eq!(
                stats.store_hits,
                layers,
                "{} on {arch_name}: warm pass must answer every layer from the store",
                net.name()
            );
            assert_eq!(
                stats.store_misses,
                0,
                "{} on {arch_name}: warm pass must not search",
                net.name()
            );
            for (a, b) in cold.layers().iter().zip(warm.layers()) {
                assert_eq!(
                    masked_bytes(a),
                    masked_bytes(b),
                    "{}: warm result must be byte-identical to the cold pass",
                    a.layer
                );
            }

            // The branching topology must cleanly decline residency.
            if !net.is_chain() {
                let r = driver(&dir)
                    .schedule_network_resident(&net)
                    .expect("resident run schedules");
                assert_eq!(
                    r.plan.resident_edges(),
                    0,
                    "{}: a branching net must decline residency",
                    net.name()
                );
                assert_eq!(r.plan.peak_reserved(), 0);
                for (a, b) in r.result.layers().iter().zip(warm.layers()) {
                    assert_eq!(
                        a.schedule, b.schedule,
                        "{}: declined residency must stay byte-identical",
                        a.layer
                    );
                }
            }

            println!(
                "zoo gate {} on {arch_name}: {layers} layers, cold {cold_ns} ns, warm {warm_ns} ns \
                 ({} store hits), latency {} cycles, DMA {} B",
                net.name(),
                stats.store_hits,
                cold.total_latency(),
                cold.total_transfer_bytes(),
            );
            rows.push((
                net.name().to_string(),
                (*arch_name).to_string(),
                cold_ns,
                warm_ns,
                layers,
                cold.total_latency(),
                cold.total_transfer_bytes(),
            ));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"bench\": \"zoo\", \"net\": \"{}\", \"arch\": \"{}\", \"cold_ns\": {}, \
             \"warm_ns\": {}, \"layers\": {}, \"latency_cycles\": {}, \"dma_bytes\": {}}}{}\n",
            r.0,
            r.1,
            r.2,
            r.3,
            r.4,
            r.5,
            r.6,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out9, &json).expect("write benchmark output");
    println!("wrote {out9}");
}

/// Times a traced layer search; returns the median, the evaluated
/// count, and the first run's trace (for event counting).
fn time_traced_search(
    layer: &ConvLayer,
    arch: &ArchConfig,
    opts: &SearchOptions,
    detail: TraceDetail,
    iters: usize,
) -> (u128, usize, Trace) {
    let search = Search {
        trace: Some(TraceOptions {
            detail,
            ..TraceOptions::default()
        }),
        ..Search::new(arch, opts)
    };
    let warm = search.run(std::slice::from_ref(layer));
    let evaluated = warm.results[0]
        .as_ref()
        .expect("benchmark layer schedules")
        .evaluated;
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            let r = search.run_layer(layer).expect("benchmark layer schedules");
            assert_eq!(r.evaluated, evaluated);
            t.elapsed().as_nanos()
        })
        .collect();
    (median_ns(&mut samples), evaluated, warm.trace)
}

/// Measures the per-call cost of a disabled span enter/exit pair —
/// the price every instrumentation site pays on the untraced path.
fn disabled_span_pair_ns() -> f64 {
    let mut lane = Lane::off();
    const CALLS: u32 = 4_000_000;
    let t = Instant::now();
    for i in 0..CALLS {
        let guard = lane.enter("bench");
        lane.attr("i", u64::from(i));
        lane.exit(guard);
        std::hint::black_box(&lane);
    }
    t.elapsed().as_nanos() as f64 / f64::from(CALLS)
}

/// Runs a traced single-threaded network search and writes its Chrome
/// trace-event JSON to `path`.
fn write_trace_artifact(path: &str) {
    let scaled = scale_spatial(&networks::by_name("squeezenet").expect("known net"), 4);
    let head = Network::new("squeezenet-head", scaled.layers()[..4].to_vec())
        .expect("valid network slice");
    let mut opts = SearchOptions::quick();
    opts.threads = 1; // byte-stable trace
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let search = Search {
        trace: Some(TraceOptions {
            detail: TraceDetail::Steps,
            ..TraceOptions::default()
        }),
        ..Search::new(&arch, &opts)
    };
    let SearchRun { results, trace } = search.run(head.layers());
    for result in results {
        result.expect("trace artifact network schedules");
    }
    trace.check().expect("recorded trace is well-formed");
    // The same logical-tick percentiles the chaos harness gates on,
    // computed here from the producer side so check.sh can pin the
    // SLO numbers without a server in the loop.
    let slo = flexer::trace::stats::LatencySummary::of_trace(&trace, "layer");
    assert!(slo.count > 0, "trace artifact recorded no layer spans");
    println!("trace slo: layer spans {slo} ticks");
    std::fs::write(path, flexer::trace::chrome::to_chrome_json(&trace)).expect("write trace");
    println!("wrote {path} ({})", trace.summary());
}

/// One pass of the store suite: a fresh driver (empty memo cache, as a
/// new process would start) scheduling `net` against the shared store.
struct StorePass {
    ns: u128,
    hits: u64,
    misses: u64,
    results: Vec<flexer::sched::LayerSearchResult>,
}

fn store_pass(dir: &str, net: &Network) -> StorePass {
    let driver = Flexer::new(ArchConfig::preset(ArchPreset::Arch1))
        .with_options(SearchOptions::quick())
        .with_store(dir)
        .expect("open schedule store");
    let t = Instant::now();
    let result = driver
        .schedule_network(net)
        .expect("benchmark net schedules");
    let ns = t.elapsed().as_nanos();
    let stats = result.total_stats();
    StorePass {
        ns,
        hits: stats.store_hits,
        misses: stats.store_misses,
        results: result.layers().to_vec(),
    }
}

/// The wire encoding with the search-effort fields masked: cold and
/// warm passes must agree on every *winner* byte (schedule, tiling,
/// dataflow, score). Effort legitimately differs on networks with
/// repeated layer shapes — a cold run replays duplicates from the
/// in-memory memo (tiny stats), a warm run serves every duplicate the
/// persisted leader's full-search stats. Strict whole-result byte
/// identity on distinct shapes is pinned by `tests/store_warmstart.rs`.
fn masked_bytes(r: &flexer::sched::LayerSearchResult) -> Vec<u8> {
    let mut r = r.clone();
    r.stats = SearchStats::default();
    r.evaluated = 0;
    flexer::sched::wire::encode_layer_result(&r)
}

/// The PR 5 suite: warm-start through the persistent schedule store.
fn bench_store(dir: &str) {
    let out5 = bench_out("BENCH_PR5.json");
    let net = scale_spatial(&networks::by_name("squeezenet").expect("known net"), 4);
    let layers = net.layers().len() as u64;

    let first = store_pass(dir, &net);
    let second = store_pass(dir, &net);

    assert_eq!(
        second.hits, layers,
        "warm pass must answer every layer from the store"
    );
    assert_eq!(second.misses, 0, "warm pass must not search");
    for (a, b) in first.results.iter().zip(second.results.iter()) {
        assert_eq!(
            masked_bytes(a),
            masked_bytes(b),
            "{}: warm result must be byte-identical to the first pass",
            a.layer
        );
    }
    if first.misses > 0 {
        assert!(
            second.ns < first.ns,
            "warm pass ({} ns) must beat the cold search ({} ns)",
            second.ns,
            first.ns
        );
    }

    let json = format!(
        "[\n  {{\"bench\": \"network_store_first\", \"arch\": \"arch1\", \"median_ns\": {}, \
         \"layers\": {layers}, \"store_hits\": {}, \"store_misses\": {}}},\n  \
         {{\"bench\": \"network_store_warm\", \"arch\": \"arch1\", \"median_ns\": {}, \
         \"layers\": {layers}, \"store_hits\": {}, \"store_misses\": {}}}\n]\n",
        first.ns, first.hits, first.misses, second.ns, second.hits, second.misses
    );
    std::fs::write(&out5, &json).expect("write benchmark output");
    println!("wrote {out5}");
    println!(
        "store first pass: {} ns, {} hits / {} misses over {layers} layers",
        first.ns, first.hits, first.misses
    );
    println!(
        "store warm pass: {} ns ({:.2}x vs first), {} hits / {} misses",
        second.ns,
        first.ns as f64 / second.ns as f64,
        second.hits,
        second.misses
    );
}

/// The PR 10 suite: fleet serving. A standalone node and a 3-node
/// consistent-hash fleet must answer the same cold requests
/// byte-identically (provenance masked), and one anti-entropy pass must
/// replicate every entry fleet-wide. Then both sides replay the same
/// warm hits and their throughput is recorded. Writes
/// `BENCH_PR10.json`.
fn bench_fleet() {
    use flexer_fleet::{replica_parity, route_fingerprint, sync_pass, Router};
    use flexer_serve::client::Client;
    use flexer_serve::{mask_provenance, parse_request, request_shutdown, Server, ServerConfig};

    let out10 = bench_out("BENCH_PR10.json");
    let scratch = std::env::temp_dir().join(format!("flexer-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("bench scratch dir");

    let boot = |store: std::path::PathBuf, workers: usize, name: &str| {
        let server = Server::bind(ServerConfig {
            store_dir: Some(store),
            workers,
            queue: 32,
            node_name: Some(name.to_owned()),
            ..ServerConfig::default()
        })
        .expect("bind bench server");
        let addr = server.local_addr();
        (
            addr,
            std::thread::spawn(move || server.run().expect("bench server run")),
        )
    };

    // Same worker budget on both sides (CONNECTIONS total, one per
    // timed connection), so the throughput rows compare one process
    // against three, not more threads against fewer.
    const CONNECTIONS: usize = 3;
    let (solo_addr, solo_join) = boot(scratch.join("solo-store"), CONNECTIONS, "solo");
    let mut fleet_joins = Vec::new();
    let mut members: Vec<String> = Vec::new();
    for i in 0..3usize {
        let (addr, join) = boot(scratch.join(format!("n{i}-store")), 1, &format!("n{i}"));
        members.push(addr.to_string());
        fleet_joins.push((addr, join));
    }
    let router = Router::new(&members).retries(1);

    let line_of = |c: u32| {
        format!(
            r#"{{"id":"b{c}","op":"schedule","layers":[{{"in_channels":{c},"height":14,"width":14,"out_channels":{c}}}]}}"#
        )
    };

    // Six single-layer shapes spanning at least two ring owners, picked
    // deterministically by scanning channel widths.
    let mut shapes: Vec<u32> = Vec::new();
    let mut owners: Vec<String> = Vec::new();
    for c in (4..=128u32).step_by(2) {
        let req = parse_request(&line_of(c)).expect("bench request parses");
        let fp = route_fingerprint(&req).expect("schedule requests are keyed");
        let owner = router.ring().owner(fp).expect("non-empty ring").to_owned();
        if shapes.len() < 6 {
            shapes.push(c);
            owners.push(owner);
        } else if owners.iter().all(|o| *o == owners[0]) && owner != owners[0] {
            shapes[5] = c;
            owners[5] = owner;
        } else {
            break;
        }
    }
    let distinct = {
        let mut d = owners.clone();
        d.sort();
        d.dedup();
        d.len()
    };
    assert!(distinct >= 2, "bench shapes must span at least two shards");

    // Cold pass: the routed fleet and the standalone node must agree on
    // every response byte once provenance is masked.
    for &c in &shapes {
        let line = line_of(c);
        let solo = flexer_serve::client::roundtrip(solo_addr, &line).expect("solo cold request");
        let routed = router.dispatch(&line).expect("routed cold request");
        assert_eq!(routed.failovers, 0, "all members alive, no failover");
        assert_eq!(
            mask_provenance(&solo),
            mask_provenance(&routed.response),
            "cold response for {c} channels diverged between 1-node and 3-node"
        );
    }
    println!(
        "fleet gate cold: {} shapes across {distinct} shards byte-identical to 1-node",
        shapes.len()
    );

    // Replicate every entry fleet-wide so any member serves any shape
    // warm, then verify parity before timing.
    let report = sync_pass(&router, 3).expect("anti-entropy pass");
    assert!(report.unreachable.is_empty(), "all members reachable");
    assert!(replica_parity(&router, 3).expect("parity check").is_empty());
    println!(
        "fleet gate parity: {} entries on all {} members after one anti-entropy pass",
        report.entries, report.nodes
    );

    const WARM_REQUESTS: usize = 600;
    const SAMPLES: usize = 7;
    let lines: Vec<String> = (0..WARM_REQUESTS)
        .map(|i| line_of(shapes[i % shapes.len()]))
        .collect();

    // Both sides are timed alike: CONNECTIONS clients in parallel, each
    // replaying every CONNECTIONS-th store hit. The single node takes
    // all of them; the fleet takes one per member. Each sample opens
    // fresh connections.
    let time_warm = |targets: &[String]| -> Vec<u128> {
        (0..SAMPLES)
            .map(|_| {
                let mut clients: Vec<Client> = (0..CONNECTIONS)
                    .map(|i| {
                        Client::connect(targets[i % targets.len()].as_str()).expect("warm connect")
                    })
                    .collect();
                for client in &mut clients {
                    client.roundtrip(&lines[0]).expect("warmup");
                }
                let t = Instant::now();
                std::thread::scope(|scope| {
                    for (i, mut client) in clients.into_iter().enumerate() {
                        let lines = &lines;
                        scope.spawn(move || {
                            for line in lines.iter().skip(i).step_by(CONNECTIONS) {
                                client.roundtrip(line).expect("warm request");
                            }
                        });
                    }
                });
                t.elapsed().as_nanos()
            })
            .collect()
    };
    let mut solo = time_warm(&[solo_addr.to_string()]);
    let mut fleet = time_warm(&members);

    let rps = |ns: u128| WARM_REQUESTS as f64 / (ns as f64 / 1e9);
    let (solo_rps, fleet_rps) = (rps(median_ns(&mut solo)), rps(median_ns(&mut fleet)));
    println!(
        "fleet warm (measured, not gated): 1-node {solo_rps:.0} req/s, 3-node \
         {fleet_rps:.0} req/s ({:.2}x, medians of {SAMPLES}, {CONNECTIONS} connections each)",
        fleet_rps / solo_rps
    );

    let row = |bench: &str, nodes: usize, samples: &[u128]| {
        format!(
            "{{\"bench\": \"{bench}\", \"nodes\": {nodes}, \"connections\": {CONNECTIONS}, \
             \"workers\": {CONNECTIONS}, \"requests\": {WARM_REQUESTS}, \"samples\": {SAMPLES}, \
             \"min_ns\": {}, \"median_ns\": {}, \"max_ns\": {}, \"rps\": {:.1}}}",
            samples[0],
            samples[SAMPLES / 2],
            samples[SAMPLES - 1],
            rps(samples[SAMPLES / 2])
        )
    };
    let json = format!(
        "[\n  {{\"bench\": \"fleet_cold_identity\", \"nodes\": 3, \"shapes\": {}, \
         \"shards\": {distinct}, \"identical\": true}},\n  {},\n  {}\n]\n",
        shapes.len(),
        row("fleet_warm_single", 1, &solo),
        row("fleet_warm_fleet", 3, &fleet)
    );
    std::fs::write(&out10, &json).expect("write benchmark output");
    println!("wrote {out10}");

    request_shutdown(solo_addr).expect("solo shutdown");
    solo_join.join().expect("solo join");
    for (addr, join) in fleet_joins {
        request_shutdown(addr).expect("fleet shutdown");
        join.join().expect("fleet join");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut trace_out: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut residency_only = false;
    let mut zoo_only = false;
    let mut fleet_only = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out needs a path"));
            }
            "--store" => {
                store_dir = Some(args.next().expect("--store needs a directory"));
            }
            "--residency" => {
                residency_only = true;
            }
            "--zoo" => {
                zoo_only = true;
            }
            "--fleet" => {
                fleet_only = true;
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; supported: --trace-out <path>, \
                     --store <dir>, --residency, --zoo, --fleet"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = store_dir {
        bench_store(&dir);
        return;
    }
    if fleet_only {
        bench_fleet();
        return;
    }
    let iters: usize = std::env::var("FLEXER_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    if residency_only {
        bench_residency(iters);
        return;
    }
    if zoo_only {
        bench_zoo();
        return;
    }
    let out_path = bench_out("BENCH_PR1.json");

    let preset = ArchPreset::Arch5;
    let arch = ArchConfig::preset(preset);
    let layer = ConvLayer::new("bench", 64, 28, 28, 64).expect("valid layer");

    // The full default search on one thread: the per-candidate work is
    // what's under test, so no parallelism noise.
    let tx_opts = SearchOptions {
        threads: 1,
        ..SearchOptions::default()
    };
    let mut clone_opts = tx_opts.clone();
    clone_opts.eval_mode = EvalMode::CloneBaseline;

    let (tx_ns, tx_eval) = time_search(&layer, &arch, &tx_opts, iters);
    let (clone_ns, clone_eval) = time_search(&layer, &arch, &clone_opts, iters);
    assert_eq!(tx_eval, clone_eval, "both modes search the same space");

    let rows = [
        Row {
            bench: "layer_search",
            arch: preset.to_string(),
            median_ns: tx_ns,
            evaluated: tx_eval,
        },
        Row {
            bench: "layer_search_clone_baseline",
            arch: preset.to_string(),
            median_ns: clone_ns,
            evaluated: clone_eval,
        },
    ];

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"bench\": \"{}\", \"arch\": \"{}\", \"median_ns\": {}, \"evaluated\": {}}}{}\n",
            r.bench,
            r.arch,
            r.median_ns,
            r.evaluated,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out_path, &json).expect("write benchmark output");

    let ratio = clone_ns as f64 / tx_ns as f64;
    println!("wrote {out_path}");
    println!("layer_search (transactional): {tx_ns} ns median, {tx_eval} pairs");
    println!("layer_search (clone baseline): {clone_ns} ns median");
    println!("speedup over clone-per-candidate: {ratio:.2}x");

    // --- PR 3: branch-and-bound network search vs exhaustive ---
    let out3 = bench_out("BENCH_PR3.json");
    let prune_rows = bench_search_prune(iters);
    let mut json = String::from("[\n");
    for (i, r) in prune_rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"bench\": \"{}\", \"arch\": \"{}\", \"median_ns\": {}, \"evaluated\": {}, \
             \"candidates_pruned\": {}, \"early_exits\": {}}}{}\n",
            r.bench,
            r.arch,
            r.median_ns,
            r.evaluated,
            r.candidates_pruned,
            r.early_exits,
            if i + 1 < prune_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out3, &json).expect("write benchmark output");
    println!("wrote {out3}");
    for pair in prune_rows.chunks(2) {
        let [p, f] = pair else {
            unreachable!("rows come in pruned/exhaustive pairs")
        };
        println!(
            "search_prune {}: {} ns vs exhaustive {} ns ({:.2}x), {} skipped, {} cut mid-run",
            p.arch,
            p.median_ns,
            f.median_ns,
            f.median_ns as f64 / p.median_ns as f64,
            p.candidates_pruned,
            p.early_exits
        );
    }

    // --- PR 4: tracing overhead ---
    let out4 = bench_out("BENCH_PR4.json");
    let (traced_ns, traced_eval, _) =
        time_traced_search(&layer, &arch, &tx_opts, TraceDetail::Search, iters);
    let (memory_ns, _, memory_trace) =
        time_traced_search(&layer, &arch, &tx_opts, TraceDetail::Memory, iters);
    let pair_ns = disabled_span_pair_ns();
    // The untraced path pays one disabled branch per would-be event;
    // bound that price by the full enter+attr+exit pair cost times the
    // deepest detail level's event count.
    let events = memory_trace.summary().events;
    let disabled_pct = events as f64 * pair_ns / tx_ns as f64 * 100.0;
    let json = format!(
        "[\n  {{\"bench\": \"layer_search_untraced\", \"arch\": \"{preset}\", \
         \"median_ns\": {tx_ns}, \"evaluated\": {tx_eval}}},\n  \
         {{\"bench\": \"layer_search_traced_search\", \"arch\": \"{preset}\", \
         \"median_ns\": {traced_ns}, \"evaluated\": {traced_eval}}},\n  \
         {{\"bench\": \"layer_search_traced_memory\", \"arch\": \"{preset}\", \
         \"median_ns\": {memory_ns}, \"evaluated\": {traced_eval}}},\n  \
         {{\"bench\": \"trace_disabled_overhead\", \"arch\": \"{preset}\", \
         \"span_pair_ns\": {pair_ns:.3}, \"events_at_memory_detail\": {events}, \
         \"overhead_pct\": {disabled_pct:.4}}}\n]\n"
    );
    std::fs::write(&out4, &json).expect("write benchmark output");
    println!("wrote {out4}");
    println!(
        "tracing: untraced {tx_ns} ns, Search detail {traced_ns} ns ({:.2}x), \
         Memory detail {memory_ns} ns ({:.2}x)",
        traced_ns as f64 / tx_ns as f64,
        memory_ns as f64 / tx_ns as f64,
    );
    println!(
        "disabled instrumentation: {pair_ns:.2} ns per span pair, \
         {events} events at Memory detail -> {disabled_pct:.4}% of the untraced search"
    );

    if let Some(path) = trace_out {
        write_trace_artifact(&path);
    }
}
