//! Machine-readable micro-benchmarks. One argument-free run writes
//! every file below under `FLEXER_BENCH_DIR` (default `target/bench`,
//! created on demand), so it never rewrites the committed
//! `BENCH_PR*.json` files:
//!
//! * `BENCH_PR1.json` — one layer search, transactional SPM planning
//!   versus the clone-per-candidate baseline.
//! * `BENCH_PR3.json` — the squeezenet ÷4 network search, pruned versus
//!   exhaustive, on Arch1 and Arch5, with the pruning counters.
//! * `BENCH_PR4.json` — the PR 1 layer search untraced, traced at
//!   `Search` and at `Memory` detail, and the cost of disabled
//!   instrumentation.
//! * `BENCH_PR5.json` — squeezenet ÷4 through the schedule store: cold
//!   (a fresh directory per sample) and warm (a fresh driver per sample).
//! * `BENCH_PR8.json` — squeezenet ÷4 with inter-layer residency versus
//!   the plain per-layer DRAM round trip, on Arch1 and Arch5.
//! * `BENCH_PR9.json` — every diverse-zoo net on Arch1, Arch5 and
//!   hetero1, cold and warm through the store.
//! * `BENCH_PR10.json` — warm-hit throughput of one `flexer-serve` node
//!   versus a 3-node fleet with the same worker budget.
//! * `trace.json` — the Chrome trace of a single-threaded squeezenet
//!   head search; load it in `chrome://tracing` or Perfetto.
//!
//! Every row records `samples`, `min_ns`, `median_ns` and `max_ns`;
//! `FLEXER_BENCH_ITERS` sets the sample count (default 7). Correctness
//! lives in the test suites: the only checks here are that every sample
//! of a row did the same work and that both sides of a ratio searched
//! the same space.

use flexer::prelude::*;
use flexer::trace::Lane;
use flexer_serve::Obj;
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock samples of one benchmark, in nanoseconds.
#[derive(Default)]
struct Samples(Vec<u64>);

impl Samples {
    /// One untimed warm-up run, then `iters` timed runs, each on a
    /// fresh `setup()` built outside the clock. `work` says what a run
    /// did: a timed run whose work differs from the warm-up's is not a
    /// sample of the same benchmark. Returns the warm-up's output.
    fn repeat<S, T, W: PartialEq + Debug>(
        iters: usize,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(S) -> T,
        work: impl Fn(&T) -> W,
    ) -> (Self, T) {
        let first = run(setup());
        let want = work(&first);
        let mut samples = Self::default();
        for _ in 0..iters {
            let input = setup();
            let t = Instant::now();
            let out = run(input);
            samples.0.push(t.elapsed().as_nanos() as u64);
            assert_eq!(work(&out), want, "a sample did different work");
        }
        (samples, first)
    }

    fn sorted(&self) -> Vec<u64> {
        let mut s = self.0.clone();
        s.sort_unstable();
        s
    }

    fn median(&self) -> u64 {
        let s = self.sorted();
        s[s.len() / 2]
    }

    /// A row for `bench` carrying the sample count and min/median/max;
    /// the caller appends the row's own members.
    fn row(&self, bench: &str) -> Obj {
        let s = self.sorted();
        let mut o = Obj::new();
        o.str("bench", bench)
            .u64("samples", s.len() as u64)
            .u64("min_ns", s[0])
            .u64("median_ns", s[s.len() / 2])
            .u64("max_ns", s[s.len() - 1]);
        o
    }
}

/// The path of output file `name`: under `FLEXER_BENCH_DIR` (default
/// `target/bench`), which is created on demand.
fn bench_out(name: &str) -> String {
    let dir = std::env::var("FLEXER_BENCH_DIR").unwrap_or_else(|_| "target/bench".to_owned());
    std::fs::create_dir_all(&dir).expect("create the bench output directory");
    format!("{dir}/{name}")
}

/// Writes `rows` as a JSON array, one row a line, to output file `name`.
fn write_rows(name: &str, rows: Vec<Obj>) {
    let rows: Vec<String> = rows.into_iter().map(Obj::finish).collect();
    let path = bench_out(name);
    std::fs::write(&path, format!("[\n  {}\n]\n", rows.join(",\n  ")))
        .expect("write benchmark output");
    println!("wrote {path}");
    for row in rows {
        println!("  {row}");
    }
}

/// Fresh store directories under one scratch root, removed on drop.
struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("flexer-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Self {
            root,
            next: std::cell::Cell::new(0),
        }
    }

    fn fresh(&self) -> PathBuf {
        let n = self.next.replace(self.next.get() + 1);
        self.root.join(n.to_string())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn squeezenet_div4() -> Network {
    scale_spatial(&networks::by_name("squeezenet").expect("known net"), 4)
}

/// `BENCH_PR1.json` and `BENCH_PR4.json`: one layer search, its
/// clone-per-candidate baseline, and its tracing cost.
fn bench_layer_search(iters: usize) {
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

    let time_search = |search: Search| {
        Samples::repeat(
            iters,
            || (),
            |()| search.run_layer(&layer).expect("benchmark layer schedules"),
            |r| r.evaluated,
        )
    };
    let (tx, tx_r) = time_search(Search::new(&arch, &tx_opts));
    let (clone, clone_r) = time_search(Search::new(&arch, &clone_opts));
    assert_eq!(
        tx_r.evaluated, clone_r.evaluated,
        "both modes search the same space"
    );
    let evaluated = tx_r.evaluated as u64;
    let row = |samples: &Samples, bench: &str| {
        let mut o = samples.row(bench);
        o.str("arch", &preset.to_string())
            .u64("evaluated", evaluated);
        o
    };
    write_rows(
        "BENCH_PR1.json",
        vec![
            row(&tx, "layer_search"),
            row(&clone, "layer_search_clone_baseline"),
        ],
    );

    let traced = |detail| Search {
        trace: Some(TraceOptions {
            detail,
            ..TraceOptions::default()
        }),
        ..Search::new(&arch, &tx_opts)
    };
    let (search_detail, _) = time_search(traced(TraceDetail::Search));
    let (memory_detail, _) = time_search(traced(TraceDetail::Memory));
    let events = traced(TraceDetail::Memory)
        .run(std::slice::from_ref(&layer))
        .trace
        .summary()
        .events;

    // The untraced path pays one disabled branch per would-be event;
    // bound that price by the full enter+attr+exit pair cost times the
    // deepest detail level's event count.
    const CALLS: u32 = 4_000_000;
    let (disabled, ()) = Samples::repeat(
        iters,
        || (),
        |()| {
            let mut lane = Lane::off();
            for i in 0..CALLS {
                let guard = lane.enter("bench");
                lane.attr("i", u64::from(i));
                lane.exit(guard);
                std::hint::black_box(&lane);
            }
        },
        |()| (),
    );
    let pair_ns = disabled.median() as f64 / f64::from(CALLS);
    let overhead_pct = events as f64 * pair_ns / tx.median() as f64 * 100.0;
    let mut overhead = disabled.row("trace_disabled_overhead");
    overhead
        .str("arch", &preset.to_string())
        .u64("calls", u64::from(CALLS))
        .f64("span_pair_ns", pair_ns)
        .u64("events_at_memory_detail", events as u64)
        .f64("overhead_pct", overhead_pct);
    write_rows(
        "BENCH_PR4.json",
        vec![
            row(&tx, "layer_search_untraced"),
            row(&search_detail, "layer_search_traced_search"),
            row(&memory_detail, "layer_search_traced_memory"),
            overhead,
        ],
    );
}

/// `BENCH_PR3.json`: the branch-and-bound network search against the
/// exhaustive baseline.
fn bench_search_prune(iters: usize) {
    let net = squeezenet_div4();
    let mut rows = Vec::new();
    for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
        let arch = ArchConfig::preset(preset);
        for (bench, prune) in [("search_prune", true), ("search_exhaustive", false)] {
            let mut opts = SearchOptions::quick();
            opts.threads = 1;
            opts.prune = prune;
            let search = Search::new(&arch, &opts);
            let (samples, results) = Samples::repeat(
                iters,
                || (),
                |()| {
                    search
                        .run(net.layers())
                        .into_result()
                        .expect("benchmark net schedules")
                },
                |r| r.iter().map(|l| l.evaluated).sum::<usize>(),
            );
            let mut stats = SearchStats::default();
            for r in &results {
                stats.merge(&r.stats);
            }
            let mut o = samples.row(bench);
            o.str("arch", &preset.to_string())
                .u64(
                    "evaluated",
                    results.iter().map(|l| l.evaluated as u64).sum(),
                )
                .u64("candidates_pruned", stats.candidates_pruned)
                .u64("early_exits", stats.early_exits);
            rows.push(o);
        }
    }
    write_rows("BENCH_PR3.json", rows);
}

/// Store hits and misses of one run.
fn store_traffic(r: &NetworkResult) -> (u64, u64) {
    let s = r.total_stats();
    (s.store_hits, s.store_misses)
}

/// Times `net` through the schedule store, each sample on a fresh
/// driver from `driver`, so only the store can answer from an earlier
/// run: every cold sample gets an empty directory, and the warm samples
/// share one seeded directory. Returns the cold and the warm samples,
/// each with a result.
fn store_passes(
    iters: usize,
    scratch: &Scratch,
    net: &Network,
    driver: impl Fn(PathBuf) -> Flexer,
) -> [(Samples, NetworkResult); 2] {
    let run = |d: Flexer| d.schedule_network(net).expect("benchmark net schedules");
    let seeded = scratch.fresh();
    run(driver(seeded.clone()));
    [
        Samples::repeat(iters, || driver(scratch.fresh()), run, store_traffic),
        Samples::repeat(iters, || driver(seeded.clone()), run, store_traffic),
    ]
}

/// `BENCH_PR5.json`: squeezenet ÷4 (repeated shapes) through the
/// schedule store, cold and warm.
fn bench_store(iters: usize) {
    let net = squeezenet_div4();
    let scratch = Scratch::new("store");
    let [cold, warm] = store_passes(iters, &scratch, &net, |dir| {
        Flexer::new(ArchConfig::preset(ArchPreset::Arch1))
            .with_options(SearchOptions::quick())
            .with_store(Arc::new(
                ScheduleStore::open(dir).expect("open schedule store"),
            ))
    });
    let rows = [("network_store_first", cold), ("network_store_warm", warm)]
        .into_iter()
        .map(|(bench, (samples, r))| {
            let (hits, misses) = store_traffic(&r);
            let mut o = samples.row(bench);
            o.str("arch", "arch1")
                .u64("layers", net.layers().len() as u64)
                .u64("store_hits", hits)
                .u64("store_misses", misses);
            o
        })
        .collect();
    write_rows("BENCH_PR5.json", rows);
}

/// `BENCH_PR8.json`: the inter-layer residency planner versus the
/// plain per-layer DRAM round trip, both on one driver with every
/// winner differentially verified.
fn bench_residency(iters: usize) {
    let net = squeezenet_div4();
    let mut rows = Vec::new();
    for preset in [ArchPreset::Arch1, ArchPreset::Arch5] {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        opts.validate = true;
        let driver = Flexer::new(ArchConfig::preset(preset)).with_options(opts);
        let (resident_ns, resident) = Samples::repeat(
            iters,
            || (),
            |()| {
                driver
                    .schedule_network_resident(&net)
                    .expect("benchmark net schedules")
            },
            |r| r.result.total_transfer_bytes(),
        );
        let (plain_ns, plain) = Samples::repeat(
            iters,
            || (),
            |()| driver.schedule_network(&net).expect("plain net schedules"),
            NetworkResult::total_transfer_bytes,
        );
        for (bench, samples, result) in [
            ("network_resident", &resident_ns, &resident.result),
            ("network_dram", &plain_ns, &plain),
        ] {
            let mut o = samples.row(bench);
            o.str("arch", &preset.to_string())
                .u64("dma_bytes", result.total_transfer_bytes())
                .u64("latency_cycles", result.total_latency())
                .u64("resident_edges", resident.plan.resident_edges() as u64)
                .u64("spilled_edges", resident.plan.spilled_edges() as u64)
                .u64("dma_bytes_saved", resident.dma_bytes_saved());
            rows.push(o);
        }
    }
    write_rows("BENCH_PR8.json", rows);
}

/// `BENCH_PR9.json`: every diverse-zoo net, differentially verified,
/// cold (a fresh store per sample) and warm (a fresh driver over a
/// seeded store per sample) on Arch1, Arch5 and hetero1.
fn bench_zoo(iters: usize) {
    let archs = [
        ("arch1", ArchConfig::preset(ArchPreset::Arch1)),
        ("arch5", ArchConfig::preset(ArchPreset::Arch5)),
        ("hetero1", ArchConfig::hetero1()),
    ];
    let scratch = Scratch::new("zoo");
    let mut rows = Vec::new();
    for net in networks::diverse() {
        for (arch_name, arch) in &archs {
            let passes = store_passes(iters, &scratch, &net, |dir| {
                let mut opts = SearchOptions::quick();
                opts.validate = true;
                Flexer::new(arch.clone())
                    .with_options(opts)
                    .with_store(Arc::new(ScheduleStore::open(dir).expect("open zoo store")))
            });
            for (bench, (samples, r)) in ["zoo_cold", "zoo_warm"].into_iter().zip(passes) {
                let (hits, misses) = store_traffic(&r);
                let mut o = samples.row(bench);
                o.str("net", net.name())
                    .str("arch", arch_name)
                    .u64("layers", net.layers().len() as u64)
                    .u64("store_hits", hits)
                    .u64("store_misses", misses)
                    .u64("latency_cycles", r.total_latency())
                    .u64("dma_bytes", r.total_transfer_bytes());
                rows.push(o);
            }
        }
    }
    write_rows("BENCH_PR9.json", rows);
}

/// `BENCH_PR10.json`: warm-hit throughput of one `flexer-serve` node
/// against a 3-node fleet. Both sides get the same worker budget and
/// the same number of parallel connections, so the rows compare one
/// process against three, not more threads against fewer.
fn bench_fleet(iters: usize) {
    use flexer_fleet::{sync_pass, Router};
    use flexer_serve::client::Client;
    use flexer_serve::{request_shutdown, Server, ServerConfig};

    const CONNECTIONS: usize = 3;
    const WARM_REQUESTS: usize = 600;
    let scratch = Scratch::new("fleet");
    let boot = |workers: usize, name: &str| {
        let server = Server::bind(ServerConfig {
            store_dir: Some(scratch.fresh()),
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
    let solo = boot(CONNECTIONS, "solo");
    let fleet: Vec<_> = (0..3).map(|i| boot(1, &format!("n{i}"))).collect();
    let members: Vec<String> = fleet.iter().map(|(addr, _)| addr.to_string()).collect();
    let router = Router::new(&members).retries(1);

    // Six single-layer shapes, computed once on each side, then
    // replicated to every member so any member serves any shape warm.
    let lines: Vec<String> = (0..WARM_REQUESTS)
        .map(|i| {
            let c = 4 + 2 * (i % 6);
            format!(
                r#"{{"id":"b{c}","op":"schedule","layers":[{{"in_channels":{c},"height":14,"width":14,"out_channels":{c}}}]}}"#
            )
        })
        .collect();
    for line in &lines[..6] {
        flexer_serve::client::roundtrip(solo.0, line).expect("solo cold request");
        router.dispatch(line).expect("routed cold request");
    }
    sync_pass(&router, 3).expect("anti-entropy pass");

    // CONNECTIONS clients in parallel, each replaying every
    // CONNECTIONS-th request on a fresh connection. The single node
    // takes all of them; the fleet takes one per member.
    let time_warm = |targets: &[String]| {
        let connect = || -> Vec<Client> {
            (0..CONNECTIONS)
                .map(|i| {
                    let mut client =
                        Client::connect(targets[i % targets.len()].as_str()).expect("warm connect");
                    client.roundtrip(&lines[0]).expect("warmup");
                    client
                })
                .collect()
        };
        let replay = |clients: Vec<Client>| {
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
        };
        Samples::repeat(iters, connect, replay, |()| ()).0
    };
    let rows = [
        ("fleet_warm_single", 1, time_warm(&[solo.0.to_string()])),
        ("fleet_warm_fleet", 3, time_warm(&members)),
    ]
    .into_iter()
    .map(|(bench, nodes, samples)| {
        let mut o = samples.row(bench);
        o.u64("nodes", nodes)
            .u64("connections", CONNECTIONS as u64)
            .u64("workers", CONNECTIONS as u64)
            .u64("requests", WARM_REQUESTS as u64)
            .f64(
                "rps",
                WARM_REQUESTS as f64 / (samples.median() as f64 / 1e9),
            );
        o
    })
    .collect();
    write_rows("BENCH_PR10.json", rows);

    for (addr, join) in std::iter::once(solo).chain(fleet) {
        request_shutdown(addr).expect("bench server shutdown");
        join.join().expect("bench server join");
    }
}

/// `trace.json`: a traced single-threaded (byte-stable) search of the
/// squeezenet ÷4 head, with the logical-tick layer percentiles the
/// chaos harness gates on.
fn write_trace_artifact() {
    let scaled = squeezenet_div4();
    let head = Network::new("squeezenet-head", scaled.layers()[..4].to_vec())
        .expect("valid network slice");
    let mut opts = SearchOptions::quick();
    opts.threads = 1;
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
    let slo = flexer::trace::stats::LatencySummary::of_trace(&trace, "layer");
    println!("trace slo: layer spans {slo} ticks");
    let path = bench_out("trace.json");
    std::fs::write(&path, flexer::trace::chrome::to_chrome_json(&trace)).expect("write trace");
    println!("wrote {path} ({})", trace.summary());
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("bench_json takes no arguments; set FLEXER_BENCH_DIR and FLEXER_BENCH_ITERS");
        std::process::exit(2);
    }
    let iters: usize = std::env::var("FLEXER_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    bench_layer_search(iters);
    bench_search_prune(iters);
    bench_store(iters);
    bench_residency(iters);
    bench_zoo(iters);
    bench_fleet(iters);
    write_trace_artifact();
}
