//! End-to-end trace validation: the search pipeline's trace output is
//! byte-stable, thread-count invariant (with pruning off), exports
//! valid Chrome JSON, and pins an exact golden span tree for a fixed
//! one-layer search.

use flexer::prelude::*;
use flexer::trace::{chrome, text};

/// The fixed search every test in this file agrees on: one small layer,
/// one dataflow, two tilings, serial — small enough that its span tree
/// can be pinned byte-for-byte.
fn golden_opts() -> SearchOptions {
    let mut opts = SearchOptions::quick();
    opts.threads = 1;
    opts.dataflows = vec![Dataflow::Csk];
    opts.tiling.max_tilings = 2;
    opts
}

fn golden_layer() -> ConvLayer {
    ConvLayer::new("g", 8, 8, 8, 8).unwrap()
}

/// The exact span tree of the golden search, span IDs and all. Any
/// change to span structure, naming, attribute order, lane assignment
/// or counter placement shows up here as a byte diff.
const GOLDEN_TREE: &str = "\
lane 0 \"search\"
  #0 search [0 +19] scheduler=ooo layers=1 prune=true
    #1 bound [1 +1] layer=g candidates=2
    #2 layer [3 +15] name=g role=leader outcome=ok evaluated=2 score=1584000.0 latency=990 transfer_bytes=1600
      steps=1 @4
      sets_generated=1 @5
      sets_pruned=0 @6
      sets_evaluated=1 @7
      rollback_bytes=336 @8
      clone_bytes_avoided=40 @9
      evictions=0 @10
      compactions=0 @11
      schedules_verified=0 @12
      candidates_bounded=2 @13
      candidates_pruned=1 @14
      early_exits=0 @15
      store_hits=0 @16
      store_misses=0 @17
lane 1 \"g/0\"
  #3 candidate [0 +1] layer=g tiling=k1\u{b7}c2\u{b7}1x1 dataflow=Csk outcome=bounded bound=2048000.0
lane 2 \"g/1\"
  #4 candidate [0 +1] layer=g tiling=k1\u{b7}c1\u{b7}1x1 dataflow=Csk outcome=scheduled latency=990 transfer_bytes=1600 score=1584000.0
";

#[test]
fn golden_span_tree_is_pinned_byte_for_byte() {
    let (arch, opts) = (ArchConfig::preset(ArchPreset::Arch1), golden_opts());
    let SearchRun { results, trace } = Search {
        trace: Some(TraceOptions::default()),
        ..Search::new(&arch, &opts)
    }
    .run(&[golden_layer()]);
    results[0].as_ref().unwrap();
    trace.check().unwrap();
    assert_eq!(text::render_tree(&trace), GOLDEN_TREE);
}

#[test]
fn chrome_export_is_byte_stable_across_runs() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let opts = golden_opts();
    let traced = Search {
        trace: Some(TraceOptions::default()),
        ..Search::new(&arch, &opts)
    };
    let [a, b] = [0, 1].map(|_| traced.run(&[golden_layer()]));
    let latency = |run: &SearchRun| run.results[0].as_ref().unwrap().schedule.latency();
    assert_eq!(latency(&a), latency(&b));
    let (ja, jb) = (
        chrome::to_chrome_json(&a.trace),
        chrome::to_chrome_json(&b.trace),
    );
    assert_eq!(ja, jb);
    // Minimal schema sanity on the shared bytes: the JSON object
    // format with complete ("ph":"X") and counter ("ph":"C") events.
    assert!(ja.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(ja.ends_with("]}"));
    assert!(ja.contains("\"ph\":\"X\""));
    assert!(ja.contains("\"ph\":\"C\""));
}

#[test]
fn thread_count_does_not_change_the_trace_when_pruning_is_off() {
    // With branch-and-bound pruning off there is no cross-candidate
    // coupling through the shared incumbent, so the trace must be
    // byte-identical at any worker count: lane ids come from work-queue
    // order, timestamps from per-lane logical clocks.
    let arch = ArchConfig::preset(ArchPreset::Arch2);
    let layers = vec![
        ConvLayer::new("a", 16, 10, 10, 16).unwrap(),
        ConvLayer::new("b", 16, 10, 10, 24).unwrap(),
    ];
    let mut serial = SearchOptions::quick();
    serial.prune = false;
    serial.threads = 1;
    serial.tiling.max_tilings = 3;
    let mut wide = serial.clone();
    wide.threads = 4;

    let traced = |opts| {
        let search = Search {
            trace: Some(TraceOptions::default()),
            ..Search::new(&arch, opts)
        };
        let run = search.run(&layers);
        (
            run.results.into_iter().collect::<Result<Vec<_>, _>>(),
            run.trace,
        )
    };
    let (rs, ts) = traced(&serial);
    let (rw, tw) = traced(&wide);
    let (rs, rw) = (rs.unwrap(), rw.unwrap());
    let lat = |v: &[flexer::sched::LayerSearchResult]| -> u64 {
        v.iter().map(|r| r.schedule.latency()).sum()
    };
    assert_eq!(lat(&rs), lat(&rw));
    assert_eq!(text::render_tree(&ts), text::render_tree(&tw));
    assert_eq!(chrome::to_chrome_json(&ts), chrome::to_chrome_json(&tw));
}

#[test]
fn gantt_trace_of_the_winner_covers_every_core() {
    let (arch, opts) = (ArchConfig::preset(ArchPreset::Arch1), golden_opts());
    let res = Search {
        trace: Some(TraceOptions::default()),
        ..Search::new(&arch, &opts)
    }
    .run_layer(&golden_layer())
    .unwrap();
    let gantt = schedule_trace(&res.schedule, "g");
    gantt.check().unwrap();
    // One lane per core that computed something, plus the DMA lane
    // (cores the schedule left idle contribute no events).
    let used: std::collections::BTreeSet<u32> =
        res.schedule.compute().iter().map(|o| o.core).collect();
    assert_eq!(gantt.lanes().len(), used.len() + 1);
    // Cycle timestamps are deterministic, so the timeline is too.
    let again = schedule_trace(&res.schedule, "g");
    assert_eq!(
        chrome::to_chrome_json(&gantt),
        chrome::to_chrome_json(&again)
    );
}

#[test]
fn traced_network_report_surfaces_the_trace_summary() {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let net = Network::new("one", vec![golden_layer()]).unwrap();
    let driver = Flexer::new(arch).with_options(golden_opts());
    let trace = Some(TraceOptions::default());
    let SearchRun { results, trace } = driver.search(net.layers(), SchedulerKind::Ooo, None, trace);
    assert!(results[0].as_ref().unwrap().is_exact());
    trace.check().unwrap();
    assert!(trace.summary().to_string().contains("spans"));
    assert!(chrome::to_chrome_json(&trace).contains("\"ph\":\"X\""));
    assert!(text::render_tree(&trace).contains("#0 search"));
}
