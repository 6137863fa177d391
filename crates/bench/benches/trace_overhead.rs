//! Benchmarks of the tracing layer: the disabled instrumentation path
//! (what every untraced search pays), enabled recording, and the full
//! layer search with tracing off versus on.

use criterion::{criterion_group, criterion_main, Criterion};
use flexer_arch::{ArchConfig, ArchPreset};
use flexer_model::ConvLayer;
use flexer_sched::{search_layer, Search, SearchOptions, TraceOptions};
use flexer_trace::{Lane, TraceConfig, TraceDetail, Tracer};
use std::hint::black_box;

fn bench_lane(c: &mut Criterion) {
    // The disabled path: one branch on a bool per call. This is the
    // entire per-event price instrumentation adds to untraced runs.
    c.bench_function("trace_disabled_span_pair", |b| {
        let mut lane = Lane::off();
        b.iter(|| {
            let guard = lane.enter(black_box("span"));
            lane.attr("k", 1u64);
            lane.exit(guard);
            black_box(&lane);
        })
    });

    c.bench_function("trace_enabled_span_pair", |b| {
        let tracer = Tracer::new(TraceConfig::default());
        b.iter(|| {
            let mut lane = tracer.lane(0, "bench");
            let guard = lane.enter(black_box("span"));
            lane.attr("k", 1u64);
            lane.exit(guard);
            black_box(lane.len())
        })
    });
}

fn bench_search(c: &mut Criterion) {
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let layer = ConvLayer::new("q", 32, 14, 14, 32).unwrap();
    let mut opts = SearchOptions::quick();
    opts.threads = 1;

    c.bench_function("search_untraced", |b| {
        b.iter(|| search_layer(black_box(&layer), &arch, &opts).unwrap())
    });

    let traced = Search {
        trace: Some(TraceOptions {
            detail: TraceDetail::Memory,
            ..TraceOptions::default()
        }),
        ..Search::new(&arch, &opts)
    };
    c.bench_function("search_traced_memory_detail", |b| {
        b.iter(|| {
            let run = traced.run(std::slice::from_ref(black_box(&layer)));
            black_box(run.trace.summary().events);
            run.into_result().unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_lane, bench_search
}
criterion_main!(benches);
