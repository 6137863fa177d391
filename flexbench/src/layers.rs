//! In-process per-layer probes of the traced run: each crate's public
//! functions timed from outside, inside spans under one `probe` root.

use crate::gen::Req;
use crate::stats::median;
use crate::trace::{open, Span};
use flexer::arch::{ArchConfig, ArchPreset, SystolicModel};
use flexer::model::ConvLayer;
use flexer::sched::{
    lower_bound, search_layer, verify_layer_result, OooScheduler, SchedulerKind, SearchOptions,
};
use flexer::store::{fingerprint, Lookup, ScheduleStore};
use flexer::tiling::{enumerate_tilings, Dfg};
use flexer::trace::json::parse;
use flexer::Flexer;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Per-layer metrics by name: `(value, unit)`.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Layers the sched probes search, and layers whose searches the
/// per-candidate breakdown splits into stages.
const SEARCH_SAMPLE: usize = 8;
const CANDIDATE_SAMPLE: usize = 2;
/// Layers the memo-replay and store-get probes touch.
const TOUCH_SAMPLE: usize = 16;

/// The request options every benchmark request uses (`quick`, the
/// protocol default).
fn options() -> SearchOptions {
    SearchOptions::quick()
}

/// Distinct `(layer, arch)` pairs of `reqs`, in first-seen order.
pub fn distinct_layers<'r>(
    reqs: impl IntoIterator<Item = &'r Req>,
) -> Vec<(ConvLayer, ArchPreset)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for r in reqs {
        for layer in r.layers() {
            let arch = ArchConfig::preset(r.req.arch);
            if seen.insert(fingerprint(layer, &arch, &options(), SchedulerKind::Ooo)) {
                out.push((layer.clone(), r.req.arch));
            }
        }
    }
    out
}

/// A seeded sample of up to `n` items, in their original order.
fn sample<T: Clone>(items: &[T], n: usize, seed: u64) -> Vec<T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    crate::gen::Rng::new(seed ^ 0x005a_3b1e).shuffle(&mut idx);
    idx.truncate(n);
    idx.sort_unstable();
    idx.into_iter().map(|i| items[i].clone()).collect()
}

/// Re-verifies every winner of the cold set on the SPM abstract
/// machine and checks each against the daemon's reply row for its
/// layer. Returns `(checked, failures)`; fills `sim.*` and the
/// memo-replay metrics.
pub fn verify_cold(
    cold: &[Req],
    reference: &[String],
    seed: u64,
    spans: &mut Vec<Span>,
    m: &mut Metrics,
) -> (usize, Vec<String>) {
    let opts = options();
    let mut drivers: HashMap<ArchPreset, Flexer> = HashMap::new();
    let mut verified: HashMap<flexer::store::Fingerprint, bool> = HashMap::new();
    let mut verify_ms = Vec::new();
    let mut failures = Vec::new();
    let mut checked = 0;
    let root = open("probe.verify", None, u64::MAX);
    for (r, reply) in cold.iter().zip(reference) {
        let arch_cfg = ArchConfig::preset(r.req.arch);
        let driver = drivers
            .entry(r.req.arch)
            .or_insert_with(|| Flexer::new(arch_cfg.clone()).with_options(options()));
        let rows = parse(reply)
            .ok()
            .and_then(|j| {
                j.get("layers")
                    .and_then(|l| l.as_array())
                    .map(<[_]>::to_vec)
            })
            .unwrap_or_default();
        if rows.len() != r.layers().len() {
            failures.push(format!("{}: reply has {} layer rows", r.id, rows.len()));
            continue;
        }
        for (layer, row) in r.layers().iter().zip(&rows) {
            checked += 1;
            let s = open("core.schedule_layer", Some(root.id), u64::MAX);
            let result = driver.schedule_layer(layer);
            s.close(spans);
            let Ok(result) = result else {
                failures.push(format!("{}: in-process search failed", r.id));
                continue;
            };
            let key = fingerprint(layer, &arch_cfg, &opts, SchedulerKind::Ooo);
            let ok = match verified.get(&key) {
                Some(&ok) => ok,
                None => {
                    let s = open("sim.verify", Some(root.id), u64::MAX);
                    let ok = verify_layer_result(
                        layer,
                        &arch_cfg,
                        &opts,
                        SchedulerKind::Ooo,
                        &mut result.clone(),
                    )
                    .is_ok();
                    verify_ms.push(s.close(spans).as_secs_f64() * 1e3);
                    verified.insert(key, ok);
                    ok
                }
            };
            let field = |k: &str| row.get(k).and_then(|v| v.as_num()).map(|v| v as u64);
            let same = field("latency") == Some(result.schedule.latency())
                && field("transfer_bytes") == Some(result.schedule.transfer_bytes());
            if !ok || !same {
                failures.push(format!(
                    "{}/{}: winner {} (verified {ok}, matches reply {same})",
                    r.id,
                    layer.name(),
                    if ok {
                        "differs"
                    } else {
                        "fails the abstract machine"
                    }
                ));
            }
        }
    }
    root.close(spans);
    m.insert("sim.verify_ms".into(), (median_or_zero(&verify_ms), "ms"));
    m.insert("sim.verified".into(), (verify_ms.len() as f64, "count"));

    // Memo replay: every sampled layer is in its driver's memo now.
    let layers = sample(&distinct_layers(cold), TOUCH_SAMPLE, seed);
    let root = open("probe.memo", None, u64::MAX);
    let mut replay_us = Vec::new();
    for (layer, arch) in &layers {
        let driver = &drivers[arch];
        let s = open("core.memo_replay", Some(root.id), u64::MAX);
        let hit = driver.schedule_layer(layer);
        replay_us.push(s.close(spans).as_secs_f64() * 1e6);
        std::hint::black_box(hit.ok());
    }
    root.close(spans);
    m.insert(
        "core.memo_replay_us".into(),
        (median_or_zero(&replay_us), "us"),
    );
    (checked, failures)
}

/// The out-of-order scheduler a search runs on one candidate.
fn scheduler<'a>(
    dfg: &'a Dfg,
    arch: &'a ArchConfig,
    model: &'a SystolicModel,
    opts: &SearchOptions,
) -> OooScheduler<'a> {
    OooScheduler::new(dfg, arch, model)
        .with_spill(opts.spill.policy())
        .with_priority(opts.priority)
        .with_combo(opts.combo)
        .with_eval_mode(opts.eval_mode)
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Per-layer means the sched probe reports, in the order the probe
/// fills them: the `SearchStats` counts and stage times of a search.
const SEARCH_COUNTERS: [(&str, &str); 14] = [
    ("sched.evaluated", "count"),
    ("sched.full_evals", "count"),
    ("sched.candidates_bounded", "count"),
    ("sched.candidates_pruned", "count"),
    ("sched.early_exits", "count"),
    ("sched.sets_generated", "count"),
    ("sched.sets_evaluated", "count"),
    ("sched.gen_ms", "ms"),
    ("sched.eval_ms", "ms"),
    ("sched.commit_ms", "ms"),
    ("sched.bound_ms", "ms"),
    ("spm.evictions", "count"),
    ("spm.compactions", "count"),
    ("spm.rollback_bytes", "bytes"),
];

/// Searches a seeded sample of the layers the daemon searched, splits
/// two of them into per-candidate stages, and times store writes of
/// the winners. With no searched layers every metric reads 0.
pub fn search_probes(
    searched: &[(ConvLayer, ArchPreset)],
    scratch: &Path,
    seed: u64,
    spans: &mut Vec<Span>,
    m: &mut Metrics,
) -> io::Result<()> {
    let opts = options();
    let layers = sample(searched, SEARCH_SAMPLE, seed);
    let store = ScheduleStore::open(scratch)?;
    let root = open("probe.search", None, u64::MAX);
    let (mut wall, mut put_ms) = (Vec::new(), Vec::new());
    let mut totals = [0.0; SEARCH_COUNTERS.len()];
    for (layer, arch) in &layers {
        let arch = ArchConfig::preset(*arch);
        let s = open("sched.search_layer", Some(root.id), u64::MAX);
        let result = search_layer(layer, &arch, &opts);
        wall.push(s.close(spans).as_secs_f64() * 1e3);
        let result = result.map_err(|e| io::Error::other(format!("probe search: {e}")))?;
        let st = &result.stats;
        let full = result.evaluated as u64 - st.candidates_pruned - st.early_exits;
        let values = [
            result.evaluated as f64,
            full as f64,
            st.candidates_bounded as f64,
            st.candidates_pruned as f64,
            st.early_exits as f64,
            st.sets_generated as f64,
            st.sets_evaluated as f64,
            st.gen_nanos as f64 / 1e6,
            st.eval_nanos as f64 / 1e6,
            st.commit_nanos as f64 / 1e6,
            st.bound_nanos as f64 / 1e6,
            st.evictions as f64,
            st.compactions as f64,
            st.rollback_bytes as f64,
        ];
        for (total, v) in totals.iter_mut().zip(values) {
            *total += v;
        }
        let fp = fingerprint(layer, &arch, &opts, SchedulerKind::Ooo);
        let s = open("store.put", Some(root.id), u64::MAX);
        store.put(fp, &result)?;
        put_ms.push(s.close(spans).as_secs_f64() * 1e3);
    }
    root.close(spans);
    let n = layers.len().max(1) as f64;
    for ((name, unit), total) in SEARCH_COUNTERS.iter().zip(totals) {
        m.insert((*name).to_string(), (total / n, unit));
    }
    let (bounded, pruned) = (totals[2], totals[3]);
    let ratio = if bounded > 0.0 { pruned / bounded } else { 0.0 };
    m.insert("sched.prune_ratio".into(), (ratio, "ratio"));
    m.insert(
        "sched.search_layer_ms".into(),
        (median_or_zero(&wall), "ms"),
    );
    m.insert("store.put_ms".into(), (median_or_zero(&put_ms), "ms"));
    candidate_probes(&layers[..layers.len().min(CANDIDATE_SAMPLE)], spans, m);
    Ok(())
}

/// Splits serial searches of `layers` into per-candidate stages: tiling
/// enumeration, DFG build, lower bound and a full out-of-order run.
/// The stage cost times the candidate count, against the serial search
/// wall time, shows how much of a layer search is candidate work.
fn candidate_probes(layers: &[(ConvLayer, ArchPreset)], spans: &mut Vec<Span>, m: &mut Metrics) {
    let mut serial = options();
    serial.threads = 1;
    let root = open("probe.candidates", None, u64::MAX);
    let (mut enumerate_us, mut dfg_us, mut bound_us, mut ooo_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut serial_ms, mut estimate_ms) = (0.0, 0.0);
    for (layer, arch) in layers {
        let arch = ArchConfig::preset(*arch);
        let model = SystolicModel::new(&arch);
        let t = Instant::now();
        let Ok(result) = search_layer(layer, &arch, &serial) else {
            continue;
        };
        serial_ms += t.elapsed().as_secs_f64() * 1e3;
        let full =
            result.evaluated as u64 - result.stats.candidates_pruned - result.stats.early_exits;
        let s = open("tiling.enumerate", Some(root.id), u64::MAX);
        let tilings = enumerate_tilings(layer, &arch, &serial.tiling);
        enumerate_us.push(s.close(spans).as_secs_f64() * 1e6);
        let (first_dfg, first_bound, first_ooo) = (dfg_us.len(), bound_us.len(), ooo_us.len());
        let mut candidates = 0usize;
        for factors in &tilings {
            for &dataflow in &serial.dataflows {
                candidates += 1;
                let s = open("tiling.dfg_build", Some(root.id), u64::MAX);
                let dfg =
                    Dfg::build_resident(layer, *factors, dataflow, &model, &arch, serial.residency);
                dfg_us.push(s.close(spans).as_secs_f64() * 1e6);
                let s = open("solve.lower_bound", Some(root.id), u64::MAX);
                std::hint::black_box(lower_bound(layer, &arch, &model, factors));
                bound_us.push(s.close(spans).as_secs_f64() * 1e6);
                let Ok(dfg) = dfg else { continue };
                let s = open("sched.ooo_eval", Some(root.id), u64::MAX);
                std::hint::black_box(
                    scheduler(&dfg, &arch, &model, &serial)
                        .schedule_with_stats()
                        .ok(),
                );
                ooo_us.push(s.close(spans).as_secs_f64() * 1e6);
            }
        }
        let per = |v: &[f64]| median_or_zero(v) / 1e3;
        estimate_ms += candidates as f64
            * (per(&dfg_us[first_dfg..]) + per(&bound_us[first_bound..]))
            + full as f64 * per(&ooo_us[first_ooo..]);
    }
    root.close(spans);
    m.insert(
        "tiling.enumerate_us".into(),
        (median_or_zero(&enumerate_us), "us"),
    );
    m.insert(
        "tiling.dfg_build_us".into(),
        (median_or_zero(&dfg_us), "us"),
    );
    m.insert(
        "solve.lower_bound_us".into(),
        (median_or_zero(&bound_us), "us"),
    );
    m.insert("sched.ooo_eval_us".into(), (median_or_zero(&ooo_us), "us"));
    m.insert("sched.search_serial_ms".into(), (serial_ms, "ms"));
    m.insert("sched.candidate_est_ms".into(), (estimate_ms, "ms"));
    let share = if serial_ms > 0.0 {
        1.0 - estimate_ms / serial_ms
    } else {
        0.0
    };
    m.insert("sched.noncandidate_share".into(), (share, "ratio"));
}

/// Times store reads of a seeded sample of the set's layers from the
/// daemon's store directory.
pub fn store_get_probe(
    set: &[Req],
    store_dir: &Path,
    seed: u64,
    spans: &mut Vec<Span>,
    m: &mut Metrics,
) -> io::Result<()> {
    let store = ScheduleStore::open(store_dir)?;
    let root = open("probe.store", None, u64::MAX);
    let mut get_us = Vec::new();
    for (layer, arch) in sample(&distinct_layers(set), TOUCH_SAMPLE, seed) {
        let fp = fingerprint(
            &layer,
            &ArchConfig::preset(arch),
            &options(),
            SchedulerKind::Ooo,
        );
        let s = open("store.get", Some(root.id), u64::MAX);
        let hit = store.get(fp);
        let d = s.close(spans);
        if matches!(hit, Lookup::Hit(_)) {
            get_us.push(d.as_secs_f64() * 1e6);
        }
    }
    root.close(spans);
    m.insert("store.get_us".into(), (median_or_zero(&get_us), "us"));
    Ok(())
}
