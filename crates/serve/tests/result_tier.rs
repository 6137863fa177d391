//! Each driver's in-process result tier, seen through the engine:
//!
//! - a memory-only engine answers a repeated shape with the searched
//!   winner, byte for byte;
//! - a traced request never reads the tier, so it still records the
//!   search of every layer;
//! - on a store-backed engine a tier hit counts as a store hit and a
//!   memory hit, and refreshes the entry's LRU recency like a disk hit.

use flexer_serve::{parse_request, Deadline, Engine};
use flexer_trace::json::{parse, Json};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

static DIR_ID: AtomicU32 = AtomicU32::new(0);

/// A scratch store directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!(
            "fxs-tier-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A quick `arch1` schedule of one layer with `channels` channels.
fn schedule(channels: u32) -> String {
    format!(
        r#"{{"op":"schedule","layers":[{{"in_channels":{channels},"height":14,"width":14,"out_channels":{channels}}}]}}"#
    )
}

fn run(engine: &Engine, line: &str) -> String {
    engine
        .run(&parse_request(line).unwrap(), &Deadline::unbounded())
        .unwrap()
}

/// The first layer row's store provenance, if any.
fn provenance(reply: &str) -> Option<String> {
    let j = parse(reply).unwrap();
    let rows = j.get("layers").and_then(Json::as_array).unwrap().to_vec();
    rows[0]
        .get("store")
        .and_then(Json::as_str)
        .map(str::to_string)
}

#[test]
fn memory_only_engine_repeats_its_first_answer_byte_for_byte() {
    let engine = Engine::new();
    let first = run(&engine, &schedule(32));
    let j = parse(&first).unwrap();
    assert!(j.get("evaluated").and_then(Json::as_num).unwrap() > 1.0);
    assert_eq!(run(&engine, &schedule(32)), first);
}

#[test]
fn traced_request_on_a_warm_driver_records_every_layer() {
    let engine = Engine::new();
    let layers = r#"[{"name":"a","in_channels":16,"height":14,"width":14,"out_channels":32},{"name":"b","in_channels":32,"height":7,"width":7,"out_channels":32},{"name":"c","in_channels":16,"height":14,"width":14,"out_channels":32}]"#;
    run(
        &engine,
        &format!(r#"{{"op":"schedule","layers":{layers}}}"#),
    );
    let traced = run(
        &engine,
        &format!(r#"{{"op":"schedule","trace":true,"layers":{layers}}}"#),
    );
    let j = parse(&traced).unwrap();
    let tree = j.get("span_tree").and_then(Json::as_str).unwrap();
    let spans = tree.lines().filter(|l| l.contains(" layer [")).count();
    assert_eq!(spans, 3, "{tree}");
    assert!(tree.contains("role=leader"), "{tree}");
}

#[test]
fn tier_hits_count_as_store_and_memory_hits() {
    let dir = Scratch::new("counters");
    let engine = Engine::with_store(dir.0.clone(), None);
    let cold = run(&engine, &schedule(32));
    assert_eq!(provenance(&cold).as_deref(), Some("miss"));
    // Read back from disk once, then held in the tier.
    let disk = run(&engine, &schedule(32));
    assert_eq!(provenance(&disk).as_deref(), Some("hit"));
    let before = engine.store_summary().unwrap();
    assert_eq!((before.hits, before.memory_hits), (1, 0));
    for _ in 0..3 {
        assert_eq!(run(&engine, &schedule(32)), disk, "tier and disk differ");
    }
    let after = engine.store_summary().unwrap();
    assert_eq!(after.hits - before.hits, 3);
    assert_eq!(after.memory_hits - before.memory_hits, 3);
    assert_eq!(after.misses, before.misses);
}

#[test]
fn tier_hits_keep_their_entry_off_the_disk_lru() {
    // X is stored and read back before Y1 is stored; later hits of X
    // come from the tier. Y2 then overflows the store by one byte:
    // only the tier hits make X more recent than Y1.
    let sequence = |engine: &Engine| {
        assert_eq!(provenance(&run(engine, &schedule(32))).unwrap(), "miss");
        assert_eq!(provenance(&run(engine, &schedule(32))).unwrap(), "hit");
        assert_eq!(provenance(&run(engine, &schedule(8))).unwrap(), "miss");
        for _ in 0..3 {
            assert_eq!(provenance(&run(engine, &schedule(32))).unwrap(), "hit");
        }
        assert_eq!(provenance(&run(engine, &schedule(16))).unwrap(), "miss");
    };
    let measure = Scratch::new("measure");
    sequence(&Engine::with_store(measure.0.clone(), Some(0)));
    let bytes: u64 = std::fs::read_dir(&measure.0)
        .unwrap()
        .flatten()
        .map(|e| e.metadata().unwrap().len())
        .sum();
    let dir = Scratch::new("lru");
    let engine = Engine::with_store(dir.0.clone(), Some(bytes - 1));
    sequence(&engine);
    assert_eq!(engine.store_summary().unwrap().evictions, 1);
    // A fresh engine has a cold tier: its answers come from disk.
    let fresh = Engine::with_store(dir.0.clone(), None);
    assert_eq!(provenance(&run(&fresh, &schedule(32))).unwrap(), "hit");
    assert_eq!(provenance(&run(&fresh, &schedule(8))).unwrap(), "miss");
}
