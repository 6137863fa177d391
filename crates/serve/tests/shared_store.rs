//! One store handle per engine: every driver and the replication ops
//! share the engine's `ScheduleStore`, so
//!
//! - LRU eviction ranks entries by the recency of *every* driver's
//!   hits, not by one driver's partial view (a handle that never saw
//!   an entry served ranks it by mtime, ahead of everything it
//!   touched, and evicts the hottest entry first);
//! - a `store_push` that overflows capacity evicts the least recently
//!   used entry, not the one the drivers served last;
//! - creating a driver never deletes another driver's in-flight temp
//!   file, so no searched winner is lost on its way to disk.
//!
//! Capacities come from entry bytes measured on an unbounded run of
//! the same sequence, so the tests track the entry format instead of
//! pinning it.

use flexer_arch::{ArchConfig, ArchPreset};
use flexer_model::ConvLayer;
use flexer_sched::{search_layer, SearchOptions};
use flexer_serve::{hex_encode, parse_request, Deadline, Engine, Request};
use flexer_store::{fingerprint_of_key_bytes, Fingerprint, ScheduleStore};
use flexer_trace::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

static DIR_ID: AtomicU32 = AtomicU32::new(0);

/// A scratch store directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!(
            "fxs-shared-{tag}-{}-{}",
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

/// Runs a one-layer `op` request on `engine` and returns the layer
/// row's store provenance (`"hit"` or `"miss"`).
fn one_layer(engine: &Engine, op: &str, arch: &str, options: &str, channels: u32) -> String {
    let req = parse_request(&format!(
        r#"{{"op":"{op}","arch":"{arch}","options":"{options}","layers":[{{"in_channels":{channels},"height":7,"width":7,"out_channels":16}}]}}"#
    ))
    .unwrap();
    let line = engine.run(&req, &Deadline::unbounded()).unwrap();
    let j = parse(&line).unwrap();
    let rows = j.get("layers").and_then(Json::as_array).unwrap().to_vec();
    rows[0]
        .get("store")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("row names no store provenance: {line}"))
        .to_string()
}

/// A quick `arch1` schedule of the layer with `channels` inputs.
fn arch1(engine: &Engine, channels: u32) -> String {
    one_layer(engine, "schedule", "arch1", "quick", channels)
}

/// A quick `arch2` schedule: a second driver on the same store.
fn arch2(engine: &Engine, channels: u32) -> String {
    one_layer(engine, "schedule", "arch2", "quick", channels)
}

/// Total bytes of the entry files in `dir`.
fn entry_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "fxs"))
        .map(|e| e.metadata().unwrap().len())
        .sum()
}

/// A capacity one byte short of what `sequence` writes, measured by
/// running it on an unbounded store: the last write of the sequence
/// evicts exactly one entry.
fn one_byte_short(sequence: impl Fn(&Engine)) -> u64 {
    let dir = Scratch::new("measure");
    sequence(&Engine::with_store(dir.0.clone(), Some(0)));
    entry_bytes(&dir.0) - 1
}

#[test]
fn hot_entry_survives_another_drivers_puts() {
    // arch2 stores Y1; arch1 stores X and hits it five times; arch2
    // stores Y2..Y4, overflowing the store by one byte. X is the most
    // recently used entry and Y1 the least.
    let sequence = |engine: &Engine| {
        assert_eq!(arch2(engine, 8), "miss");
        assert_eq!(arch1(engine, 32), "miss");
        for _ in 0..5 {
            assert_eq!(arch1(engine, 32), "hit");
        }
        for channels in [16, 24, 40] {
            assert_eq!(arch2(engine, channels), "miss");
        }
    };
    let capacity = one_byte_short(sequence);
    let dir = Scratch::new("lru");
    let engine = Engine::with_store(dir.0.clone(), Some(capacity));
    sequence(&engine);
    assert_eq!(engine.store_summary().unwrap().evictions, 1);
    assert_eq!(arch1(&engine, 32), "hit", "the hot entry was evicted");
    assert_eq!(arch2(&engine, 8), "miss", "the LRU entry survived");
}

/// `count` entry files exported from a scratch store: one winner
/// under distinct fingerprints, as a peer's `store_pull` returns them.
fn peer_entries(count: usize) -> Vec<(Fingerprint, Vec<u8>)> {
    let dir = Scratch::new("peer");
    let peer = ScheduleStore::open(&dir.0).unwrap();
    let layer = ConvLayer::new("peer", 16, 7, 7, 16).unwrap();
    let arch = ArchConfig::preset(ArchPreset::Arch2);
    let result = search_layer(&layer, &arch, &SearchOptions::quick()).unwrap();
    (0..count)
        .map(|i| {
            let fp = fingerprint_of_key_bytes(format!("peer-{i}").as_bytes());
            peer.put(fp, &result).unwrap();
            (fp, peer.export(fp).unwrap().unwrap())
        })
        .collect()
}

/// A `store_push` request carrying `entries`.
fn push(entries: &[(Fingerprint, Vec<u8>)]) -> Request {
    let rows: Vec<String> = entries
        .iter()
        .map(|(fp, bytes)| {
            format!(
                r#"{{"fingerprint":"{}","bytes":"{}"}}"#,
                fp.hex(),
                hex_encode(bytes)
            )
        })
        .collect();
    parse_request(&format!(
        r#"{{"op":"store_push","entries":[{}]}}"#,
        rows.join(",")
    ))
    .unwrap()
}

#[test]
fn hot_entry_survives_a_store_push_that_overflows_capacity() {
    // A peer pushes Y1; arch1 stores X and hits it five times; the
    // peer pushes Y2..Y4, overflowing the store by one byte.
    let ys = peer_entries(4);
    let sequence = |engine: &Engine| {
        engine.run_store(&push(&ys[..1])).unwrap();
        assert_eq!(arch1(engine, 32), "miss");
        for _ in 0..5 {
            assert_eq!(arch1(engine, 32), "hit");
        }
        let line = engine.run_store(&push(&ys[1..])).unwrap();
        assert!(line.contains(r#""stored":3"#), "{line}");
    };
    let capacity = one_byte_short(sequence);
    let dir = Scratch::new("push");
    let engine = Engine::with_store(dir.0.clone(), Some(capacity));
    sequence(&engine);
    assert_eq!(engine.store_summary().unwrap().evictions, 1);
    assert_eq!(arch1(&engine, 32), "hit", "the hot entry was evicted");
    let lru = dir.0.join(format!("{}.fxs", ys[0].0.hex()));
    assert!(!lru.exists(), "the LRU pushed entry survived");
}

#[test]
fn no_winner_is_lost_while_other_requests_create_drivers() {
    // One thread schedules distinct arch1 layers — at least 40, and
    // until the other thread is done — while another creates the 28
    // other drivers (arch2..arch8 × quick/default × schedule/verify).
    // Every searched winner must reach the store: a fresh engine on
    // the directory then hits them all.
    let dir = Scratch::new("race");
    let engine = Engine::with_store(dir.0.clone(), None);
    let drivers_done = AtomicBool::new(false);
    let winners = std::thread::scope(|s| {
        let scheduler = s.spawn(|| {
            let mut n = 0;
            while n < 40 || !drivers_done.load(Ordering::Acquire) {
                assert_eq!(arch1(&engine, 8 + n), "miss");
                n += 1;
            }
            n
        });
        for arch in 2..=8 {
            for options in ["quick", "default"] {
                for op in ["schedule", "verify"] {
                    one_layer(&engine, op, &format!("arch{arch}"), options, 4);
                }
            }
        }
        drivers_done.store(true, Ordering::Release);
        scheduler.join().unwrap()
    });
    assert_eq!(engine.driver_count(), 29);
    let fresh = Engine::with_store(dir.0.clone(), None);
    let lost = (0..winners)
        .filter(|&i| arch1(&fresh, 8 + i) != "hit")
        .count();
    assert_eq!(
        lost, 0,
        "{lost} of {winners} winners never reached the store"
    );
}
