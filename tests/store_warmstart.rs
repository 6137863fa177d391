//! End-to-end warm start through the persistent schedule store: the
//! same network scheduled twice via [`Flexer::with_store`] — by two
//! *separate* driver instances, as two processes would — must yield
//! byte-identical per-layer results (modulo the store hit/miss
//! counters themselves), with the second run hitting the store for
//! every layer.

use flexer::prelude::*;
use flexer_sched::wire::encode_layer_result;
use flexer_sched::LayerSearchResult;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

static DIR_ID: AtomicU32 = AtomicU32::new(0);

/// A scratch store directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!(
            "fxs-warm-{tag}-{}-{}",
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

/// Three distinct layer shapes, so every layer has its own store
/// entry (duplicate shapes share one entry by design: the first
/// searched winner is persisted and replayed for all of them).
fn distinct_net() -> Network {
    Network::new(
        "warm",
        vec![
            ConvLayer::new("c1", 16, 14, 14, 32).unwrap(),
            ConvLayer::new("c2", 32, 14, 14, 48).unwrap(),
            ConvLayer::new("c3", 48, 7, 7, 64).unwrap(),
        ],
    )
    .unwrap()
}

/// A fresh store handle on `dir`, as a separate process would open.
fn open(dir: &Scratch) -> Arc<ScheduleStore> {
    Arc::new(ScheduleStore::open(&dir.0).unwrap())
}

fn driver(dir: &Scratch) -> Flexer {
    Flexer::new(ArchConfig::preset(ArchPreset::Arch1))
        .with_options(SearchOptions::quick())
        .with_store(open(dir))
}

/// The canonical wire encoding with the store counters masked out —
/// everything else (schedule, factors, dataflow, score, points, every
/// other stat) must match bit-for-bit between cold and warm runs.
fn masked_bytes(r: &LayerSearchResult) -> Vec<u8> {
    let mut r = r.clone();
    r.stats.store_hits = 0;
    r.stats.store_misses = 0;
    encode_layer_result(&r)
}

#[test]
fn warm_run_is_byte_identical_and_hits_every_layer() {
    let dir = Scratch::new("bytes");
    let net = distinct_net();

    let cold = driver(&dir).schedule_network(&net).unwrap();
    for l in cold.layers() {
        assert_eq!(l.stats.store_misses, 1, "{}: cold run must miss", l.layer);
        assert_eq!(l.stats.store_hits, 0);
    }

    // A fresh driver instance: its in-memory memo cache is empty, so
    // any reuse can only come from the persistent store.
    let warm_driver = driver(&dir);
    let warm = warm_driver.schedule_network(&net).unwrap();
    for l in warm.layers() {
        assert_eq!(l.stats.store_hits, 1, "{}: warm run must hit", l.layer);
        assert_eq!(l.stats.store_misses, 0);
    }
    let c = warm_driver.store().unwrap().counters();
    assert_eq!(c.hits, 3);
    assert_eq!(c.misses, 0);

    assert_eq!(cold.layers().len(), warm.layers().len());
    for (c, w) in cold.layers().iter().zip(warm.layers()) {
        assert_eq!(c.layer, w.layer, "store hits keep the requested name");
        assert_eq!(
            masked_bytes(c),
            masked_bytes(w),
            "{}: warm result must be byte-identical to cold",
            c.layer
        );
    }
}

#[test]
fn verify_network_warm_starts_and_reverifies_hits() {
    let dir = Scratch::new("verify");
    let net = distinct_net();

    // Seed only the OoO entries.
    driver(&dir).schedule_network(&net).unwrap();

    // `validate` is winner-neutral, so verify_network's OoO side hits
    // the seeded entries — and must re-verify them before trusting.
    let d = driver(&dir);
    let cmp = d.verify_network(&net).unwrap();
    for l in cmp.flexer().layers() {
        assert_eq!(
            l.stats.store_hits, 1,
            "{}: OoO side must warm-start",
            l.layer
        );
        assert!(
            l.stats.schedules_verified > 0,
            "{}: hit not re-verified",
            l.layer
        );
    }
    // The static side was never searched before: misses, now persisted.
    for l in cmp.baseline().layers() {
        assert_eq!(l.stats.store_misses, 1, "{}: static side is cold", l.layer);
    }

    // A second verify hits both sides.
    let again = driver(&dir).verify_network(&net).unwrap();
    for l in again
        .flexer()
        .layers()
        .iter()
        .chain(again.baseline().layers())
    {
        assert_eq!(l.stats.store_hits, 1, "{}: second verify must hit", l.layer);
        assert!(l.stats.schedules_verified > 0);
    }
}

#[test]
fn duplicate_shapes_share_one_entry() {
    let dir = Scratch::new("dup");
    let net = Network::new(
        "dup",
        vec![
            ConvLayer::new("a", 32, 14, 14, 32).unwrap(),
            ConvLayer::new("b", 32, 14, 14, 32).unwrap(),
        ],
    )
    .unwrap();

    let d = driver(&dir);
    let cold = d.schedule_network(&net).unwrap();
    assert_eq!(d.store().unwrap().len().unwrap(), 1, "one shape, one entry");
    for l in cold.layers() {
        assert_eq!(l.stats.store_misses, 1);
    }

    let warm = driver(&dir).schedule_network(&net).unwrap();
    for l in warm.layers() {
        assert_eq!(l.stats.store_hits, 1);
    }
    assert_eq!(warm.layers()[0].layer, "a");
    assert_eq!(warm.layers()[1].layer, "b");
    assert_eq!(
        warm.layers()[0].schedule,
        warm.layers()[1].schedule,
        "both duplicates replay the shared persisted winner"
    );
}

/// Like [`masked_bytes`] but with the whole stats block and the
/// evaluated counter cleared: across *nodes* the zoo networks contain
/// repeated layer shapes, and a cold run replays duplicates from the
/// in-memory memo (tiny stats) while a warm run serves them the
/// persisted leader's full-search stats. The winner — schedule,
/// factors, dataflow, score — must still match bit-for-bit.
fn winner_bytes(r: &LayerSearchResult) -> Vec<u8> {
    let mut r = r.clone();
    r.stats = SearchStats::default();
    r.evaluated = 0;
    encode_layer_result(&r)
}

/// Cross-node warm start through replication alone: node A schedules
/// the full diverse zoo (transformer, MobileNet-style, branching fire
/// net) on the heterogeneous arch; node B's store is then populated
/// purely through the replication primitives — `manifest`, `export`,
/// `ingest`, exactly what the fleet's `store_pull` op wraps — and a
/// fresh driver over it must answer every layer from the store with
/// zero searches and winner-byte-identical results.
#[test]
fn replicated_store_warm_starts_node_b_without_search() {
    use flexer_store::Ingest;

    let a = Scratch::new("node-a");
    let b = Scratch::new("node-b");
    let driver_on = |dir: &Scratch| {
        Flexer::new(ArchConfig::hetero1())
            .with_options(SearchOptions::quick())
            .with_store(open(dir))
    };
    let nets = networks::diverse();

    // Node A computes everything the hard way.
    let node_a = driver_on(&a);
    let cold: Vec<NetworkResult> = nets
        .iter()
        .map(|net| node_a.schedule_network(net).unwrap())
        .collect();

    // Replicate A → B entry by entry. Node B never runs a search; its
    // store is fed exported wire bytes only, each re-validated and
    // freshly stored on ingest.
    let store_a = node_a.store().unwrap();
    let manifest_a = store_a.manifest().unwrap();
    assert!(!manifest_a.is_empty(), "node A persisted the zoo");
    {
        let store_b = ScheduleStore::open(&b.0).unwrap();
        for entry in &manifest_a {
            let bytes = store_a
                .export(entry.fingerprint)
                .unwrap()
                .expect("manifest entries export");
            assert_eq!(
                store_b.ingest(entry.fingerprint, &bytes).unwrap(),
                Ingest::Stored,
                "{}: fresh replica stores every entry",
                entry.fingerprint.hex()
            );
        }
        assert_eq!(
            store_b.manifest().unwrap(),
            manifest_a,
            "replication reaches manifest parity (lengths and checksums)"
        );
    }

    // A fresh driver on node B: empty result tier, so every answer can only
    // come from the replicated store.
    let node_b = driver_on(&b);
    for (net, cold) in nets.iter().zip(&cold) {
        let warm = node_b.schedule_network(net).unwrap();
        assert_eq!(cold.layers().len(), warm.layers().len());
        for (c, w) in cold.layers().iter().zip(warm.layers()) {
            assert_eq!(w.stats.store_hits, 1, "{}: node B must hit", w.layer);
            assert_eq!(
                w.stats.store_misses, 0,
                "{}: node B must not search",
                w.layer
            );
            assert_eq!(
                winner_bytes(c),
                winner_bytes(w),
                "{}: node B winner must be byte-identical to node A",
                c.layer
            );
        }
    }
    let counters = node_b.store().unwrap().counters();
    assert_eq!(counters.misses, 0, "node B ran zero searches");
    assert!(
        counters.hits >= manifest_a.len() as u64,
        "node B answered from the replicated entries"
    );
    assert_eq!(counters.corrupt, 0);
}

/// A repeated-shape network through the store: squeezenet at ÷4 on a
/// cold store, then a fresh driver over it. The warm pass answers every
/// layer from the store with zero searches, returns the cold winners
/// byte for byte, and beats the cold pass on wall time (by about 100x).
#[test]
fn squeezenet_warm_pass_hits_every_layer_and_beats_cold() {
    let dir = Scratch::new("squeezenet");
    let net = scale_spatial(&networks::by_name("squeezenet").unwrap(), 4);
    let timed = |d: Flexer| {
        let t = std::time::Instant::now();
        let r = d.schedule_network(&net).unwrap();
        (t.elapsed(), r)
    };
    let (cold_time, cold) = timed(driver(&dir));
    let (warm_time, warm) = timed(driver(&dir));

    let layers = net.layers().len() as u64;
    assert_eq!(cold.total_stats().store_hits, 0, "a fresh store is cold");
    let stats = warm.total_stats();
    assert_eq!(stats.store_hits, layers, "warm pass must hit every layer");
    assert_eq!(stats.store_misses, 0, "warm pass must not search");
    for (c, w) in cold.layers().iter().zip(warm.layers()) {
        assert_eq!(
            winner_bytes(c),
            winner_bytes(w),
            "{}: warm winner must be byte-identical to cold",
            c.layer
        );
    }
    assert!(
        warm_time < cold_time,
        "warm pass ({warm_time:?}) must beat the cold search ({cold_time:?})"
    );
}

/// Every net of the diverse zoo (matmul, depthwise and branching
/// layers) on Arch1, Arch5 and hetero1 with differential verification
/// on: the cold run verifies, a fresh driver answers every layer from
/// the store with winner-identical bytes, and the branching net
/// declines residency without changing a schedule.
#[test]
fn diverse_zoo_verifies_and_warm_starts_on_every_arch() {
    let archs = [
        ("arch1", ArchConfig::preset(ArchPreset::Arch1)),
        ("arch5", ArchConfig::preset(ArchPreset::Arch5)),
        ("hetero1", ArchConfig::hetero1()),
    ];
    let mut declined = 0;
    for net in networks::diverse() {
        for (arch_name, arch) in &archs {
            let dir = Scratch::new("zoo");
            let driver = || {
                let mut opts = SearchOptions::quick();
                opts.validate = true;
                Flexer::new(arch.clone())
                    .with_options(opts)
                    .with_store(open(&dir))
            };
            let name = format!("{} on {arch_name}", net.name());
            let cold = driver().schedule_network(&net).unwrap();
            assert!(cold.verified(), "{name}: cold run unverified");

            let warm = driver().schedule_network(&net).unwrap();
            let stats = warm.total_stats();
            assert_eq!(
                stats.store_hits,
                net.layers().len() as u64,
                "{name}: warm pass must answer every layer from the store"
            );
            assert_eq!(stats.store_misses, 0, "{name}: warm pass must not search");
            for (c, w) in cold.layers().iter().zip(warm.layers()) {
                assert_eq!(
                    winner_bytes(c),
                    winner_bytes(w),
                    "{name}/{}: warm winner must be byte-identical to cold",
                    c.layer
                );
            }

            if !net.is_chain() {
                let r = driver().schedule_network_resident(&net).unwrap();
                assert_eq!(
                    r.plan.resident_edges(),
                    0,
                    "{name}: a branching net must decline residency"
                );
                assert_eq!(r.plan.peak_reserved(), 0, "{name}");
                for (a, b) in r.result.layers().iter().zip(warm.layers()) {
                    assert_eq!(
                        a.schedule, b.schedule,
                        "{name}/{}: declined residency must stay byte-identical",
                        a.layer
                    );
                }
                declined += 1;
            }
        }
    }
    assert!(declined > 0, "the zoo has a branching net");
}

#[test]
fn corrupt_entry_is_researched_and_repaired_transparently() {
    let dir = Scratch::new("repair");
    let net = distinct_net();
    driver(&dir).schedule_network(&net).unwrap();

    // Damage every entry on disk.
    for entry in std::fs::read_dir(&dir.0).unwrap().flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("fxs") {
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
        }
    }

    let d = driver(&dir);
    let r = d.schedule_network(&net).unwrap();
    for l in r.layers() {
        assert_eq!(
            l.stats.store_misses, 1,
            "{}: corrupt entry re-searches",
            l.layer
        );
    }
    assert_eq!(d.store().unwrap().counters().corrupt, 3);

    // The re-search repaired the store: next run hits cleanly.
    let warm = driver(&dir).schedule_network(&net).unwrap();
    for l in warm.layers() {
        assert_eq!(
            l.stats.store_hits, 1,
            "{}: repaired entry must hit",
            l.layer
        );
    }
}
