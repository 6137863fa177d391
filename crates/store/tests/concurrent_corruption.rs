//! The corrupt-miss repair path under concurrency: store handles
//! sharing one directory (as two processes on one store do; each test
//! opens them in one process) race lookups, repairs and live
//! corruption injection.
//! The invariants, regardless of interleaving:
//!
//! - no thread panics,
//! - a `Lookup::Hit` always decodes to the one canonical result that
//!   was ever stored (torn or damaged bytes must never be served),
//! - a repair (re-search + put) is never destroyed by a concurrent
//!   reader still acting on stale corrupt bytes — the regression this
//!   suite pins is exactly that delete/put race,
//! - the store ends healthy: one validated entry, no temp litter.

use flexer_arch::{ArchConfig, ArchPreset};
use flexer_model::ConvLayer;
use flexer_sched::wire::encode_layer_result;
use flexer_sched::{search_layer, LayerSearchResult, SearchOptions};
use flexer_store::{fingerprint, Fingerprint, Lookup, ScheduleStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

static DIR_ID: AtomicU32 = AtomicU32::new(0);

/// A scratch store directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!(
            "fxs-race-{tag}-{}-{}",
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

/// Names of the `.tmp-*` (temp write or quarantine) files in `dir`.
fn temp_litter(dir: &Scratch) -> Vec<String> {
    std::fs::read_dir(&dir.0)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(".tmp-"))
        .collect()
}

/// Deterministic xorshift64* PRNG: the corruption schedule is a pure
/// function of the seed, so a failure replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Encoding with wall-time and store counters zeroed: the only fields
/// of a deterministic single-threaded search that vary run-to-run, so
/// equality on the rest means "the same schedule".
fn masked(r: &LayerSearchResult) -> Vec<u8> {
    let mut r = r.clone();
    r.stats.gen_nanos = 0;
    r.stats.eval_nanos = 0;
    r.stats.commit_nanos = 0;
    r.stats.verify_nanos = 0;
    r.stats.bound_nanos = 0;
    r.stats.store_hits = 0;
    r.stats.store_misses = 0;
    r.stats.store_evictions = 0;
    r.stats.store_corrupt = 0;
    encode_layer_result(&r)
}

/// The one canonical search result these tests ever store. The
/// scheduling side of the race re-runs this search on every miss,
/// exactly as the driver's store loop does.
fn canonical() -> (ConvLayer, ArchConfig, SearchOptions, LayerSearchResult) {
    let layer = ConvLayer::new("race", 32, 14, 14, 32).unwrap();
    let arch = ArchConfig::preset(ArchPreset::Arch1);
    let mut opts = SearchOptions::quick();
    opts.threads = 1;
    let result = search_layer(&layer, &arch, &opts).unwrap();
    (layer, arch, opts, result)
}

/// Damages the entry file in place with a seeded mutation: bitflip,
/// truncation, header garbage, or full zeroing — every corruption
/// class the parser types.
fn corrupt_in_place(path: &std::path::Path, rng: &mut Rng) {
    let Ok(mut bytes) = std::fs::read(path) else {
        return; // mid-repair: nothing at the address right now
    };
    if bytes.is_empty() {
        return;
    }
    match rng.below(4) {
        0 => {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
        }
        1 => {
            let keep = rng.below(bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        2 => {
            // Garbage magic: typed as BadMagic.
            bytes[0] ^= 0xff;
        }
        _ => bytes.fill(0),
    }
    let _ = std::fs::write(path, &bytes);
}

#[test]
fn concurrent_corruption_never_serves_torn_entries_and_always_reheals() {
    let dir = Scratch::new("loop");
    let (layer, arch, opts, result) = canonical();
    let fp = fingerprint(&layer, &arch, &opts, flexer_sched::SchedulerKind::Ooo);
    let canonical_bytes = masked(&result);

    // Two handles on one directory, as two processes would hold.
    let stores: Vec<Arc<ScheduleStore>> = (0..2)
        .map(|_| Arc::new(ScheduleStore::open(&dir.0).unwrap()))
        .collect();
    stores[0].put(fp, &result).unwrap();
    let entry_path = dir.0.join(format!("{}.fxs", fp.hex()));
    let repairs = Arc::new(AtomicU64::new(0));

    // Scheduling loops: every miss (plain or corrupt) re-searches and
    // repairs, every hit must be byte-identical to the canonical
    // result.
    let schedulers: Vec<_> = stores
        .iter()
        .cloned()
        .map(|store| {
            let layer = layer.clone();
            let arch = arch.clone();
            let opts = opts.clone();
            let canonical_bytes = canonical_bytes.clone();
            let repairs = Arc::clone(&repairs);
            std::thread::spawn(move || {
                for _ in 0..150 {
                    match store.get(fp) {
                        Lookup::Hit(hit) => {
                            assert_eq!(
                                masked(&hit),
                                canonical_bytes,
                                "a hit served bytes that were never stored"
                            );
                        }
                        Lookup::Miss | Lookup::Corrupt(_) => {
                            let searched = search_layer(&layer, &arch, &opts).unwrap();
                            assert_eq!(masked(&searched), canonical_bytes);
                            let _ = store.put(fp, &searched);
                            repairs.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // The corruptor: seeded, in-place mutations against the live entry.
    let corruptor = {
        let entry_path = entry_path.clone();
        std::thread::spawn(move || {
            let mut rng = Rng(0x5eed_cafe_f00d_0001);
            for _ in 0..400 {
                corrupt_in_place(&entry_path, &mut rng);
                std::thread::yield_now();
            }
        })
    };

    for t in schedulers {
        t.join().expect("scheduling loop panicked");
    }
    corruptor.join().expect("corruptor panicked");

    // The injection must actually have bitten, and repairs must have
    // run — otherwise this test proved nothing.
    let corrupt_seen: u64 = stores.iter().map(|s| s.counters().corrupt).sum();
    assert!(corrupt_seen > 0, "no corruption was ever detected");
    assert!(repairs.load(Ordering::Relaxed) > 0, "no repair ever ran");

    // Final heal: after one last repair pass the entry is valid and
    // stays valid — the canonical bytes, not some torn residue.
    let store = &stores[0];
    if matches!(store.get(fp), Lookup::Miss | Lookup::Corrupt(_)) {
        store.put(fp, &result).unwrap();
    }
    let Lookup::Hit(healed) = store.get(fp) else {
        panic!("store did not heal");
    };
    assert_eq!(masked(&healed), canonical_bytes);

    // No quarantine/temp litter survives the melee.
    let litter = temp_litter(&dir);
    assert!(litter.is_empty(), "temp litter left behind: {litter:?}");
}

#[test]
fn corrupt_lookup_does_not_destroy_a_concurrent_repair() {
    // Hammer the narrow interleaving directly: one thread flips a byte
    // and immediately repairs (corrupt → put), another continuously
    // reads. Pre-fix, the reader's delete-on-corrupt could land *after*
    // the repairing rename and destroy the fresh entry, so the final
    // lookup — with no corruption in flight — would miss. Post-fix the
    // quarantine protocol restores any healthy entry it captures.
    let dir = Scratch::new("repair-race");
    let (_, _, _, result) = canonical();
    let fp = flexer_store::fingerprint_of_key_bytes(b"repair-race");
    let canonical_bytes = masked(&result);

    let a = Arc::new(ScheduleStore::open(&dir.0).unwrap());
    let b = Arc::new(ScheduleStore::open(&dir.0).unwrap());
    a.put(fp, &result).unwrap();
    let entry_path = dir.0.join(format!("{}.fxs", fp.hex()));

    let flipper = {
        let a = Arc::clone(&a);
        let result = result.clone();
        std::thread::spawn(move || {
            for _ in 0..200 {
                if let Ok(mut bytes) = std::fs::read(&entry_path) {
                    if let Some(last) = bytes.last_mut() {
                        *last ^= 1;
                        let _ = std::fs::write(&entry_path, &bytes);
                    }
                }
                // Detect and repair, as the driver would.
                if matches!(a.get(fp), Lookup::Miss | Lookup::Corrupt(_)) {
                    let _ = a.put(fp, &result);
                }
            }
        })
    };
    let reader = {
        let b = Arc::clone(&b);
        let result = result.clone();
        std::thread::spawn(move || {
            for _ in 0..200 {
                match b.get(fp) {
                    Lookup::Hit(hit) => {
                        assert_eq!(masked(&hit), canonical_bytes);
                    }
                    Lookup::Miss | Lookup::Corrupt(_) => {
                        let _ = b.put(fp, &result);
                    }
                }
            }
        })
    };
    flipper.join().expect("flipper panicked");
    reader.join().expect("reader panicked");

    // Quiescent state: nothing is corrupting any more, so after at
    // most one repair the entry exists and validates.
    if matches!(a.get(fp), Lookup::Miss | Lookup::Corrupt(_)) {
        a.put(fp, &result).unwrap();
    }
    assert!(matches!(a.get(fp), Lookup::Hit(_)), "repair was destroyed");
    assert_eq!(a.len().unwrap(), 1);
}

/// The exact lost-repair interleaving, staged deterministically. A
/// FIFO at the entry path lets us freeze a reader *inside* `get`'s
/// file read; while it is frozen a concurrent repair renames a healthy
/// entry into place; then the reader is fed corrupt bytes and resumes.
/// The reader now acts on stale corrupt evidence against a path that
/// holds a fresh healthy entry — the pre-fix delete destroyed that
/// entry (next lookup missed), the quarantine protocol captures it,
/// re-validates, restores, and even serves it as a hit.
#[test]
#[cfg(unix)]
fn stale_corrupt_evidence_cannot_destroy_a_completed_repair() {
    use std::io::Write;

    let dir = Scratch::new("fifo-race");
    let (_, _, _, result) = canonical();
    let fp = flexer_store::fingerprint_of_key_bytes(b"fifo-race");
    let canonical_bytes = masked(&result);

    let a = Arc::new(ScheduleStore::open(&dir.0).unwrap());
    let b = Arc::new(ScheduleStore::open(&dir.0).unwrap());
    let entry_path = dir.0.join(format!("{}.fxs", fp.hex()));

    // Stage 1: the entry address is a FIFO, so the reader's `fs::read`
    // inside `get` blocks at open until we attach a writer.
    let status = std::process::Command::new("mkfifo")
        .arg(&entry_path)
        .status()
        .expect("spawn mkfifo");
    assert!(status.success(), "mkfifo failed");

    let reader = {
        let b = Arc::clone(&b);
        std::thread::spawn(move || b.get(fp))
    };

    // Stage 2: attaching the writer end rendezvouses with the reader's
    // open; the reader is now parked inside the read, pre-parse.
    let mut fifo = std::fs::OpenOptions::new()
        .write(true)
        .open(&entry_path)
        .expect("open fifo writer");

    // Stage 3: while the reader is frozen, a repair completes — the
    // other handle's corrupt-delete has already cleared the address
    // and its re-search renames a healthy entry into place (the
    // reader's open fd still points at the FIFO inode, exactly like a
    // stale read of a since-replaced file).
    std::fs::remove_file(&entry_path).unwrap();
    assert!(a.put(fp, &result).unwrap());
    assert!(matches!(a.get(fp), Lookup::Hit(_)));

    // Stage 4: feed the frozen reader corrupt bytes and let it run.
    fifo.write_all(b"definitely not an entry").unwrap();
    drop(fifo);
    let lookup = reader.join().expect("reader panicked");

    // The repair must survive the reader's stale corrupt verdict. (The
    // quarantine even recovers the healthy entry for the reader
    // itself, but the load-bearing assertion is the store state.)
    let Lookup::Hit(after) = a.get(fp) else {
        panic!("stale corrupt evidence destroyed a completed repair (got {lookup:?})");
    };
    assert_eq!(masked(&after), canonical_bytes);
    assert_eq!(a.len().unwrap(), 1);
}

/// Anti-entropy against a store under active attack: while a seeded
/// corruptor mutates live entries (driving the quarantine path, so
/// `.tmp-q-*` files genuinely flicker in and out of the directory) and
/// a repairer re-searches and re-puts, concurrent `manifest()`
/// snapshots must only ever advertise healthy entries at known
/// addresses — never an in-flight temp write, a quarantine capture, or
/// a torn `.fxs` — and every advertised row must export bytes a peer's
/// `ingest` accepts (or have vanished to corruption since the
/// snapshot, in which case `export` re-validates and returns `None`
/// rather than shipping damage).
#[test]
fn manifest_during_corruption_only_advertises_healthy_entries() {
    use flexer_store::Ingest;

    let dir = Scratch::new("manifest-melee");
    let peer_dir = Scratch::new("manifest-peer");
    let (_, _, _, result) = canonical();
    let fps: Vec<Fingerprint> = [&b"melee-a"[..], b"melee-b", b"melee-c"]
        .iter()
        .map(|k| flexer_store::fingerprint_of_key_bytes(k))
        .collect();

    let store = Arc::new(ScheduleStore::open(&dir.0).unwrap());
    for &fp in &fps {
        store.put(fp, &result).unwrap();
    }
    let entry_paths: Vec<PathBuf> = fps
        .iter()
        .map(|fp| dir.0.join(format!("{}.fxs", fp.hex())))
        .collect();

    let corruptor = {
        let entry_paths = entry_paths.clone();
        std::thread::spawn(move || {
            let mut rng = Rng(0x5eed_aaaa_bbbb_0002);
            for i in 0..300 {
                corrupt_in_place(&entry_paths[i % entry_paths.len()], &mut rng);
                std::thread::yield_now();
            }
        })
    };
    let repairer = {
        let store = Arc::clone(&store);
        let result = result.clone();
        let fps = fps.clone();
        std::thread::spawn(move || {
            for _ in 0..100 {
                for &fp in &fps {
                    if matches!(store.get(fp), Lookup::Miss | Lookup::Corrupt(_)) {
                        let _ = store.put(fp, &result);
                    }
                }
                std::thread::yield_now();
            }
        })
    };

    // The anti-entropy side, concurrent with the melee: snapshot,
    // check, and replicate what the snapshot advertises.
    let peer = ScheduleStore::open(&peer_dir.0).unwrap();
    for _ in 0..100 {
        let manifest = store.manifest().expect("manifest never errors");
        for row in &manifest {
            assert!(
                fps.contains(&row.fingerprint),
                "manifest advertised an unknown address {} — a temp or \
                 quarantine file leaked into the snapshot",
                row.fingerprint.hex()
            );
            if let Some(bytes) = store.export(row.fingerprint).unwrap() {
                let verdict = peer.ingest(row.fingerprint, &bytes).unwrap();
                assert!(
                    !matches!(verdict, Ingest::Rejected(_)),
                    "{}: an exported entry failed a peer's validation",
                    row.fingerprint.hex()
                );
            }
        }
        std::thread::yield_now();
    }

    corruptor.join().expect("corruptor panicked");
    repairer.join().expect("repairer panicked");

    // Quiescent: one final repair pass, then the manifest advertises
    // exactly the three healthy entries and a peer reaches parity.
    for &fp in &fps {
        if matches!(store.get(fp), Lookup::Miss | Lookup::Corrupt(_)) {
            store.put(fp, &result).unwrap();
        }
    }
    let final_manifest = store.manifest().unwrap();
    let mut want = fps.clone();
    want.sort();
    let have: Vec<Fingerprint> = final_manifest.iter().map(|r| r.fingerprint).collect();
    assert_eq!(have, want, "healed store advertises exactly its entries");
    for row in &final_manifest {
        let bytes = store
            .export(row.fingerprint)
            .unwrap()
            .expect("healthy entry exports");
        assert!(!matches!(
            peer.ingest(row.fingerprint, &bytes).unwrap(),
            Ingest::Rejected(_)
        ));
    }
    assert_eq!(
        peer.manifest().unwrap(),
        final_manifest,
        "replication from the healed store reaches manifest parity"
    );
}

#[test]
fn quarantine_leftovers_are_reaped_on_open() {
    let dir = Scratch::new("reap-q");
    std::fs::create_dir_all(&dir.0).unwrap();
    let stale = dir.0.join(".tmp-q-deadbeef-1-0");
    std::fs::write(&stale, b"crashed mid-quarantine").unwrap();
    let store = ScheduleStore::open(&dir.0).unwrap();
    assert!(!stale.exists(), "quarantine leftover not reaped");
    assert_eq!(store.len().unwrap(), 0);
}

#[test]
fn fingerprint_is_stable_across_handles() {
    // Two handles must agree on the address for the same key — the
    // precondition for every cross-handle race above.
    let fp1: Fingerprint = flexer_store::fingerprint_of_key_bytes(b"addr");
    let fp2: Fingerprint = flexer_store::fingerprint_of_key_bytes(b"addr");
    assert_eq!(fp1, fp2);
    assert_eq!(fp1.hex(), fp2.hex());
}

/// Two `put`s of one fingerprint at once on one handle — a peer's
/// `store_push` racing a local cold search of the same layer — must
/// both succeed and leave a servable entry. Each writer needs its own
/// temp file: with one shared temp name, the second rename finds the
/// file already moved away and the `put` fails with `NotFound`.
#[test]
fn concurrent_puts_of_one_fingerprint_all_succeed() {
    const ROUNDS: usize = 200;
    let dir = Scratch::new("put-race");
    let (_, _, _, result) = canonical();
    // The same winner with different effort stats, as two independent
    // searches of one layer produce.
    let mut rerun = result.clone();
    rerun.stats.eval_nanos += 1;
    rerun.stats.gen_nanos += 1;
    let fp_of = |round: usize| {
        flexer_store::fingerprint_of_key_bytes(format!("put-race-{round}").as_bytes())
    };

    let store = Arc::new(ScheduleStore::open(&dir.0).unwrap());
    let barrier = Arc::new(std::sync::Barrier::new(2));
    // Each thread reports per round instead of panicking, so a failure
    // cannot strand its partner at the barrier.
    let putters: Vec<_> = [result.clone(), rerun]
        .into_iter()
        .map(|r| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                (0..ROUNDS)
                    .map(|round| {
                        barrier.wait();
                        let put = store.put(fp_of(round), &r).map_err(|e| e.to_string());
                        barrier.wait();
                        let hit = match store.get(fp_of(round)) {
                            Lookup::Hit(hit) => Some(masked(&hit)),
                            Lookup::Miss | Lookup::Corrupt(_) => None,
                        };
                        (put, hit)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let canonical_bytes = masked(&result);
    for t in putters {
        for (round, (put, hit)) in t.join().expect("putter panicked").into_iter().enumerate() {
            assert!(put.is_ok(), "round {round}: concurrent put failed: {put:?}");
            assert_eq!(
                hit.as_ref(),
                Some(&canonical_bytes),
                "round {round}: the entry must be a hit after both puts"
            );
        }
    }
    assert_eq!(store.len().unwrap(), ROUNDS);
    let litter = temp_litter(&dir);
    assert!(litter.is_empty(), "temp litter left behind: {litter:?}");
}

/// Opening a handle on a directory another handle is writing to must
/// not reap that handle's in-flight temp files (only crash leftovers,
/// on the directory's first open in the process): with a second handle
/// re-opening the directory in a loop, every `put` renames its temp
/// into place and none is left behind.
#[test]
fn reopening_a_live_directory_keeps_in_flight_puts() {
    const PUTS: usize = 2000;
    let dir = Scratch::new("reopen");
    let (_, _, _, result) = canonical();
    // Unbounded, so no put pays for an eviction scan of the directory.
    let store = ScheduleStore::with_capacity(&dir.0, 0).unwrap();
    let puts_done = AtomicBool::new(false);
    let failed = std::thread::scope(|s| {
        s.spawn(|| {
            while !puts_done.load(Ordering::Acquire) {
                ScheduleStore::open(&dir.0).unwrap();
            }
        });
        let failed: Vec<String> = (0..PUTS)
            .filter_map(|i| {
                let fp = flexer_store::fingerprint_of_key_bytes(format!("reopen-{i}").as_bytes());
                store
                    .put(fp, &result)
                    .err()
                    .map(|e| format!("put {i}: {e}"))
            })
            .collect();
        puts_done.store(true, Ordering::Release);
        failed
    });
    assert!(
        failed.is_empty(),
        "{} of {PUTS} puts failed; first: {}",
        failed.len(),
        failed[0]
    );
    assert_eq!(store.len().unwrap(), PUTS);
    let litter = temp_litter(&dir);
    assert!(litter.is_empty(), "temp litter left behind: {litter:?}");
}
