//! The five chaos scenarios.
//!
//! Each scenario boots its own server (in-process, or a spawned
//! `flexer-serve` child when the config names a binary), drives it
//! with seeded load or faults, validates every response frame, and
//! hands violations back to the harness. Scenarios never panic on a
//! server misbehaviour — misbehaviour is the *product* here, reported
//! as [`Violation`](crate::harness::Violation)s so one run can catch
//! several bugs.

use crate::harness::{
    boot, check_response, mask_provenance, send_raw, ChaosConfig, Profile, ScenarioOutcome,
    ServerHandle, LIVENESS,
};
use crate::rng::SplitMix64;
use flexer_serve::client::Client;
use flexer_serve::MAX_LINE_BYTES;
use flexer_trace::json::Json;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The layer-shape pool every scenario draws from. Small shapes keep a
/// single search in the low milliseconds so CI-profile runs stay well
/// under a minute, while still exercising the full search pipeline.
const SHAPES: [(u32, u32, u32, u32); 3] = [(16, 14, 14, 16), (32, 14, 14, 32), (16, 7, 7, 32)];

/// Soak connection counts above this run in *storm* mode: each
/// connection sheds its op budget to 2 and connection-level transport
/// failures count as shed load rather than violations (the kernel
/// accept queue is smaller than the client herd by design there).
const STORM_TOLERANCE_THRESHOLD: usize = 64;

/// A fourth shape used only as concurrent "hammer" traffic in the
/// corruption scenario, so corrupting a [`SHAPES`] entry always hits a
/// tier-cold fingerprint in the fresh server.
const HAMMER_SHAPE: (u32, u32, u32, u32) = (8, 14, 14, 8);

fn layers_json((c_in, h, w, c_out): (u32, u32, u32, u32)) -> String {
    format!(r#"[{{"in_channels":{c_in},"height":{h},"width":{w},"out_channels":{c_out}}}]"#)
}

fn schedule_line(id: &str, shape: (u32, u32, u32, u32), extra: &str) -> String {
    format!(
        r#"{{"op":"schedule","id":"{id}","layers":{}{extra}}}"#,
        layers_json(shape)
    )
}

/// A schedule request over the whole [`SHAPES`] pool as one network —
/// the multi-layer case where a deadline can expire *between* layers.
fn multi_layer_line(id: &str, extra: &str) -> String {
    let rows: Vec<String> = SHAPES
        .iter()
        .map(|&(c_in, h, w, c_out)| {
            format!(r#"{{"in_channels":{c_in},"height":{h},"width":{w},"out_channels":{c_out}}}"#)
        })
        .collect();
    format!(
        r#"{{"op":"schedule","id":"{id}","layers":[{}]{extra}}}"#,
        rows.join(",")
    )
}

/// One validated request/response roundtrip over a fresh connection.
/// Counts the op, reports transport failures and disallowed error
/// codes as violations, and returns the parsed response when the frame
/// was sound.
fn checked_rt(
    addr: SocketAddr,
    line: &str,
    id: Option<&str>,
    allowed_errors: &[&str],
    scenario: &'static str,
    out: &mut ScenarioOutcome,
) -> Option<Json> {
    out.ops += 1;
    let reply = match rt(addr, line) {
        Ok(reply) => reply,
        Err(e) => {
            out.violate(scenario, format!("transport failure for {line}: {e}"));
            return None;
        }
    };
    match check_response(&reply, id) {
        Ok(checked) => {
            if let Some(code) = &checked.error {
                if !allowed_errors.contains(&code.as_str()) {
                    out.violate(
                        scenario,
                        format!("unexpected error {code:?} for {line}: {reply}"),
                    );
                    return None;
                }
            }
            Some(checked.json)
        }
        Err(detail) => {
            out.violate(scenario, detail);
            None
        }
    }
}

/// A raw roundtrip with the liveness read timeout applied — a server
/// that swallows a request without answering shows up as a timeout
/// violation instead of hanging the harness.
fn rt(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(LIVENESS))
        .map_err(|e| format!("set timeout: {e}"))?;
    client.roundtrip(line).map_err(|e| format!("{e}"))
}

fn boot_or_bail(
    cfg: &ChaosConfig,
    scratch: &Path,
    store: Option<&Path>,
    workers: usize,
    queue: usize,
    scenario: &'static str,
    out: &mut ScenarioOutcome,
) -> Option<ServerHandle> {
    match boot(cfg, scratch, store, workers, queue, None) {
        Ok(server) => Some(server),
        Err(e) => {
            out.violate(scenario, format!("server boot failed: {e}"));
            None
        }
    }
}

fn drain_or_violate(server: ServerHandle, scenario: &'static str, out: &mut ScenarioOutcome) {
    if let Err(e) = server.drain() {
        out.violate(scenario, format!("graceful drain failed: {e}"));
    }
}

// ---------------------------------------------------------------------
// Soak

/// Sustained many-connection load mixing every op type. Invariants:
/// every response is a sound frame with our id; the only tolerated
/// error is `overloaded` (plus `deadline` on deadline-carrying ops);
/// traced responses carry a span tree; the server drains cleanly after
/// the storm.
pub(crate) fn soak(cfg: &ChaosConfig, scratch: &Path, mut rng: SplitMix64) -> ScenarioOutcome {
    let mut out = ScenarioOutcome::default();
    let store = scratch.join("soak-store");
    let Some(server) = boot_or_bail(cfg, scratch, Some(&store), 8, 64, "soak", &mut out) else {
        return out;
    };
    let addr = server.addr();
    let threads = cfg.connections.max(1);
    // Storm-sized runs (--connections past the CI scale, up to the
    // thousands-of-connections profile) shed per-connection ops so
    // total load grows with the client count, not quadratically, and
    // tolerate connection-level failures: with more concurrent clients
    // than the kernel accept queue holds, refused connections are shed
    // load, not protocol violations.
    let storm = threads > STORM_TOLERANCE_THRESHOLD;
    let ops_per_thread = if storm { 2 } else { cfg.profile.scale(10) };
    let trees = Arc::new(Mutex::new(Vec::new()));

    let mut thread_outs: Vec<ScenarioOutcome> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let mut rng = rng.fork();
            let trees = Arc::clone(&trees);
            handles.push(scope.spawn(move || {
                let mut out = ScenarioOutcome::default();
                for i in 0..ops_per_thread {
                    let id = format!("s{t}-{i}");
                    soak_op(addr, &id, &mut rng, &trees, &mut out);
                }
                out
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(thread_out) => thread_outs.push(thread_out),
                Err(_) => {
                    let mut panicked = ScenarioOutcome::default();
                    panicked.violate("soak", "a soak client thread panicked");
                    thread_outs.push(panicked);
                }
            }
        }
    });
    for mut thread_out in thread_outs {
        out.ops += thread_out.ops;
        if storm {
            thread_out
                .violations
                .retain(|v| !v.detail.starts_with("transport failure"));
        }
        out.violations.extend(thread_out.violations);
    }
    out.span_trees = std::mem::take(&mut *trees.lock().expect("trees mutex"));

    drain_or_violate(server, "soak", &mut out);
    out
}

fn soak_op(
    addr: SocketAddr,
    id: &str,
    rng: &mut SplitMix64,
    trees: &Mutex<Vec<String>>,
    out: &mut ScenarioOutcome,
) {
    let roll = rng.below(100);
    if roll < 15 {
        checked_rt(
            addr,
            &format!(r#"{{"op":"health","id":"{id}"}}"#),
            Some(id),
            &["overloaded"],
            "soak",
            out,
        );
    } else if roll < 25 {
        checked_rt(
            addr,
            &format!(r#"{{"op":"stats","id":"{id}"}}"#),
            Some(id),
            &["overloaded"],
            "soak",
            out,
        );
    } else if roll < 55 {
        let shape = *rng.pick(&SHAPES);
        checked_rt(
            addr,
            &schedule_line(id, shape, ""),
            Some(id),
            &["overloaded"],
            "soak",
            out,
        );
    } else if roll < 65 {
        let shape = *rng.pick(&SHAPES);
        let line = format!(
            r#"{{"op":"verify","id":"{id}","layers":{}}}"#,
            layers_json(shape)
        );
        checked_rt(addr, &line, Some(id), &["overloaded"], "soak", out);
    } else if roll < 80 {
        let shape = *rng.pick(&SHAPES);
        let deadline = 1 + rng.below(50);
        let line = schedule_line(
            id,
            shape,
            &format!(r#","mode":"anytime","deadline_ms":{deadline}"#),
        );
        // Anytime never errors on a deadline — it answers partial.
        if let Some(json) = checked_rt(addr, &line, Some(id), &["overloaded"], "soak", out) {
            check_anytime_rows(&json, "soak", out);
        }
    } else {
        let shape = *rng.pick(&SHAPES);
        let line = schedule_line(id, shape, r#","trace":true"#);
        if let Some(json) = checked_rt(addr, &line, Some(id), &["overloaded"], "soak", out) {
            // A tolerated "overloaded" answer carries no trace; only an
            // ok:true response owes us a span tree.
            if json.get("ok").and_then(Json::as_bool) == Some(true) {
                match json.get("span_tree").and_then(Json::as_str) {
                    Some(tree) if tree.contains("layer") => {
                        trees.lock().expect("trees mutex").push(tree.to_string());
                    }
                    _ => out.violate("soak", format!("traced response without a span tree: {id}")),
                }
            }
        }
    }
}

/// Asserts the anytime row invariants on an `ok:true` response: a
/// non-empty `layers` array; `partial:true` at the top only when some
/// row is partial; every partial row carries a proven gap ≥ 1.
fn check_anytime_rows(json: &Json, scenario: &'static str, out: &mut ScenarioOutcome) {
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return;
    }
    let Some(rows) = json.get("layers").and_then(Json::as_array) else {
        out.violate(scenario, "anytime response without a layers array");
        return;
    };
    if rows.is_empty() {
        out.violate(scenario, "anytime response with an empty layers array");
        return;
    }
    let any_partial = rows
        .iter()
        .any(|row| row.get("partial").and_then(Json::as_bool) == Some(true));
    if json.get("partial").and_then(Json::as_bool) == Some(true) && !any_partial {
        out.violate(
            scenario,
            "partial:true response without any partial layer row",
        );
    }
    for row in rows {
        if row.get("partial").and_then(Json::as_bool) == Some(true) {
            match row.get("gap").and_then(Json::as_num) {
                Some(gap) if gap >= 1.0 => {}
                other => out.violate(
                    scenario,
                    format!("partial row with missing or impossible gap: {other:?}"),
                ),
            }
        }
        if row.get("latency").and_then(Json::as_num).is_none() {
            out.violate(scenario, "layer row without a latency");
        }
    }
}

// ---------------------------------------------------------------------
// Slow-loris

/// Byte-dribble abuse against the line reader. Invariants: a slowly
/// dribbled valid request still succeeds; an oversized line draws a
/// typed `parse` error, not a hang or a cut connection without an
/// answer; a client dribbling garbage forever cannot stall graceful
/// shutdown past the drain bounds.
pub(crate) fn slowloris(cfg: &ChaosConfig, scratch: &Path, mut rng: SplitMix64) -> ScenarioOutcome {
    let mut out = ScenarioOutcome::default();
    let Some(server) = boot_or_bail(cfg, scratch, None, 2, 8, "slowloris", &mut out) else {
        return out;
    };
    let addr = server.addr();

    // Case 1: a valid request dribbled a few bytes at a time must be
    // answered despite arriving across many read-poll windows.
    out.ops += 1;
    match dribble_request(addr, r#"{"op":"health","id":"slow-1"}"#, &mut rng) {
        Ok(reply) => {
            if let Err(detail) = check_response(&reply, Some("slow-1")) {
                out.violate("slowloris", detail);
            } else if !reply.contains(r#""ok":true"#) {
                out.violate(
                    "slowloris",
                    format!("dribbled health request was refused: {reply}"),
                );
            }
        }
        Err(e) => out.violate("slowloris", format!("dribbled request got no answer: {e}")),
    }

    // Case 2: an oversized line draws a typed parse error.
    out.ops += 1;
    match oversized_line(addr) {
        Ok(reply) => match check_response(&reply, None) {
            Ok(checked) if checked.error.as_deref() == Some("parse") => {}
            Ok(_) => out.violate(
                "slowloris",
                format!("oversized line not answered with a parse error: {reply}"),
            ),
            Err(detail) => out.violate("slowloris", detail),
        },
        Err(e) => out.violate("slowloris", format!("oversized line got no answer: {e}")),
    }

    // Case 3: a client dribbling garbage forever must not stall the
    // graceful drain — the regression this harness exists to keep dead.
    out.ops += 1;
    let stop = Arc::new(AtomicBool::new(false));
    let dribbler = {
        let stop = Arc::clone(&stop);
        let pace = Duration::from_millis(1 + rng.below(5));
        std::thread::spawn(move || {
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return;
            };
            // Without it Nagle coalesces the one-byte writes, and the
            // server sees fewer, larger reads than this case claims.
            let _ = stream.set_nodelay(true);
            for _ in 0..2000 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                use std::io::Write;
                if stream.write_all(b"{").is_err() {
                    break;
                }
                std::thread::sleep(pace);
            }
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    if let Err(e) = server.drain() {
        out.violate(
            "slowloris",
            format!("a dribbling client stalled graceful shutdown: {e}"),
        );
    }
    stop.store(true, Ordering::Relaxed);
    let _ = dribbler.join();
    out
}

/// Sends `line` in seeded 1–3 byte chunks with seeded pauses, then
/// reads one reply line.
fn dribble_request(addr: SocketAddr, line: &str, rng: &mut SplitMix64) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(LIVENESS))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let bytes = line.as_bytes();
    let mut sent = 0;
    while sent < bytes.len() {
        let chunk = (1 + rng.below(3) as usize).min(bytes.len() - sent);
        use std::io::Write;
        writer
            .write_all(&bytes[sent..sent + chunk])
            .map_err(|e| format!("write: {e}"))?;
        writer.flush().map_err(|e| format!("flush: {e}"))?;
        sent += chunk;
        std::thread::sleep(Duration::from_millis(rng.below(8)));
    }
    use std::io::Write;
    writer.write_all(b"\n").map_err(|e| format!("write: {e}"))?;
    writer.flush().map_err(|e| format!("flush: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    Ok(reply.trim_end().to_string())
}

/// Sends a line just over `MAX_LINE_BYTES` and reads the reply.
fn oversized_line(addr: SocketAddr) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(LIVENESS))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let oversized = "x".repeat(MAX_LINE_BYTES + 16);
    send_raw(&mut writer, &oversized).map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    Ok(reply.trim_end().to_string())
}

// ---------------------------------------------------------------------
// Corruption

/// Live `.fxs` corruption under concurrent load. Round 0 populates the
/// store cold and records reference answers; every later round boots a
/// *fresh* server (a fresh server has a cold result tier, so corrupted
/// entries are actually re-read), corrupts a seeded subset of entries
/// while hammer traffic is in flight, and asserts the re-requested
/// answers are byte-identical to the references modulo provenance,
/// that the store's corruption counter saw the damage, and that no
/// quarantine litter survives the drain.
pub(crate) fn corrupt(cfg: &ChaosConfig, scratch: &Path, mut rng: SplitMix64) -> ScenarioOutcome {
    let mut out = ScenarioOutcome::default();
    let store = scratch.join("corrupt-store");

    // Round 0: populate cold, record references.
    let Some(server) = boot_or_bail(cfg, scratch, Some(&store), 4, 16, "corrupt", &mut out) else {
        return out;
    };
    let addr = server.addr();
    checked_rt(
        addr,
        &schedule_line("c-hammer", HAMMER_SHAPE, ""),
        Some("c-hammer"),
        &[],
        "corrupt",
        &mut out,
    );
    let mut refs = Vec::new();
    for (n, shape) in SHAPES.iter().enumerate() {
        let id = format!("c{n}");
        out.ops += 1;
        match rt(addr, &schedule_line(&id, *shape, "")) {
            Ok(reply) => refs.push(mask_provenance(&reply)),
            Err(e) => {
                out.violate("corrupt", format!("cold request {id} failed: {e}"));
                drain_or_violate(server, "corrupt", &mut out);
                return out;
            }
        }
    }
    drain_or_violate(server, "corrupt", &mut out);

    let rounds = match cfg.profile {
        Profile::Short => 2,
        Profile::Long => 4,
    };
    for round in 0..rounds {
        corruption_round(cfg, scratch, &store, &refs, round, &mut rng, &mut out);
    }

    // No quarantine or tmp litter may survive the final drain.
    for name in store_files(&store, "") {
        if name.starts_with(".tmp-") {
            out.violate(
                "corrupt",
                format!("quarantine/tmp litter survived the run: {name}"),
            );
        }
    }
    out
}

fn corruption_round(
    cfg: &ChaosConfig,
    scratch: &Path,
    store: &Path,
    refs: &[String],
    round: usize,
    rng: &mut SplitMix64,
    out: &mut ScenarioOutcome,
) {
    let Some(server) = boot_or_bail(cfg, scratch, Some(store), 4, 16, "corrupt", out) else {
        return;
    };
    let addr = server.addr();

    // Hammer traffic keeps requests in flight while entries are mutated.
    let hammer = std::thread::spawn(move || {
        for i in 0..5 {
            let id = format!("ch-{i}");
            let _ = rt(addr, &schedule_line(&id, HAMMER_SHAPE, ""));
        }
    });

    // Corrupt a seeded subset — at least two entries, so at least one
    // belongs to a shape the fresh server has not yet read back and the
    // damage is guaranteed to be *read*, not skipped.
    let entries = store_files(store, "fxs");
    let mut victims: Vec<&String> = entries.iter().filter(|_| rng.chance(50)).collect();
    if victims.len() < 2 {
        victims = entries.iter().take(2).collect();
    }
    let victim_count = victims.len();
    for name in victims {
        let path = store.join(name);
        if let Err(e) = corrupt_file(&path, rng) {
            out.violate("corrupt", format!("cannot corrupt {name}: {e}"));
        }
    }

    // Re-request every reference shape: answers must be identical
    // modulo provenance, whatever mix of hit/detect/re-search happened.
    for (n, shape) in SHAPES.iter().enumerate() {
        let id = format!("c{n}");
        out.ops += 1;
        match rt(addr, &schedule_line(&id, *shape, "")) {
            Ok(reply) => {
                if mask_provenance(&reply) != refs[n] {
                    out.violate(
                        "corrupt",
                        format!(
                            "round {round}: answer for {id} changed after corruption of \
                             {victim_count} entries: {reply}"
                        ),
                    );
                }
            }
            Err(e) => out.violate(
                "corrupt",
                format!("round {round}: request {id} failed: {e}"),
            ),
        }
    }

    // The store must have *noticed*: at least one corrupt detection.
    if let Some(json) = checked_rt(addr, r#"{"op":"stats"}"#, None, &[], "corrupt", out) {
        let corrupt_seen = json
            .get("store")
            .and_then(|s| s.get("corrupt"))
            .and_then(Json::as_num)
            .unwrap_or(0.0);
        if corrupt_seen < 1.0 {
            out.violate(
                "corrupt",
                format!(
                    "round {round}: {victim_count} entries corrupted but the store's \
                     corrupt counter stayed at {corrupt_seen}"
                ),
            );
        }
    }

    let _ = hammer.join();
    drain_or_violate(server, "corrupt", out);
}

/// Sorted file names in `dir` (all files when `ext` is empty,
/// otherwise only `.{ext}` files). Sorted so the seeded victim choice
/// is independent of directory iteration order.
fn store_files(dir: &Path, ext: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| {
                    ext.is_empty() || e.path().extension().and_then(|x| x.to_str()) == Some(ext)
                })
                .filter_map(|e| e.file_name().into_string().ok())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// One seeded mutation: bit flip, truncation, magic garbage, or a full
/// zero fill.
fn corrupt_file(path: &Path, rng: &mut SplitMix64) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return std::fs::write(path, b"x");
    }
    match rng.below(4) {
        0 => {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
        }
        1 => {
            let keep = rng.below(bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        2 => {
            for b in bytes.iter_mut().take(8) {
                *b = 0xFF;
            }
        }
        _ => bytes.fill(0),
    }
    std::fs::write(path, bytes)
}

// ---------------------------------------------------------------------
// Deadline skew

/// Zero, tiny, and absurd `deadline_ms` values in both modes.
/// Invariants: exact mode with `deadline_ms:0` always draws the typed
/// `deadline` error; century-plus deadlines are unbounded, not
/// worker-killing; anytime mode always answers `ok:true` with sound
/// partial rows; small nonzero deadlines in exact mode answer either
/// the result or the typed `deadline` error — nothing else.
pub(crate) fn deadline(cfg: &ChaosConfig, scratch: &Path, mut rng: SplitMix64) -> ScenarioOutcome {
    let mut out = ScenarioOutcome::default();
    let Some(server) = boot_or_bail(cfg, scratch, None, 2, 8, "deadline", &mut out) else {
        return out;
    };
    let addr = server.addr();
    const SKEWS: [u64; 8] = [0, 1, 2, 5, 10, 50, 1 << 62, u64::MAX];

    let ops = cfg.profile.scale(12);
    for i in 0..ops {
        let id = format!("d{i}");
        let skew = *rng.pick(&SKEWS);
        let anytime = rng.chance(50);
        let mode = if anytime { r#","mode":"anytime""# } else { "" };
        let extra = format!(r#"{mode},"deadline_ms":{skew}"#);
        // Every third op schedules the whole pool as one network, so
        // small deadlines also expire *between* layers, not just
        // before the first one.
        let line = if i % 3 == 2 {
            multi_layer_line(&id, &extra)
        } else {
            schedule_line(&id, *rng.pick(&SHAPES), &extra)
        };
        let allowed: &[&str] = if anytime { &[] } else { &["deadline"] };
        let Some(json) = checked_rt(addr, &line, Some(&id), allowed, "deadline", &mut out) else {
            continue;
        };
        let ok = json.get("ok").and_then(Json::as_bool) == Some(true);
        if anytime {
            if !ok {
                out.violate(
                    "deadline",
                    format!("anytime request {id} errored: skew {skew}"),
                );
            }
            check_anytime_rows(&json, "deadline", &mut out);
        } else if skew == 0 && ok {
            out.violate(
                "deadline",
                format!("exact request {id} with deadline_ms:0 was answered instead of expired"),
            );
        } else if skew >= (1 << 62) && !ok {
            out.violate(
                "deadline",
                format!("exact request {id} with a century-plus deadline ({skew}) was refused"),
            );
        }
    }

    drain_or_violate(server, "deadline", &mut out);
    out
}

// ---------------------------------------------------------------------
// Restart

/// Kill/drain/restart cycles against one shared store directory.
/// Invariants: every cycle's answers are byte-identical to cycle 0's
/// modulo provenance (warm reattach after a graceful drain *and* after
/// a hard kill — killed mid-request, the store must never serve a torn
/// entry); warm cycles actually hit the store; the final drain is
/// clean.
pub(crate) fn restart(cfg: &ChaosConfig, scratch: &Path, mut rng: SplitMix64) -> ScenarioOutcome {
    let mut out = ScenarioOutcome::default();
    let store = scratch.join("restart-store");
    let cycles = match cfg.profile {
        Profile::Short => 3,
        Profile::Long => 5,
    };
    let mut refs: Vec<String> = Vec::new();

    for cycle in 0..cycles {
        let Some(server) = boot_or_bail(cfg, scratch, Some(&store), 2, 8, "restart", &mut out)
        else {
            return out;
        };
        let addr = server.addr();

        for (n, shape) in SHAPES.iter().enumerate() {
            let id = format!("r{n}");
            out.ops += 1;
            match rt(addr, &schedule_line(&id, *shape, "")) {
                Ok(reply) => {
                    let masked = mask_provenance(&reply);
                    if cycle == 0 {
                        refs.push(masked);
                    } else if masked != refs[n] {
                        out.violate(
                            "restart",
                            format!("cycle {cycle}: warm answer for {id} drifted: {reply}"),
                        );
                    }
                }
                Err(e) => out.violate(
                    "restart",
                    format!("cycle {cycle}: request {id} failed: {e}"),
                ),
            }
        }

        // Warm cycles must actually reattach the store, not re-search.
        if cycle > 0 {
            if let Some(json) =
                checked_rt(addr, r#"{"op":"stats"}"#, None, &[], "restart", &mut out)
            {
                let hits = json
                    .get("store")
                    .and_then(|s| s.get("hits"))
                    .and_then(Json::as_num)
                    .unwrap_or(0.0);
                if hits < 1.0 {
                    out.violate(
                        "restart",
                        format!("cycle {cycle}: warm restart served zero store hits"),
                    );
                }
            }
        }

        // End the cycle: seeded hard kill (sometimes mid-request) when
        // a real daemon is available, graceful drain otherwise and on
        // the last cycle.
        let hard_kill = server.can_hard_kill() && cycle + 1 < cycles && rng.chance(60);
        if hard_kill {
            let doomed = if rng.chance(50) {
                Some(std::thread::spawn(move || {
                    // A long request for the kill to land in the middle
                    // of; the severed connection error is expected.
                    let _ = rt(
                        addr,
                        r#"{"op":"schedule","network":"squeezenet","id":"doomed"}"#,
                    );
                }))
            } else {
                None
            };
            if doomed.is_some() {
                std::thread::sleep(Duration::from_millis(80 + rng.below(120)));
            }
            if let Err(e) = server.kill() {
                out.violate("restart", format!("cycle {cycle}: hard kill failed: {e}"));
            }
            if let Some(doomed) = doomed {
                let _ = doomed.join();
            }
        } else {
            drain_or_violate(server, "restart", &mut out);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Fleet

/// The fleet scenario's shape pool — the base pool plus three extras so
/// the router's placements spread across shards.
const FLEET_SHAPES: [(u32, u32, u32, u32); 6] = [
    SHAPES[0],
    SHAPES[1],
    SHAPES[2],
    HAMMER_SHAPE,
    (24, 14, 14, 24),
    (12, 7, 7, 24),
];

/// Members in the chaos fleet.
const FLEET_MEMBERS: usize = 3;
/// Full replication so manifest *equality* (not just parity) is the
/// post-rejoin assertion.
const FLEET_REPLICAS: usize = 3;

/// A three-member sharded fleet under routed load. Invariants: cold
/// answers through the router match themselves replayed anywhere
/// (modulo provenance); with one shard hard-killed mid-soak the
/// failover error rate stays within the 20% shed-load budget and no
/// answered request ever drifts; after the killed shard rejoins with a
/// *wiped* store, one anti-entropy pass restores manifest equality
/// across all members and the rejoined shard answers its whole request
/// set from store hits alone — zero searches.
pub(crate) fn fleet(cfg: &ChaosConfig, scratch: &Path, mut rng: SplitMix64) -> ScenarioOutcome {
    use flexer_fleet::{fetch_manifest, replica_parity, sync_pass, Router};

    let mut out = ScenarioOutcome::default();
    let teardown = |handles: Vec<Option<ServerHandle>>, out: &mut ScenarioOutcome| {
        for handle in handles.into_iter().flatten() {
            if let Err(e) = handle.drain() {
                out.violate("fleet", format!("member drain failed: {e}"));
            }
        }
    };

    // Boot the members.
    let mut handles: Vec<Option<ServerHandle>> = Vec::with_capacity(FLEET_MEMBERS);
    let mut stores: Vec<std::path::PathBuf> = Vec::with_capacity(FLEET_MEMBERS);
    for i in 0..FLEET_MEMBERS {
        let store = scratch.join(format!("fleet-n{i}-store"));
        match boot(cfg, scratch, Some(&store), 2, 16, None) {
            Ok(handle) => {
                handles.push(Some(handle));
                stores.push(store);
            }
            Err(e) => {
                out.violate("fleet", format!("member {i} boot failed: {e}"));
                teardown(handles, &mut out);
                return out;
            }
        }
    }
    let addrs: Vec<SocketAddr> = handles
        .iter()
        .map(|h| h.as_ref().expect("just booted").addr())
        .collect();
    let members: Vec<String> = addrs.iter().map(ToString::to_string).collect();
    let router = Router::new(&members)
        .retries(1)
        .backoff(Duration::from_millis(10));

    // Cold references through the router. The id is a function of the
    // shape so later replays of the same shape mask to identical bytes.
    let mut refs: Vec<String> = Vec::with_capacity(FLEET_SHAPES.len());
    for (n, shape) in FLEET_SHAPES.iter().enumerate() {
        out.ops += 1;
        match router.dispatch(&schedule_line(&format!("f{n}"), *shape, "")) {
            Ok(routed) => refs.push(mask_provenance(&routed.response)),
            Err(e) => {
                out.violate("fleet", format!("cold request f{n} failed: {e}"));
                teardown(handles, &mut out);
                return out;
            }
        }
    }

    // Replicate everywhere, verify parity before injecting any fault.
    match sync_pass(&router, FLEET_REPLICAS) {
        Ok(_) => match replica_parity(&router, FLEET_REPLICAS) {
            Ok(v) if v.is_empty() => {}
            Ok(v) => out.violate(
                "fleet",
                format!("pre-fault parity violated: {}", v.join("; ")),
            ),
            Err(e) => out.violate("fleet", format!("pre-fault parity check failed: {e}")),
        },
        Err(e) => out.violate("fleet", format!("pre-fault sync failed: {e}")),
    }

    // Routed soak with a seeded mid-soak shard kill.
    let total = cfg.profile.scale(30);
    let kill_at = total / 3;
    let victim = rng.below(FLEET_MEMBERS as u64) as usize;
    let mut post_kill_ops = 0u64;
    let mut post_kill_failures = 0u64;
    for i in 0..total {
        if i == kill_at {
            if let Some(handle) = handles[victim].take() {
                if let Err(e) = handle.kill() {
                    out.violate(
                        "fleet",
                        format!("mid-soak kill of member {victim} failed: {e}"),
                    );
                }
            }
        }
        let n = rng.below(FLEET_SHAPES.len() as u64) as usize;
        let down = i >= kill_at;
        out.ops += 1;
        match router.dispatch(&schedule_line(&format!("f{n}"), FLEET_SHAPES[n], "")) {
            Ok(routed) => {
                if mask_provenance(&routed.response) != refs[n] {
                    out.violate(
                        "fleet",
                        format!("soak op {i} (shape {n}): masked answer drifted from reference"),
                    );
                }
            }
            Err(e) => {
                if down {
                    post_kill_failures += 1;
                } else {
                    out.violate(
                        "fleet",
                        format!("soak op {i} failed with all members up: {e}"),
                    );
                }
            }
        }
        if down {
            post_kill_ops += 1;
        }
    }
    // The failover budget: transport failures after the kill are shed
    // load, bounded at 20% of post-kill traffic. Answer *drift* is
    // never budgeted — it is always a violation above.
    if post_kill_failures * 5 > post_kill_ops {
        out.violate(
            "fleet",
            format!(
                "failover error rate {post_kill_failures}/{post_kill_ops} exceeds \
                 the 20% shed-load budget"
            ),
        );
    }

    // Rejoin the victim on its recorded address with a wiped store.
    let _ = std::fs::remove_dir_all(&stores[victim]);
    let mut attempt = 0u64;
    handles[victim] = loop {
        match boot(
            cfg,
            scratch,
            Some(&stores[victim]),
            2,
            16,
            Some(addrs[victim]),
        ) {
            Ok(handle) => break Some(handle),
            Err(e) if attempt >= 5 => {
                out.violate(
                    "fleet",
                    format!(
                        "rejoin on {} failed after rebind retries: {e}",
                        addrs[victim]
                    ),
                );
                teardown(handles, &mut out);
                return out;
            }
            // Re-binding a just-freed port can race the kernel.
            Err(_) => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(100 * attempt));
            }
        }
    };

    // One anti-entropy pass must restore manifest equality.
    if let Err(e) = sync_pass(&router, FLEET_REPLICAS) {
        out.violate("fleet", format!("post-rejoin sync failed: {e}"));
    }
    let mut manifests = Vec::new();
    for member in &members {
        match fetch_manifest(member) {
            Ok(rows) => manifests.push(rows),
            Err(e) => out.violate("fleet", format!("manifest fetch failed: {e}")),
        }
    }
    if manifests.len() == members.len() {
        if manifests[0].is_empty() {
            out.violate("fleet", "fleet manifests are empty after the run");
        }
        for (i, manifest) in manifests.iter().enumerate().skip(1) {
            if manifest != &manifests[0] {
                out.violate(
                    "fleet",
                    format!(
                        "manifest inequality after rejoin: member 0 holds {} entries, \
                         member {i} holds {}",
                        manifests[0].len(),
                        manifest.len()
                    ),
                );
            }
        }
    }

    // The rejoined shard must answer the whole set from replicated
    // entries: store hits only, zero misses, reference-identical bytes.
    for (n, shape) in FLEET_SHAPES.iter().enumerate() {
        out.ops += 1;
        match rt(addrs[victim], &schedule_line(&format!("f{n}"), *shape, "")) {
            Ok(reply) => {
                if mask_provenance(&reply) != refs[n] {
                    out.violate(
                        "fleet",
                        format!("rejoined member's answer for shape {n} drifted"),
                    );
                }
            }
            Err(e) => out.violate("fleet", format!("rejoined member refused shape {n}: {e}")),
        }
    }
    if let Some(json) = checked_rt(
        addrs[victim],
        r#"{"op":"stats"}"#,
        None,
        &[],
        "fleet",
        &mut out,
    ) {
        let counter = |key: &str| {
            json.get("store")
                .and_then(|s| s.get(key))
                .and_then(Json::as_num)
                .unwrap_or(0.0)
        };
        if counter("hits") < FLEET_SHAPES.len() as f64 {
            out.violate(
                "fleet",
                format!(
                    "rejoined member served {} store hits for {} requests — replication \
                     did not warm it",
                    counter("hits"),
                    FLEET_SHAPES.len()
                ),
            );
        }
        if counter("misses") > 0.0 {
            out.violate(
                "fleet",
                format!(
                    "rejoined member took {} store misses — it re-searched instead of \
                     serving replicated entries",
                    counter("misses")
                ),
            );
        }
    }

    teardown(handles, &mut out);
    out
}
