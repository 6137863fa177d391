//! The server under abuse: saturation, malformed input, expired
//! deadlines and graceful shutdown — every failure mode must produce
//! a *typed* response, never a hang, a panic or a silent close.

use flexer_serve::client::Client;
use flexer_serve::{Server, ServerConfig};
use flexer_trace::json::{parse, Json};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

static DIR_ID: AtomicU32 = AtomicU32::new(0);

/// A scratch store directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!(
            "fxs-serve-{tag}-{}-{}",
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

/// Boots a server on a free loopback port and returns its address and
/// the thread running it (joined to assert a clean exit).
fn boot(config: ServerConfig) -> (SocketAddr, JoinHandle<()>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shutdown_and_join(addr: SocketAddr, handle: JoinHandle<()>) {
    let reply = flexer_serve::client::roundtrip(addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    handle.join().expect("server thread");
}

fn assert_ok(line: &str) -> Json {
    let j = parse(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e:?}"));
    assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    j
}

fn assert_error(line: &str, code: &str) -> Json {
    let j = parse(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e:?}"));
    assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false), "{line}");
    assert_eq!(j.get("error").and_then(Json::as_str), Some(code), "{line}");
    j
}

const TINY_SCHEDULE: &str =
    r#"{"op":"schedule","layers":[{"in_channels":16,"height":14,"width":14,"out_channels":16}]}"#;

#[test]
fn health_schedule_stats_round_trip() {
    let store = Scratch::new("smoke");
    let (addr, handle) = boot(ServerConfig {
        store_dir: Some(store.0.clone()),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr).unwrap();
    assert_ok(&c.roundtrip(r#"{"op":"health","id":"h1"}"#).unwrap());

    let j = assert_ok(&c.roundtrip(TINY_SCHEDULE).unwrap());
    assert!(j.get("latency").and_then(Json::as_num).unwrap() > 0.0);
    assert_eq!(j.get("layers").and_then(Json::as_array).unwrap().len(), 1);

    // Same request again: served from the persistent store.
    let j = assert_ok(&c.roundtrip(TINY_SCHEDULE).unwrap());
    assert_eq!(j.get("store_hits").and_then(Json::as_num), Some(1.0));

    let j = assert_ok(&c.roundtrip(r#"{"op":"stats"}"#).unwrap());
    assert!(j.get("requests").and_then(Json::as_num).unwrap() >= 4.0);
    let s = j.get("store").expect("store block");
    assert_eq!(s.get("hits").and_then(Json::as_num), Some(1.0));
    assert_eq!(s.get("entries").and_then(Json::as_num), Some(1.0));
    let r = j.get("residency").expect("stats residency block");
    assert_eq!(r.get("networks").and_then(Json::as_num), Some(0.0));

    // A residency-opted schedule: the response names its counters and
    // the server-wide stats aggregate them.
    let resident = concat!(
        r#"{"op":"schedule","residency":true,"layers":["#,
        r#"{"name":"c1","in_channels":16,"height":14,"width":14,"out_channels":32},"#,
        r#"{"name":"c2","in_channels":32,"height":14,"width":14,"out_channels":32},"#,
        r#"{"name":"c3","in_channels":32,"height":14,"width":14,"out_channels":32}]}"#
    );
    let j = assert_ok(&c.roundtrip(resident).unwrap());
    let r = j.get("residency").expect("response residency block");
    assert!(
        r.get("resident_edges").and_then(Json::as_num).unwrap() >= 1.0,
        "no edge went resident"
    );
    let saved = r.get("dma_bytes_saved").and_then(Json::as_num).unwrap();
    assert!(saved > 0.0, "residency saved no DRAM bytes");
    let j = assert_ok(&c.roundtrip(r#"{"op":"stats"}"#).unwrap());
    let r = j.get("residency").expect("stats residency block");
    assert_eq!(r.get("networks").and_then(Json::as_num), Some(1.0));
    assert_eq!(r.get("dma_bytes_saved").and_then(Json::as_num), Some(saved));

    shutdown_and_join(addr, handle);
}

#[test]
fn saturated_pool_sheds_with_typed_overloaded() {
    let (addr, handle) = boot(ServerConfig {
        workers: 2,
        queue: 1,
        ..ServerConfig::default()
    });
    // Two held connections pin both workers (a health round-trip
    // proves a worker owns each before we move on).
    let mut held: Vec<Client> = (0..2)
        .map(|_| {
            let mut c = Client::connect(addr).unwrap();
            assert_ok(&c.roundtrip(r#"{"op":"health"}"#).unwrap());
            c
        })
        .collect();
    // Third connection parks in the accept queue (depth 1)...
    let queued = Client::connect(addr).unwrap();
    // ...so the fourth is shed immediately with a typed error, not a
    // stall. `recv` would hang forever if the server queued it anyway.
    let mut shed = Client::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_error(&shed.recv().unwrap(), "overloaded");

    // Releasing a worker un-parks the queued connection: it gets a
    // real worker and full service.
    drop(held.pop());
    let mut queued = queued;
    assert_ok(&queued.roundtrip(r#"{"op":"health"}"#).unwrap());

    let j = assert_ok(&queued.roundtrip(r#"{"op":"stats"}"#).unwrap());
    assert!(j.get("overloaded").and_then(Json::as_num).unwrap() >= 1.0);

    drop(held);
    drop(queued);
    shutdown_and_join(addr, handle);
}

#[test]
fn malformed_json_keeps_the_connection_usable() {
    let (addr, handle) = boot(ServerConfig::default());
    let mut c = Client::connect(addr).unwrap();
    assert_error(&c.roundtrip("this is not json").unwrap(), "parse");
    assert_error(
        &c.roundtrip(r#"{"op":"no_such_op"}"#).unwrap(),
        "bad_request",
    );
    assert_error(&c.roundtrip(r#"{"op":"schedule"}"#).unwrap(), "bad_request");
    // After three rejected requests the same connection still works.
    assert_ok(&c.roundtrip(r#"{"op":"health"}"#).unwrap());
    shutdown_and_join(addr, handle);
}

#[test]
fn deeply_nested_line_is_a_typed_parse_error_not_an_abort() {
    // 200k nested arrays in a line well under the length cap. Parsed by
    // unbounded recursion, this overflowed the worker's stack, and a
    // stack overflow aborts the whole daemon: no panic guard sees it.
    let (addr, handle) = boot(ServerConfig::default());
    let depth = 200_000;
    let deep = format!(
        r#"{{"op":"health","id":"deep","pad":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    assert!(deep.len() < flexer_serve::MAX_LINE_BYTES);
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = c.roundtrip(&deep).unwrap();
    assert!(reply.contains("nesting"), "{reply}");
    assert_error(&reply, "parse");
    drop(c);
    // The daemon survived: a fresh connection is answered.
    let mut fresh = Client::connect(addr).unwrap();
    assert_ok(&fresh.roundtrip(r#"{"op":"health"}"#).unwrap());
    shutdown_and_join(addr, handle);
}

#[test]
fn expired_deadline_is_reported_not_hung() {
    let (addr, handle) = boot(ServerConfig::default());
    let mut c = Client::connect(addr).unwrap();
    let line = r#"{"op":"schedule","network":"squeezenet","deadline_ms":0,"id":"d1"}"#;
    let j = assert_error(&c.roundtrip(line).unwrap(), "deadline");
    assert_eq!(j.get("id").and_then(Json::as_str), Some("d1"));
    // The connection survives a deadline failure.
    assert_ok(&c.roundtrip(r#"{"op":"health"}"#).unwrap());
    shutdown_and_join(addr, handle);
}

#[test]
fn anytime_mode_turns_an_expired_deadline_into_a_partial_result() {
    let store = Scratch::new("anytime");
    let (addr, handle) = boot(ServerConfig {
        store_dir: Some(store.0.clone()),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr).unwrap();
    let line =
        r#"{"op":"schedule","network":"squeezenet","deadline_ms":0,"mode":"anytime","id":"a1"}"#;
    let j = assert_ok(&c.roundtrip(line).unwrap());
    assert_eq!(j.get("id").and_then(Json::as_str), Some("a1"));
    assert_eq!(j.get("partial").and_then(Json::as_bool), Some(true));
    assert!(j.get("latency").and_then(Json::as_num).unwrap() > 0.0);
    let layers = j.get("layers").and_then(Json::as_array).unwrap();
    assert!(!layers.is_empty());
    // Every layer still carries a real schedule; cut layers report a
    // proven optimality gap of at least 1.
    for row in layers {
        assert!(row.get("latency").and_then(Json::as_num).unwrap() > 0.0);
        if row.get("partial").and_then(Json::as_bool) == Some(true) {
            assert!(row.get("gap").and_then(Json::as_num).unwrap() >= 1.0);
        }
    }
    // Anytime results must not poison the persistent store: it holds
    // no entries after the cut request.
    let j = assert_ok(&c.roundtrip(r#"{"op":"stats"}"#).unwrap());
    let entries = j.get("store").and_then(|s| s.get("entries")).cloned();
    assert_eq!(entries.as_ref().and_then(Json::as_num), Some(0.0));
    // An exact re-request searches from scratch and persists as usual.
    let exact = r#"{"op":"schedule","network":"squeezenet","id":"a2"}"#;
    let j = assert_ok(&c.roundtrip(exact).unwrap());
    assert!(j.get("store_misses").and_then(Json::as_num).unwrap() > 0.0);
    shutdown_and_join(addr, handle);
}

#[test]
fn graceful_shutdown_drains_in_flight_work_and_flushes_the_store() {
    let store = Scratch::new("drain");
    let (addr, handle) = boot(ServerConfig {
        store_dir: Some(store.0.clone()),
        ..ServerConfig::default()
    });
    // An in-flight schedule on one connection...
    let mut busy = Client::connect(addr).unwrap();
    busy.send(r#"{"op":"schedule","network":"squeezenet","id":"inflight"}"#)
        .unwrap();
    // Give the worker a moment to pick the request up, so the drain
    // genuinely races in-flight work rather than an idle connection.
    std::thread::sleep(Duration::from_millis(200));
    // ...while another connection asks for shutdown.
    let reply = flexer_serve::client::roundtrip(addr, r#"{"op":"shutdown"}"#).unwrap();
    assert_ok(&reply);
    // The in-flight request is drained: its full response arrives.
    busy.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let j = assert_ok(&busy.recv().unwrap());
    assert_eq!(j.get("id").and_then(Json::as_str), Some("inflight"));
    // The server exits cleanly...
    handle.join().expect("server thread");
    // ...the store was written and flushed (squeezenet's layers)...
    let entries = std::fs::read_dir(&store.0)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "fxs"))
        .count();
    assert!(entries > 0, "store should hold the drained schedules");
    // ...and the port no longer accepts work.
    assert!(flexer_serve::client::roundtrip(addr, r#"{"op":"health"}"#).is_err());
}

#[test]
fn dribbling_client_cannot_stall_graceful_shutdown() {
    // A client that keeps bytes trickling in (never a newline) used to
    // pin its worker through shutdown: the drain flag was only checked
    // on read *timeouts*, and a dribbler never let the read time out.
    // Post-fix the flag is checked on the data path too, so the server
    // must finish draining while the dribble is still flowing.
    let (addr, handle) = boot(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut dribbler = std::net::TcpStream::connect(addr).unwrap();
    let dribble = std::thread::spawn(move || {
        use std::io::Write;
        // ~30 s of dribble at 20 ms/byte — far longer than the test
        // allows the shutdown to take; ends early once the server
        // closes the connection under us.
        for _ in 0..1500 {
            if dribbler.write_all(b"{").is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    // Let a worker pick the dribbler up and enter its read loop.
    std::thread::sleep(Duration::from_millis(200));
    let reply = flexer_serve::client::roundtrip(addr, r#"{"op":"shutdown"}"#).unwrap();
    assert_ok(&reply);
    // Liveness, not latency: the server must come down while the
    // client is still dribbling. `JoinHandle` has no timed join, so
    // relay through a channel.
    let (tx, rx) = std::sync::mpsc::channel();
    let joiner = std::thread::spawn(move || {
        handle.join().expect("server thread");
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("a dribbling client stalled graceful shutdown");
    joiner.join().unwrap();
    dribble.join().unwrap();
}

#[test]
fn post_error_drain_is_bounded_by_bytes_not_just_time() {
    // After an oversized line the server drains leftover input so its
    // error reply beats the connection reset. Pre-fix that drain was
    // bounded only by time, so for its whole 500 ms window a flooding
    // client could pump data through the worker at loopback speed
    // (hundreds of megabytes). Post-fix the drain also stops after
    // 64 KiB, so the flood hits a closed socket almost immediately.
    let (addr, handle) = boot(ServerConfig::default());
    let mut c = std::net::TcpStream::connect(addr).unwrap();
    {
        use std::io::Write;
        let oversized = vec![b'x'; flexer_serve::MAX_LINE_BYTES + 16];
        c.write_all(&oversized).unwrap();
    }
    // Flood without ever reading, counting what the server accepts.
    c.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
    let chunk = vec![b'y'; 64 * 1024];
    let mut sent = 0usize;
    for _ in 0..4096 {
        use std::io::Write;
        match c.write(&chunk) {
            Ok(n) => sent += n,
            Err(_) => break, // server stopped reading / closed
        }
    }
    // Generous allowance for socket and BufReader buffering on top of
    // the 64 KiB drain bound; the pre-fix behavior exceeds this by two
    // orders of magnitude.
    assert!(
        sent < 32 * 1024 * 1024,
        "drain swallowed {sent} bytes; it must be byte-bounded"
    );
    // The typed error reply still arrived ahead of the close.
    let mut reader = std::io::BufReader::new(&c);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert_error(line.trim_end(), "parse");
    drop(c);
    shutdown_and_join(addr, handle);
}

#[test]
fn huge_deadlines_are_unbounded_not_worker_killing() {
    // `deadline_ms` values near u64::MAX used to risk an
    // `Instant + Duration` overflow panic inside the worker; each such
    // request would kill a worker and shrink the pool until the server
    // hung. They must be served as plain unbounded requests.
    let (addr, handle) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr).unwrap();
    for deadline in ["18446744073709551615", "4611686018427387904"] {
        let line = format!(
            r#"{{"op":"schedule","layers":[{{"in_channels":16,"height":14,"width":14,"out_channels":16}}],"deadline_ms":{deadline}}}"#
        );
        let j = assert_ok(&c.roundtrip(&line).unwrap());
        assert!(j.get("latency").and_then(Json::as_num).unwrap() > 0.0);
    }
    // With a single worker, survival of further requests proves no
    // worker died along the way.
    assert_ok(&c.roundtrip(r#"{"op":"health"}"#).unwrap());
    // Free the single worker before asking it to serve the shutdown.
    drop(c);
    shutdown_and_join(addr, handle);
}

#[test]
fn panicking_request_gets_a_typed_internal_error_and_spares_the_worker() {
    // The worker wraps request execution in a panic guard; any panic
    // must surface as a typed `internal` error on the wire with the
    // worker (and its connection loop) still alive. There is no known
    // panicking request — this pins the guard via the response
    // contract: whatever happens, a line comes back and the connection
    // keeps working. (The chaos harness leans on the same guarantee.)
    let (addr, handle) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr).unwrap();
    // A pathological-but-valid request mix on the single worker.
    assert_error(
        &c.roundtrip(r#"{"op":"schedule","layers":[]}"#).unwrap(),
        "bad_request",
    );
    let j = assert_ok(&c.roundtrip(r#"{"op":"stats"}"#).unwrap());
    assert_eq!(j.get("workers").and_then(Json::as_num), Some(1.0));
    assert_ok(&c.roundtrip(r#"{"op":"health"}"#).unwrap());
    // Free the single worker before asking it to serve the shutdown.
    drop(c);
    shutdown_and_join(addr, handle);
}

#[test]
fn oversized_line_is_a_typed_parse_error() {
    let (addr, handle) = boot(ServerConfig::default());
    let mut c = Client::connect(addr).unwrap();
    let huge = format!(
        "{{\"op\":\"health\",\"id\":\"{}\"}}",
        "x".repeat(flexer_serve::MAX_LINE_BYTES + 16)
    );
    c.send(&huge).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_error(&c.recv().unwrap(), "parse");
    shutdown_and_join(addr, handle);
}
