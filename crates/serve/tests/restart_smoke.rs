//! Kill-and-restart smoke for the real daemon binary: a `flexer-serve`
//! process is hard-killed mid-request, restarted on the same store
//! directory, and must answer the pre-kill requests byte-identically
//! (modulo the store-provenance markers that legitimately flip from
//! `miss` to `hit`) — the serve-layer extension of
//! `tests/store_warmstart.rs`.

use flexer_serve::client::{roundtrip, Client};
use flexer_trace::json::{parse, Json};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

static DIR_ID: AtomicU32 = AtomicU32::new(0);

/// A scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "fxs-restart-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A daemon child process killed on drop, so a failing test never
/// leaks a live server.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the real `flexer-serve` binary on a free port with the given
/// store directory and waits until it is accepting requests.
fn spawn_daemon(store: &Path, scratch: &Path, gen: u32) -> Daemon {
    let port_file = scratch.join(format!("port-{gen}"));
    let child = Command::new(env!("CARGO_BIN_EXE_flexer-serve"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(&port_file)
        .arg("--store")
        .arg(store)
        .arg("--workers")
        .arg("2")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn flexer-serve");

    let deadline = Instant::now() + Duration::from_secs(30);
    let port: u16 = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse() {
                break port;
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote its port");
        std::thread::sleep(Duration::from_millis(20));
    };
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

    // The port file appears when the listener is bound; one health
    // round-trip proves the worker pool is up too.
    let reply = roundtrip(addr, r#"{"op":"health"}"#).expect("health after boot");
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    Daemon { child, addr }
}

/// The response with store-provenance stripped: per-layer
/// `"store":"hit"|"miss"` markers removed and the `store_hits` /
/// `store_misses` totals zeroed. Everything else — every latency,
/// transfer count, evaluation count, layer name — must be
/// byte-identical between a cold and a warm answer.
fn masked(line: &str) -> String {
    let mut s = line
        .replace(r#","store":"hit""#, "")
        .replace(r#","store":"miss""#, "");
    for key in ["\"store_hits\":", "\"store_misses\":"] {
        if let Some(i) = s.find(key) {
            let start = i + key.len();
            let digits = s[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(s.len(), |d| start + d);
            s.replace_range(start..digits, "0");
        }
    }
    s
}

/// Store entries (`.fxs` files) persisted so far.
fn entries(store: &Path) -> usize {
    std::fs::read_dir(store).map_or(0, |dir| {
        dir.flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "fxs"))
            .count()
    })
}

const REQUESTS: [&str; 3] = [
    r#"{"op":"schedule","id":"r1","layers":[{"name":"a","in_channels":16,"height":14,"width":14,"out_channels":16}]}"#,
    r#"{"op":"schedule","id":"r2","layers":[{"name":"b","in_channels":32,"height":14,"width":14,"out_channels":32}]}"#,
    r#"{"op":"schedule","id":"r3","arch":"arch2","layers":[{"name":"c","in_channels":16,"height":7,"width":7,"out_channels":32}]}"#,
];

#[test]
fn killed_daemon_restarts_warm_and_answers_byte_identically() {
    let scratch = Scratch::new("warm");
    let store = scratch.0.join("store");

    // Generation 1: cold answers, persisted as they complete.
    let daemon = spawn_daemon(&store, &scratch.0, 1);
    let mut c = Client::connect(daemon.addr).unwrap();
    let cold: Vec<String> = REQUESTS
        .iter()
        .map(|r| {
            let line = c.roundtrip(r).unwrap();
            assert!(line.contains(r#""ok":true"#), "{line}");
            line
        })
        .collect();
    for line in &cold {
        let j = parse(line).unwrap();
        assert!(
            j.get("store_misses").and_then(Json::as_num).unwrap() >= 1.0,
            "cold runs must miss: {line}"
        );
    }

    // Hard-kill mid-request: a long schedule is in flight when the
    // process dies. Nothing about this may corrupt the store the next
    // generation warm-starts from (entries land via atomic
    // tmp+fsync+rename; a torn tmp is reaped on reopen). ResNet-50
    // under the default options takes about 4 s in a release build on
    // a 2-core host and persists its first layer within ~20 ms, so
    // killing on that first new entry lands seconds before the reply.
    let cold_entries = entries(&store);
    let mut busy = Client::connect(daemon.addr).unwrap();
    busy.send(r#"{"op":"schedule","network":"resnet50","options":"default","id":"doomed"}"#)
        .unwrap();
    let give_up = Instant::now() + Duration::from_secs(60);
    while entries(&store) == cold_entries {
        assert!(Instant::now() < give_up, "doomed request never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(daemon); // kill(), no drain

    // Whatever the half-dead socket yields, it must not be a completed
    // reply to "doomed" — only connection errors, EOF, or garbage.
    let _ = busy.set_read_timeout(Some(Duration::from_secs(5)));
    if let Ok(leftover) = busy.recv() {
        assert!(
            !(leftover.contains(r#""id":"doomed""#) && leftover.contains(r#""ok":true"#)),
            "a killed daemon cannot have completed the in-flight request: {leftover}"
        );
    }

    // Generation 2: same store directory, fresh process.
    let daemon = spawn_daemon(&store, &scratch.0, 2);
    let mut c = Client::connect(daemon.addr).unwrap();
    for (req, cold_line) in REQUESTS.iter().zip(&cold) {
        let warm_line = c.roundtrip(req).unwrap();
        let j = parse(&warm_line).unwrap();
        assert!(
            j.get("store_hits").and_then(Json::as_num).unwrap() >= 1.0,
            "warm runs must hit the persisted store: {warm_line}"
        );
        assert_eq!(
            masked(cold_line),
            masked(&warm_line),
            "warm answer differs from pre-kill answer"
        );
    }

    // The warm store really was read from disk: stats agree.
    let j = parse(&c.roundtrip(r#"{"op":"stats"}"#).unwrap()).unwrap();
    let store_stats = j.get("store").expect("store block");
    assert!(store_stats.get("hits").and_then(Json::as_num).unwrap() >= 3.0);
    assert!(store_stats.get("entries").and_then(Json::as_num).unwrap() >= 3.0);

    // Generation 2 dies gracefully, flushing the store.
    drop(c);
    let reply = roundtrip(daemon.addr, r#"{"op":"shutdown"}"#).unwrap();
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exit");
    assert!(status.success(), "graceful exit after restart: {status}");
}
