//! Wall-clock gate on the warm request path. A warm `schedule` is a
//! store read plus about 0.1 ms of engine time, so a serial round trip
//! on one connection should cost well under a millisecond on loopback.
//! A request that reaches the socket in two small writes, with Nagle's
//! algorithm left on, instead waits out the peer's delayed ACK: about
//! 44 ms per round trip on Linux. The 5 ms ceiling sits far above the
//! healthy figure and far below that stall.

use flexer_serve::client::Client;
use flexer_serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WARM: &str = r#"{"op":"schedule","id":"warm","network":"squeezenet"}"#;
const ROUNDS: usize = 50;
const CEILING: Duration = Duration::from_millis(5);

/// A scratch store directory, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn warm_serial_round_trip_median_stays_under_the_ceiling() {
    let store =
        Scratch(std::env::temp_dir().join(format!("fxs-serve-latency-{}", std::process::id())));
    let server = Server::bind(ServerConfig {
        store_dir: Some(store.0.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(600))).unwrap();
    let cold = c.roundtrip(WARM).unwrap();
    assert!(cold.starts_with(r#"{"ok":true"#), "{cold}");

    let mut samples: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            let reply = c.roundtrip(WARM).unwrap();
            let took = start.elapsed();
            assert!(reply.starts_with(r#"{"ok":true"#), "{reply}");
            took
        })
        .collect();
    samples.sort();
    let median = samples[ROUNDS / 2];
    assert!(
        median <= CEILING,
        "warm round-trip median {median:?} exceeds {CEILING:?} (min {:?}, max {:?})",
        samples[0],
        samples[ROUNDS - 1]
    );

    drop(c);
    let bye = flexer_serve::client::roundtrip(addr, r#"{"op":"shutdown"}"#).unwrap();
    assert!(bye.contains(r#""ok":true"#), "{bye}");
    handle.join().expect("server thread");
}
