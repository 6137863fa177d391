//! In-process three-node fleet: fingerprint routing, answers
//! byte-identical to a standalone node, anti-entropy to replica parity,
//! and byte-identical answers from every replica.

use flexer_fleet::{replica_parity, route_fingerprint, sync_pass, Router};
use flexer_serve::client::roundtrip;
use flexer_serve::{mask_provenance, parse_request, request_shutdown, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("flexer-fleet-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Boots `n` in-process members with stores under `scratch`; returns
/// their addresses and the join handles that finish on shutdown.
fn boot(scratch: &Scratch, n: usize) -> (Vec<SocketAddr>, Vec<std::thread::JoinHandle<()>>) {
    let mut addrs = Vec::new();
    let mut joins = Vec::new();
    for i in 0..n {
        let server = Server::bind(ServerConfig {
            store_dir: Some(scratch.0.join(format!("n{i}-store"))),
            workers: 2,
            queue: 8,
            node_name: Some(format!("n{i}")),
            ..ServerConfig::default()
        })
        .unwrap();
        addrs.push(server.local_addr());
        joins.push(std::thread::spawn(move || server.run().unwrap()));
    }
    (addrs, joins)
}

fn schedule_line(channels: usize) -> String {
    format!(
        r#"{{"op":"schedule","layers":[{{"in_channels":{channels},"height":14,"width":14,"out_channels":{channels}}}]}}"#
    )
}

#[test]
fn routed_fleet_replicates_and_answers_byte_identically() {
    let scratch = Scratch::new("roundtrip");
    // Three ring members, plus one standalone node outside the ring that
    // answers the same requests alone.
    let (addrs, joins) = boot(&scratch, 4);
    let solo = addrs[3];
    let members: Vec<String> = addrs[..3].iter().map(ToString::to_string).collect();
    let router = Router::new(&members).retries(1);
    let owner_of = |line: &str| {
        let fp = route_fingerprint(&parse_request(line).unwrap()).unwrap();
        router.ring().owner(fp).unwrap().to_owned()
    };

    // Six shapes spanning at least two ring owners. The ring hashes
    // member addresses, which are ephemeral ports, so the sixth shape is
    // the first wider one whose owner differs from the first shape's.
    let mut lines: Vec<String> = (0..5).map(|i| schedule_line(4 + 2 * i)).collect();
    let first_owner = owner_of(&lines[0]);
    let sixth = (14..=256)
        .step_by(2)
        .map(schedule_line)
        .find(|line| owner_of(line) != first_owner)
        .expect("some shape maps to a second owner");
    lines.push(sixth);

    // Cold pass: every request lands on its ring owner, and its answer
    // matches the standalone node's once provenance is masked.
    let mut cold: Vec<(String, String)> = Vec::new();
    let mut owners: Vec<String> = Vec::new();
    for line in &lines {
        let routed = router.dispatch(line).unwrap();
        assert_eq!(
            routed.node,
            owner_of(line),
            "request routed to its ring owner"
        );
        assert_eq!(routed.failovers, 0, "all members alive, no failover");
        let masked = mask_provenance(&routed.response);
        assert_eq!(
            mask_provenance(&roundtrip(solo, line).unwrap()),
            masked,
            "the 3-node fleet and the standalone node diverged on {line}"
        );
        owners.push(routed.node);
        cold.push((line.clone(), masked));
    }
    owners.sort();
    owners.dedup();
    assert!(owners.len() >= 2, "the shapes span two shards: {owners:?}");

    // Anti-entropy: every entry reaches its 2-replica set, verified by
    // parity, and the fleet holds exactly the entries it computed.
    let report = sync_pass(&router, 2).unwrap();
    assert!(report.unreachable.is_empty());
    assert_eq!(report.entries, lines.len(), "one store entry per shape");
    assert!(report.copied >= 1, "at least one entry needed a replica");
    assert_eq!(report.rejected, 0, "healthy entries are never rejected");
    assert!(replica_parity(&router, 2).unwrap().is_empty());

    // Full replication: at factor 3 every member holds every entry.
    let report = sync_pass(&router, 3).unwrap();
    assert!(report.unreachable.is_empty());
    assert_eq!(report.rejected, 0, "healthy entries are never rejected");
    assert!(replica_parity(&router, 3).unwrap().is_empty());

    // Any replica answers byte-identically (masked) — ask every member
    // directly, not through the router.
    for (line, want) in &cold {
        for member in &members {
            let response = roundtrip(member.as_str(), line).unwrap();
            assert_eq!(
                &mask_provenance(&response),
                want,
                "{member} diverged on {line}"
            );
        }
    }

    for addr in &addrs {
        request_shutdown(*addr).unwrap();
    }
    for join in joins {
        join.join().unwrap();
    }
}
