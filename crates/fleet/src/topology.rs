//! Fleet topology files: which daemons exist, where they listen, and
//! how much RAM each may spend.
//!
//! A topology is a small TOML document in the obvious subset — top-level
//! `key = value` pairs plus `[[node]]` tables with string/integer
//! values, full-line `#` comments — deliberately tiny so the repo
//! stays dependency-free.
//!
//! ```toml
//! # ring + replication parameters (all optional)
//! vnodes = 64
//! replicas = 2
//!
//! [[node]]
//! name = "n1"
//! addr = "127.0.0.1:7001"
//! store_dir = "/var/lib/flexer/n1"
//! role = "leader"
//!
//! [[node]]
//! name = "n2"
//! addr = "127.0.0.1:7002"
//! store_dir = "/var/lib/flexer/n2"
//! role = "follower"
//! store_capacity = 67108864
//! workers = 2
//! ```
//!
//! Roles are *memory dials*, not a consensus protocol: a leader
//! defaults to a big store and a wide worker pool, a follower to a
//! small LRU-bounded store and a narrow pool, and every explicit
//! `store_capacity`/`workers`/`queue` overrides its role's default.
//! Content-addressed entries make any replica's answer byte-identical,
//! so a follower that evicted an entry simply recomputes or fails over
//! — degradation, never divergence.

use crate::ring::{DEFAULT_SEED, DEFAULT_VNODES};
use flexer_store::DEFAULT_CAPACITY_BYTES;
use std::path::{Path, PathBuf};

/// A fleet member's memory role — a preset for the RAM dials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Big store, wide worker pool: the node peers shed to.
    Leader,
    /// Small LRU-bounded store, narrow pool. The default.
    #[default]
    Follower,
}

impl Role {
    /// The wire/topology name.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Role::Leader => "leader",
            Role::Follower => "follower",
        }
    }
}

/// One member daemon of the fleet.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Human-readable member name (unique; used for logs, `--node-name`
    /// and per-node directories).
    pub name: String,
    /// Listen address, `host:port`. Port `0` lets the daemon pick; the
    /// supervisor then learns the concrete port from the port file.
    pub addr: String,
    /// Persistent store directory for this member.
    pub store_dir: PathBuf,
    /// Memory role selecting the default RAM dials.
    pub role: Role,
    /// Explicit store capacity in bytes (overrides the role default;
    /// `0` = unbounded).
    pub store_capacity: Option<u64>,
    /// Explicit worker-pool size (overrides the role default).
    pub workers: Option<usize>,
    /// Explicit accept-queue depth (overrides the role default).
    pub queue: Option<usize>,
}

impl NodeSpec {
    /// The store capacity this node runs with: explicit dial, else the
    /// role default (leaders get the full default store, followers a
    /// quarter of it).
    #[must_use]
    pub fn effective_store_capacity(&self) -> u64 {
        self.store_capacity.unwrap_or(match self.role {
            Role::Leader => DEFAULT_CAPACITY_BYTES,
            Role::Follower => DEFAULT_CAPACITY_BYTES / 4,
        })
    }

    /// The worker-pool size this node runs with.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        self.workers.unwrap_or(match self.role {
            Role::Leader => 8,
            Role::Follower => 2,
        })
    }

    /// The accept-queue depth this node runs with.
    #[must_use]
    pub fn effective_queue(&self) -> usize {
        self.queue.unwrap_or(match self.role {
            Role::Leader => 32,
            Role::Follower => 16,
        })
    }
}

/// A parsed, validated fleet topology.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Virtual points per node on the consistent-hash ring.
    pub vnodes: usize,
    /// Ring hash seed (must match the routing clients').
    pub seed: u64,
    /// Entry replication factor for anti-entropy (clamped to the fleet
    /// size when larger).
    pub replicas: usize,
    /// The member daemons.
    pub nodes: Vec<NodeSpec>,
}

impl Topology {
    /// Parses a TOML-subset topology document.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending line or member.
    pub fn parse(text: &str) -> Result<Self, String> {
        let topo = Self::parse_toml_subset(text)?;
        topo.validate()?;
        Ok(topo)
    }

    /// Reads and parses a topology file.
    ///
    /// # Errors
    ///
    /// The read failure or the parse failure, with the path named.
    pub fn from_file(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read topology {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The replication factor bounded by the fleet size.
    #[must_use]
    pub fn effective_replicas(&self) -> usize {
        self.replicas.clamp(1, self.nodes.len().max(1))
    }

    fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("topology has no [[node]] entries".into());
        }
        if self.vnodes == 0 {
            return Err("vnodes must be at least 1".into());
        }
        if self.replicas == 0 {
            return Err("replicas must be at least 1".into());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.name.is_empty() {
                return Err(format!("node[{i}] has an empty name"));
            }
            if !node.addr.contains(':') {
                return Err(format!(
                    "node {:?} addr {:?} is not host:port",
                    node.name, node.addr
                ));
            }
            if node.store_dir.as_os_str().is_empty() {
                return Err(format!("node {:?} has an empty store_dir", node.name));
            }
            for other in &self.nodes[..i] {
                if other.name == node.name {
                    return Err(format!("duplicate node name {:?}", node.name));
                }
                if other.addr == node.addr {
                    return Err(format!("duplicate node addr {:?}", node.addr));
                }
                if other.store_dir == node.store_dir {
                    return Err(format!(
                        "nodes {:?} and {:?} share store_dir {}",
                        other.name,
                        node.name,
                        node.store_dir.display()
                    ));
                }
            }
        }
        Ok(())
    }

    fn parse_toml_subset(text: &str) -> Result<Self, String> {
        let mut topo = Self::empty();
        let mut in_node = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let at = |msg: String| format!("line {}: {msg}", lineno + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[node]]" {
                topo.nodes.push(NodeSpec {
                    name: String::new(),
                    addr: String::new(),
                    store_dir: PathBuf::new(),
                    role: Role::default(),
                    store_capacity: None,
                    workers: None,
                    queue: None,
                });
                in_node = true;
                continue;
            }
            if line.starts_with('[') {
                return Err(at(format!(
                    "unsupported table {line:?} (only [[node]] exists)"
                )));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected key = value, got {line:?}")))?;
            let key = key.trim();
            let value = value.trim();
            let string = || -> Result<String, String> {
                let inner = value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| at(format!("{key} must be a quoted string")))?;
                if inner.contains(['"', '\\']) {
                    return Err(at(format!("{key}: escapes are not supported")));
                }
                Ok(inner.to_string())
            };
            let int = || -> Result<u64, String> {
                value.parse::<u64>().map_err(|e| at(format!("{key}: {e}")))
            };
            if !in_node {
                match key {
                    "vnodes" => topo.vnodes = int()? as usize,
                    "seed" => topo.seed = int()?,
                    "replicas" => topo.replicas = int()? as usize,
                    other => return Err(at(format!("unknown fleet key {other:?}"))),
                }
                continue;
            }
            let node = topo.nodes.last_mut().expect("in_node implies a node");
            match key {
                "name" => node.name = string()?,
                "addr" => node.addr = string()?,
                "store_dir" => node.store_dir = PathBuf::from(string()?),
                "role" => node.role = role_from(&string()?).map_err(at)?,
                "store_capacity" => node.store_capacity = Some(int()?),
                "workers" => node.workers = Some(int()? as usize),
                "queue" => node.queue = Some(int()? as usize),
                other => return Err(at(format!("unknown node key {other:?}"))),
            }
        }
        Ok(topo)
    }

    fn empty() -> Self {
        Self {
            vnodes: DEFAULT_VNODES,
            seed: DEFAULT_SEED,
            replicas: 2,
            nodes: Vec::new(),
        }
    }
}

fn role_from(s: &str) -> Result<Role, String> {
    match s {
        "leader" => Ok(Role::Leader),
        "follower" => Ok(Role::Follower),
        other => Err(format!(
            "unknown role {other:?} (expected \"leader\" or \"follower\")"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML: &str = r#"
# three-member quickstart
replicas = 2

[[node]]
name = "n1"
addr = "127.0.0.1:7001"
store_dir = "/tmp/fleet/n1"
role = "leader"

[[node]]
name = "n2"
addr = "127.0.0.1:7002"
store_dir = "/tmp/fleet/n2"
workers = 3

[[node]]
name = "n3"
addr = "127.0.0.1:7003"
store_dir = "/tmp/fleet/n3"
store_capacity = 1048576
"#;

    #[test]
    fn toml_subset_parses_with_role_defaults() {
        let topo = Topology::parse(TOML).unwrap();
        assert_eq!(topo.vnodes, DEFAULT_VNODES);
        assert_eq!(topo.seed, DEFAULT_SEED);
        assert_eq!(topo.replicas, 2);
        assert_eq!(topo.nodes.len(), 3);
        let n1 = &topo.nodes[0];
        assert_eq!((n1.name.as_str(), n1.role), ("n1", Role::Leader));
        assert_eq!(n1.effective_store_capacity(), DEFAULT_CAPACITY_BYTES);
        assert_eq!((n1.effective_workers(), n1.effective_queue()), (8, 32));
        let n2 = &topo.nodes[1];
        assert_eq!(n2.role, Role::Follower, "role defaults to follower");
        assert_eq!(n2.effective_workers(), 3, "explicit dial wins");
        assert_eq!(n2.effective_store_capacity(), DEFAULT_CAPACITY_BYTES / 4);
        assert_eq!(topo.nodes[2].effective_store_capacity(), 1048576);
    }

    #[test]
    fn validation_rejects_broken_topologies() {
        for (doc, needle) in [
            ("", "no [[node]]"),
            ("[[node]]\nname = \"a\"\naddr = \"x\"\nstore_dir = \"/tmp/a\"", "host:port"),
            (
                "[[node]]\nname = \"a\"\naddr = \"h:1\"\nstore_dir = \"/tmp/a\"\n[[node]]\nname = \"a\"\naddr = \"h:2\"\nstore_dir = \"/tmp/b\"",
                "duplicate node name",
            ),
            (
                "[[node]]\nname = \"a\"\naddr = \"h:1\"\nstore_dir = \"/tmp/a\"\n[[node]]\nname = \"b\"\naddr = \"h:1\"\nstore_dir = \"/tmp/b\"",
                "duplicate node addr",
            ),
            (
                "[[node]]\nname = \"a\"\naddr = \"h:1\"\nstore_dir = \"/tmp/s\"\n[[node]]\nname = \"b\"\naddr = \"h:2\"\nstore_dir = \"/tmp/s\"",
                "share store_dir",
            ),
            ("replicas = 0\n[[node]]\nname = \"a\"\naddr = \"h:1\"\nstore_dir = \"/tmp/a\"", "replicas"),
            ("bogus = 1", "unknown fleet key"),
            ("[[node]]\nrole = \"king\"\nname = \"a\"\naddr = \"h:1\"\nstore_dir = \"/t\"", "unknown role"),
            ("[table]", "unsupported table"),
            ("just words", "key = value"),
        ] {
            let err = Topology::parse(doc).unwrap_err();
            assert!(err.contains(needle), "doc {doc:?} → {err}");
        }
    }

    #[test]
    fn router_ring_respects_topology_params() {
        let mut topo = Topology::parse(TOML).unwrap();
        topo.vnodes = 8;
        topo.seed = 42;
        let addrs = ["127.0.0.1:9001", "127.0.0.1:9002"];
        // The construction the fleet binary and the smoke run use.
        let router = crate::Router::with_ring_params(&addrs, topo.vnodes, topo.seed);
        let ring = router.ring();
        let manual = crate::HashRing::with_params(&addrs, 8, 42);
        for k in 0..64u128 {
            assert_eq!(ring.owner_of(k), manual.owner_of(k));
        }
        assert_eq!(topo.effective_replicas(), 2);
        topo.replicas = 99;
        assert_eq!(topo.effective_replicas(), 3, "clamped to fleet size");
    }
}
