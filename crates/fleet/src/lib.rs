//! `flexer-fleet`: a consistent-hash sharded scheduling fleet with a
//! replicated warm store.
//!
//! One `flexer-serve` node warms its own store and nothing else. This
//! crate turns N of them into one logical service:
//!
//! - **Ring** ([`ring`]): a consistent-hash ring over store
//!   fingerprints (virtual nodes, deterministic seed). Every component
//!   — router, anti-entropy, supervisor — places keys with the *same*
//!   ring, so "who owns this schedule" has exactly one answer.
//! - **Topology** ([`topology`]): the TOML fleet description the
//!   `flexer-fleet` binary spawns members from, including per-node RAM
//!   dials (leader/follower store capacity and worker-pool size).
//! - **Router** ([`router`]): fingerprint routing with ring-successor
//!   failover and bounded retries — the client layer `flexer-cli
//!   --fleet` uses.
//! - **Sync** ([`sync`]): warm-store replication and anti-entropy over
//!   the NDJSON protocol's `store_manifest`/`store_pull`/`store_push`
//!   ops. Entries are content-addressed (same fingerprint ⇒ same
//!   canonical bytes), so replication is a conflict-free set union and
//!   every ingested entry re-validates through the corrupt-quarantine
//!   path.
//! - **Supervise** ([`supervise`]): spawning, crash-restarting, and
//!   draining member daemons.
//! - **Smoke** ([`smoke`]): the scripted three-node acceptance check
//!   `check.sh` gates on (route-to-owner, kill-one-node failover,
//!   search-free warm start of a freshly joined node).
//!
//! Like the rest of the workspace this is `std`-only: blocking
//! sockets, OS processes, no third-party deps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ring;
pub mod router;
pub mod smoke;
pub mod supervise;
pub mod sync;
pub mod topology;

pub use ring::HashRing;
pub use router::{roundtrip_retrying, route_fingerprint, Routed, Router};
pub use supervise::{Member, Supervisor};
pub use sync::{fetch_manifest, replica_parity, sync_pass, ManifestRow, SyncReport};
pub use topology::{NodeSpec, Role, Topology};
