//! Fingerprint routing with ring-successor failover.
//!
//! The router turns a fleet member list into one logical endpoint:
//! each scheduling request is hashed to its owning shard (the store
//! fingerprint of the request's first layer — for the single-layer
//! requests replication tests lean on, the routed node *is* the ring
//! owner of the request's store entry), and on connect/timeout errors
//! the request walks the key's ring successors with bounded per-node
//! retries and linear backoff. Because schedules are deterministic and
//! stats provenance is maskable ([`flexer_serve::mask_provenance`]),
//! any node's answer is as good as the owner's — failover trades only
//! warm-store locality, never correctness.
//!
//! Every request the protocol defines is idempotent except `shutdown`,
//! so retrying after a transport error is safe; `shutdown` is never
//! retried or failed over.

use crate::ring::HashRing;
use flexer_arch::ArchConfig;
use flexer_sched::{SchedulerKind, SearchOptions};
use flexer_serve::client::roundtrip;
use flexer_serve::{parse_request, Op, OptionsName, Request};
use flexer_store::{fingerprint, Fingerprint};
use std::io;
use std::time::Duration;

/// One successfully routed request.
#[derive(Debug)]
pub struct Routed {
    /// The serialized response line.
    pub response: String,
    /// The member that answered.
    pub node: String,
    /// Total connection attempts spent (1 = first try worked).
    pub attempts: u32,
    /// How many nodes were skipped before one answered (0 = the
    /// preferred node answered).
    pub failovers: usize,
}

/// The store fingerprint a request routes by: its first layer under
/// the request's `(arch, options)` and the OoO scheduler kind — the
/// same address `flexer-serve` reads and writes for that layer, so
/// routing by it sends every request to the shard that owns its warm
/// entry. `None` for ops that carry no network (health, stats,
/// `store_*`, shutdown).
#[must_use]
pub fn route_fingerprint(req: &Request) -> Option<Fingerprint> {
    let layer = req.network.as_ref()?.layers().first()?;
    let arch = ArchConfig::preset(req.arch);
    let opts = match req.options {
        OptionsName::Quick => SearchOptions::quick(),
        OptionsName::Default => SearchOptions::default(),
    };
    Some(fingerprint(layer, &arch, &opts, SchedulerKind::Ooo))
}

/// Round-trips `line` to one address, retrying transport failures up
/// to `attempts` total tries with linear backoff (`backoff`, then
/// `2*backoff`, …) between tries. Typed server errors are *responses*,
/// not transport failures — they come back as `Ok` and are never
/// retried here.
///
/// # Errors
///
/// The last transport error once all attempts are spent.
pub fn roundtrip_retrying(
    addr: &str,
    line: &str,
    attempts: u32,
    backoff: Duration,
) -> io::Result<(String, u32)> {
    let attempts = attempts.max(1);
    let mut last = None;
    for attempt in 1..=attempts {
        match roundtrip(addr, line) {
            Ok(response) => return Ok((response, attempt)),
            Err(e) => last = Some(e),
        }
        if attempt < attempts && !backoff.is_zero() {
            std::thread::sleep(backoff * attempt);
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// Routes requests across a fleet member list.
#[derive(Debug, Clone)]
pub struct Router {
    addrs: Vec<String>,
    ring: HashRing,
    retries: u32,
    backoff: Duration,
}

impl Router {
    /// A router over `addrs` with the default ring parameters, 2
    /// per-node retries and 25 ms base backoff.
    #[must_use]
    pub fn new<S: AsRef<str>>(addrs: &[S]) -> Self {
        let ring = HashRing::new(addrs);
        Self {
            addrs: ring.nodes().to_vec(),
            ring,
            retries: 2,
            backoff: Duration::from_millis(25),
        }
    }

    /// A router whose ring uses explicit `vnodes`/`seed` (must match
    /// the fleet's topology).
    #[must_use]
    pub fn with_ring_params<S: AsRef<str>>(addrs: &[S], vnodes: usize, seed: u64) -> Self {
        let ring = HashRing::with_params(addrs, vnodes, seed);
        Self {
            addrs: ring.nodes().to_vec(),
            ring,
            retries: 2,
            backoff: Duration::from_millis(25),
        }
    }

    /// Sets the per-node retry budget (extra attempts after the first;
    /// 0 = single attempt per node).
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the base backoff between same-node attempts.
    #[must_use]
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// The member addresses (deduplicated, insertion order).
    #[must_use]
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// The ring the router places keys on.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The failover chain for one request line: the owner of the
    /// request's route fingerprint first, then its ring successors.
    /// Ops without a routing key (and lines the local parser rejects —
    /// the server's parser is authoritative and such lines are never
    /// executed, so forwarding is safe) walk the member list in order.
    #[must_use]
    pub fn candidates(&self, line: &str) -> Vec<String> {
        match parse_request(line) {
            Ok(req) => match route_fingerprint(&req) {
                Some(fp) => self
                    .ring
                    .successors(fp, self.ring.len())
                    .into_iter()
                    .map(str::to_owned)
                    .collect(),
                None => self.addrs.clone(),
            },
            Err(_) => self.addrs.clone(),
        }
    }

    /// Routes one request line: preferred shard first, ring-successor
    /// failover on transport errors, bounded retries + backoff per
    /// node. `shutdown` is refused — it is the one non-idempotent op,
    /// and draining a whole fleet is the caller's explicit decision
    /// (send it to each member instead).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a `shutdown` line; otherwise the last
    /// transport error after every candidate node failed.
    pub fn dispatch(&self, line: &str) -> io::Result<Routed> {
        if matches!(parse_request(line), Ok(req) if req.op == Op::Shutdown) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shutdown is not idempotent and cannot be routed; \
                 send it to each member explicitly",
            ));
        }
        let candidates = self.candidates(line);
        let mut spent = 0u32;
        let mut last = None;
        for (failovers, addr) in candidates.iter().enumerate() {
            match roundtrip_retrying(addr, line, 1 + self.retries, self.backoff) {
                Ok((response, attempts)) => {
                    return Ok(Routed {
                        response,
                        node: addr.clone(),
                        attempts: spent + attempts,
                        failovers,
                    })
                }
                Err(e) => {
                    spent += 1 + self.retries;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotConnected,
                "router has no member addresses",
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_line() -> String {
        r#"{"op":"schedule","layers":[{"in_channels":16,"height":14,"width":14,"out_channels":16}]}"#
            .to_string()
    }

    #[test]
    fn route_fingerprint_matches_the_store_address() {
        let req = parse_request(&schedule_line()).unwrap();
        let fp = route_fingerprint(&req).unwrap();
        let layer = flexer_model::ConvLayer::new("l0", 16, 14, 14, 16).unwrap();
        let expect = fingerprint(
            &layer,
            &ArchConfig::preset(flexer_arch::ArchPreset::Arch1),
            &SearchOptions::quick(),
            SchedulerKind::Ooo,
        );
        assert_eq!(fp, expect, "routing key is the layer's store address");
        // Health has no network, so no routing key.
        let health = parse_request(r#"{"op":"health"}"#).unwrap();
        assert!(route_fingerprint(&health).is_none());
    }

    #[test]
    fn candidates_walk_ring_successors_owner_first() {
        let router = Router::new(&["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"]);
        let line = schedule_line();
        let candidates = router.candidates(&line);
        assert_eq!(candidates.len(), 3, "full failover chain");
        let req = parse_request(&line).unwrap();
        let fp = route_fingerprint(&req).unwrap();
        assert_eq!(Some(candidates[0].as_str()), router.ring().owner(fp));
        let keyless = router.candidates(r#"{"op":"stats"}"#);
        assert_eq!(keyless, router.addrs());
    }

    #[test]
    fn dispatch_refuses_shutdown_and_reports_dead_fleets() {
        let router = Router::new(&["127.0.0.1:9"])
            .retries(0)
            .backoff(Duration::ZERO);
        let err = router.dispatch(r#"{"op":"shutdown"}"#).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Nothing listens on a reserved port 9 — every candidate fails
        // and the last transport error surfaces.
        assert!(router.dispatch(&schedule_line()).is_err());
    }
}
