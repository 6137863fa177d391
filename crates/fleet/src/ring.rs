//! The consistent-hash ring: deterministic placement of store
//! fingerprints onto fleet nodes.
//!
//! Every node contributes [`DEFAULT_VNODES`] virtual points to a
//! 64-bit hash circle; a fingerprint belongs to the first point at or
//! after its own hash (wrapping). Virtual points smooth the load split
//! and — the property the fleet actually leans on — make membership
//! changes *local*: when a node joins or leaves, only the keys in the
//! arcs it gains or loses move, everything else stays put.
//!
//! The ring is pure data shared by the router, the anti-entropy pass
//! and the supervisor. All of them must agree on placement, so both
//! the point hash and the key hash are pinned FNV-1a-64 constructions
//! seeded with an explicit [`DEFAULT_SEED`]; a golden test pins the
//! placement of known keys so accidental drift breaks loudly.

use flexer_store::Fingerprint;

/// Virtual points each node contributes to the circle.
pub const DEFAULT_VNODES: usize = 64;

/// Seed mixed into every ring hash. Routing clients and fleet members
/// must use the same seed to agree on ownership.
pub const DEFAULT_SEED: u64 = 0xf1ee_7001_5eed_0001;

fn fnv1a_64(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // Raw FNV-1a clusters on short structured inputs (the vnode points
    // differ in a couple of bytes), which skews arc lengths badly; a
    // splitmix64-style finalizer restores uniformity on the circle.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A consistent-hash ring over named nodes (fleet members are named by
/// their `host:port` address so every participant derives the same
/// ring from the same member list).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point hash, node index)` sorted by point hash.
    points: Vec<(u64, usize)>,
    nodes: Vec<String>,
}

impl HashRing {
    /// Builds a ring over `nodes` with the default virtual-node count
    /// and seed.
    #[must_use]
    pub fn new<S: AsRef<str>>(nodes: &[S]) -> Self {
        Self::with_params(nodes, DEFAULT_VNODES, DEFAULT_SEED)
    }

    /// Builds a ring with explicit parameters. `vnodes` is clamped to
    /// at least 1. Duplicate node names are dropped (the first
    /// occurrence wins) so a sloppy member list cannot double-weight a
    /// node.
    #[must_use]
    pub fn with_params<S: AsRef<str>>(nodes: &[S], vnodes: usize, seed: u64) -> Self {
        let vnodes = vnodes.max(1);
        let mut names: Vec<String> = Vec::with_capacity(nodes.len());
        for n in nodes {
            let n = n.as_ref();
            if !names.iter().any(|have| have == n) {
                names.push(n.to_string());
            }
        }
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (idx, name) in names.iter().enumerate() {
            for v in 0..vnodes {
                let h = fnv1a_64(&[
                    &seed.to_le_bytes(),
                    name.as_bytes(),
                    b"#",
                    &(v as u32).to_le_bytes(),
                ]);
                points.push((h, idx));
            }
        }
        // Ties (astronomically unlikely) break by node index so the
        // ring is a pure function of the member list.
        points.sort_unstable();
        Self {
            points,
            nodes: names,
        }
    }

    /// The distinct node names on the ring, in insertion order.
    #[must_use]
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of distinct nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Hashes a raw 128-bit key onto the circle.
    fn key_point(&self, key: u128) -> u64 {
        // Seedless: the seed already perturbed the node points, and
        // hashing the key identically on every participant is what
        // matters. The 16 little-endian key bytes go through the same
        // FNV construction as the points.
        fnv1a_64(&[&key.to_le_bytes()])
    }

    /// The node that owns `key`: the first virtual point at or after
    /// the key's hash, wrapping at the top of the circle. `None` on an
    /// empty ring.
    #[must_use]
    pub fn owner_of(&self, key: u128) -> Option<&str> {
        self.successors_of(key, 1).into_iter().next()
    }

    /// The owner of a store fingerprint.
    #[must_use]
    pub fn owner(&self, fp: Fingerprint) -> Option<&str> {
        self.owner_of(fp.value())
    }

    /// Up to `n` *distinct* nodes in ring order starting at the owner
    /// of `key` — the key's replica set (owner first), and the
    /// failover order a router walks when the owner is unreachable.
    #[must_use]
    fn successors_of(&self, key: u128, n: usize) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::with_capacity(n.min(self.nodes.len()));
        if self.points.is_empty() || n == 0 {
            return out;
        }
        let kh = self.key_point(key);
        let start = self.points.partition_point(|&(h, _)| h < kh);
        for i in 0..self.points.len() {
            let (_, idx) = self.points[(start + i) % self.points.len()];
            let name = self.nodes[idx].as_str();
            if !out.contains(&name) {
                out.push(name);
                if out.len() == n.min(self.nodes.len()) {
                    break;
                }
            }
        }
        out
    }

    /// The replica set of a store fingerprint (owner first).
    #[must_use]
    pub fn successors(&self, fp: Fingerprint, n: usize) -> Vec<&str> {
        self.successors_of(fp.value(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn three() -> HashRing {
        HashRing::new(&["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"])
    }

    #[test]
    fn placement_is_deterministic_and_order_independent() {
        let a = three();
        let b = HashRing::new(&["127.0.0.1:7003", "127.0.0.1:7001", "127.0.0.1:7002"]);
        for key in 0..512u128 {
            let k = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(a.owner_of(k), b.owner_of(k), "key {k}");
            assert_eq!(a.successors_of(k, 2), b.successors_of(k, 2));
        }
    }

    #[test]
    fn successors_are_distinct_owner_first_and_bounded() {
        let ring = three();
        for key in 0..256u128 {
            let k = key.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let succ = ring.successors_of(k, 2);
            assert_eq!(succ.len(), 2);
            assert_ne!(succ[0], succ[1]);
            assert_eq!(Some(succ[0]), ring.owner_of(k));
            // Asking for more replicas than nodes caps at the fleet.
            assert_eq!(ring.successors_of(k, 9).len(), 3);
        }
        assert!(HashRing::new::<&str>(&[]).owner_of(7).is_none());
        assert!(HashRing::new::<&str>(&[]).successors_of(7, 2).is_empty());
    }

    #[test]
    fn virtual_nodes_spread_load_roughly_evenly() {
        let ring = three();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        let total = 3000u128;
        for key in 0..total {
            let k = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef;
            *counts.entry(ring.owner_of(k).unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 3, "every node owns some keys");
        for (&node, &n) in &counts {
            let share = n as f64 / total as f64;
            assert!(
                (0.15..=0.55).contains(&share),
                "{node} owns {share:.2} of keys — vnodes are not spreading"
            );
        }
    }

    #[test]
    fn membership_change_only_moves_the_departed_nodes_keys() {
        let full = three();
        let reduced = HashRing::new(&["127.0.0.1:7001", "127.0.0.1:7002"]);
        for key in 0..2000u128 {
            let k = key.wrapping_mul(0x6c62_272e_07bb_0142);
            let before = full.owner_of(k).unwrap();
            let after = reduced.owner_of(k).unwrap();
            if before != "127.0.0.1:7003" {
                assert_eq!(before, after, "surviving nodes keep their keys");
            }
        }
    }

    #[test]
    fn duplicate_nodes_are_dropped() {
        let ring = HashRing::new(&["a:1", "a:1", "b:2"]);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.nodes(), &["a:1".to_string(), "b:2".to_string()]);
    }

    #[test]
    fn golden_placement_is_pinned() {
        // Drift in the hash construction, the seed, or the vnode count
        // silently splits a mixed-version fleet into disagreeing
        // routers; this pin makes the break loud instead.
        let ring = three();
        let placements: Vec<&str> = (0..8u128)
            .map(|k| {
                ring.owner_of(k.wrapping_mul(0x1234_5678_9abc_def1))
                    .unwrap()
            })
            .collect();
        assert_eq!(
            placements,
            [
                "127.0.0.1:7003",
                "127.0.0.1:7001",
                "127.0.0.1:7003",
                "127.0.0.1:7002",
                "127.0.0.1:7002",
                "127.0.0.1:7001",
                "127.0.0.1:7001",
                "127.0.0.1:7003",
            ]
        );
    }
}
