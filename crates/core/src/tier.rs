//! The driver's in-process result tier: whole search winners, kept as
//! the canonical payload bytes a store entry carries, keyed by the
//! store's content address and bounded in bytes with LRU eviction —
//! the paper's "memory function to remember the best tiling" (§3).

use flexer_store::Fingerprint;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Payload bytes one driver's tier holds at most: about a thousand
/// quick-options winners of roughly 1 KiB each.
const BUDGET_BYTES: usize = 1 << 20;

/// A byte-bounded LRU map from [`Fingerprint`] to encoded
/// [`flexer_sched::LayerSearchResult`] payloads. Internally
/// synchronized; hits hand out a shared reference to the bytes, so
/// decoding happens outside the lock.
#[derive(Debug)]
pub(crate) struct ResultTier {
    budget: usize,
    lru: Mutex<Lru>,
}

#[derive(Debug, Default)]
struct Lru {
    /// Payload bytes held.
    bytes: usize,
    /// Last recency stamp handed out.
    stamp: u64,
    entries: HashMap<Fingerprint, (Arc<[u8]>, u64)>,
    /// Recency stamp → entry, least recently used first.
    order: BTreeMap<u64, Fingerprint>,
}

impl ResultTier {
    /// An empty tier with the driver's byte budget.
    pub(crate) fn new() -> Self {
        Self::with_budget(BUDGET_BYTES)
    }

    fn with_budget(budget: usize) -> Self {
        Self {
            budget,
            lru: Mutex::new(Lru::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.lru.lock().expect("result tier lock poisoned")
    }

    /// The payload held under `fp`, now the most recently used entry.
    pub(crate) fn get(&self, fp: Fingerprint) -> Option<Arc<[u8]>> {
        let mut guard = self.lock();
        let lru = &mut *guard;
        let (payload, stamp) = lru.entries.get_mut(&fp)?;
        lru.order.remove(&*stamp);
        lru.stamp += 1;
        *stamp = lru.stamp;
        lru.order.insert(lru.stamp, fp);
        Some(Arc::clone(payload))
    }

    /// Admits `payload` under `fp` unless an entry already exists
    /// there, evicting least recently used entries to stay within the
    /// budget. A payload larger than the whole budget is not admitted.
    pub(crate) fn insert(&self, fp: Fingerprint, payload: Vec<u8>) {
        if payload.len() > self.budget {
            return;
        }
        let mut guard = self.lock();
        let lru = &mut *guard;
        if lru.entries.contains_key(&fp) {
            return;
        }
        while lru.bytes + payload.len() > self.budget {
            let (_, victim) = lru.order.pop_first().expect("bytes held imply entries");
            let (evicted, _) = lru.entries.remove(&victim).expect("order names entries");
            lru.bytes -= evicted.len();
        }
        lru.bytes += payload.len();
        lru.stamp += 1;
        lru.order.insert(lru.stamp, fp);
        lru.entries.insert(fp, (payload.into(), lru.stamp));
    }

    /// Number of entries held.
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_store::fingerprint_of_key_bytes;

    fn fp(i: u8) -> Fingerprint {
        fingerprint_of_key_bytes(&[i])
    }

    #[test]
    fn stays_within_budget_and_evicts_least_recently_used_first() {
        let tier = ResultTier::with_budget(30);
        for i in 0..3 {
            tier.insert(fp(i), vec![i; 10]);
        }
        assert_eq!(tier.len(), 3);
        // Using entry 0 makes entry 1 the least recently used.
        assert_eq!(tier.get(fp(0)).as_deref(), Some(&[0; 10][..]));
        tier.insert(fp(3), vec![3; 10]);
        assert_eq!(tier.len(), 3);
        assert!(tier.get(fp(1)).is_none(), "LRU entry kept");
        for i in [0, 2, 3] {
            assert!(tier.get(fp(i)).is_some(), "entry {i} evicted");
        }
        // A large entry evicts as many LRU entries as it needs.
        tier.insert(fp(4), vec![4; 25]);
        assert_eq!(tier.len(), 1);
        assert!(tier.lock().bytes <= 30);
        // Larger than the whole budget: not admitted, nothing evicted.
        tier.insert(fp(5), vec![5; 31]);
        assert!(tier.get(fp(5)).is_none());
        assert!(tier.get(fp(4)).is_some());
    }

    #[test]
    fn an_existing_entry_is_never_overwritten() {
        let tier = ResultTier::with_budget(100);
        tier.insert(fp(0), vec![1; 4]);
        tier.insert(fp(0), vec![2; 8]);
        assert_eq!(tier.get(fp(0)).as_deref(), Some(&[1; 4][..]));
        assert_eq!(tier.lock().bytes, 4);
    }
}
