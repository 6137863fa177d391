//! Off-chip traffic accounting.

use flexer_tiling::{TileId, TileKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Traffic classification by data type (paper Figure 10's colors).
///
/// Output tiles appear in two classes: spills and reloads of
/// not-yet-final accumulator tiles are *partial-sum* traffic, while the
/// mandatory store of a finished tile is *output* traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Input activation loads.
    Input,
    /// Weight loads.
    Weight,
    /// Partial-sum spills and reloads.
    Psum,
    /// Final output stores.
    Output,
}

impl TrafficClass {
    /// All classes in display order.
    #[must_use]
    pub const fn all() -> [TrafficClass; 4] {
        [
            TrafficClass::Input,
            TrafficClass::Weight,
            TrafficClass::Psum,
            TrafficClass::Output,
        ]
    }

    const fn index(self) -> usize {
        match self {
            TrafficClass::Input => 0,
            TrafficClass::Weight => 1,
            TrafficClass::Psum => 2,
            TrafficClass::Output => 3,
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::Input => "IN",
            TrafficClass::Weight => "WT",
            TrafficClass::Psum => "PS",
            TrafficClass::Output => "OT",
        };
        f.write_str(s)
    }
}

/// Accumulated off-chip traffic of one schedule, split by class, with
/// per-tile load counts for the reload analysis of Figure 10.
///
/// # Examples
///
/// ```
/// use flexer_sim::{TrafficClass, TrafficStats};
/// use flexer_tiling::{TileId, TileKind};
///
/// let mut t = TrafficStats::default();
/// let tile = TileId::Weight { k: 0, c: 0 };
/// t.record_load(TrafficClass::Weight, tile, 128);
/// t.record_load(TrafficClass::Weight, tile, 128);
/// t.record_store(TrafficClass::Output, 64);
/// assert_eq!(t.total_bytes(), 320);
/// assert_eq!(t.class_bytes(TrafficClass::Weight), 256);
/// assert_eq!(t.max_loads(TileKind::Weight), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    bytes: [u64; 4],
    transfers: [u64; 4],
    loads_per_tile: BTreeMap<TileId, u32>,
}

impl TrafficStats {
    /// Records a DRAM-to-SPM load of `bytes` for `tile`.
    pub fn record_load(&mut self, class: TrafficClass, tile: TileId, bytes: u64) {
        self.bytes[class.index()] += bytes;
        self.transfers[class.index()] += 1;
        *self.loads_per_tile.entry(tile).or_default() += 1;
    }

    /// Records an SPM-to-DRAM store (spill write-back or final output
    /// store) of `bytes`.
    pub fn record_store(&mut self, class: TrafficClass, bytes: u64) {
        self.bytes[class.index()] += bytes;
        self.transfers[class.index()] += 1;
    }

    /// Total transferred bytes over all classes — the paper's
    /// `data_transfer_size`.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Transferred bytes of one class.
    #[must_use]
    pub const fn class_bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Number of DMA transfers of one class.
    #[must_use]
    pub const fn class_transfers(&self, class: TrafficClass) -> u64 {
        self.transfers[class.index()]
    }

    /// Per-tile load counts (1 = loaded once, >1 = reloaded).
    #[must_use]
    pub fn loads_per_tile(&self) -> &BTreeMap<TileId, u32> {
        &self.loads_per_tile
    }

    /// The maximum load count over tiles of `kind` (0 if none loaded).
    #[must_use]
    pub fn max_loads(&self, kind: TileKind) -> u32 {
        self.loads_per_tile
            .iter()
            .filter(|(t, _)| t.kind() == kind)
            .map(|(_, &n)| n)
            .max()
            .unwrap_or(0)
    }

    /// Whether tiles of `kind` show *reload variation* — different
    /// tiles loaded a different number of times. Loop-order schedules
    /// never do ("all tiles of a given type are reloaded the same
    /// number of times", §5); OoO schedules typically do.
    #[must_use]
    pub fn has_reload_variation(&self, kind: TileKind) -> bool {
        let mut counts = self
            .loads_per_tile
            .iter()
            .filter(|(t, _)| t.kind() == kind)
            .map(|(_, &n)| n);
        match counts.next() {
            None => false,
            Some(first) => counts.any(|n| n != first),
        }
    }

    pub(crate) fn encode_wire(&self, w: &mut crate::wire::WireWriter) {
        for &b in &self.bytes {
            w.u64(b);
        }
        for &t in &self.transfers {
            w.u64(t);
        }
        w.usize(self.loads_per_tile.len());
        // BTreeMap iteration is key-ordered, so the encoding is
        // canonical for a given value.
        for (&tile, &count) in &self.loads_per_tile {
            crate::wire::encode_tile_id(w, tile);
            w.u32(count);
        }
    }

    pub(crate) fn decode_wire(
        r: &mut crate::wire::WireReader<'_>,
    ) -> Result<Self, crate::wire::WireError> {
        let mut out = TrafficStats::default();
        for b in &mut out.bytes {
            *b = r.u64()?;
        }
        for t in &mut out.transfers {
            *t = r.u64()?;
        }
        let n = r.usize()?;
        for _ in 0..n {
            let tile = crate::wire::decode_tile_id(r)?;
            let count = r.u32()?;
            out.loads_per_tile.insert(tile, count);
        }
        Ok(out)
    }
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IN {} B, WT {} B, PS {} B, OT {} B (total {} B)",
            self.class_bytes(TrafficClass::Input),
            self.class_bytes(TrafficClass::Weight),
            self.class_bytes(TrafficClass::Psum),
            self.class_bytes(TrafficClass::Output),
            self.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_tile(n: u32) -> TileId {
        TileId::Input { c: n, s: 0 }
    }

    #[test]
    fn totals_sum_classes() {
        let mut t = TrafficStats::default();
        t.record_load(TrafficClass::Input, in_tile(0), 10);
        t.record_store(TrafficClass::Psum, 20);
        t.record_store(TrafficClass::Output, 30);
        assert_eq!(t.total_bytes(), 60);
        assert_eq!(t.class_bytes(TrafficClass::Input), 10);
        assert_eq!(t.class_bytes(TrafficClass::Weight), 0);
        assert_eq!(t.class_transfers(TrafficClass::Psum), 1);
    }

    #[test]
    fn reload_counting() {
        let mut t = TrafficStats::default();
        t.record_load(TrafficClass::Input, in_tile(0), 10);
        t.record_load(TrafficClass::Input, in_tile(0), 10);
        t.record_load(TrafficClass::Input, in_tile(1), 10);
        assert_eq!(t.max_loads(TileKind::Input), 2);
        assert_eq!(t.max_loads(TileKind::Weight), 0);
    }

    #[test]
    fn reload_variation_detection() {
        let mut t = TrafficStats::default();
        t.record_load(TrafficClass::Input, in_tile(0), 10);
        t.record_load(TrafficClass::Input, in_tile(1), 10);
        assert!(!t.has_reload_variation(TileKind::Input));
        t.record_load(TrafficClass::Input, in_tile(1), 10);
        assert!(t.has_reload_variation(TileKind::Input));
        assert!(!t.has_reload_variation(TileKind::Output));
    }

    #[test]
    fn display_lists_all_classes() {
        let t = TrafficStats::default();
        let s = t.to_string();
        for c in ["IN", "WT", "PS", "OT"] {
            assert!(s.contains(c), "{s}");
        }
    }
}
