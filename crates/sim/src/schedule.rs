//! Executable schedule records.

use crate::engine::{Timeline, TimelineError};
use crate::traffic::{TrafficClass, TrafficStats};
use flexer_tiling::{OpId, TileId, TileKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Direction of a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemOpKind {
    /// DRAM to SPM.
    Load,
    /// SPM to DRAM write-back of a dirty evicted tile (spill).
    Spill,
    /// SPM to DRAM store of a finished output tile.
    Store,
}

impl fmt::Display for MemOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemOpKind::Load => "load",
            MemOpKind::Spill => "spill",
            MemOpKind::Store => "store",
        };
        f.write_str(s)
    }
}

/// One timed DMA transfer of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemOp {
    /// Transfer direction/purpose.
    pub kind: MemOpKind,
    /// Traffic class for the Figure-10 breakdown.
    pub class: TrafficClass,
    /// The tile moved.
    pub tile: TileId,
    /// Bytes moved.
    pub bytes: u64,
    /// Start cycle on the DMA channel.
    pub start: u64,
    /// End cycle on the DMA channel.
    pub end: u64,
    /// The compute operation this transfer was issued for, when it is
    /// a load feeding a specific operation.
    pub for_op: Option<OpId>,
    /// `true` for an on-chip residency transfer (a gather of a
    /// resident input tile or a scatter into the resident output
    /// region): the DMA engine is busy for the span but no DRAM bytes
    /// move, so the bytes are counted in the schedule's resident
    /// counters instead of [`TrafficStats`].
    pub resident: bool,
}

/// One timed compute operation of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledOp {
    /// The tiled convolution executed.
    pub op: OpId,
    /// The NPU core it ran on.
    pub core: u32,
    /// Start cycle.
    pub start: u64,
    /// End cycle.
    pub end: u64,
}

/// Inter-NPU data sharing within operation sets (paper Figure 11).
///
/// A *spatial reuse event* is one tile consumed by two or more
/// operations of the same scheduled set — i.e. by several NPUs
/// simultaneously. `events[kind]` counts such tiles, `bytes[kind]`
/// accumulates the traffic avoided (`tile size x (sharers - 1)`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpatialReuseStats {
    events: [u64; 3],
    bytes: [u64; 3],
}

impl SpatialReuseStats {
    const fn index(kind: TileKind) -> usize {
        match kind {
            TileKind::Input => 0,
            TileKind::Weight => 1,
            TileKind::Output => 2,
        }
    }

    /// Records one tile of `kind` and `bytes` shared by `sharers`
    /// operations of a set (`sharers >= 2`).
    pub fn record(&mut self, kind: TileKind, bytes: u64, sharers: u32) {
        debug_assert!(sharers >= 2);
        self.events[Self::index(kind)] += 1;
        self.bytes[Self::index(kind)] += bytes * u64::from(sharers - 1);
    }

    /// Number of sharing events for `kind`.
    #[must_use]
    pub const fn events(&self, kind: TileKind) -> u64 {
        self.events[Self::index(kind)]
    }

    /// Bytes of traffic avoided through sharing of `kind` tiles.
    #[must_use]
    pub const fn bytes(&self, kind: TileKind) -> u64 {
        self.bytes[Self::index(kind)]
    }

    /// Number of distinct tile kinds that were ever shared — loop-order
    /// schedules share exactly one kind (the stationary one), OoO
    /// schedules typically share several (paper Figure 11).
    #[must_use]
    pub fn kinds_shared(&self) -> usize {
        self.events.iter().filter(|&&e| e > 0).count()
    }

    pub(crate) fn encode_wire(&self, w: &mut crate::wire::WireWriter) {
        for &e in &self.events {
            w.u64(e);
        }
        for &b in &self.bytes {
            w.u64(b);
        }
    }

    pub(crate) fn decode_wire(
        r: &mut crate::wire::WireReader<'_>,
    ) -> Result<Self, crate::wire::WireError> {
        let mut out = SpatialReuseStats::default();
        for e in &mut out.events {
            *e = r.u64()?;
        }
        for b in &mut out.bytes {
            *b = r.u64()?;
        }
        Ok(out)
    }
}

/// The executable schedule of one tiled layer: timed compute and
/// memory operations plus aggregate metrics.
///
/// Produced by [`ScheduleBuilder`]; consumed by the search driver (for
/// the `latency x transferred-data` metric of Algorithm 1), the
/// validator and the experiment harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    cores: u32,
    compute: Vec<ScheduledOp>,
    mem_ops: Vec<MemOp>,
    latency: u64,
    core_busy: Vec<u64>,
    traffic: TrafficStats,
    spatial: SpatialReuseStats,
    utilization_sum: f64,
    utilization_samples: u64,
    compaction_cycles: u64,
    compaction_bytes: u64,
    resident_in_bytes: u64,
    resident_in_transfers: u64,
    resident_out_bytes: u64,
    resident_out_transfers: u64,
}

impl Schedule {
    /// Number of NPU cores the schedule targets.
    #[must_use]
    pub const fn cores(&self) -> u32 {
        self.cores
    }

    /// Timed compute operations in issue order.
    #[must_use]
    pub fn compute(&self) -> &[ScheduledOp] {
        &self.compute
    }

    /// Timed memory operations in issue order.
    #[must_use]
    pub fn mem_ops(&self) -> &[MemOp] {
        &self.mem_ops
    }

    /// End-to-end latency in cycles (Algorithm 1 line 26: the end time
    /// of the last operation, across compute and DMA).
    #[must_use]
    pub const fn latency(&self) -> u64 {
        self.latency
    }

    /// Off-chip traffic statistics.
    #[must_use]
    pub const fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Total transferred bytes (the paper's `data_transfer_size`).
    #[must_use]
    pub fn transfer_bytes(&self) -> u64 {
        self.traffic.total_bytes()
    }

    /// Inter-NPU sharing statistics.
    #[must_use]
    pub const fn spatial_reuse(&self) -> &SpatialReuseStats {
        &self.spatial
    }

    /// Busy cycles of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_busy(&self, core: u32) -> u64 {
        self.core_busy[core as usize]
    }

    /// Mean compute utilization over cores: busy cycles divided by
    /// `latency x cores`.
    #[must_use]
    pub fn compute_utilization(&self) -> f64 {
        if self.latency == 0 {
            return 0.0;
        }
        let busy: u64 = self.core_busy.iter().sum();
        busy as f64 / (self.latency as f64 * f64::from(self.cores))
    }

    /// Cycles the DMA engine spent compacting the on-chip buffer
    /// (on-chip copies; not off-chip traffic).
    #[must_use]
    pub const fn compaction_cycles(&self) -> u64 {
        self.compaction_cycles
    }

    /// Bytes moved by on-chip compaction.
    #[must_use]
    pub const fn compaction_bytes(&self) -> u64 {
        self.compaction_bytes
    }

    /// Bytes gathered from the resident input region (on-chip; these
    /// would have been DRAM input loads without residency).
    #[must_use]
    pub const fn resident_in_bytes(&self) -> u64 {
        self.resident_in_bytes
    }

    /// Number of resident input gathers.
    #[must_use]
    pub const fn resident_in_transfers(&self) -> u64 {
        self.resident_in_transfers
    }

    /// Bytes scattered into the resident output region (on-chip; these
    /// would have been DRAM output stores without residency).
    #[must_use]
    pub const fn resident_out_bytes(&self) -> u64 {
        self.resident_out_bytes
    }

    /// Number of resident output scatters.
    #[must_use]
    pub const fn resident_out_transfers(&self) -> u64 {
        self.resident_out_transfers
    }

    /// Test-only: overrides the recorded latency so validator tests
    /// can craft inconsistent schedules the builder cannot produce.
    #[cfg(test)]
    pub(crate) fn set_latency_for_test(&mut self, latency: u64) {
        self.latency = latency;
    }

    pub(crate) fn encode_wire(&self, w: &mut crate::wire::WireWriter) {
        w.u32(self.cores);
        w.usize(self.compute.len());
        for op in &self.compute {
            crate::wire::encode_scheduled_op(w, op);
        }
        w.usize(self.mem_ops.len());
        for op in &self.mem_ops {
            crate::wire::encode_mem_op(w, op);
        }
        w.u64(self.latency);
        w.usize(self.core_busy.len());
        for &busy in &self.core_busy {
            w.u64(busy);
        }
        self.traffic.encode_wire(w);
        self.spatial.encode_wire(w);
        w.f64(self.utilization_sum);
        w.u64(self.utilization_samples);
        w.u64(self.compaction_cycles);
        w.u64(self.compaction_bytes);
        w.u64(self.resident_in_bytes);
        w.u64(self.resident_in_transfers);
        w.u64(self.resident_out_bytes);
        w.u64(self.resident_out_transfers);
    }

    pub(crate) fn decode_wire(
        r: &mut crate::wire::WireReader<'_>,
    ) -> Result<Self, crate::wire::WireError> {
        let cores = r.u32()?;
        let n = r.usize()?;
        let mut compute = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            compute.push(crate::wire::decode_scheduled_op(r)?);
        }
        let n = r.usize()?;
        let mut mem_ops = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            mem_ops.push(crate::wire::decode_mem_op(r)?);
        }
        let latency = r.u64()?;
        let n = r.usize()?;
        let mut core_busy = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            core_busy.push(r.u64()?);
        }
        let traffic = TrafficStats::decode_wire(r)?;
        let spatial = SpatialReuseStats::decode_wire(r)?;
        Ok(Schedule {
            cores,
            compute,
            mem_ops,
            latency,
            core_busy,
            traffic,
            spatial,
            utilization_sum: r.f64()?,
            utilization_samples: r.u64()?,
            compaction_cycles: r.u64()?,
            compaction_bytes: r.u64()?,
            resident_in_bytes: r.u64()?,
            resident_in_transfers: r.u64()?,
            resident_out_bytes: r.u64()?,
            resident_out_transfers: r.u64()?,
        })
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops on {} cores: {} cycles, {} B transferred",
            self.compute.len(),
            self.cores,
            self.latency,
            self.transfer_bytes()
        )
    }
}

/// Incrementally records a schedule while a scheduler makes decisions.
///
/// Owns the resource [`Timeline`]; schedulers ask it for core/DMA
/// availability, then record memory and compute operations, which are
/// timed and accounted automatically.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder {
    timeline: Timeline,
    compute: Vec<ScheduledOp>,
    mem_ops: Vec<MemOp>,
    traffic: TrafficStats,
    spatial: SpatialReuseStats,
    utilization_sum: f64,
    utilization_samples: u64,
    compaction_cycles: u64,
    compaction_bytes: u64,
    resident_in_bytes: u64,
    resident_in_transfers: u64,
    resident_out_bytes: u64,
    resident_out_transfers: u64,
}

impl ScheduleBuilder {
    /// Creates a builder for `cores` NPU cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new(cores: u32) -> Self {
        Self {
            timeline: Timeline::new(cores),
            compute: Vec::new(),
            mem_ops: Vec::new(),
            traffic: TrafficStats::default(),
            spatial: SpatialReuseStats::default(),
            utilization_sum: 0.0,
            utilization_samples: 0,
            compaction_cycles: 0,
            compaction_bytes: 0,
            resident_in_bytes: 0,
            resident_in_transfers: 0,
            resident_out_bytes: 0,
            resident_out_transfers: 0,
        }
    }

    /// The resource timeline (read-only).
    #[must_use]
    pub const fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Total bytes transferred so far. Monotone in the commands
    /// recorded, so a partial schedule's value never exceeds the
    /// finished schedule's — the search layer's early-exit cutoff
    /// relies on this.
    #[must_use]
    pub fn transfer_bytes(&self) -> u64 {
        self.traffic.total_bytes()
    }

    /// Records a memory operation taking `dma_cycles` on the shared
    /// channel; returns its `(start, end)`.
    ///
    /// # Errors
    ///
    /// [`TimelineError`] if the cycle arithmetic overflows.
    pub fn record_mem_op(
        &mut self,
        kind: MemOpKind,
        class: TrafficClass,
        tile: TileId,
        bytes: u64,
        dma_cycles: u64,
        for_op: Option<OpId>,
    ) -> Result<(u64, u64), TimelineError> {
        self.record_mem_op_after(kind, class, tile, bytes, dma_cycles, 0, for_op)
    }

    /// Records a memory operation that may not start before `earliest`
    /// (e.g. a write-back of data still being produced); returns its
    /// `(start, end)`.
    ///
    /// # Errors
    ///
    /// [`TimelineError`] if the cycle arithmetic overflows.
    #[allow(clippy::too_many_arguments)]
    pub fn record_mem_op_after(
        &mut self,
        kind: MemOpKind,
        class: TrafficClass,
        tile: TileId,
        bytes: u64,
        dma_cycles: u64,
        earliest: u64,
        for_op: Option<OpId>,
    ) -> Result<(u64, u64), TimelineError> {
        let (start, end) = self.timeline.issue_dma_after(earliest, dma_cycles)?;
        match kind {
            MemOpKind::Load => self.traffic.record_load(class, tile, bytes),
            MemOpKind::Spill | MemOpKind::Store => self.traffic.record_store(class, bytes),
        }
        self.mem_ops.push(MemOp {
            kind,
            class,
            tile,
            bytes,
            start,
            end,
            for_op,
            resident: false,
        });
        Ok((start, end))
    }

    /// Records an on-chip residency transfer — a gather of a resident
    /// input tile ([`MemOpKind::Load`]) or a scatter into the resident
    /// output region ([`MemOpKind::Store`]) — starting no earlier than
    /// `earliest`. The DMA channel is busy for `dma_cycles` but no
    /// off-chip traffic is accounted: the bytes land in the schedule's
    /// resident counters. Returns the `(start, end)` of the transfer.
    ///
    /// # Errors
    ///
    /// [`TimelineError`] if the cycle arithmetic overflows.
    #[allow(clippy::too_many_arguments)]
    pub fn record_resident_mem_op_after(
        &mut self,
        kind: MemOpKind,
        class: TrafficClass,
        tile: TileId,
        bytes: u64,
        dma_cycles: u64,
        earliest: u64,
        for_op: Option<OpId>,
    ) -> Result<(u64, u64), TimelineError> {
        let (start, end) = self.timeline.issue_dma_after(earliest, dma_cycles)?;
        match kind {
            MemOpKind::Load => {
                self.resident_in_bytes += bytes;
                self.resident_in_transfers += 1;
            }
            MemOpKind::Spill | MemOpKind::Store => {
                self.resident_out_bytes += bytes;
                self.resident_out_transfers += 1;
            }
        }
        self.mem_ops.push(MemOp {
            kind,
            class,
            tile,
            bytes,
            start,
            end,
            for_op,
            resident: true,
        });
        Ok((start, end))
    }

    /// Records a compute operation of `cycles` on `core`, starting no
    /// earlier than `earliest`; returns its `(start, end)`.
    ///
    /// # Errors
    ///
    /// [`TimelineError`] if the cycle arithmetic overflows.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn record_compute(
        &mut self,
        op: OpId,
        core: u32,
        earliest: u64,
        cycles: u64,
    ) -> Result<(u64, u64), TimelineError> {
        let (start, end) = self.timeline.issue_compute(core, earliest, cycles)?;
        self.compute.push(ScheduledOp {
            op,
            core,
            start,
            end,
        });
        Ok((start, end))
    }

    /// Records one tile shared by several operations of the current
    /// set (paper Figure 11).
    pub fn record_shared_tile(&mut self, kind: TileKind, bytes: u64, sharers: u32) {
        self.spatial.record(kind, bytes, sharers);
    }

    /// Records an on-chip compaction: the DMA engine is busy for
    /// `dma_cycles` moving `bytes` within the buffer. No off-chip
    /// traffic is accounted. Returns the `(start, end)` of the copy.
    ///
    /// # Errors
    ///
    /// [`TimelineError`] if the cycle arithmetic overflows; the
    /// compaction totals are left untouched on failure.
    pub fn record_compaction(
        &mut self,
        bytes: u64,
        dma_cycles: u64,
    ) -> Result<(u64, u64), TimelineError> {
        let span = self.timeline.issue_dma(dma_cycles)?;
        self.compaction_cycles += dma_cycles;
        self.compaction_bytes += bytes;
        Ok(span)
    }

    /// Records an SPM utilization sample (one per scheduling step).
    pub fn record_spm_utilization(&mut self, utilization: f64) {
        self.utilization_sum += utilization;
        self.utilization_samples += 1;
    }

    /// Finalizes the schedule.
    #[must_use]
    pub fn finish(self) -> Schedule {
        let cores = self.timeline.cores();
        let core_busy = (0..cores).map(|c| self.timeline.core_busy(c)).collect();
        Schedule {
            cores,
            latency: self.timeline.horizon(),
            compute: self.compute,
            mem_ops: self.mem_ops,
            core_busy,
            traffic: self.traffic,
            spatial: self.spatial,
            utilization_sum: self.utilization_sum,
            utilization_samples: self.utilization_samples,
            compaction_cycles: self.compaction_cycles,
            compaction_bytes: self.compaction_bytes,
            resident_in_bytes: self.resident_in_bytes,
            resident_in_transfers: self.resident_in_transfers,
            resident_out_bytes: self.resident_out_bytes,
            resident_out_transfers: self.resident_out_transfers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_tile() -> TileId {
        TileId::Input { c: 0, s: 0 }
    }

    #[test]
    fn builder_times_and_accounts() {
        let mut b = ScheduleBuilder::new(2);
        let (_, load_end) = b
            .record_mem_op(
                MemOpKind::Load,
                TrafficClass::Input,
                in_tile(),
                100,
                25,
                Some(OpId::new(0)),
            )
            .unwrap();
        let (s0, e0) = b.record_compute(OpId::new(0), 0, load_end, 50).unwrap();
        let (s1, e1) = b.record_compute(OpId::new(1), 1, 0, 10).unwrap();
        let sched = b.finish();
        assert_eq!((s0, e0), (25, 75));
        assert_eq!((s1, e1), (0, 10));
        assert_eq!(sched.latency(), 75);
        assert_eq!(sched.transfer_bytes(), 100);
        assert_eq!(sched.compute().len(), 2);
        assert_eq!(sched.mem_ops().len(), 1);
        assert_eq!(sched.core_busy(0), 50);
        assert_eq!(sched.core_busy(1), 10);
    }

    #[test]
    fn latency_includes_trailing_dma() {
        let mut b = ScheduleBuilder::new(1);
        b.record_compute(OpId::new(0), 0, 0, 10).unwrap();
        b.record_mem_op(
            MemOpKind::Store,
            TrafficClass::Output,
            TileId::Output { k: 0, s: 0 },
            64,
            500,
            None,
        )
        .unwrap();
        assert_eq!(b.finish().latency(), 500);
    }

    #[test]
    fn compute_utilization() {
        let mut b = ScheduleBuilder::new(2);
        b.record_compute(OpId::new(0), 0, 0, 100).unwrap();
        b.record_compute(OpId::new(1), 1, 0, 50).unwrap();
        let sched = b.finish();
        // busy 150 of 2*100 possible.
        assert!((sched.compute_utilization() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn spatial_reuse_recording() {
        let mut b = ScheduleBuilder::new(2);
        b.record_shared_tile(TileKind::Input, 100, 2);
        b.record_shared_tile(TileKind::Input, 50, 3);
        b.record_shared_tile(TileKind::Weight, 10, 2);
        let sched = b.finish();
        let sr = sched.spatial_reuse();
        assert_eq!(sr.events(TileKind::Input), 2);
        assert_eq!(sr.bytes(TileKind::Input), 100 + 100);
        assert_eq!(sr.events(TileKind::Weight), 1);
        assert_eq!(sr.kinds_shared(), 2);
    }

    #[test]
    fn spm_utilization_sampling() {
        let mut b = ScheduleBuilder::new(1);
        b.record_spm_utilization(0.5);
        b.record_spm_utilization(1.0);
        let sched = b.finish();
        assert_eq!(sched.utilization_samples, 2);
        assert!((sched.utilization_sum - 1.5).abs() < 1e-9);
    }

    #[test]
    fn resident_transfers_occupy_dma_without_traffic() {
        let mut b = ScheduleBuilder::new(1);
        b.record_resident_mem_op_after(
            MemOpKind::Load,
            TrafficClass::Input,
            in_tile(),
            100,
            25,
            0,
            Some(OpId::new(0)),
        )
        .unwrap();
        b.record_resident_mem_op_after(
            MemOpKind::Store,
            TrafficClass::Output,
            TileId::Output { k: 0, s: 0 },
            64,
            8,
            0,
            None,
        )
        .unwrap();
        let sched = b.finish();
        // The DMA channel was busy — latency covers both spans — but
        // no off-chip traffic was accounted.
        assert_eq!(sched.latency(), 33);
        assert_eq!(sched.transfer_bytes(), 0);
        assert_eq!(sched.resident_in_bytes(), 100);
        assert_eq!(sched.resident_in_transfers(), 1);
        assert_eq!(sched.resident_out_bytes(), 64);
        assert_eq!(sched.resident_out_transfers(), 1);
        assert!(sched.mem_ops().iter().all(|m| m.resident));
    }

    #[test]
    fn empty_schedule_is_well_formed() {
        let sched = ScheduleBuilder::new(1).finish();
        assert_eq!(sched.latency(), 0);
        assert_eq!(sched.transfer_bytes(), 0);
        assert_eq!(sched.compute_utilization(), 0.0);
        assert_eq!(sched.utilization_samples, 0);
    }

    #[test]
    fn wire_round_trip_is_byte_exact() {
        let mut b = ScheduleBuilder::new(2);
        let (_, load_end) = b
            .record_mem_op(
                MemOpKind::Load,
                TrafficClass::Input,
                in_tile(),
                100,
                25,
                Some(OpId::new(0)),
            )
            .unwrap();
        b.record_compute(OpId::new(0), 0, load_end, 50).unwrap();
        b.record_shared_tile(TileKind::Weight, 32, 2);
        b.record_spm_utilization(0.625);
        b.record_compaction(16, 4).unwrap();
        b.record_resident_mem_op_after(
            MemOpKind::Store,
            TrafficClass::Output,
            TileId::Output { k: 0, s: 0 },
            64,
            8,
            0,
            None,
        )
        .unwrap();
        let sched = b.finish();

        let mut w = crate::wire::WireWriter::new();
        sched.encode_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::wire::WireReader::new(&bytes);
        let back = Schedule::decode_wire(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, sched);

        // Re-encoding the decoded value reproduces the same bytes:
        // the codec is canonical.
        let mut w2 = crate::wire::WireWriter::new();
        back.encode_wire(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn display_summarizes() {
        let mut b = ScheduleBuilder::new(2);
        b.record_compute(OpId::new(0), 0, 0, 10).unwrap();
        let s = b.finish().to_string();
        assert!(s.contains("1 ops"));
        assert!(s.contains("2 cores"));
    }
}
