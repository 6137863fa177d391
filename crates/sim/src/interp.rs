//! Program-level abstract machine: executes a lowered command stream
//! against a byte-accurate SPM model and cross-checks it against the
//! analytically built [`Schedule`].
//!
//! The schedulers in `flexer-sched` produce two artifacts per layer:
//! the timed [`Schedule`] (latency, traffic, utilization — what the
//! search optimizes) and a lowered command program with concrete
//! global-buffer addresses (what a sequencer would execute). Nothing
//! in the analytical path guarantees the two agree, and the spill
//! heuristics of paper Algorithm 2 are exactly the kind of imperative
//! bookkeeping that drifts silently. This module closes the loop:
//!
//! * [`interpret_program`] runs the commands one by one on an abstract
//!   machine tracking address-range occupancy, residency, data
//!   validity and dirty bits — rejecting out-of-bounds or overlapping
//!   placements, double placements, uses of absent or uninitialized
//!   data, spills of clean blocks, discards of dirty blocks (data
//!   loss), accumulation onto missing partial sums, executions out of
//!   dependency order, and unsaved dirty data at program end;
//! * [`differential_check`] compares what the interpreter *observed*
//!   (per-class DMA bytes and transfer counts, per-tile load counts,
//!   per-op core placement, compaction volume) against what the
//!   schedule *claims*, flagging any divergence between the two
//!   artifacts.
//!
//! The command vocabulary ([`SpmCommand`]) mirrors the lowered
//! program's: this crate sits below the scheduler, so the scheduler
//! converts its own command type into this one to be verified.

use crate::schedule::Schedule;
use crate::traffic::TrafficClass;
use flexer_tiling::{Dfg, OpId, TileId, TileKind};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// One command of a lowered program, as seen by the abstract machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmCommand {
    /// Fetch a tile from DRAM into the buffer block at `address`.
    Load {
        /// The tile fetched.
        tile: TileId,
        /// Destination block address.
        address: u64,
        /// Transfer size.
        bytes: u64,
    },
    /// Write a dirty tile (partial sum) back to DRAM and free its
    /// block.
    Spill {
        /// The tile written back.
        tile: TileId,
        /// Source block address.
        address: u64,
        /// Transfer size.
        bytes: u64,
    },
    /// Drop a clean tile from the buffer (its data is still in DRAM).
    Discard {
        /// The tile dropped.
        tile: TileId,
        /// Its block address.
        address: u64,
        /// Its block size.
        bytes: u64,
    },
    /// Relocate a tile within the buffer (compaction copy). Batches of
    /// consecutive moves apply atomically.
    Move {
        /// The tile relocated.
        tile: TileId,
        /// Its byte size.
        bytes: u64,
        /// Old block address.
        from: u64,
        /// New block address.
        to: u64,
    },
    /// Reserve a block for a fresh accumulator tile (no data moves).
    Reserve {
        /// The accumulator tile.
        tile: TileId,
        /// Its block address.
        address: u64,
        /// Its block size.
        bytes: u64,
    },
    /// Run one tiled convolution on a core.
    Exec {
        /// The operation.
        op: OpId,
        /// The core it runs on.
        core: u32,
        /// Input tile address.
        input: u64,
        /// Weight tile address.
        weight: u64,
        /// Output / partial-sum tile address.
        output: u64,
        /// Whether the output block holds a partial sum to accumulate
        /// onto.
        accumulate: bool,
    },
    /// Write a finished output tile to DRAM (it stays resident).
    Store {
        /// The tile stored.
        tile: TileId,
        /// Source block address.
        address: u64,
        /// Transfer size.
        bytes: u64,
    },
    /// Gather an input tile from the cross-layer residency region into
    /// the buffer block at `address` — an on-chip copy: the DMA engine
    /// is busy but no DRAM bytes move. Legal only when the DFG was
    /// built with `input_resident`.
    GatherIn {
        /// The tile gathered.
        tile: TileId,
        /// Destination block address.
        address: u64,
        /// Transfer size.
        bytes: u64,
    },
    /// Scatter a finished output tile into the cross-layer residency
    /// region for the consumer layer — an on-chip copy replacing the
    /// DRAM store. Legal only when the DFG was built with
    /// `output_resident`.
    ScatterOut {
        /// The tile scattered.
        tile: TileId,
        /// Source block address.
        address: u64,
        /// Transfer size.
        bytes: u64,
    },
}

/// A violation found by [`interpret_program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpError {
    /// A block extends past the buffer.
    OutOfBounds {
        /// The offending command index.
        index: usize,
        /// The tile being placed.
        tile: TileId,
    },
    /// A placement overlaps a live block.
    Overlap {
        /// The offending command index.
        index: usize,
        /// The tile being placed.
        tile: TileId,
        /// The tile already occupying the range.
        occupant: TileId,
    },
    /// A tile was placed while already resident.
    AlreadyResident {
        /// The offending command index.
        index: usize,
        /// The tile.
        tile: TileId,
    },
    /// A command operated on a tile that is not resident.
    NotResident {
        /// The offending command index.
        index: usize,
        /// The tile.
        tile: TileId,
    },
    /// A command named an address other than where the tile lives.
    AddressMismatch {
        /// The offending command index.
        index: usize,
        /// The tile.
        tile: TileId,
        /// Where the tile actually is.
        resident: u64,
        /// The address the command claimed.
        claimed: u64,
    },
    /// A command's byte count disagrees with the DFG's tile size.
    TileBytesMismatch {
        /// The offending command index.
        index: usize,
        /// The tile.
        tile: TileId,
        /// The DFG's size for it.
        expected: u64,
        /// The command's size.
        got: u64,
    },
    /// Data that was never written was read (exec operand or store of
    /// a reserved-but-never-computed block).
    UninitRead {
        /// The offending command index.
        index: usize,
        /// The uninitialized tile.
        tile: TileId,
    },
    /// A dirty block (unsaved partial sum) was discarded — data loss.
    DirtyDiscard {
        /// The offending command index.
        index: usize,
        /// The tile.
        tile: TileId,
    },
    /// A clean block was spilled — the write-back is bogus traffic.
    CleanSpill {
        /// The offending command index.
        index: usize,
        /// The tile.
        tile: TileId,
    },
    /// An exec named a core the machine does not have.
    BadCore {
        /// The offending command index.
        index: usize,
        /// The operation.
        op: OpId,
        /// The core named.
        core: u32,
    },
    /// An exec's accumulate flag disagrees with the DFG.
    AccumulateMismatch {
        /// The offending command index.
        index: usize,
        /// The operation.
        op: OpId,
    },
    /// An operation executed before its partial-sum predecessor.
    PredecessorNotExecuted {
        /// The offending command index.
        index: usize,
        /// The operation.
        op: OpId,
        /// Its predecessor.
        pred: OpId,
    },
    /// An exec named an operation outside the DFG.
    UnknownOp {
        /// The offending command index.
        index: usize,
        /// The operation.
        op: OpId,
    },
    /// Not every DFG operation executed exactly once.
    ExecCount {
        /// The operation.
        op: OpId,
        /// How often it ran.
        times: usize,
    },
    /// A dirty block survived to program end without being written
    /// back — its data is lost.
    UnsavedData {
        /// The tile.
        tile: TileId,
    },
    /// A residency command ran against a DFG whose residency plan does
    /// not enable that side (gather without `input_resident`, scatter
    /// without `output_resident`).
    ResidencyDisabled {
        /// The offending command index.
        index: usize,
        /// The tile.
        tile: TileId,
    },
    /// An input tile the plan keeps resident was loaded from DRAM —
    /// the compulsory-traffic saving the planner promised was not
    /// honored.
    ResidentDramLoad {
        /// The offending command index.
        index: usize,
        /// The tile.
        tile: TileId,
    },
    /// An output tile the plan keeps resident was stored to DRAM
    /// instead of scattered on-chip.
    ResidentDramStore {
        /// The offending command index.
        index: usize,
        /// The tile.
        tile: TileId,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfBounds { index, tile } => {
                write!(f, "command {index}: {tile} placed past the buffer end")
            }
            InterpError::Overlap {
                index,
                tile,
                occupant,
            } => {
                write!(
                    f,
                    "command {index}: {tile} overlaps live block of {occupant}"
                )
            }
            InterpError::AlreadyResident { index, tile } => {
                write!(f, "command {index}: {tile} placed while already resident")
            }
            InterpError::NotResident { index, tile } => {
                write!(f, "command {index}: {tile} is not resident")
            }
            InterpError::AddressMismatch {
                index,
                tile,
                resident,
                claimed,
            } => write!(
                f,
                "command {index}: {tile} lives at {resident:#x}, command claims {claimed:#x}"
            ),
            InterpError::TileBytesMismatch {
                index,
                tile,
                expected,
                got,
            } => write!(
                f,
                "command {index}: {tile} is {expected} B in the DFG, command says {got} B"
            ),
            InterpError::UninitRead { index, tile } => {
                write!(
                    f,
                    "command {index}: {tile} read before any data was written"
                )
            }
            InterpError::DirtyDiscard { index, tile } => {
                write!(
                    f,
                    "command {index}: dirty {tile} discarded — partial sum lost"
                )
            }
            InterpError::CleanSpill { index, tile } => {
                write!(
                    f,
                    "command {index}: clean {tile} spilled — bogus write-back"
                )
            }
            InterpError::BadCore { index, op, core } => {
                write!(f, "command {index}: {op} on nonexistent core {core}")
            }
            InterpError::AccumulateMismatch { index, op } => {
                write!(
                    f,
                    "command {index}: {op} accumulate flag disagrees with the DFG"
                )
            }
            InterpError::PredecessorNotExecuted { index, op, pred } => {
                write!(f, "command {index}: {op} ran before its predecessor {pred}")
            }
            InterpError::UnknownOp { index, op } => {
                write!(f, "command {index}: {op} is not in the DFG")
            }
            InterpError::ExecCount { op, times } => {
                write!(f, "{op} executed {times} times (expected exactly once)")
            }
            InterpError::UnsavedData { tile } => {
                write!(f, "dirty {tile} still resident at program end — data lost")
            }
            InterpError::ResidencyDisabled { index, tile } => {
                write!(
                    f,
                    "command {index}: residency transfer of {tile} but the plan does not keep that side resident"
                )
            }
            InterpError::ResidentDramLoad { index, tile } => {
                write!(
                    f,
                    "command {index}: resident input {tile} reloaded from DRAM"
                )
            }
            InterpError::ResidentDramStore { index, tile } => {
                write!(
                    f,
                    "command {index}: resident output {tile} stored to DRAM instead of scattered"
                )
            }
        }
    }
}

impl Error for InterpError {}

const fn class_index(class: TrafficClass) -> usize {
    match class {
        TrafficClass::Input => 0,
        TrafficClass::Weight => 1,
        TrafficClass::Psum => 2,
        TrafficClass::Output => 3,
    }
}

/// DRAM-to-SPM traffic class of a load, derived from the tile's kind:
/// reloading an output-kind tile is partial-sum traffic.
const fn load_class(kind: TileKind) -> TrafficClass {
    match kind {
        TileKind::Input => TrafficClass::Input,
        TileKind::Weight => TrafficClass::Weight,
        TileKind::Output => TrafficClass::Psum,
    }
}

/// What the abstract machine observed while executing a program.
///
/// Mirrors the accounting dimensions of the analytical schedule so
/// [`differential_check`] can compare the two artifacts field by
/// field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterpStats {
    class_bytes: [u64; 4],
    class_transfers: [u64; 4],
    loads_per_tile: BTreeMap<TileId, u32>,
    exec_core: BTreeMap<OpId, u32>,
    moves: u64,
    moved_bytes: u64,
    peak_bytes: u64,
    gather_bytes: u64,
    gather_transfers: u64,
    scatter_bytes: u64,
    scatter_transfers: u64,
}

impl InterpStats {
    /// DMA bytes the program moved in `class`.
    #[must_use]
    pub const fn class_bytes(&self, class: TrafficClass) -> u64 {
        self.class_bytes[class_index(class)]
    }

    /// DMA transfers the program issued in `class`.
    #[must_use]
    pub const fn class_transfers(&self, class: TrafficClass) -> u64 {
        self.class_transfers[class_index(class)]
    }

    /// Total DMA bytes over all classes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.class_bytes.iter().sum()
    }

    /// How often each tile was loaded.
    #[must_use]
    pub fn loads_per_tile(&self) -> &BTreeMap<TileId, u32> {
        &self.loads_per_tile
    }

    /// The core each operation executed on.
    #[must_use]
    fn exec_core(&self, op: OpId) -> Option<u32> {
        self.exec_core.get(&op).copied()
    }

    /// Number of operations executed.
    #[must_use]
    pub fn execs(&self) -> usize {
        self.exec_core.len()
    }

    /// Number of on-chip compaction copies.
    #[must_use]
    pub const fn moves(&self) -> u64 {
        self.moves
    }

    /// Bytes relocated by on-chip compaction copies.
    #[must_use]
    pub const fn moved_bytes(&self) -> u64 {
        self.moved_bytes
    }

    /// Peak buffer occupancy over the program, in bytes.
    #[must_use]
    pub const fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Bytes gathered from the cross-layer residency region (on-chip).
    #[must_use]
    pub const fn gather_bytes(&self) -> u64 {
        self.gather_bytes
    }

    /// Number of residency gathers.
    #[must_use]
    pub const fn gather_transfers(&self) -> u64 {
        self.gather_transfers
    }

    /// Bytes scattered into the cross-layer residency region (on-chip).
    #[must_use]
    pub const fn scatter_bytes(&self) -> u64 {
        self.scatter_bytes
    }

    /// Number of residency scatters.
    #[must_use]
    pub const fn scatter_transfers(&self) -> u64 {
        self.scatter_transfers
    }
}

/// One live block of the abstract SPM.
#[derive(Debug, Clone, Copy)]
struct Block {
    address: u64,
    bytes: u64,
    /// Whether the block holds data (loads and execs write it;
    /// `Reserve` leaves it uninitialized until the first exec).
    valid: bool,
    /// Whether the block holds data DRAM does not have.
    dirty: bool,
}

struct Machine<'a> {
    dfg: &'a Dfg,
    spm_bytes: u64,
    cores: u32,
    blocks: BTreeMap<TileId, Block>,
    used: u64,
    executed: Vec<usize>,
    stats: InterpStats,
}

impl<'a> Machine<'a> {
    fn new(dfg: &'a Dfg, spm_bytes: u64, cores: u32) -> Self {
        Self {
            dfg,
            spm_bytes,
            cores,
            blocks: BTreeMap::new(),
            used: 0,
            executed: vec![0; dfg.num_ops()],
            stats: InterpStats::default(),
        }
    }

    fn record_dma(&mut self, class: TrafficClass, bytes: u64) {
        self.stats.class_bytes[class_index(class)] += bytes;
        self.stats.class_transfers[class_index(class)] += 1;
    }

    fn check_bytes(&self, index: usize, tile: TileId, got: u64) -> Result<(), InterpError> {
        let expected = self.dfg.tile_bytes(tile);
        if got != expected {
            return Err(InterpError::TileBytesMismatch {
                index,
                tile,
                expected,
                got,
            });
        }
        Ok(())
    }

    /// Validates and inserts a new block; `valid` marks whether it
    /// carries data.
    fn place(
        &mut self,
        index: usize,
        tile: TileId,
        address: u64,
        bytes: u64,
        valid: bool,
    ) -> Result<(), InterpError> {
        if self.blocks.contains_key(&tile) {
            return Err(InterpError::AlreadyResident { index, tile });
        }
        let end = address
            .checked_add(bytes)
            .ok_or(InterpError::OutOfBounds { index, tile })?;
        if end > self.spm_bytes {
            return Err(InterpError::OutOfBounds { index, tile });
        }
        if let Some(occupant) = self.overlap(address, bytes) {
            return Err(InterpError::Overlap {
                index,
                tile,
                occupant,
            });
        }
        self.blocks.insert(
            tile,
            Block {
                address,
                bytes,
                valid,
                dirty: false,
            },
        );
        self.used += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.used);
        Ok(())
    }

    fn overlap(&self, address: u64, bytes: u64) -> Option<TileId> {
        self.blocks
            .iter()
            .find(|(_, b)| address < b.address + b.bytes && b.address < address + bytes)
            .map(|(t, _)| *t)
    }

    /// Looks up a resident block and checks the claimed address.
    fn resident(&self, index: usize, tile: TileId, claimed: u64) -> Result<Block, InterpError> {
        let block = *self
            .blocks
            .get(&tile)
            .ok_or(InterpError::NotResident { index, tile })?;
        if block.address != claimed {
            return Err(InterpError::AddressMismatch {
                index,
                tile,
                resident: block.address,
                claimed,
            });
        }
        Ok(block)
    }

    fn evict(&mut self, tile: TileId) {
        if let Some(b) = self.blocks.remove(&tile) {
            self.used -= b.bytes;
        }
    }
}

/// Executes `commands` — the lowered program of one scheduled layer —
/// on an abstract SPM of `spm_bytes` attached to `cores` NPU cores,
/// checking every machine-level invariant along the way.
///
/// # Errors
///
/// Returns the first [`InterpError`] encountered.
pub fn interpret_program(
    dfg: &Dfg,
    spm_bytes: u64,
    cores: u32,
    commands: &[SpmCommand],
) -> Result<InterpStats, InterpError> {
    let mut m = Machine::new(dfg, spm_bytes, cores);

    let mut i = 0;
    while i < commands.len() {
        let index = i;
        match commands[i] {
            SpmCommand::Load {
                tile,
                address,
                bytes,
            } => {
                if dfg.residency().input_resident && tile.kind() == TileKind::Input {
                    return Err(InterpError::ResidentDramLoad { index, tile });
                }
                m.check_bytes(index, tile, bytes)?;
                m.place(index, tile, address, bytes, true)?;
                m.record_dma(load_class(tile.kind()), bytes);
                *m.stats.loads_per_tile.entry(tile).or_default() += 1;
            }
            SpmCommand::GatherIn {
                tile,
                address,
                bytes,
            } => {
                if !dfg.residency().input_resident || tile.kind() != TileKind::Input {
                    return Err(InterpError::ResidencyDisabled { index, tile });
                }
                m.check_bytes(index, tile, bytes)?;
                m.place(index, tile, address, bytes, true)?;
                m.stats.gather_bytes += bytes;
                m.stats.gather_transfers += 1;
            }
            SpmCommand::Reserve {
                tile,
                address,
                bytes,
            } => {
                m.check_bytes(index, tile, bytes)?;
                m.place(index, tile, address, bytes, false)?;
            }
            SpmCommand::Spill {
                tile,
                address,
                bytes,
            } => {
                m.check_bytes(index, tile, bytes)?;
                let block = m.resident(index, tile, address)?;
                if !block.valid {
                    return Err(InterpError::UninitRead { index, tile });
                }
                if !block.dirty {
                    return Err(InterpError::CleanSpill { index, tile });
                }
                m.evict(tile);
                m.record_dma(TrafficClass::Psum, bytes);
            }
            SpmCommand::Discard {
                tile,
                address,
                bytes,
            } => {
                m.check_bytes(index, tile, bytes)?;
                let block = m.resident(index, tile, address)?;
                if block.dirty {
                    return Err(InterpError::DirtyDiscard { index, tile });
                }
                m.evict(tile);
            }
            SpmCommand::Move { .. } => {
                // Compaction emits a batch of moves that happen "at
                // once": later sources may overlap earlier
                // destinations, so lift the whole run out before
                // re-placing anything.
                let start = i;
                let mut end = i;
                while end < commands.len() && matches!(commands[end], SpmCommand::Move { .. }) {
                    end += 1;
                }
                let mut lifted = Vec::with_capacity(end - start);
                for (j, command) in commands.iter().enumerate().take(end).skip(start) {
                    let SpmCommand::Move {
                        tile,
                        bytes,
                        from,
                        to,
                    } = *command
                    else {
                        unreachable!("run contains only moves");
                    };
                    m.check_bytes(j, tile, bytes)?;
                    let block = m.resident(j, tile, from)?;
                    m.evict(tile);
                    lifted.push((j, tile, bytes, to, block));
                }
                for (j, tile, bytes, to, block) in lifted {
                    m.place(j, tile, to, bytes, block.valid)?;
                    m.blocks.get_mut(&tile).expect("just placed").dirty = block.dirty;
                    m.stats.moves += 1;
                    m.stats.moved_bytes += bytes;
                }
                i = end;
                continue;
            }
            SpmCommand::Exec {
                op,
                core,
                input,
                weight,
                output,
                accumulate,
            } => {
                if op.index() >= dfg.num_ops() {
                    return Err(InterpError::UnknownOp { index, op });
                }
                if core >= m.cores {
                    return Err(InterpError::BadCore { index, op, core });
                }
                let node = dfg.op(op);
                if accumulate != node.needs_psum() {
                    return Err(InterpError::AccumulateMismatch { index, op });
                }
                if let Some(pred) = dfg.pred(op) {
                    if m.executed[pred.index()] == 0 {
                        return Err(InterpError::PredecessorNotExecuted { index, op, pred });
                    }
                }
                for (tile, addr) in [(node.input(), input), (node.weight(), weight)] {
                    let block = m.resident(index, tile, addr)?;
                    if !block.valid {
                        return Err(InterpError::UninitRead { index, tile });
                    }
                }
                let out = m.resident(index, node.output(), output)?;
                if accumulate && !out.valid {
                    // Accumulating onto a partial sum that is not
                    // there (never computed, or spilled and not
                    // reloaded).
                    return Err(InterpError::UninitRead {
                        index,
                        tile: node.output(),
                    });
                }
                let block = m.blocks.get_mut(&node.output()).expect("checked resident");
                block.valid = true;
                block.dirty = true;
                m.executed[op.index()] += 1;
                m.stats.exec_core.insert(op, core);
            }
            SpmCommand::Store {
                tile,
                address,
                bytes,
            } => {
                if dfg.residency().output_resident {
                    return Err(InterpError::ResidentDramStore { index, tile });
                }
                m.check_bytes(index, tile, bytes)?;
                let block = m.resident(index, tile, address)?;
                if !block.valid {
                    return Err(InterpError::UninitRead { index, tile });
                }
                m.blocks.get_mut(&tile).expect("checked resident").dirty = false;
                m.record_dma(TrafficClass::Output, bytes);
            }
            SpmCommand::ScatterOut {
                tile,
                address,
                bytes,
            } => {
                if !dfg.residency().output_resident {
                    return Err(InterpError::ResidencyDisabled { index, tile });
                }
                m.check_bytes(index, tile, bytes)?;
                let block = m.resident(index, tile, address)?;
                if !block.valid {
                    return Err(InterpError::UninitRead { index, tile });
                }
                m.blocks.get_mut(&tile).expect("checked resident").dirty = false;
                m.stats.scatter_bytes += bytes;
                m.stats.scatter_transfers += 1;
            }
        }
        i += 1;
    }

    for (idx, &times) in m.executed.iter().enumerate() {
        if times != 1 {
            return Err(InterpError::ExecCount {
                op: OpId::new(idx as u32),
                times,
            });
        }
    }
    for (tile, block) in &m.blocks {
        if block.dirty {
            return Err(InterpError::UnsavedData { tile: *tile });
        }
    }
    Ok(m.stats)
}

/// A divergence between the analytical schedule and the interpreted
/// program, found by [`differential_check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DifferentialError {
    /// Per-class DMA bytes disagree.
    ClassBytes {
        /// The traffic class.
        class: TrafficClass,
        /// Bytes the schedule accounts.
        schedule: u64,
        /// Bytes the program moves.
        program: u64,
    },
    /// Per-class DMA transfer counts disagree.
    ClassTransfers {
        /// The traffic class.
        class: TrafficClass,
        /// Transfers the schedule accounts.
        schedule: u64,
        /// Transfers the program issues.
        program: u64,
    },
    /// Per-tile load counts disagree.
    LoadCount {
        /// The tile.
        tile: TileId,
        /// Loads the schedule records.
        schedule: u32,
        /// Loads the program issues.
        program: u32,
    },
    /// The program never executed an operation the schedule timed.
    ExecMissing {
        /// The operation.
        op: OpId,
    },
    /// The schedule and the program run an operation on different
    /// cores.
    CoreMismatch {
        /// The operation.
        op: OpId,
        /// The core in the schedule.
        schedule: u32,
        /// The core in the program.
        program: u32,
    },
    /// On-chip compaction volumes disagree.
    CompactionBytes {
        /// Bytes the schedule accounts.
        schedule: u64,
        /// Bytes the program's moves relocate.
        program: u64,
    },
    /// A cross-layer residency counter disagrees between the schedule
    /// and the interpreted program.
    ResidentCounter {
        /// Which counter diverged.
        what: &'static str,
        /// The schedule's value.
        schedule: u64,
        /// The program's value.
        program: u64,
    },
}

impl fmt::Display for DifferentialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DifferentialError::ClassBytes {
                class,
                schedule,
                program,
            } => write!(
                f,
                "{class} bytes diverge: schedule accounts {schedule}, program moves {program}"
            ),
            DifferentialError::ClassTransfers {
                class,
                schedule,
                program,
            } => write!(
                f,
                "{class} transfers diverge: schedule {schedule}, program {program}"
            ),
            DifferentialError::LoadCount {
                tile,
                schedule,
                program,
            } => write!(
                f,
                "load count of {tile} diverges: schedule {schedule}, program {program}"
            ),
            DifferentialError::ExecMissing { op } => {
                write!(
                    f,
                    "{op} is timed in the schedule but never executes in the program"
                )
            }
            DifferentialError::CoreMismatch {
                op,
                schedule,
                program,
            } => write!(
                f,
                "{op} runs on core {schedule} in the schedule, core {program} in the program"
            ),
            DifferentialError::CompactionBytes { schedule, program } => write!(
                f,
                "compaction diverges: schedule accounts {schedule} B, program moves {program} B"
            ),
            DifferentialError::ResidentCounter {
                what,
                schedule,
                program,
            } => write!(f, "{what} diverge: schedule {schedule}, program {program}"),
        }
    }
}

impl Error for DifferentialError {}

/// Cross-checks an interpreted program against its analytical
/// schedule: per-class DMA bytes and transfer counts, per-tile load
/// counts, per-op core placement, and (when `check_compaction`) the
/// on-chip compaction volume.
///
/// `check_compaction` is off for the static baseline, whose repacking
/// moves are an addressing artifact the analytical schedule does not
/// time.
///
/// # Errors
///
/// Returns the first [`DifferentialError`] found.
pub fn differential_check(
    schedule: &Schedule,
    stats: &InterpStats,
    check_compaction: bool,
) -> Result<(), DifferentialError> {
    for class in TrafficClass::all() {
        let (s, p) = (
            schedule.traffic().class_bytes(class),
            stats.class_bytes(class),
        );
        if s != p {
            return Err(DifferentialError::ClassBytes {
                class,
                schedule: s,
                program: p,
            });
        }
        let (s, p) = (
            schedule.traffic().class_transfers(class),
            stats.class_transfers(class),
        );
        if s != p {
            return Err(DifferentialError::ClassTransfers {
                class,
                schedule: s,
                program: p,
            });
        }
    }

    let schedule_loads = schedule.traffic().loads_per_tile();
    for (tile, &s) in schedule_loads {
        let p = stats.loads_per_tile().get(tile).copied().unwrap_or(0);
        if s != p {
            return Err(DifferentialError::LoadCount {
                tile: *tile,
                schedule: s,
                program: p,
            });
        }
    }
    for (tile, &p) in stats.loads_per_tile() {
        if !schedule_loads.contains_key(tile) {
            return Err(DifferentialError::LoadCount {
                tile: *tile,
                schedule: 0,
                program: p,
            });
        }
    }

    for s in schedule.compute() {
        match stats.exec_core(s.op) {
            None => return Err(DifferentialError::ExecMissing { op: s.op }),
            Some(core) if core != s.core => {
                return Err(DifferentialError::CoreMismatch {
                    op: s.op,
                    schedule: s.core,
                    program: core,
                });
            }
            Some(_) => {}
        }
    }

    if check_compaction && stats.moved_bytes() != schedule.compaction_bytes() {
        return Err(DifferentialError::CompactionBytes {
            schedule: schedule.compaction_bytes(),
            program: stats.moved_bytes(),
        });
    }

    for (what, s, p) in [
        (
            "resident gather bytes",
            schedule.resident_in_bytes(),
            stats.gather_bytes(),
        ),
        (
            "resident gather transfers",
            schedule.resident_in_transfers(),
            stats.gather_transfers(),
        ),
        (
            "resident scatter bytes",
            schedule.resident_out_bytes(),
            stats.scatter_bytes(),
        ),
        (
            "resident scatter transfers",
            schedule.resident_out_transfers(),
            stats.scatter_transfers(),
        ),
    ] {
        if s != p {
            return Err(DifferentialError::ResidentCounter {
                what,
                schedule: s,
                program: p,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_arch::{ArchConfig, ArchPreset, SystolicModel};
    use flexer_model::ConvLayer;
    use flexer_tiling::{Dataflow, TilingFactors};

    fn tiny_dfg() -> (Dfg, ArchConfig) {
        tiny_dfg_resident(flexer_tiling::Residency::default())
    }

    fn tiny_dfg_resident(residency: flexer_tiling::Residency) -> (Dfg, ArchConfig) {
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let layer = ConvLayer::new("p", 8, 8, 8, 8).unwrap();
        let factors = TilingFactors::normalized(&layer, 1, 2, 1, 1);
        let model = SystolicModel::new(&arch);
        let dfg =
            Dfg::build_resident(&layer, factors, Dataflow::Kcs, &model, &arch, residency).unwrap();
        (dfg, arch)
    }

    /// A legal hand-written program for the 2-op accumulation chain.
    fn legal_commands(dfg: &Dfg) -> Vec<SpmCommand> {
        let op0 = dfg.op(OpId::new(0));
        let op1 = dfg.op(OpId::new(1));
        let b = |t: TileId| dfg.tile_bytes(t);
        vec![
            SpmCommand::Load {
                tile: op0.input(),
                address: 0,
                bytes: b(op0.input()),
            },
            SpmCommand::Load {
                tile: op0.weight(),
                address: 1000,
                bytes: b(op0.weight()),
            },
            SpmCommand::Reserve {
                tile: op0.output(),
                address: 2000,
                bytes: b(op0.output()),
            },
            SpmCommand::Exec {
                op: op0.id(),
                core: 0,
                input: 0,
                weight: 1000,
                output: 2000,
                accumulate: false,
            },
            SpmCommand::Discard {
                tile: op0.input(),
                address: 0,
                bytes: b(op0.input()),
            },
            SpmCommand::Load {
                tile: op1.input(),
                address: 0,
                bytes: b(op1.input()),
            },
            SpmCommand::Discard {
                tile: op0.weight(),
                address: 1000,
                bytes: b(op0.weight()),
            },
            SpmCommand::Load {
                tile: op1.weight(),
                address: 1000,
                bytes: b(op1.weight()),
            },
            SpmCommand::Exec {
                op: op1.id(),
                core: 1,
                input: 0,
                weight: 1000,
                output: 2000,
                accumulate: true,
            },
            SpmCommand::Store {
                tile: op1.output(),
                address: 2000,
                bytes: b(op1.output()),
            },
        ]
    }

    #[test]
    fn legal_program_interprets() {
        let (dfg, arch) = tiny_dfg();
        let stats = interpret_program(&dfg, arch.spm_bytes(), 2, &legal_commands(&dfg)).unwrap();
        assert_eq!(stats.execs(), 2);
        assert_eq!(stats.exec_core(OpId::new(1)), Some(1));
        assert_eq!(stats.class_transfers(TrafficClass::Input), 2);
        assert_eq!(stats.class_transfers(TrafficClass::Output), 1);
        assert!(stats.peak_bytes() > 0);
        assert_eq!(stats.moves(), 0);
    }

    #[test]
    fn dropped_load_rejected() {
        let (dfg, arch) = tiny_dfg();
        let mut cmds = legal_commands(&dfg);
        cmds.remove(7); // op1's weight load
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(matches!(err, InterpError::NotResident { .. }), "{err}");
    }

    #[test]
    fn overlapping_placement_rejected() {
        let (dfg, arch) = tiny_dfg();
        let mut cmds = legal_commands(&dfg);
        if let SpmCommand::Load { address, .. } = &mut cmds[1] {
            *address = 4; // lands inside the input block
        }
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(
            matches!(err, InterpError::Overlap { index: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn missing_final_store_rejected() {
        let (dfg, arch) = tiny_dfg();
        let mut cmds = legal_commands(&dfg);
        cmds.pop(); // drop the store: dirty accumulator survives
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(matches!(err, InterpError::UnsavedData { .. }), "{err}");
    }

    #[test]
    fn dirty_discard_rejected() {
        let (dfg, arch) = tiny_dfg();
        let op0 = dfg.op(OpId::new(0));
        let out = op0.output();
        let mut cmds = legal_commands(&dfg);
        // Discard the dirty accumulator right after op0.
        cmds.insert(
            4,
            SpmCommand::Discard {
                tile: out,
                address: 2000,
                bytes: dfg.tile_bytes(out),
            },
        );
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(
            matches!(err, InterpError::DirtyDiscard { index: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn accumulate_without_psum_rejected() {
        let (dfg, arch) = tiny_dfg();
        let mut cmds = legal_commands(&dfg);
        // Spill the accumulator after op0, then let op1 accumulate
        // onto... nothing.
        let out = dfg.op(OpId::new(0)).output();
        cmds.insert(
            4,
            SpmCommand::Spill {
                tile: out,
                address: 2000,
                bytes: dfg.tile_bytes(out),
            },
        );
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(matches!(err, InterpError::NotResident { .. }), "{err}");
    }

    #[test]
    fn uninitialized_exec_operand_rejected() {
        let (dfg, arch) = tiny_dfg();
        let mut cmds = legal_commands(&dfg);
        // Swap op0's input load for a reserve: block exists but holds
        // no data.
        let op0 = dfg.op(OpId::new(0));
        cmds[0] = SpmCommand::Reserve {
            tile: op0.input(),
            address: 0,
            bytes: dfg.tile_bytes(op0.input()),
        };
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(
            matches!(err, InterpError::UninitRead { index: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn predecessor_order_enforced() {
        let (dfg, arch) = tiny_dfg();
        let op1 = dfg.op(OpId::new(1));
        let b = |t: TileId| dfg.tile_bytes(t);
        let cmds = vec![
            SpmCommand::Load {
                tile: op1.input(),
                address: 0,
                bytes: b(op1.input()),
            },
            SpmCommand::Load {
                tile: op1.weight(),
                address: 1000,
                bytes: b(op1.weight()),
            },
            SpmCommand::Reserve {
                tile: op1.output(),
                address: 2000,
                bytes: b(op1.output()),
            },
            SpmCommand::Exec {
                op: op1.id(),
                core: 0,
                input: 0,
                weight: 1000,
                output: 2000,
                accumulate: true,
            },
        ];
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(
            matches!(err, InterpError::PredecessorNotExecuted { .. }),
            "{err}"
        );
    }

    #[test]
    fn bad_core_rejected() {
        let (dfg, arch) = tiny_dfg();
        let mut cmds = legal_commands(&dfg);
        if let SpmCommand::Exec { core, .. } = &mut cmds[3] {
            *core = 99;
        }
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(
            matches!(err, InterpError::BadCore { core: 99, .. }),
            "{err}"
        );
    }

    #[test]
    fn atomic_move_batch_allows_sliding() {
        let (dfg, arch) = tiny_dfg();
        let op0 = dfg.op(OpId::new(0));
        let b = |t: TileId| dfg.tile_bytes(t);
        let cmds = vec![
            SpmCommand::Load {
                tile: op0.input(),
                address: 100,
                bytes: b(op0.input()),
            },
            SpmCommand::Load {
                tile: op0.weight(),
                address: 100 + b(op0.input()),
                bytes: b(op0.weight()),
            },
            // Slide both down; the second destination overlaps the
            // first's old home.
            SpmCommand::Move {
                tile: op0.input(),
                bytes: b(op0.input()),
                from: 100,
                to: 0,
            },
            SpmCommand::Move {
                tile: op0.weight(),
                bytes: b(op0.weight()),
                from: 100 + b(op0.input()),
                to: b(op0.input()),
            },
        ];
        // Ends with unexecuted ops -> ExecCount, proving the moves
        // themselves were legal.
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(
            matches!(err, InterpError::ExecCount { times: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn address_mismatch_rejected() {
        let (dfg, arch) = tiny_dfg();
        let mut cmds = legal_commands(&dfg);
        if let SpmCommand::Exec { weight, .. } = &mut cmds[3] {
            *weight = 1008;
        }
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(matches!(err, InterpError::AddressMismatch { .. }), "{err}");
    }

    #[test]
    fn tile_size_lies_rejected() {
        let (dfg, arch) = tiny_dfg();
        let mut cmds = legal_commands(&dfg);
        if let SpmCommand::Load { bytes, .. } = &mut cmds[0] {
            *bytes += 1;
        }
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(
            matches!(err, InterpError::TileBytesMismatch { index: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (dfg, _) = tiny_dfg();
        let err = interpret_program(&dfg, 64, 2, &legal_commands(&dfg)).unwrap_err();
        assert!(
            matches!(
                err,
                InterpError::OutOfBounds { .. } | InterpError::Overlap { .. }
            ),
            "{err}"
        );
    }

    /// The legal program with input loads turned into gathers and the
    /// final store turned into a scatter.
    fn resident_commands(dfg: &Dfg) -> Vec<SpmCommand> {
        legal_commands(dfg)
            .into_iter()
            .map(|cmd| match cmd {
                SpmCommand::Load {
                    tile,
                    address,
                    bytes,
                } if tile.kind() == TileKind::Input => SpmCommand::GatherIn {
                    tile,
                    address,
                    bytes,
                },
                SpmCommand::Store {
                    tile,
                    address,
                    bytes,
                } => SpmCommand::ScatterOut {
                    tile,
                    address,
                    bytes,
                },
                other => other,
            })
            .collect()
    }

    fn full_residency() -> flexer_tiling::Residency {
        flexer_tiling::Residency {
            input_resident: true,
            output_resident: true,
        }
    }

    #[test]
    fn resident_program_interprets_with_on_chip_counters() {
        let (dfg, arch) = tiny_dfg_resident(full_residency());
        let cmds = resident_commands(&dfg);
        let stats = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap();
        assert_eq!(stats.execs(), 2);
        // Inputs gathered on-chip: no DRAM input traffic, no load
        // counts for them.
        assert_eq!(stats.class_bytes(TrafficClass::Input), 0);
        assert_eq!(stats.gather_transfers(), 2);
        assert!(stats.gather_bytes() > 0);
        // The final output scattered on-chip: no DRAM output traffic.
        assert_eq!(stats.class_bytes(TrafficClass::Output), 0);
        assert_eq!(stats.scatter_transfers(), 1);
        assert!(stats.scatter_bytes() > 0);
    }

    #[test]
    fn gather_without_residency_rejected() {
        let (dfg, arch) = tiny_dfg();
        let cmds = resident_commands(&dfg);
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(
            matches!(err, InterpError::ResidencyDisabled { .. }),
            "{err}"
        );
    }

    #[test]
    fn resident_input_dram_load_rejected() {
        let (dfg, arch) = tiny_dfg_resident(full_residency());
        // The plain program loads inputs from DRAM — illegal when the
        // plan keeps them resident.
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &legal_commands(&dfg)).unwrap_err();
        assert!(matches!(err, InterpError::ResidentDramLoad { .. }), "{err}");
    }

    #[test]
    fn resident_output_dram_store_rejected() {
        let (dfg, arch) = tiny_dfg_resident(flexer_tiling::Residency {
            input_resident: false,
            output_resident: true,
        });
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &legal_commands(&dfg)).unwrap_err();
        assert!(
            matches!(err, InterpError::ResidentDramStore { .. }),
            "{err}"
        );
    }

    #[test]
    fn errors_render() {
        let (dfg, arch) = tiny_dfg();
        let mut cmds = legal_commands(&dfg);
        cmds.pop();
        let err = interpret_program(&dfg, arch.spm_bytes(), 2, &cmds).unwrap_err();
        assert!(err.to_string().contains("data lost"), "{err}");
    }
}
