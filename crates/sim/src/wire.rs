//! A minimal deterministic binary codec ("wire format") for schedule
//! records.
//!
//! The workspace's vendored `serde` is a no-op stand-in, so anything
//! that must cross a process boundary — the `flexer-store` on-disk
//! schedule cache — carries its own explicit encoding. The format is
//! deliberately boring: little-endian fixed-width integers, `f64`s as
//! their IEEE-754 bit patterns (bit-exact round trips; scores must
//! compare identically after a reload), length-prefixed byte strings,
//! and `u8` tags for enums. No varints, no implicit defaults: every
//! field is written and read unconditionally, so the encoded bytes of
//! a value are a pure function of the value.
//!
//! Compatibility is handled *above* this layer: `flexer-store` stamps
//! a format version into both its entry header and its content hash,
//! so any change to these encoders must be accompanied by a store
//! version bump (the store's golden fingerprint test enforces that).
//!
//! # Examples
//!
//! ```
//! use flexer_sim::wire::{WireReader, WireWriter};
//!
//! let mut w = WireWriter::new();
//! w.u64(42);
//! w.str("tile");
//! let bytes = w.into_bytes();
//! let mut r = WireReader::new(&bytes);
//! assert_eq!(r.u64().unwrap(), 42);
//! assert_eq!(r.str().unwrap(), "tile");
//! r.finish().unwrap();
//! ```

use crate::schedule::{MemOp, MemOpKind, Schedule, ScheduledOp};
use crate::traffic::TrafficClass;
use flexer_tiling::{OpId, TileId};
use std::fmt;

/// Decode failure: the bytes do not describe a value of the expected
/// shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the expected value was complete.
    UnexpectedEof {
        /// Byte offset the read started at.
        at: usize,
        /// What was being read.
        expected: &'static str,
    },
    /// A tag or field held a value outside its domain.
    Invalid {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the string payload.
        at: usize,
    },
    /// Decoding finished with input bytes left over.
    TrailingBytes {
        /// Number of unread bytes.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { at, expected } => {
                write!(f, "unexpected end of input at byte {at} reading {expected}")
            }
            WireError::Invalid { what, value } => {
                write!(f, "invalid {what}: raw value {value}")
            }
            WireError::BadUtf8 { at } => write!(f, "string at byte {at} is not valid UTF-8"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the decoded value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round
    /// trip, NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Sequential decoder over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(WireError::UnexpectedEof {
                at: self.pos,
                expected,
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `bool` (rejecting anything but 0/1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Invalid {
                what: "bool",
                value: u64::from(other),
            }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("took 4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("took 8 bytes")))
    }

    /// Reads a `usize` (a `u64` that must fit the platform).
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid {
            what: "usize",
            value: v,
        })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.usize()?;
        let at = self.pos;
        let bytes = self.take(len, "string payload")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { at })
    }

    /// Asserts every input byte was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// Encodes an [`OpId`].
fn encode_op_id(w: &mut WireWriter, op: OpId) {
    w.u32(u32::try_from(op.index()).expect("op ids are u32-backed"));
}

/// Decodes an [`OpId`].
///
/// # Errors
///
/// [`WireError`] on malformed input.
fn decode_op_id(r: &mut WireReader<'_>) -> Result<OpId, WireError> {
    Ok(OpId::new(r.u32()?))
}

/// Encodes a [`TileId`].
pub fn encode_tile_id(w: &mut WireWriter, tile: TileId) {
    match tile {
        TileId::Input { c, s } => {
            w.u8(0);
            w.u32(c);
            w.u32(s);
        }
        TileId::Weight { k, c } => {
            w.u8(1);
            w.u32(k);
            w.u32(c);
        }
        TileId::Output { k, s } => {
            w.u8(2);
            w.u32(k);
            w.u32(s);
        }
    }
}

/// Decodes a [`TileId`].
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_tile_id(r: &mut WireReader<'_>) -> Result<TileId, WireError> {
    let tag = r.u8()?;
    let (a, b) = (r.u32()?, r.u32()?);
    match tag {
        0 => Ok(TileId::Input { c: a, s: b }),
        1 => Ok(TileId::Weight { k: a, c: b }),
        2 => Ok(TileId::Output { k: a, s: b }),
        other => Err(WireError::Invalid {
            what: "TileId tag",
            value: u64::from(other),
        }),
    }
}

/// Encodes a [`TrafficClass`].
fn encode_traffic_class(w: &mut WireWriter, class: TrafficClass) {
    let tag = match class {
        TrafficClass::Input => 0,
        TrafficClass::Weight => 1,
        TrafficClass::Psum => 2,
        TrafficClass::Output => 3,
    };
    w.u8(tag);
}

/// Decodes a [`TrafficClass`].
///
/// # Errors
///
/// [`WireError`] on malformed input.
fn decode_traffic_class(r: &mut WireReader<'_>) -> Result<TrafficClass, WireError> {
    match r.u8()? {
        0 => Ok(TrafficClass::Input),
        1 => Ok(TrafficClass::Weight),
        2 => Ok(TrafficClass::Psum),
        3 => Ok(TrafficClass::Output),
        other => Err(WireError::Invalid {
            what: "TrafficClass tag",
            value: u64::from(other),
        }),
    }
}

/// Encodes a [`MemOpKind`].
fn encode_mem_op_kind(w: &mut WireWriter, kind: MemOpKind) {
    let tag = match kind {
        MemOpKind::Load => 0,
        MemOpKind::Spill => 1,
        MemOpKind::Store => 2,
    };
    w.u8(tag);
}

/// Decodes a [`MemOpKind`].
///
/// # Errors
///
/// [`WireError`] on malformed input.
fn decode_mem_op_kind(r: &mut WireReader<'_>) -> Result<MemOpKind, WireError> {
    match r.u8()? {
        0 => Ok(MemOpKind::Load),
        1 => Ok(MemOpKind::Spill),
        2 => Ok(MemOpKind::Store),
        other => Err(WireError::Invalid {
            what: "MemOpKind tag",
            value: u64::from(other),
        }),
    }
}

/// Encodes a [`MemOp`].
pub fn encode_mem_op(w: &mut WireWriter, op: &MemOp) {
    encode_mem_op_kind(w, op.kind);
    encode_traffic_class(w, op.class);
    encode_tile_id(w, op.tile);
    w.u64(op.bytes);
    w.u64(op.start);
    w.u64(op.end);
    match op.for_op {
        None => w.u8(0),
        Some(id) => {
            w.u8(1);
            encode_op_id(w, id);
        }
    }
    w.bool(op.resident);
}

/// Decodes a [`MemOp`].
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_mem_op(r: &mut WireReader<'_>) -> Result<MemOp, WireError> {
    let kind = decode_mem_op_kind(r)?;
    let class = decode_traffic_class(r)?;
    let tile = decode_tile_id(r)?;
    let bytes = r.u64()?;
    let start = r.u64()?;
    let end = r.u64()?;
    let for_op = match r.u8()? {
        0 => None,
        1 => Some(decode_op_id(r)?),
        other => {
            return Err(WireError::Invalid {
                what: "Option tag",
                value: u64::from(other),
            })
        }
    };
    let resident = r.bool()?;
    Ok(MemOp {
        kind,
        class,
        tile,
        bytes,
        start,
        end,
        for_op,
        resident,
    })
}

/// Encodes a [`ScheduledOp`].
pub fn encode_scheduled_op(w: &mut WireWriter, op: &ScheduledOp) {
    encode_op_id(w, op.op);
    w.u32(op.core);
    w.u64(op.start);
    w.u64(op.end);
}

/// Decodes a [`ScheduledOp`].
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_scheduled_op(r: &mut WireReader<'_>) -> Result<ScheduledOp, WireError> {
    Ok(ScheduledOp {
        op: decode_op_id(r)?,
        core: r.u32()?,
        start: r.u64()?,
        end: r.u64()?,
    })
}

/// Encodes a full [`Schedule`].
pub fn encode_schedule(w: &mut WireWriter, s: &Schedule) {
    s.encode_wire(w);
}

/// Decodes a full [`Schedule`].
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_schedule(r: &mut WireReader<'_>) -> Result<Schedule, WireError> {
    Schedule::decode_wire(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u32(u32::MAX);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        w.str("");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), u32::MAX);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.str().unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn eof_and_trailing_are_typed() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(WireError::UnexpectedEof { .. })));
        let mut r = WireReader::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { remaining: 1 }));
        let mut r = WireReader::new(&[3]);
        assert!(matches!(
            r.bool(),
            Err(WireError::Invalid { what: "bool", .. })
        ));
    }

    #[test]
    fn huge_length_prefix_is_an_eof_not_a_panic() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX); // absurd string length
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.str().is_err());
    }

    #[test]
    fn tile_and_op_ids_round_trip() {
        for tile in [
            TileId::Input { c: 3, s: 9 },
            TileId::Weight { k: 1, c: 2 },
            TileId::Output { k: 0, s: 7 },
        ] {
            let mut w = WireWriter::new();
            encode_tile_id(&mut w, tile);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(decode_tile_id(&mut r).unwrap(), tile);
            r.finish().unwrap();
        }
        let mut w = WireWriter::new();
        encode_op_id(&mut w, OpId::new(41));
        let bytes = w.into_bytes();
        assert_eq!(
            decode_op_id(&mut WireReader::new(&bytes)).unwrap(),
            OpId::new(41)
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut r = WireReader::new(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            decode_tile_id(&mut r),
            Err(WireError::Invalid {
                what: "TileId tag",
                ..
            })
        ));
        let mut r = WireReader::new(&[9]);
        assert!(decode_traffic_class(&mut r).is_err());
        let mut r = WireReader::new(&[9]);
        assert!(decode_mem_op_kind(&mut r).is_err());
    }

    #[test]
    fn mem_and_compute_ops_round_trip() {
        let op = MemOp {
            kind: MemOpKind::Spill,
            class: TrafficClass::Psum,
            tile: TileId::Output { k: 2, s: 5 },
            bytes: 4096,
            start: 10,
            end: 138,
            for_op: Some(OpId::new(6)),
            resident: false,
        };
        let mut w = WireWriter::new();
        encode_mem_op(&mut w, &op);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(decode_mem_op(&mut r).unwrap(), op);
        r.finish().unwrap();

        let sop = ScheduledOp {
            op: OpId::new(3),
            core: 1,
            start: 0,
            end: 99,
        };
        let mut w = WireWriter::new();
        encode_scheduled_op(&mut w, &sop);
        let bytes = w.into_bytes();
        assert_eq!(
            decode_scheduled_op(&mut WireReader::new(&bytes)).unwrap(),
            sop
        );
    }
}
