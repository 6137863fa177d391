//! Persistent, content-addressed schedule cache.
//!
//! Flexer's value is a one-time, expensive search per (layer, arch,
//! options). This crate keeps the winners across processes: a
//! directory of schedule entries keyed by a stable [`Fingerprint`] of
//! the layer shape, the architecture, the winner-relevant search
//! options, the scheduler kind and the store format version. The
//! `flexer` driver keeps a bounded in-process tier of the same entries
//! under the same fingerprints in front of the store, and reports
//! each answer it serves from there through
//! [`ScheduleStore::note_memory_hit`].
//!
//! Design points (DESIGN.md §12):
//!
//! * **Content-addressed** — the entry file name *is* the fingerprint,
//!   32 lowercase hex digits of an FNV-1a 128-bit hash over the
//!   canonical key bytes ([`flexer_sched::wire::canonical_key_bytes`])
//!   prefixed with the store magic and format version. Changing any
//!   winner-relevant knob, or the format version, changes the address;
//!   stale entries are simply never found.
//! * **Crash-safe** — entries are written to a temp file in the store
//!   directory, fsynced, then renamed into place. A torn write can
//!   leave a temp file (ignored and reaped) but never a half-visible
//!   entry.
//! * **Self-validating** — every entry carries a header with magic,
//!   format version, payload length and an FNV-1a 64 checksum of the
//!   payload. Anything that fails validation or decoding is a *typed*
//!   corrupt-entry miss ([`Lookup::Corrupt`]): the entry is deleted,
//!   the store's `corrupt` counter bumps, and the caller re-schedules
//!   and repairs. Corruption never panics and never serves a wrong
//!   schedule.
//! * **Size-bounded** — when the store grows past its byte capacity, a
//!   least-recently-used eviction pass deletes old entries (recency is
//!   in-memory per process, with file modification time as the
//!   fallback for entries this process never touched). Recency lives
//!   in the [`ScheduleStore`] handle, so the supported pattern is one
//!   handle per directory per process, shared by every caller.
//! * **Accounted** — a handle's lifetime hit/miss/evict/corrupt
//!   counters are [`ScheduleStore::counters`]; `hits` counts every
//!   stored winner served, `memory_hits` the part served from a
//!   caller's in-memory copy.
//!
//! # Examples
//!
//! ```
//! use flexer_arch::{ArchConfig, ArchPreset};
//! use flexer_model::ConvLayer;
//! use flexer_sched::{search_layer, SchedulerKind, SearchOptions};
//! use flexer_store::{fingerprint, Lookup, ScheduleStore};
//!
//! let dir = std::env::temp_dir().join(format!("fxs-doc-{}", std::process::id()));
//! let store = ScheduleStore::open(&dir)?;
//! let layer = ConvLayer::new("conv", 32, 14, 14, 32)?;
//! let arch = ArchConfig::preset(ArchPreset::Arch1);
//! let opts = SearchOptions::quick();
//! let fp = fingerprint(&layer, &arch, &opts, SchedulerKind::Ooo);
//!
//! assert!(matches!(store.get(fp), Lookup::Miss));
//! let result = search_layer(&layer, &arch, &opts)?;
//! store.put(fp, &result)?;
//! let Lookup::Hit(warm) = store.get(fp) else { panic!("expected hit") };
//! assert_eq!(warm.schedule, result.schedule);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fingerprint;
mod store;

pub use fingerprint::{fingerprint, fingerprint_of_key_bytes, Fingerprint, FORMAT_VERSION};
pub use store::{
    CorruptKind, Ingest, Lookup, ManifestEntry, ScheduleStore, StoreCounters,
    DEFAULT_CAPACITY_BYTES,
};
