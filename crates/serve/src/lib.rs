//! `flexer-serve`: a concurrent scheduling service over the Flexer
//! pipeline.
//!
//! The crate turns the batch search into a long-running daemon:
//!
//! - **Protocol** ([`protocol`]): newline-delimited JSON over TCP, one
//!   request line in, one response line out, with *typed* error codes
//!   (`parse`, `bad_request`, `overloaded`, `deadline`, `sched`,
//!   `shutting_down`, `internal`).
//! - **Engine** ([`engine`]): a cache of [`flexer::Flexer`] drivers,
//!   one per `(arch, options)` pair, all sharing one persistent
//!   [`flexer_store::ScheduleStore`] so every schedule ever computed
//!   warms every future request — across requests, drivers *and*
//!   process restarts. `verify` runs on the same driver as `schedule`
//!   and `compare`, validating for that request alone.
//! - **Server** ([`server`]): a bounded worker pool over a bounded
//!   accept queue; saturation sheds load with a typed `overloaded`
//!   reply instead of stalling, deadlines are enforced between layers,
//!   and shutdown drains in-flight work before flushing the store.
//! - **Client** ([`client`]): the minimal blocking client the
//!   `flexer-cli` binary and the integration tests share.
//!
//! Everything is `std`-only: no third-party runtime, no async — worker
//! threads and blocking sockets are plenty for search-bound requests
//! whose unit of work is milliseconds to seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use engine::{Deadline, Engine, ResidencySummary};
pub use protocol::{
    hex_decode, hex_encode, mask_provenance, parse_request, ErrorKind, Mode, Obj, Op, OptionsName,
    Request, MAX_LINE_BYTES,
};
pub use server::{request_shutdown, Server, ServerConfig};
