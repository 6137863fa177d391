//! The wire protocol: newline-delimited JSON, one request per line,
//! exactly one response line per request.
//!
//! Every request is a JSON object with an `"op"` member; every
//! response is a JSON object whose `"ok"` member says whether the
//! request succeeded. Failures carry a *typed* `"error"` code (see
//! [`ErrorKind::code`]) so clients can branch without parsing prose,
//! plus a human-readable `"message"`.
//!
//! | op | request members | success members |
//! |---|---|---|
//! | `health` | — | — |
//! | `stats` | — | `requests`, `errors`, `overloaded`, `drivers`, `store{...}`, `residency{...}` |
//! | `schedule` | network, `trace?`, `residency?` | totals, per-layer rows, `span_tree?`, `residency{...}?` |
//! | `compare` | network | `speedup`, `transfer_reduction`, totals |
//! | `verify` | network | as `compare`, plus `verified` |
//! | `store_manifest` | — | `entries` `[{fingerprint,len,checksum},…]`, `count` |
//! | `store_pull` | `fingerprints` | `entries` `[{fingerprint,bytes},…]`, `missing` |
//! | `store_push` | `entries` | `stored`, `existing`, `rejected` |
//! | `shutdown` | — | — (the server drains and exits) |
//!
//! A network is either `"network": "<preset>"` (any name
//! [`flexer_model::networks::by_name`] knows) or an inline
//! `"layers": [{"name"?, "in_channels", "height", "width",
//! "out_channels"}, ...]`. Optional members on every scheduling op:
//! `"arch"` (`"arch1"`..`"arch8"`, default `arch1`), `"options"`
//! (`"quick"` | `"default"`, default `quick`), `"deadline_ms"`, and
//! `"id"` (echoed back verbatim).
//!
//! `schedule` additionally accepts `"mode"` (`"exact"` | `"anytime"`,
//! default `exact`). In exact mode an expired deadline is the typed
//! `deadline` error; in anytime mode the search is cut at the deadline
//! and the best schedules found so far are returned with `"partial":
//! true` and a per-layer proven optimality `"gap"` instead of failing.
//! Anytime mode is exclusive to `schedule` (the static baseline the
//! other ops run has no anytime search) and incompatible with `trace`.
//!
//! `schedule` also accepts `"residency": true`, which runs the
//! network-level inter-layer SPM residency planner
//! (`Flexer::schedule_network_resident`): producer outputs that the
//! planner keeps resident in SPM skip their DRAM round-trip, so the
//! response's `transfer_bytes` counts DRAM traffic only and the
//! response carries a `"residency"` sub-object with `resident_edges`,
//! `spilled_edges` and `dma_bytes_saved` (bytes relative to the
//! residency-off plan of the same request). Residency is exclusive to
//! `schedule` and incompatible with `mode:"anytime"` and `trace` —
//! the planner is a whole-network pass over proven-optimal per-layer
//! winners.
//!
//! The `stats` response aggregates the same three counters across
//! every residency-planned network the server has scheduled, plus the
//! number of such networks, in its own `"residency"` sub-object:
//! `{"networks", "resident_edges", "spilled_edges",
//! "dma_bytes_saved"}`. The object is always present; all-zero means
//! no request has opted in yet.
//!
//! # Replication ops
//!
//! The three `store_*` ops are the fleet replication surface (DESIGN.md
//! §17). They require the server to have a persistent store and take no
//! network. `store_manifest` snapshots the healthy entries (quarantined
//! and in-flight files are never advertised). `store_pull` returns the
//! checksummed wire bytes of the requested entries as lowercase hex —
//! unknown or locally-corrupt fingerprints land in `missing`, never as
//! damaged bytes. `store_push` ingests entries exported from a peer:
//! every entry re-validates through the same header/checksum/decode
//! pipeline a disk read uses, so damage is rejected (counted in the
//! response's `rejected` and the store's corrupt counter) instead of
//! replicated. All three are idempotent and safe to retry.
//!
//! # Deadline semantics
//!
//! `"deadline_ms"` is any non-negative integer; the edge cases are
//! pinned, not accidental:
//!
//! - `"deadline_ms": 0` means **already expired** — it does *not* mean
//!   "use the server default" or "unbounded". Exact mode answers the
//!   typed `deadline` error; anytime mode answers `"partial": true`
//!   with every layer's best-so-far schedule and gap (each layer
//!   always runs its first candidate).
//! - Omitting `"deadline_ms"` uses the server's default deadline
//!   (`--deadline-ms`), where a default of `0` means unbounded.
//! - Absurdly large values — a century or more out, up to and
//!   including `u64::MAX` — saturate to **unbounded**: the request
//!   simply never times out. They are accepted, not an error, and
//!   never a worker-killing clock overflow.
//! - A `"partial": true` anytime response always carries a non-empty
//!   `"layers"` array: partiality is a property of specific cut
//!   layers, and a request with no layers is rejected at parse time.

use flexer_model::{networks, ConvLayer, Network};
use flexer_store::Fingerprint;
use flexer_trace::json::{parse, Json};
use std::fmt;
use std::str::FromStr;

use flexer_arch::ArchPreset;

/// Hard cap on one request line; longer lines are a typed parse error
/// (and the connection is closed, since the remainder of the oversized
/// line cannot be resynchronized).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The operation a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe; does no work.
    Health,
    /// Server-wide counters.
    Stats,
    /// Out-of-order schedule for a network.
    Schedule,
    /// OoO vs. static-baseline comparison.
    Compare,
    /// Comparison under forced differential verification.
    Verify,
    /// Snapshot of the store's healthy entries (fingerprint + header
    /// material) for anti-entropy diffing.
    StoreManifest,
    /// Export the checksummed wire bytes of the requested entries.
    StorePull,
    /// Ingest entry bytes exported from a peer (re-validated locally).
    StorePush,
    /// Graceful shutdown: drain in-flight requests, flush the store.
    Shutdown,
}

impl Op {
    /// The wire name.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Op::Health => "health",
            Op::Stats => "stats",
            Op::Schedule => "schedule",
            Op::Compare => "compare",
            Op::Verify => "verify",
            Op::StoreManifest => "store_manifest",
            Op::StorePull => "store_pull",
            Op::StorePush => "store_push",
            Op::Shutdown => "shutdown",
        }
    }
}

/// The search-option preset a request selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionsName {
    /// [`flexer_sched::SearchOptions::quick`].
    Quick,
    /// [`flexer_sched::SearchOptions::default`].
    Default,
}

impl OptionsName {
    /// The wire name.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            OptionsName::Quick => "quick",
            OptionsName::Default => "default",
        }
    }
}

/// How a `schedule` request treats its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// An expired deadline is the typed `deadline` error; results are
    /// always proven optima.
    #[default]
    Exact,
    /// The search is cut at the deadline and the best schedules found
    /// so far are returned with `"partial": true` and a per-layer
    /// proven optimality gap.
    Anytime,
}

impl Mode {
    /// The wire name.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Mode::Exact => "exact",
            Mode::Anytime => "anytime",
        }
    }
}

/// Typed failure codes — the machine-readable half of every error
/// response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not valid JSON (or was oversized).
    Parse,
    /// Valid JSON, but not a valid request.
    BadRequest,
    /// The server's pending-connection queue is full.
    Overloaded,
    /// The request's deadline passed before a result was ready.
    Deadline,
    /// The search itself failed (no viable tiling, illegal schedule…).
    Sched,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// An unexpected server-side failure (e.g. store I/O).
    Internal,
}

impl ErrorKind {
    /// The wire code carried in the `"error"` member.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Sched => "sched",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A parsed, validated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// What to do.
    pub op: Op,
    /// Client correlation id, echoed back verbatim when present.
    pub id: Option<String>,
    /// Target architecture preset.
    pub arch: ArchPreset,
    /// Search-option preset.
    pub options: OptionsName,
    /// The network to schedule (required by scheduling ops only).
    pub network: Option<Network>,
    /// Per-request deadline in milliseconds. `Some(0)` is already
    /// expired; `None` falls back to the server default.
    pub deadline_ms: Option<u64>,
    /// Deadline semantics for `schedule`: fail (`exact`, default) or
    /// return the best-so-far with a proven gap (`anytime`).
    pub mode: Mode,
    /// Capture a deterministic trace of the search. Traced requests
    /// bypass the persistent store: the point is to watch the real
    /// search run.
    pub trace: bool,
    /// Run the inter-layer SPM residency planner for `schedule`:
    /// producer→consumer edges the planner accepts keep the tensor
    /// resident in SPM instead of round-tripping through DRAM.
    pub residency: bool,
    /// The entry addresses a `store_pull` asks for.
    pub fingerprints: Vec<Fingerprint>,
    /// The `(address, entry-file bytes)` pairs a `store_push` carries.
    pub entries: Vec<(Fingerprint, Vec<u8>)>,
}

fn as_u64(j: &Json, what: &str) -> Result<u64, String> {
    let n = j
        .as_num()
        .ok_or_else(|| format!("{what} must be a number"))?;
    if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
        Ok(n as u64)
    } else {
        Err(format!("{what} must be a non-negative integer"))
    }
}

fn as_u32(j: &Json, what: &str) -> Result<u32, String> {
    u32::try_from(as_u64(j, what)?).map_err(|_| format!("{what} out of range"))
}

fn parse_layers(items: &[Json]) -> Result<Vec<ConvLayer>, String> {
    if items.is_empty() {
        return Err("layers must be non-empty".into());
    }
    let mut layers = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |key: &str| -> Result<u32, String> {
            let j = item
                .get(key)
                .ok_or_else(|| format!("layers[{i}] missing {key:?}"))?;
            as_u32(j, &format!("layers[{i}].{key}"))
        };
        let name = match item.get("name") {
            Some(j) => j
                .as_str()
                .ok_or_else(|| format!("layers[{i}].name must be a string"))?
                .to_string(),
            None => format!("l{i}"),
        };
        let layer = ConvLayer::new(
            &name,
            field("in_channels")?,
            field("height")?,
            field("width")?,
            field("out_channels")?,
        )
        .map_err(|e| format!("layers[{i}]: {e}"))?;
        layers.push(layer);
    }
    Ok(layers)
}

fn parse_network(obj: &Json) -> Result<Option<Network>, String> {
    let name = match obj.get("network") {
        Some(j) => Some(
            j.as_str()
                .ok_or_else(|| "network must be a string".to_string())?,
        ),
        None => None,
    };
    if let Some(j) = obj.get("layers") {
        let items = j
            .as_array()
            .ok_or_else(|| "layers must be an array".to_string())?;
        let layers = parse_layers(items)?;
        return Network::new(name.unwrap_or("net"), layers)
            .map(Some)
            .map_err(|e| e.to_string());
    }
    match name {
        Some(name) => networks::by_name(name)
            .map(Some)
            .ok_or_else(|| format!("unknown network preset {name:?} (and no inline layers)")),
        None => Ok(None),
    }
}

/// Encodes bytes as lowercase hex — the wire form of store-entry
/// payloads in `store_pull`/`store_push` messages.
#[must_use]
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes a lowercase-hex string back into bytes. Returns `None` for
/// odd lengths, uppercase, or non-hex characters — wire input is
/// validated strictly.
#[must_use]
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    fn nibble(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            _ => None,
        }
    }
    let raw = s.as_bytes();
    if !raw.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Some(out)
}

fn parse_fingerprint(j: &Json, what: &str) -> Result<Fingerprint, String> {
    let s = j
        .as_str()
        .ok_or_else(|| format!("{what} must be a string"))?;
    Fingerprint::from_hex(s).ok_or_else(|| format!("{what} must be 32 lowercase hex digits"))
}

/// Parses one request line.
///
/// # Errors
///
/// [`ErrorKind::Parse`] for malformed JSON or an oversized line,
/// [`ErrorKind::BadRequest`] for well-formed JSON that is not a valid
/// request — both with a human-readable message.
pub fn parse_request(line: &str) -> Result<Request, (ErrorKind, String)> {
    if line.len() > MAX_LINE_BYTES {
        return Err((
            ErrorKind::Parse,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    let obj = parse(line.trim()).map_err(|e| {
        (
            ErrorKind::Parse,
            format!("{} at byte {}", e.message, e.offset),
        )
    })?;
    let bad = |msg: String| (ErrorKind::BadRequest, msg);
    if obj.as_object().is_none() {
        return Err(bad("request must be a JSON object".into()));
    }
    let op = match obj.get("op").and_then(Json::as_str) {
        Some("health") => Op::Health,
        Some("stats") => Op::Stats,
        Some("schedule") => Op::Schedule,
        Some("compare") => Op::Compare,
        Some("verify") => Op::Verify,
        Some("store_manifest") => Op::StoreManifest,
        Some("store_pull") => Op::StorePull,
        Some("store_push") => Op::StorePush,
        Some("shutdown") => Op::Shutdown,
        Some(other) => return Err(bad(format!("unknown op {other:?}"))),
        None => return Err(bad("missing op".into())),
    };
    let id = match obj.get("id") {
        Some(j) => Some(
            j.as_str()
                .ok_or_else(|| bad("id must be a string".into()))?
                .to_string(),
        ),
        None => None,
    };
    let arch = match obj.get("arch") {
        Some(j) => {
            let s = j
                .as_str()
                .ok_or_else(|| bad("arch must be a string".into()))?;
            ArchPreset::from_str(s).map_err(|e| bad(e.to_string()))?
        }
        None => ArchPreset::Arch1,
    };
    let options = match obj.get("options").map(|j| (j, j.as_str())) {
        Some((_, Some("quick"))) => OptionsName::Quick,
        Some((_, Some("default"))) => OptionsName::Default,
        Some((_, Some(other))) => {
            return Err(bad(format!(
                "unknown options {other:?} (expected \"quick\" or \"default\")"
            )))
        }
        Some((_, None)) => return Err(bad("options must be a string".into())),
        None => OptionsName::Quick,
    };
    let deadline_ms = match obj.get("deadline_ms") {
        Some(j) => Some(as_u64(j, "deadline_ms").map_err(bad)?),
        None => None,
    };
    let trace = match obj.get("trace") {
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(bad("trace must be a boolean".into())),
        None => false,
    };
    let mode = match obj.get("mode").map(|j| (j, j.as_str())) {
        Some((_, Some("exact"))) => Mode::Exact,
        Some((_, Some("anytime"))) => Mode::Anytime,
        Some((_, Some(other))) => {
            return Err(bad(format!(
                "unknown mode {other:?} (expected \"exact\" or \"anytime\")"
            )))
        }
        Some((_, None)) => return Err(bad("mode must be a string".into())),
        None => Mode::Exact,
    };
    if mode == Mode::Anytime && op != Op::Schedule {
        return Err(bad(format!(
            "anytime mode is only valid for op \"schedule\", not {:?}",
            op.code()
        )));
    }
    if mode == Mode::Anytime && trace {
        return Err(bad("anytime mode and trace are mutually exclusive".into()));
    }
    let residency = match obj.get("residency") {
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(bad("residency must be a boolean".into())),
        None => false,
    };
    if residency && op != Op::Schedule {
        return Err(bad(format!(
            "residency is only valid for op \"schedule\", not {:?}",
            op.code()
        )));
    }
    if residency && mode == Mode::Anytime {
        return Err(bad(
            "residency and anytime mode are mutually exclusive".into()
        ));
    }
    if residency && trace {
        return Err(bad("residency and trace are mutually exclusive".into()));
    }
    let fingerprints = match obj.get("fingerprints") {
        Some(j) => {
            if op != Op::StorePull {
                return Err(bad(format!(
                    "fingerprints is only valid for op \"store_pull\", not {:?}",
                    op.code()
                )));
            }
            let items = j
                .as_array()
                .ok_or_else(|| bad("fingerprints must be an array".into()))?;
            let mut fps = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                fps.push(parse_fingerprint(item, &format!("fingerprints[{i}]")).map_err(bad)?);
            }
            fps
        }
        None => Vec::new(),
    };
    if op == Op::StorePull && fingerprints.is_empty() {
        return Err(bad(
            "op \"store_pull\" needs a non-empty \"fingerprints\" array".into(),
        ));
    }
    let entries = match obj.get("entries") {
        Some(j) => {
            if op != Op::StorePush {
                return Err(bad(format!(
                    "entries is only valid for op \"store_push\", not {:?}",
                    op.code()
                )));
            }
            let items = j
                .as_array()
                .ok_or_else(|| bad("entries must be an array".into()))?;
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let fp = item
                    .get("fingerprint")
                    .ok_or_else(|| bad(format!("entries[{i}] missing \"fingerprint\"")))?;
                let fp =
                    parse_fingerprint(fp, &format!("entries[{i}].fingerprint")).map_err(bad)?;
                let bytes = item
                    .get("bytes")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad(format!("entries[{i}].bytes must be a string")))?;
                let bytes = hex_decode(bytes)
                    .ok_or_else(|| bad(format!("entries[{i}].bytes must be lowercase hex")))?;
                out.push((fp, bytes));
            }
            out
        }
        None => Vec::new(),
    };
    if op == Op::StorePush && entries.is_empty() {
        return Err(bad(
            "op \"store_push\" needs a non-empty \"entries\" array".into()
        ));
    }
    let network = parse_network(&obj).map_err(bad)?;
    if matches!(op, Op::Schedule | Op::Compare | Op::Verify) && network.is_none() {
        return Err(bad(format!(
            "op {:?} needs a \"network\" preset name or inline \"layers\"",
            op.code()
        )));
    }
    Ok(Request {
        op,
        id,
        arch,
        options,
        network,
        deadline_ms,
        mode,
        trace,
        residency,
        fingerprints,
        entries,
    })
}

/// Masks the store-provenance markers in a serialized scheduling
/// response: per-layer `"store":"hit"/"miss"` tags are dropped and
/// every `store_hits`/`store_misses` counter is zeroed.
///
/// Two responses for the same request must be byte-identical *after*
/// this mask no matter which node of a fleet served them or how warm
/// its store was — that invariant is what the chaos harness, the fleet
/// smoke and the bench gates assert, so the masking lives here next to
/// the protocol it censors.
#[must_use]
pub fn mask_provenance(line: &str) -> String {
    let mut s = line
        .replace(r#","store":"hit""#, "")
        .replace(r#","store":"miss""#, "");
    for key in ["\"store_hits\":", "\"store_misses\":"] {
        let mut from = 0;
        while let Some(i) = s[from..].find(key) {
            let start = from + i + key.len();
            let digits = s[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(s.len(), |d| start + d);
            s.replace_range(start..digits, "0");
            from = start + 1;
        }
    }
    s
}

/// Escapes `s` for embedding inside a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An incremental JSON-object writer: append members, then
/// [`Obj::finish`] into the serialized line. All protocol responses
/// are built with this, keeping escaping in one place.
#[derive(Debug)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Appends a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(value));
        self.buf.push('"');
        self
    }

    /// Appends an unsigned integer member.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Appends a float member (`null` when not finite, which JSON
    /// cannot represent).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            self.buf.push_str(&format!("{value}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends a boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends a pre-serialized JSON value verbatim.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the serialized text (no trailing
    /// newline).
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds a success-response object pre-populated with `ok`, the op
/// code and the echoed id.
#[must_use]
pub fn ok_response(op: Op, id: Option<&str>) -> Obj {
    let mut o = Obj::new();
    o.bool("ok", true).str("op", op.code());
    if let Some(id) = id {
        o.str("id", id);
    }
    o
}

/// One serialized error-response line (without trailing newline).
#[must_use]
pub fn error_line(kind: ErrorKind, id: Option<&str>, message: &str) -> String {
    let mut o = Obj::new();
    o.bool("ok", false).str("error", kind.code());
    if let Some(id) = id {
        o.str("id", id);
    }
    o.str("message", message);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_ops_parse() {
        for (line, op) in [
            (r#"{"op":"health"}"#, Op::Health),
            (r#"{"op":"stats"}"#, Op::Stats),
            (r#"{"op":"shutdown"}"#, Op::Shutdown),
        ] {
            let req = parse_request(line).unwrap();
            assert_eq!(req.op, op);
            assert_eq!(req.arch, ArchPreset::Arch1);
            assert_eq!(req.options, OptionsName::Quick);
            assert!(req.network.is_none());
        }
    }

    #[test]
    fn deadline_edge_values_parse_as_documented() {
        let req = |deadline: &str| {
            parse_request(&format!(
                r#"{{"op":"schedule","layers":[{{"in_channels":16,"height":14,"width":14,"out_channels":16}}],"deadline_ms":{deadline}}}"#
            ))
        };
        // 0 is a legal, already-expired deadline — not an error and
        // not "server default".
        assert_eq!(req("0").unwrap().deadline_ms, Some(0));
        // Absurdly large values up to u64::MAX parse; saturating them
        // to unbounded is the engine's job, not a parse rejection.
        assert_eq!(
            req("18446744073709551615").unwrap().deadline_ms,
            Some(u64::MAX)
        );
        assert_eq!(
            req("4611686018427387904").unwrap().deadline_ms,
            Some(1 << 62)
        );
        // Absent means "server default".
        let line = r#"{"op":"schedule","layers":[{"in_channels":16,"height":14,"width":14,"out_channels":16}]}"#;
        assert_eq!(parse_request(line).unwrap().deadline_ms, None);
        // Negative and fractional values stay typed bad_request.
        for bad in ["-1", "0.5", "\"soon\""] {
            let (kind, _) = req(bad).unwrap_err();
            assert_eq!(kind, ErrorKind::BadRequest, "deadline_ms={bad}");
        }
    }

    #[test]
    fn empty_layer_lists_are_rejected_for_every_mode() {
        // `partial:true` with an empty layer set is impossible partly
        // because the request can never get that far.
        for mode in ["exact", "anytime"] {
            let line =
                format!(r#"{{"op":"schedule","layers":[],"mode":"{mode}","deadline_ms":0}}"#);
            let (kind, msg) = parse_request(&line).unwrap_err();
            assert_eq!(kind, ErrorKind::BadRequest, "mode={mode}");
            assert!(msg.contains("non-empty"), "{msg}");
        }
    }

    #[test]
    fn schedule_with_inline_layers_parses() {
        let line = r#"{"op":"schedule","id":"r1","arch":"arch5","options":"default",
            "network":"tiny","deadline_ms":250,"trace":true,
            "layers":[{"name":"c1","in_channels":16,"height":14,"width":14,"out_channels":32}]}"#;
        let req = parse_request(line).unwrap();
        assert_eq!(req.op, Op::Schedule);
        assert_eq!(req.id.as_deref(), Some("r1"));
        assert_eq!(req.arch, ArchPreset::Arch5);
        assert_eq!(req.options, OptionsName::Default);
        assert_eq!(req.deadline_ms, Some(250));
        assert!(req.trace);
        let net = req.network.unwrap();
        assert_eq!(net.name(), "tiny");
        assert_eq!(net.layers().len(), 1);
        assert_eq!(net.layers()[0].name(), "c1");
    }

    #[test]
    fn preset_networks_resolve_by_name() {
        let req = parse_request(r#"{"op":"schedule","network":"squeezenet"}"#).unwrap();
        assert!(req.network.unwrap().layers().len() > 1);
        let err = parse_request(r#"{"op":"schedule","network":"nope"}"#).unwrap_err();
        assert_eq!(err.0, ErrorKind::BadRequest);
    }

    #[test]
    fn malformed_and_invalid_requests_get_typed_errors() {
        assert_eq!(parse_request("not json").unwrap_err().0, ErrorKind::Parse);
        assert_eq!(parse_request("[1,2]").unwrap_err().0, ErrorKind::BadRequest);
        assert_eq!(
            parse_request(r#"{"op":"explode"}"#).unwrap_err().0,
            ErrorKind::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"op":"schedule"}"#).unwrap_err().0,
            ErrorKind::BadRequest,
            "scheduling without a network is rejected"
        );
        assert_eq!(
            parse_request(r#"{"op":"schedule","layers":[]}"#)
                .unwrap_err()
                .0,
            ErrorKind::BadRequest
        );
        let long = format!(
            "{{\"op\":\"health\",\"id\":\"{}\"}}",
            "x".repeat(MAX_LINE_BYTES)
        );
        assert_eq!(parse_request(&long).unwrap_err().0, ErrorKind::Parse);
    }

    #[test]
    fn anytime_mode_parses_on_schedule_only() {
        let req = parse_request(r#"{"op":"schedule","network":"squeezenet"}"#).unwrap();
        assert_eq!(req.mode, Mode::Exact, "mode defaults to exact");
        let req =
            parse_request(r#"{"op":"schedule","network":"squeezenet","mode":"anytime"}"#).unwrap();
        assert_eq!(req.mode, Mode::Anytime);
        let req =
            parse_request(r#"{"op":"schedule","network":"squeezenet","mode":"exact"}"#).unwrap();
        assert_eq!(req.mode, Mode::Exact);
        for line in [
            r#"{"op":"schedule","network":"squeezenet","mode":"sometime"}"#,
            r#"{"op":"schedule","network":"squeezenet","mode":7}"#,
            r#"{"op":"compare","network":"squeezenet","mode":"anytime"}"#,
            r#"{"op":"verify","network":"squeezenet","mode":"anytime"}"#,
            r#"{"op":"schedule","network":"squeezenet","mode":"anytime","trace":true}"#,
        ] {
            assert_eq!(
                parse_request(line).unwrap_err().0,
                ErrorKind::BadRequest,
                "{line}"
            );
        }
    }

    #[test]
    fn residency_parses_on_schedule_only() {
        let req = parse_request(r#"{"op":"schedule","network":"squeezenet"}"#).unwrap();
        assert!(!req.residency, "residency defaults to off");
        let req =
            parse_request(r#"{"op":"schedule","network":"squeezenet","residency":true}"#).unwrap();
        assert!(req.residency);
        let req =
            parse_request(r#"{"op":"schedule","network":"squeezenet","residency":false}"#).unwrap();
        assert!(!req.residency);
        for line in [
            r#"{"op":"schedule","network":"squeezenet","residency":"yes"}"#,
            r#"{"op":"compare","network":"squeezenet","residency":true}"#,
            r#"{"op":"verify","network":"squeezenet","residency":true}"#,
            r#"{"op":"schedule","network":"squeezenet","residency":true,"mode":"anytime"}"#,
            r#"{"op":"schedule","network":"squeezenet","residency":true,"trace":true}"#,
        ] {
            assert_eq!(
                parse_request(line).unwrap_err().0,
                ErrorKind::BadRequest,
                "{line}"
            );
        }
    }

    #[test]
    fn hex_codec_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let hex = hex_encode(&bytes);
        assert_eq!(hex_decode(&hex).as_deref(), Some(bytes.as_slice()));
        assert_eq!(hex_decode(""), Some(Vec::new()));
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("AB"), None, "uppercase");
        assert_eq!(hex_decode("zz"), None, "non-hex");
    }

    #[test]
    fn store_ops_parse_and_validate() {
        let fp = Fingerprint::from_hex("000102030405060708090a0b0c0d0e0f").unwrap();
        let req = parse_request(r#"{"op":"store_manifest"}"#).unwrap();
        assert_eq!(req.op, Op::StoreManifest);
        assert!(req.fingerprints.is_empty() && req.entries.is_empty());

        let line = format!(r#"{{"op":"store_pull","fingerprints":["{}"]}}"#, fp.hex());
        let req = parse_request(&line).unwrap();
        assert_eq!(req.op, Op::StorePull);
        assert_eq!(req.fingerprints, vec![fp]);

        let line = format!(
            r#"{{"op":"store_push","entries":[{{"fingerprint":"{}","bytes":"deadbeef"}}]}}"#,
            fp.hex()
        );
        let req = parse_request(&line).unwrap();
        assert_eq!(req.op, Op::StorePush);
        assert_eq!(req.entries, vec![(fp, vec![0xde, 0xad, 0xbe, 0xef])]);

        for line in [
            // Missing / empty required members.
            r#"{"op":"store_pull"}"#,
            r#"{"op":"store_pull","fingerprints":[]}"#,
            r#"{"op":"store_push"}"#,
            r#"{"op":"store_push","entries":[]}"#,
            // Malformed addresses and payloads.
            r#"{"op":"store_pull","fingerprints":["xyz"]}"#,
            r#"{"op":"store_pull","fingerprints":[7]}"#,
            r#"{"op":"store_push","entries":[{"bytes":"ab"}]}"#,
            r#"{"op":"store_push","entries":[{"fingerprint":"000102030405060708090a0b0c0d0e0f","bytes":"xyz"}]}"#,
            // Replication members are exclusive to their ops.
            r#"{"op":"health","fingerprints":["000102030405060708090a0b0c0d0e0f"]}"#,
            r#"{"op":"schedule","network":"squeezenet","entries":[{"fingerprint":"000102030405060708090a0b0c0d0e0f","bytes":"ab"}]}"#,
        ] {
            assert_eq!(
                parse_request(line).unwrap_err().0,
                ErrorKind::BadRequest,
                "{line}"
            );
        }
    }

    #[test]
    fn responses_are_valid_json() {
        let mut o = ok_response(Op::Health, Some("a\"b"));
        o.u64("n", 7).f64("x", 1.5).f64("nan", f64::NAN);
        let line = o.finish();
        let parsed = flexer_trace::json::parse(&line).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("id").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(parsed.get("nan"), Some(&Json::Null));

        let err = error_line(ErrorKind::Overloaded, None, "queue full\n");
        let parsed = flexer_trace::json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("overloaded")
        );
    }
}
