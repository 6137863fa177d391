//! Request execution: drivers, deadlines, and response bodies.
//!
//! The engine owns a lazily populated cache of [`Flexer`] drivers, one
//! per `(arch, options, verify)` combination a request can name. When
//! the server is started with a persistent store, the engine opens one
//! [`ScheduleStore`] handle and every driver and the replication ops
//! share it — entries are content-addressed, so the drivers never
//! collide, and one LRU recency sees every hit. One driver's result
//! tier warms every later request with the same configuration.

use crate::protocol::{hex_encode, ok_response, ErrorKind, Mode, Obj, Op, OptionsName, Request};
use flexer::prelude::*;
use flexer_arch::ArchPreset;
use flexer_sched::SchedError;
use flexer_store::{Ingest, ScheduleStore, DEFAULT_CAPACITY_BYTES};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A typed request failure: the wire code plus a human-readable
/// message.
pub type Failure = (ErrorKind, String);

/// A per-request deadline, checked between units of work (layers).
///
/// The search for one layer is not interruptible — a deadline that
/// expires mid-layer is reported once that layer completes — so the
/// enforcement granularity is one layer.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now; `None` falls back to
    /// `default_ms`, where `0` means unbounded.
    ///
    /// The full semantics (pinned by tests here and in
    /// `crate::protocol`):
    ///
    /// - `Some(0)` is *already expired* — exact-mode requests fail with
    ///   the typed `deadline` error, anytime-mode requests return every
    ///   layer's best-so-far (each layer always runs its first
    ///   candidate).
    /// - `None` with `default_ms == 0` is unbounded.
    /// - Absurdly large values (≥ [`Self::UNBOUNDED_THRESHOLD_MS`],
    ///   up to and including `u64::MAX`) saturate to unbounded instead
    ///   of risking a clock overflow — an `Instant + Duration` panic
    ///   in a worker thread would kill that worker and silently shrink
    ///   the pool.
    #[must_use]
    pub fn from_ms(ms: Option<u64>, default_ms: u64) -> Self {
        // An explicit 0 means "already expired"; only an absent
        // deadline with default 0 is unbounded.
        let at = match ms {
            Some(ms) => Self::saturating_expiry(ms),
            None if default_ms == 0 => None,
            None => Self::saturating_expiry(default_ms),
        };
        Self { at }
    }

    /// Deadlines at least this far out are treated as unbounded
    /// (~100 years). The threshold makes the saturation
    /// platform-independent: whether `Instant + Duration` overflows
    /// for a given huge value differs by OS clock representation, and
    /// a deadline a century out is unbounded for every practical
    /// purpose anyway.
    const UNBOUNDED_THRESHOLD_MS: u64 = 100 * 365 * 24 * 60 * 60 * 1000;

    /// `now + ms`, or `None` (unbounded) for values past
    /// [`Self::UNBOUNDED_THRESHOLD_MS`] or beyond what the monotonic
    /// clock can represent.
    fn saturating_expiry(ms: u64) -> Option<Instant> {
        if ms >= Self::UNBOUNDED_THRESHOLD_MS {
            return None;
        }
        Instant::now().checked_add(Duration::from_millis(ms))
    }

    /// An unbounded deadline.
    #[must_use]
    pub fn unbounded() -> Self {
        Self { at: None }
    }

    /// The raw expiry instant, `None` when unbounded — what the
    /// anytime search threads through to its per-candidate cut checks.
    #[must_use]
    pub fn at(&self) -> Option<Instant> {
        self.at
    }

    /// Fails with [`ErrorKind::Deadline`] once the deadline has
    /// passed.
    ///
    /// # Errors
    ///
    /// The typed `deadline` failure.
    pub fn check(&self) -> Result<(), Failure> {
        match self.at {
            Some(at) if Instant::now() >= at => Err((
                ErrorKind::Deadline,
                "deadline exceeded before the request completed".into(),
            )),
            _ => Ok(()),
        }
    }
}

/// One driver per distinct request configuration. `verify` selects a
/// twin with [`SearchOptions::validate`] forced on, so verified and
/// unverified requests never share one driver's result tier.
type DriverKey = (ArchPreset, OptionsName, bool);

/// Aggregate counters over every residency-planned network the engine
/// has scheduled (requests with `"residency": true`). A snapshot of
/// the engine's internal atomics, reported by the `stats` op.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResidencySummary {
    /// Networks scheduled through the residency planner.
    pub networks: u64,
    /// Producer→consumer edges kept resident in SPM, summed over
    /// those networks.
    pub resident_edges: u64,
    /// Edges the planner considered but spilled back to DRAM under
    /// SPM pressure.
    pub spilled_edges: u64,
    /// DRAM bytes avoided versus the residency-off plans of the same
    /// requests.
    pub dma_bytes_saved: u64,
}

/// The engine-internal atomic twins of [`ResidencySummary`]. Relaxed
/// ordering throughout: the counters are monotonic totals with no
/// cross-field invariant a reader could observe torn.
#[derive(Debug, Default)]
struct ResidencyCounters {
    networks: AtomicU64,
    resident_edges: AtomicU64,
    spilled_edges: AtomicU64,
    dma_bytes_saved: AtomicU64,
}

/// Executes scheduling requests.
#[derive(Debug)]
pub struct Engine {
    drivers: Mutex<HashMap<DriverKey, Arc<Flexer>>>,
    store_dir: Option<PathBuf>,
    store_capacity: Option<u64>,
    /// The one store handle every driver and the replication ops
    /// share, opened on first use.
    store: Mutex<Option<Arc<ScheduleStore>>>,
    residency: ResidencyCounters,
}

impl Engine {
    /// An engine without persistence: every driver is memory-only.
    #[must_use]
    pub fn new() -> Self {
        Self {
            drivers: Mutex::new(HashMap::new()),
            store_dir: None,
            store_capacity: None,
            store: Mutex::new(None),
            residency: ResidencyCounters::default(),
        }
    }

    /// An engine whose drivers all warm-start from (and persist to)
    /// the schedule store rooted at `dir`. `capacity_bytes` bounds the
    /// store's size when given (`0` disables eviction).
    #[must_use]
    pub fn with_store(dir: PathBuf, capacity_bytes: Option<u64>) -> Self {
        Self {
            store_dir: Some(dir),
            store_capacity: capacity_bytes,
            ..Self::new()
        }
    }

    fn options_for(name: OptionsName, verify: bool) -> SearchOptions {
        let mut opts = match name {
            OptionsName::Quick => SearchOptions::quick(),
            OptionsName::Default => SearchOptions::default(),
        };
        if verify {
            opts.validate = true;
        }
        opts
    }

    /// The (cached) driver for one request configuration.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Internal`] when the store directory cannot be
    /// opened.
    fn driver(&self, key: DriverKey) -> Result<Arc<Flexer>, Failure> {
        let mut drivers = self.drivers.lock().expect("driver cache poisoned");
        if let Some(d) = drivers.get(&key) {
            return Ok(Arc::clone(d));
        }
        let (arch, options, verify) = key;
        let mut driver =
            Flexer::new(ArchConfig::preset(arch)).with_options(Self::options_for(options, verify));
        if let Some(store) = self.store()? {
            driver = driver.with_store(store);
        }
        let driver = Arc::new(driver);
        drivers.insert(key, Arc::clone(&driver));
        Ok(driver)
    }

    /// The shared store handle, opened on first use; `None` when the
    /// engine is memory-only.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Internal`] when the directory cannot be opened.
    fn store(&self) -> Result<Option<Arc<ScheduleStore>>, Failure> {
        let Some(dir) = &self.store_dir else {
            return Ok(None);
        };
        let mut slot = self.store.lock().expect("store slot poisoned");
        if slot.is_none() {
            let capacity = self.store_capacity.unwrap_or(DEFAULT_CAPACITY_BYTES);
            let store = ScheduleStore::with_capacity(dir, capacity).map_err(|e| {
                (
                    ErrorKind::Internal,
                    format!("cannot open schedule store at {}: {e}", dir.display()),
                )
            })?;
            *slot = Some(Arc::new(store));
        }
        Ok(slot.clone())
    }

    /// The store handle if a request has opened it already.
    fn opened_store(&self) -> Option<Arc<ScheduleStore>> {
        self.store.lock().expect("store slot poisoned").clone()
    }

    /// Number of distinct driver configurations instantiated so far.
    #[must_use]
    pub fn driver_count(&self) -> usize {
        self.drivers.lock().expect("driver cache poisoned").len()
    }

    /// The store's lifetime counters (all zero until a request opens
    /// it), or `None` when the engine is memory-only.
    #[must_use]
    pub fn store_summary(&self) -> Option<StoreCounters> {
        self.store_dir.as_ref()?;
        let store = self.opened_store();
        Some(store.map(|s| s.counters()).unwrap_or_default())
    }

    /// Number of entries in the store directory (0 until a request
    /// opens it), or `None` when the engine is memory-only.
    #[must_use]
    pub fn store_entries(&self) -> Option<usize> {
        self.store_dir.as_ref()?;
        Some(self.opened_store().and_then(|s| s.len().ok()).unwrap_or(0))
    }

    /// Snapshot of the aggregate residency counters — what the
    /// `stats` op reports in its `"residency"` sub-object. All-zero
    /// until a `schedule` request opts in with `"residency": true`.
    #[must_use]
    pub fn residency_summary(&self) -> ResidencySummary {
        ResidencySummary {
            networks: self.residency.networks.load(Ordering::Relaxed),
            resident_edges: self.residency.resident_edges.load(Ordering::Relaxed),
            spilled_edges: self.residency.spilled_edges.load(Ordering::Relaxed),
            dma_bytes_saved: self.residency.dma_bytes_saved.load(Ordering::Relaxed),
        }
    }

    /// Flushes the store directory (directory-level `fsync`), making
    /// all persisted schedules durable. Called on graceful shutdown.
    pub fn flush_store(&self) {
        if let Some(store) = self.opened_store() {
            let _ = store.flush();
        }
    }

    /// Executes one replication request ([`Op::StoreManifest`],
    /// [`Op::StorePull`] or [`Op::StorePush`]) and returns the
    /// serialized success line.
    ///
    /// # Errors
    ///
    /// A typed [`Failure`]: `bad_request` on a store-less server or
    /// `internal` on store I/O errors. Damaged pushed entries are not
    /// an error — they are rejected per entry and reported in the
    /// response's `rejected` count, so one bad replica cannot stall an
    /// anti-entropy pass.
    ///
    /// # Panics
    ///
    /// Panics if called for a non-replication op —
    /// [`crate::protocol::parse_request`] routes only `store_*` ops
    /// here.
    pub fn run_store(&self, req: &Request) -> Result<String, Failure> {
        let store = self.store()?.ok_or_else(|| {
            (
                ErrorKind::BadRequest,
                "this server has no persistent store (started without --store)".to_string(),
            )
        })?;
        let internal = |e: std::io::Error| (ErrorKind::Internal, format!("store I/O failed: {e}"));
        let mut o = ok_response(req.op, req.id.as_deref());
        match req.op {
            Op::StoreManifest => {
                let entries = store.manifest().map_err(internal)?;
                let mut rows = String::from("[");
                for (i, e) in entries.iter().enumerate() {
                    if i > 0 {
                        rows.push(',');
                    }
                    rows.push_str(&format!(
                        r#"{{"fingerprint":"{}","len":{},"checksum":{}}}"#,
                        e.fingerprint.hex(),
                        e.len,
                        e.checksum
                    ));
                }
                rows.push(']');
                o.raw("entries", &rows).u64("count", entries.len() as u64);
            }
            Op::StorePull => {
                let mut rows = String::from("[");
                let mut missing = String::from("[");
                let mut found = 0u64;
                for fp in &req.fingerprints {
                    match store.export(*fp).map_err(internal)? {
                        Some(bytes) => {
                            if found > 0 {
                                rows.push(',');
                            }
                            found += 1;
                            rows.push_str(&format!(
                                r#"{{"fingerprint":"{}","bytes":"{}"}}"#,
                                fp.hex(),
                                hex_encode(&bytes)
                            ));
                        }
                        None => {
                            if missing.len() > 1 {
                                missing.push(',');
                            }
                            missing.push_str(&format!(r#""{}""#, fp.hex()));
                        }
                    }
                }
                rows.push(']');
                missing.push(']');
                o.raw("entries", &rows).raw("missing", &missing);
            }
            Op::StorePush => {
                let (mut stored, mut existing, mut rejected) = (0u64, 0u64, 0u64);
                for (fp, bytes) in &req.entries {
                    match store.ingest(*fp, bytes).map_err(internal)? {
                        Ingest::Stored => stored += 1,
                        Ingest::Exists => existing += 1,
                        Ingest::Rejected(_) => rejected += 1,
                    }
                }
                o.u64("stored", stored)
                    .u64("existing", existing)
                    .u64("rejected", rejected);
            }
            _ => unreachable!("engine only runs store ops here"),
        }
        Ok(o.finish())
    }

    /// Executes one scheduling request ([`Op::Schedule`],
    /// [`Op::Compare`] or [`Op::Verify`]) and returns the serialized
    /// success line.
    ///
    /// # Errors
    ///
    /// A typed [`Failure`]: `deadline`, `sched` or `internal`.
    ///
    /// # Panics
    ///
    /// Panics if called for a non-scheduling op or a request without a
    /// network — [`crate::protocol::parse_request`] never produces
    /// either.
    pub fn run(&self, req: &Request, deadline: &Deadline) -> Result<String, Failure> {
        let net = req
            .network
            .as_ref()
            .expect("scheduling request without a network");
        match req.op {
            Op::Schedule => self.run_schedule(req, net, deadline),
            Op::Compare => self.run_compare(req, net, deadline, false),
            Op::Verify => self.run_compare(req, net, deadline, true),
            _ => unreachable!("engine only runs scheduling ops"),
        }
    }

    fn sched_failure(e: &SchedError) -> Failure {
        (ErrorKind::Sched, e.to_string())
    }

    /// Schedules every layer through `driver`, checking the deadline
    /// between layers.
    fn layers_with_deadline(
        driver: &Flexer,
        net: &Network,
        deadline: &Deadline,
        kind: SchedulerKind,
    ) -> Result<NetworkResult, Failure> {
        let mut rows = Vec::with_capacity(net.layers().len());
        for layer in net.layers() {
            deadline.check()?;
            let run = driver.search(std::slice::from_ref(layer), kind, None, None);
            rows.extend(run.into_result().map_err(|e| Self::sched_failure(&e))?);
        }
        Ok(NetworkResult::new(net.name(), rows))
    }

    fn push_totals(o: &mut Obj, req: &Request, result: &NetworkResult) {
        o.str("network", result.network())
            .str("arch", &req.arch.to_string())
            .str("options", req.options.code())
            .u64("latency", result.total_latency())
            .u64("transfer_bytes", result.total_transfer_bytes())
            .u64("evaluated", result.total_evaluated() as u64);
        let stats = result.total_stats();
        o.u64("store_hits", stats.store_hits)
            .u64("store_misses", stats.store_misses);
    }

    fn layer_rows(result: &NetworkResult) -> String {
        let mut rows = String::from("[");
        for (i, l) in result.layers().iter().enumerate() {
            if i > 0 {
                rows.push(',');
            }
            let mut row = Obj::new();
            row.str("name", &l.layer)
                .u64("latency", l.schedule.latency())
                .u64("transfer_bytes", l.schedule.transfer_bytes())
                .u64("evaluated", l.evaluated as u64);
            if let Some(gap) = l.gap() {
                row.bool("partial", true).f64("gap", gap);
            }
            if l.stats.store_hits > 0 {
                row.str("store", "hit");
            } else if l.stats.store_misses > 0 {
                row.str("store", "miss");
            }
            rows.push_str(&row.finish());
        }
        rows.push(']');
        rows
    }

    fn run_schedule(
        &self,
        req: &Request,
        net: &Network,
        deadline: &Deadline,
    ) -> Result<String, Failure> {
        let driver = self.driver((req.arch, req.options, false))?;
        if req.mode == Mode::Anytime {
            return Self::run_schedule_anytime(req, net, deadline, &driver);
        }
        if req.residency {
            return self.run_schedule_resident(req, net, deadline, &driver);
        }
        deadline.check()?;
        let mut o = ok_response(Op::Schedule, req.id.as_deref());
        let result = if req.trace {
            // Traced requests run the whole-network traced search: it
            // bypasses the persistent store on purpose (the point is
            // to watch the real search) and is not layer-interruptible.
            let traced = driver.search(
                net.layers(),
                SchedulerKind::Ooo,
                None,
                Some(TraceOptions::default()),
            );
            let tree = flexer::trace::text::render_tree(&traced.trace);
            let layers = traced.into_result().map_err(|e| Self::sched_failure(&e))?;
            deadline.check()?;
            o.str("span_tree", &tree);
            NetworkResult::new(net.name(), layers)
        } else {
            Self::layers_with_deadline(&driver, net, deadline, SchedulerKind::Ooo)?
        };
        Self::push_totals(&mut o, req, &result);
        o.raw("layers", &Self::layer_rows(&result));
        Ok(o.finish())
    }

    /// The residency variant of [`Engine::run_schedule`]: runs the
    /// whole-network inter-layer SPM residency planner instead of the
    /// per-layer loop. The planner is not layer-interruptible, so the
    /// deadline is checked before and after the pass. The response's
    /// totals count DRAM traffic only (resident edges moved their
    /// bytes out of DRAM — that is the point) and carry a
    /// `"residency"` sub-object with the per-network counters; the
    /// same counters feed the engine-wide `stats` aggregates.
    fn run_schedule_resident(
        &self,
        req: &Request,
        net: &Network,
        deadline: &Deadline,
        driver: &Flexer,
    ) -> Result<String, Failure> {
        deadline.check()?;
        let resident = driver
            .schedule_network_resident(net)
            .map_err(|e| Self::sched_failure(&e))?;
        deadline.check()?;
        let plan = &resident.plan;
        self.residency.networks.fetch_add(1, Ordering::Relaxed);
        self.residency
            .resident_edges
            .fetch_add(plan.resident_edges() as u64, Ordering::Relaxed);
        self.residency
            .spilled_edges
            .fetch_add(plan.spilled_edges() as u64, Ordering::Relaxed);
        self.residency
            .dma_bytes_saved
            .fetch_add(resident.dma_bytes_saved(), Ordering::Relaxed);
        let mut o = ok_response(Op::Schedule, req.id.as_deref());
        Self::push_totals(&mut o, req, &resident.result);
        let mut r = Obj::new();
        r.u64("resident_edges", plan.resident_edges() as u64)
            .u64("spilled_edges", plan.spilled_edges() as u64)
            .u64("dma_bytes_saved", resident.dma_bytes_saved())
            .u64(
                "baseline_transfer_bytes",
                resident.baseline.total_transfer_bytes(),
            );
        o.raw("residency", &r.finish());
        o.raw("layers", &Self::layer_rows(&resident.result));
        Ok(o.finish())
    }

    /// The anytime variant of [`Engine::run_schedule`]: never fails on
    /// an expired deadline. Every layer searches under the request's
    /// deadline and keeps its best-so-far schedule when cut; cut
    /// layers carry `"partial": true` and their proven optimality
    /// `"gap"`, and the response carries a top-level `"partial"` flag
    /// when any layer was cut.
    ///
    /// Anytime results bypass the persistent store and the result tier
    /// in both directions — only proven optima are durable — even when
    /// the request carries no deadline, so the search runs on the
    /// driver's architecture and options but not through the driver.
    fn run_schedule_anytime(
        req: &Request,
        net: &Network,
        deadline: &Deadline,
        driver: &Flexer,
    ) -> Result<String, Failure> {
        let search = Search {
            deadline: deadline.at(),
            ..Search::new(driver.arch(), driver.options())
        };
        let mut rows = Vec::with_capacity(net.layers().len());
        for layer in net.layers() {
            let result = search
                .run_layer(layer)
                .map_err(|e| Self::sched_failure(&e))?;
            rows.push(result);
        }
        let result = NetworkResult::new(net.name(), rows);
        let partial = result.layers().iter().any(|l| !l.is_exact());
        // `partial` is an existential over the layer rows, so it can
        // only be true when at least one row exists — a `partial:true`
        // response always names which layers were cut. (The protocol
        // additionally rejects empty layer lists at parse time.)
        debug_assert!(
            !partial || !result.layers().is_empty(),
            "partial:true requires a non-empty layer set"
        );
        let mut o = ok_response(Op::Schedule, req.id.as_deref());
        o.str("mode", req.mode.code()).bool("partial", partial);
        Self::push_totals(&mut o, req, &result);
        o.raw("layers", &Self::layer_rows(&result));
        Ok(o.finish())
    }

    fn run_compare(
        &self,
        req: &Request,
        net: &Network,
        deadline: &Deadline,
        verify: bool,
    ) -> Result<String, Failure> {
        let driver = self.driver((req.arch, req.options, verify))?;
        deadline.check()?;
        let flexer = Self::layers_with_deadline(&driver, net, deadline, SchedulerKind::Ooo)?;
        let baseline = Self::layers_with_deadline(&driver, net, deadline, SchedulerKind::Static)?;
        let cmp = NetworkComparison::new(flexer, baseline);
        let op = if verify { Op::Verify } else { Op::Compare };
        let mut o = ok_response(op, req.id.as_deref());
        Self::push_totals(&mut o, req, cmp.flexer());
        o.u64("baseline_latency", cmp.baseline().total_latency())
            .u64(
                "baseline_transfer_bytes",
                cmp.baseline().total_transfer_bytes(),
            )
            .f64("speedup", cmp.speedup())
            .f64("transfer_reduction", cmp.transfer_reduction());
        if verify {
            o.bool(
                "verified",
                cmp.flexer().verified() && cmp.baseline().verified(),
            );
        }
        o.raw("layers", &Self::layer_rows(cmp.flexer()));
        Ok(o.finish())
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    fn schedule_req(extra: &str) -> Request {
        parse_request(&format!(
            r#"{{"op":"schedule","layers":[{{"in_channels":16,"height":14,"width":14,"out_channels":16}}]{extra}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn schedule_request_round_trips() {
        let engine = Engine::new();
        let line = engine
            .run(&schedule_req(""), &Deadline::unbounded())
            .unwrap();
        let j = flexer_trace::json::parse(&line).unwrap();
        assert_eq!(
            j.get("ok").and_then(flexer_trace::json::Json::as_bool),
            Some(true)
        );
        assert!(
            j.get("latency")
                .and_then(flexer_trace::json::Json::as_num)
                .unwrap()
                > 0.0
        );
        assert_eq!(
            j.get("layers")
                .and_then(flexer_trace::json::Json::as_array)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(engine.driver_count(), 1);
    }

    #[test]
    fn expired_deadline_is_a_typed_failure() {
        let engine = Engine::new();
        let deadline = Deadline::from_ms(Some(0), 0);
        let err = engine.run(&schedule_req(""), &deadline).unwrap_err();
        assert_eq!(err.0, ErrorKind::Deadline);
    }

    #[test]
    fn huge_deadline_saturates_to_unbounded_instead_of_panicking() {
        // Pre-fix, `Instant + Duration::from_millis(u64::MAX)`
        // panicked, killing the worker thread mid-request.
        let engine = Engine::new();
        for ms in [u64::MAX, u64::MAX / 2, 1 << 62] {
            let deadline = Deadline::from_ms(Some(ms), 0);
            assert!(deadline.check().is_ok(), "deadline_ms={ms}");
            let line = engine.run(&schedule_req(""), &deadline).unwrap();
            let j = flexer_trace::json::parse(&line).unwrap();
            assert_eq!(
                j.get("ok").and_then(flexer_trace::json::Json::as_bool),
                Some(true),
                "deadline_ms={ms}"
            );
        }
    }

    #[test]
    fn zero_deadline_is_already_expired_and_absent_uses_default() {
        // deadline_ms:0 — expired immediately, not "use the default".
        assert!(Deadline::from_ms(Some(0), 60_000).check().is_err());
        // Absent with a zero default — unbounded.
        let unbounded = Deadline::from_ms(None, 0);
        assert!(unbounded.at().is_none());
        assert!(unbounded.check().is_ok());
        // Absent with a nonzero default — bounded by the default.
        assert!(Deadline::from_ms(None, 60_000).at().is_some());
        // A huge *default* saturates to unbounded too.
        assert!(Deadline::from_ms(None, u64::MAX).at().is_none());
    }

    #[test]
    fn anytime_schedule_survives_an_expired_deadline() {
        let engine = Engine::new();
        let deadline = Deadline::from_ms(Some(0), 0);
        let line = engine
            .run(&schedule_req(r#","mode":"anytime""#), &deadline)
            .unwrap();
        let j = flexer_trace::json::parse(&line).unwrap();
        let get = |k: &str| j.get(k).cloned();
        assert_eq!(
            get("ok")
                .as_ref()
                .and_then(flexer_trace::json::Json::as_bool),
            Some(true)
        );
        assert_eq!(
            get("partial")
                .as_ref()
                .and_then(flexer_trace::json::Json::as_bool),
            Some(true)
        );
        assert!(
            get("latency")
                .as_ref()
                .and_then(flexer_trace::json::Json::as_num)
                .unwrap()
                > 0.0,
            "a cut layer still carries a real schedule"
        );
        let layers = get("layers").unwrap();
        let rows = layers.as_array().unwrap();
        assert_eq!(rows.len(), 1);
        let gap = rows[0]
            .get("gap")
            .and_then(flexer_trace::json::Json::as_num)
            .expect("cut layer reports its gap");
        assert!(gap >= 1.0, "gap {gap}");
        assert_eq!(
            rows[0]
                .get("partial")
                .and_then(flexer_trace::json::Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn anytime_schedule_with_slack_stays_exact() {
        let engine = Engine::new();
        let deadline = Deadline::from_ms(Some(3_600_000), 0);
        let line = engine
            .run(&schedule_req(r#","mode":"anytime""#), &deadline)
            .unwrap();
        let j = flexer_trace::json::parse(&line).unwrap();
        assert_eq!(
            j.get("partial").and_then(flexer_trace::json::Json::as_bool),
            Some(false)
        );
        let layers = j.get("layers").cloned().unwrap();
        let rows = layers.as_array().unwrap();
        assert!(
            rows[0].get("gap").is_none(),
            "exact layers carry no gap member"
        );
    }

    #[test]
    fn unbounded_anytime_schedule_bypasses_store_and_tier() {
        let dir = std::env::temp_dir().join(format!(
            "flexer-serve-anytime-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::with_store(dir.clone(), None);
        let req = schedule_req(r#","mode":"anytime""#);
        let first = engine.run(&req, &Deadline::unbounded()).unwrap();
        // A second run would be a tier or store hit if the first had
        // left its winner there.
        let second = engine.run(&req, &Deadline::unbounded()).unwrap();
        assert_eq!(first, second);
        assert_eq!(engine.store_entries(), Some(0), "anytime result persisted");
        let j = flexer_trace::json::parse(&first).unwrap();
        let num = |key: &str| j.get(key).and_then(flexer_trace::json::Json::as_num);
        assert_eq!(num("store_hits"), Some(0.0));
        assert_eq!(num("store_misses"), Some(0.0));
        assert!(num("evaluated").unwrap() > 1.0);
        let layers = j.get("layers").cloned().unwrap();
        for row in layers.as_array().unwrap() {
            assert!(row.get("store").is_none(), "row names the store: {first}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_schedule_returns_a_span_tree() {
        let engine = Engine::new();
        let line = engine
            .run(&schedule_req(r#","trace":true"#), &Deadline::unbounded())
            .unwrap();
        let j = flexer_trace::json::parse(&line).unwrap();
        let tree = j
            .get("span_tree")
            .and_then(flexer_trace::json::Json::as_str)
            .unwrap();
        assert!(tree.contains("search"), "{tree}");
    }

    #[test]
    fn residency_schedule_reports_counters_and_feeds_the_summary() {
        let engine = Engine::new();
        assert_eq!(engine.residency_summary(), ResidencySummary::default());
        // A chain whose matching inter-layer shapes give the planner
        // edges to keep resident (same chain the core driver tests
        // prove goes resident).
        let chain = r#","layers":[
            {"name":"c1","in_channels":16,"height":14,"width":14,"out_channels":32},
            {"name":"c2","in_channels":32,"height":14,"width":14,"out_channels":32},
            {"name":"c3","in_channels":32,"height":14,"width":14,"out_channels":32}]"#;
        let req =
            parse_request(&format!(r#"{{"op":"schedule","residency":true{chain}}}"#)).unwrap();
        let line = engine.run(&req, &Deadline::unbounded()).unwrap();
        let j = flexer_trace::json::parse(&line).unwrap();
        assert_eq!(
            j.get("ok").and_then(flexer_trace::json::Json::as_bool),
            Some(true)
        );
        let res = j.get("residency").expect("residency sub-object");
        let num = |k: &str| {
            res.get(k)
                .and_then(flexer_trace::json::Json::as_num)
                .unwrap_or_else(|| panic!("residency.{k} missing")) as u64
        };
        assert!(num("resident_edges") >= 1, "no resident edges: {line}");
        assert!(num("dma_bytes_saved") > 0, "no bytes saved: {line}");
        let transfer = j
            .get("transfer_bytes")
            .and_then(flexer_trace::json::Json::as_num)
            .unwrap() as u64;
        assert_eq!(
            transfer + num("dma_bytes_saved"),
            num("baseline_transfer_bytes"),
            "saved bytes must reconcile with the baseline: {line}"
        );
        // The same counters land in the engine-wide aggregate.
        let summary = engine.residency_summary();
        assert_eq!(summary.networks, 1);
        assert_eq!(summary.resident_edges, num("resident_edges"));
        assert_eq!(summary.spilled_edges, num("spilled_edges"));
        assert_eq!(summary.dma_bytes_saved, num("dma_bytes_saved"));
        // A plain schedule leaves the residency aggregates untouched
        // and carries no residency member.
        let plain = engine
            .run(&schedule_req(""), &Deadline::unbounded())
            .unwrap();
        let pj = flexer_trace::json::parse(&plain).unwrap();
        assert!(pj.get("residency").is_none());
        assert_eq!(engine.residency_summary().networks, 1);
    }

    #[test]
    fn verify_reports_verification() {
        let engine = Engine::new();
        let mut req = schedule_req("");
        req.op = Op::Verify;
        let line = engine.run(&req, &Deadline::unbounded()).unwrap();
        let j = flexer_trace::json::parse(&line).unwrap();
        assert_eq!(
            j.get("verified")
                .and_then(flexer_trace::json::Json::as_bool),
            Some(true)
        );
        assert!(j
            .get("speedup")
            .and_then(flexer_trace::json::Json::as_num)
            .is_some());
        // Verified and unverified drivers are distinct cache entries.
        req.op = Op::Compare;
        let _ = engine.run(&req, &Deadline::unbounded()).unwrap();
        assert_eq!(engine.driver_count(), 2);
    }
}
