//! The traced run's spans.
//!
//! Spans are recorded in the benchmark's own code around each call into
//! a layer of the program, kept in memory, and written out as one JSON
//! array when the run ends. A layer's self time is its span's duration
//! minus the durations of its child spans (children of one span run one
//! after another on the same thread, so they never overlap).

use flexer_fleet::{route_fingerprint, HashRing};
use flexer_serve::{mask_provenance, parse_request, Client, Deadline, Engine};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::gen::Req;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    /// The request (or probe) the span belongs to.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    pub id: u32,
    parent: Option<u32>,
    request: u64,
    start: Instant,
}

pub fn open(name: &'static str, parent: Option<u32>, request: u64) -> Open {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    Open {
        name,
        id: NEXT.fetch_add(1, Ordering::Relaxed),
        parent,
        request,
        start: Instant::now(),
    }
}

impl Open {
    /// Ends the span, records it, and returns its duration.
    pub fn close(self, spans: &mut Vec<Span>) -> Duration {
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(epoch()).as_nanos() as u64;
        spans.push(Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            request: self.request,
            start_ns: ns(self.start),
            end_ns: ns(end),
        });
        end - self.start
    }
}

/// Every span name whose self time a traced run reports, so each run
/// prints the same metrics whether or not a layer did work in it. The
/// `probe.*` roots only group the in-process probes and are left out.
pub const LAYER_SPANS: [&str; 15] = [
    "request",
    "serve.protocol.parse",
    "fleet.route",
    "client.roundtrip",
    "serve.engine.run",
    "core.schedule_layer",
    "core.memo_replay",
    "sim.verify",
    "sched.search_layer",
    "store.put",
    "store.get",
    "tiling.enumerate",
    "tiling.dfg_build",
    "solve.lower_bound",
    "sched.ooo_eval",
];

/// Total self time in milliseconds per span name of [`LAYER_SPANS`].
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = LAYER_SPANS.iter().map(|&n| (n, 0.0)).collect();
    for s in spans {
        if let Some(total) = out.get_mut(s.name) {
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *total += own as f64 / 1e6;
        }
    }
    out
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Per request: the round trip minus the in-process engine run on the
/// same request, in milliseconds.
pub fn transport_ms(spans: &[Span]) -> Vec<f64> {
    let mut by_req: HashMap<u64, (Option<u64>, Option<u64>)> = HashMap::new();
    for s in spans {
        let e = by_req.entry(s.request).or_default();
        match s.name {
            "client.roundtrip" => e.0 = Some(s.dur_ns()),
            "serve.engine.run" => e.1 = Some(s.dur_ns()),
            _ => {}
        }
    }
    by_req
        .values()
        .filter_map(|&(rt, run)| Some((rt? as f64 - run? as f64) / 1e6))
        .collect()
}

/// Writes the spans as a JSON array.
pub fn write(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            r#"{{"name":"{}","id":{},"parent":{parent},"request":{},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.id, s.request, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// The in-process twin of the daemon a traced loop compares against:
/// an engine on its own copy of the daemon's store, fed the same
/// requests, plus a three-member ring for the routing stage.
pub struct Mirror {
    engine: Engine,
    ring: HashRing,
    /// Requests whose in-process reply differed from the daemon's.
    pub mismatches: Mutex<Vec<String>>,
    /// Response sizes in bytes.
    pub response_bytes: Mutex<Vec<f64>>,
}

impl Mirror {
    pub fn new(store: &Path) -> Self {
        Self {
            engine: Engine::with_store(store.to_path_buf(), None),
            ring: HashRing::new(&["node-a", "node-b", "node-c"]),
            mismatches: Mutex::new(Vec::new()),
            response_bytes: Mutex::new(Vec::new()),
        }
    }

    /// One traced request: parse and route in process, the real round
    /// trip, then the in-process engine run on the same request.
    pub fn send(
        &self,
        client: &mut Client,
        req: &Req,
        seq: u64,
        spans: &mut Vec<Span>,
    ) -> io::Result<(String, Duration)> {
        let root = open("request", None, seq);
        let s = open("serve.protocol.parse", Some(root.id), seq);
        let parsed = parse_request(&req.line);
        s.close(spans);
        let parsed = parsed.map_err(|(kind, msg)| io::Error::other(format!("{kind}: {msg}")))?;
        let s = open("fleet.route", Some(root.id), seq);
        let owner = route_fingerprint(&parsed).and_then(|fp| self.ring.owner(fp).map(str::len));
        s.close(spans);
        std::hint::black_box(owner);
        let s = open("client.roundtrip", Some(root.id), seq);
        let reply = client.roundtrip(&req.line);
        let rt = s.close(spans);
        let reply = reply?;
        let s = open("serve.engine.run", Some(root.id), seq);
        let local = self.engine.run(&parsed, &Deadline::unbounded());
        s.close(spans);
        root.close(spans);
        let same = local
            .as_ref()
            .is_ok_and(|l| mask_provenance(l) == mask_provenance(&reply));
        if !same {
            self.mismatches
                .lock()
                .expect("mismatch list poisoned")
                .push(format!("{}: in-process engine reply differs", req.id));
        }
        self.response_bytes
            .lock()
            .expect("size list poisoned")
            .push(reply.len() as f64);
        Ok((reply, rt))
    }
}
