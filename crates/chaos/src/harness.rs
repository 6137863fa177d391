//! Harness plumbing: configuration, server lifecycle, invariant
//! bookkeeping, and the replayable failure artifact.

use crate::rng::SplitMix64;
use crate::scenarios;
use flexer_serve::{Server, ServerConfig};
use flexer_trace::json::{parse, Json};
use flexer_trace::LatencySummary;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Wall-clock liveness allowance for operations that must *finish*
/// (a response arriving, a server draining). Generous on purpose: it
/// guards against hangs, never asserts performance — all performance
/// assertions are logical-tick SLOs.
pub(crate) const LIVENESS: Duration = Duration::from_secs(120);

static BOOT_ID: AtomicU32 = AtomicU32::new(0);

/// Latency SLO thresholds in logical trace ticks over `layer` spans.
///
/// Under [`flexer_trace::ClockMode::Logical`] a `layer` span's
/// duration counts the events its search recorded — a deterministic
/// measure of search effort for a given layer shape and option set,
/// byte-stable across runs and machines. At the summary trace detail
/// the soak's shape pool measures ~19 ticks per `layer` span today
/// (per-candidate events live in their own lanes); the thresholds
/// below hold ~5–13× headroom so routine counter additions pass while
/// an effort explosion inside the layer span — phases re-running,
/// per-candidate work leaking into the summary lane — trips the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloThresholds {
    /// Ceiling for the median `layer` span duration, in ticks.
    pub layer_p50: u64,
    /// Ceiling for the 99th-percentile `layer` span duration.
    pub layer_p99: u64,
}

impl Default for SloThresholds {
    fn default() -> Self {
        Self {
            layer_p50: 100,
            layer_p99: 250,
        }
    }
}

/// How much load a run generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// CI-sized: the full scenario matrix in well under a minute.
    Short,
    /// A heavier local soak (~5× the ops).
    Long,
}

impl Profile {
    /// Scales a short-profile op count.
    #[must_use]
    pub fn scale(self, short: usize) -> usize {
        match self {
            Self::Short => short,
            Self::Long => short * 5,
        }
    }
}

/// One chaos scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Many concurrent connections mixing every op type.
    Soak,
    /// Slow-loris, byte-dribble, and oversized-line abuse.
    Slowloris,
    /// Live `.fxs` corruption/truncation under a scheduling load.
    Corrupt,
    /// Zero, tiny, and absurd `deadline_ms` skew in both modes.
    Deadline,
    /// Kill/drain/restart cycles with warm-store reattach.
    Restart,
    /// Three-member sharded fleet: routed soak with a mid-soak shard
    /// kill, failover under a shed-load budget, and anti-entropy back
    /// to manifest equality after the shard rejoins empty.
    Fleet,
}

impl Scenario {
    /// Every scenario, in run order. New scenarios append — each forks
    /// the root seed stream in order, so insertion anywhere else would
    /// re-shuffle every later scenario's schedule of abuse.
    #[must_use]
    pub fn all() -> Vec<Self> {
        vec![
            Self::Soak,
            Self::Slowloris,
            Self::Corrupt,
            Self::Deadline,
            Self::Restart,
            Self::Fleet,
        ]
    }

    /// The scenario's CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Soak => "soak",
            Self::Slowloris => "slowloris",
            Self::Corrupt => "corrupt",
            Self::Deadline => "deadline",
            Self::Restart => "restart",
            Self::Fleet => "fleet",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|s| s.name() == name)
    }
}

/// A full harness configuration; [`ChaosConfig::new`] gives the CI
/// defaults for a seed.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The run's seed: same seed, same schedule of abuse.
    pub seed: u64,
    /// Load sizing.
    pub profile: Profile,
    /// Where scratch store directories are created (a per-run
    /// subdirectory is always used). Defaults to the system temp dir.
    pub scratch_dir: PathBuf,
    /// Where failure artifacts are written.
    pub artifact_dir: PathBuf,
    /// Path to a `flexer-serve` binary. When set, scenarios that want
    /// a hard kill spawn and kill real daemon processes; otherwise
    /// servers run in-process and "kill" degrades to graceful drain.
    pub serve_bin: Option<PathBuf>,
    /// Which scenarios to run.
    pub scenarios: Vec<Scenario>,
    /// Latency SLO thresholds asserted over the soak's traced spans.
    pub slo: SloThresholds,
    /// Concurrent soak client connections. The default (6) is
    /// CI-sized; `--connections` raises it, and the opt-in
    /// `--connection-storm` profile drives thousands of concurrent
    /// clients against one daemon.
    pub connections: usize,
}

/// The connection count `--connection-storm` selects: a
/// thousands-of-connections soak, opt-in only (never part of the
/// default CI gate).
pub const STORM_CONNECTIONS: usize = 2048;

impl ChaosConfig {
    /// The default configuration for one seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            profile: Profile::Short,
            scratch_dir: std::env::temp_dir(),
            artifact_dir: std::env::temp_dir(),
            serve_bin: None,
            scenarios: Scenario::all(),
            slo: SloThresholds::default(),
            connections: 6,
        }
    }
}

/// One invariant violation: which scenario, and what went wrong.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The scenario that caught it.
    pub scenario: &'static str,
    /// What was violated, with enough context to investigate.
    pub detail: String,
}

/// The outcome of one harness run.
#[derive(Debug)]
pub struct ChaosReport {
    /// The seed the run (and any replay) uses.
    pub seed: u64,
    /// Requests the harness issued and validated.
    pub ops: u64,
    /// Every invariant violation caught.
    pub violations: Vec<Violation>,
    /// Logical-tick latency summary over the traced `layer` spans.
    pub layer_latency: LatencySummary,
    /// The failure artifact, when violations were dumped.
    pub artifact: Option<PathBuf>,
}

impl ChaosReport {
    /// `true` when the run caught nothing.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// What a scenario hands back to the harness.
#[derive(Debug, Default)]
pub(crate) struct ScenarioOutcome {
    pub ops: u64,
    pub violations: Vec<Violation>,
    /// Rendered span trees captured from traced responses.
    pub span_trees: Vec<String>,
}

impl ScenarioOutcome {
    pub(crate) fn violate(&mut self, scenario: &'static str, detail: impl Into<String>) {
        self.violations.push(Violation {
            scenario,
            detail: detail.into(),
        });
    }
}

/// Runs the configured scenarios and returns the report, writing a
/// replayable artifact when anything was caught.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let scratch = cfg
        .scratch_dir
        .join(format!("flexer-chaos-{}-{}", std::process::id(), cfg.seed));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("chaos scratch dir");

    let mut root = SplitMix64::new(cfg.seed);
    let mut ops = 0;
    let mut violations = Vec::new();
    let mut span_trees = Vec::new();

    for scenario in &cfg.scenarios {
        // Each scenario forks the root stream so adding a scenario (or
        // skipping one via --scenario) never re-shuffles the others.
        let rng = root.fork();
        let outcome = match scenario {
            Scenario::Soak => scenarios::soak(cfg, &scratch, rng),
            Scenario::Slowloris => scenarios::slowloris(cfg, &scratch, rng),
            Scenario::Corrupt => scenarios::corrupt(cfg, &scratch, rng),
            Scenario::Deadline => scenarios::deadline(cfg, &scratch, rng),
            Scenario::Restart => scenarios::restart(cfg, &scratch, rng),
            Scenario::Fleet => scenarios::fleet(cfg, &scratch, rng),
        };
        ops += outcome.ops;
        violations.extend(outcome.violations);
        span_trees.extend(outcome.span_trees);
    }

    // The latency SLO gate: logical-tick percentiles over every traced
    // `layer` span the run produced.
    let durations: Vec<u64> = span_trees
        .iter()
        .flat_map(|t| {
            flexer_trace::stats::parse_rendered_tree(t)
                .into_iter()
                .filter(|s| s.name == "layer")
                .map(|s| s.dur)
        })
        .collect();
    let layer_latency = LatencySummary::of(&durations);
    if cfg.scenarios.contains(&Scenario::Soak) {
        if layer_latency.count == 0 {
            violations.push(Violation {
                scenario: "slo",
                detail: "no traced layer spans were captured; the SLO gate has no data".into(),
            });
        } else {
            if layer_latency.p50 > cfg.slo.layer_p50 {
                violations.push(Violation {
                    scenario: "slo",
                    detail: format!(
                        "layer span p50 {} ticks exceeds SLO {}",
                        layer_latency.p50, cfg.slo.layer_p50
                    ),
                });
            }
            if layer_latency.p99 > cfg.slo.layer_p99 {
                violations.push(Violation {
                    scenario: "slo",
                    detail: format!(
                        "layer span p99 {} ticks exceeds SLO {}",
                        layer_latency.p99, cfg.slo.layer_p99
                    ),
                });
            }
        }
    }

    let artifact = if violations.is_empty() {
        None
    } else {
        Some(write_artifact(cfg, &violations, &span_trees))
    };
    let _ = std::fs::remove_dir_all(&scratch);

    ChaosReport {
        seed: cfg.seed,
        ops,
        violations,
        layer_latency,
        artifact,
    }
}

/// Dumps the replayable failure artifact and returns its path.
fn write_artifact(cfg: &ChaosConfig, violations: &[Violation], span_trees: &[String]) -> PathBuf {
    let _ = std::fs::create_dir_all(&cfg.artifact_dir);
    let path = cfg
        .artifact_dir
        .join(format!("chaos-seed-{}.log", cfg.seed));
    let mut out = String::new();
    out.push_str(&format!(
        "flexer-chaos failure artifact\nseed: {}\nreplay: flexer-chaos --seed {}{}{}\n\n",
        cfg.seed,
        cfg.seed,
        match cfg.profile {
            Profile::Short => " --duration-short",
            Profile::Long => " --duration-long",
        },
        if cfg.connections == 6 {
            String::new()
        } else {
            format!(" --connections {}", cfg.connections)
        },
    ));
    out.push_str(&format!("violations ({}):\n", violations.len()));
    for v in violations {
        out.push_str(&format!("  [{}] {}\n", v.scenario, v.detail));
    }
    out.push_str(&format!(
        "\ncaptured span trees ({} total, first 3 shown):\n",
        span_trees.len()
    ));
    for tree in span_trees.iter().take(3) {
        out.push_str(tree);
        out.push('\n');
    }
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: cannot write artifact {}: {e}", path.display());
    }
    path
}

// ---------------------------------------------------------------------
// Server lifecycle

/// A running scheduling server the harness is abusing: in-process, or
/// a spawned `flexer-serve` child when the config names a binary.
pub(crate) enum ServerHandle {
    InProcess {
        addr: SocketAddr,
        done: mpsc::Receiver<io::Result<()>>,
    },
    Child {
        addr: SocketAddr,
        child: Child,
    },
}

impl ServerHandle {
    pub(crate) fn addr(&self) -> SocketAddr {
        match self {
            Self::InProcess { addr, .. } | Self::Child { addr, .. } => *addr,
        }
    }

    /// Whether [`ServerHandle::kill`] is a real hard kill.
    pub(crate) fn can_hard_kill(&self) -> bool {
        matches!(self, Self::Child { .. })
    }

    /// Gracefully drains the server and waits for it to come down.
    /// Returns an error description when it did not drain in time —
    /// that is an invariant violation, not a panic.
    pub(crate) fn drain(self) -> Result<(), String> {
        let addr = self.addr();
        let reply = flexer_serve::client::roundtrip(addr, r#"{"op":"shutdown"}"#)
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        if !reply.contains(r#""ok":true"#) {
            return Err(format!("shutdown not acknowledged: {reply}"));
        }
        self.wait_down()
    }

    /// Hard-kills a child server; for an in-process server (no process
    /// to kill) degrades to a graceful drain.
    pub(crate) fn kill(self) -> Result<(), String> {
        match self {
            Self::Child { mut child, .. } => {
                child.kill().map_err(|e| format!("kill failed: {e}"))?;
                child.wait().map_err(|e| format!("wait failed: {e}"))?;
                Ok(())
            }
            in_process @ Self::InProcess { .. } => in_process.drain(),
        }
    }

    /// Waits for an already-draining server to exit.
    fn wait_down(self) -> Result<(), String> {
        match self {
            Self::InProcess { done, .. } => match done.recv_timeout(LIVENESS) {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("server run() failed: {e}")),
                Err(_) => Err("server did not drain within the liveness bound".into()),
            },
            Self::Child { mut child, .. } => {
                let deadline = Instant::now() + LIVENESS;
                loop {
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => return Ok(()),
                        Ok(Some(status)) => return Err(format!("daemon exited {status}")),
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Ok(None) => {
                            let _ = child.kill();
                            return Err("daemon did not drain within the liveness bound".into());
                        }
                        Err(e) => return Err(format!("wait failed: {e}")),
                    }
                }
            }
        }
    }
}

/// Boots a server for a scenario: a spawned `flexer-serve` child when
/// the config names a binary, in-process otherwise. `addr` pins the
/// bind address (the fleet scenario restarts a killed member on its
/// recorded `host:port` so the ring stays stable); `None` picks any
/// free port.
pub(crate) fn boot(
    cfg: &ChaosConfig,
    scratch: &Path,
    store_dir: Option<&Path>,
    workers: usize,
    queue: usize,
    addr: Option<SocketAddr>,
) -> Result<ServerHandle, String> {
    match &cfg.serve_bin {
        Some(bin) => boot_child(bin, scratch, store_dir, workers, queue, addr),
        None => boot_in_process(store_dir, workers, queue, addr),
    }
}

fn boot_in_process(
    store_dir: Option<&Path>,
    workers: usize,
    queue: usize,
    addr: Option<SocketAddr>,
) -> Result<ServerHandle, String> {
    let server = Server::bind(ServerConfig {
        workers,
        queue,
        store_dir: store_dir.map(Path::to_path_buf),
        addr: addr.map_or_else(|| "127.0.0.1:0".into(), |a| a.to_string()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    let (tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    Ok(ServerHandle::InProcess { addr, done })
}

fn boot_child(
    bin: &Path,
    scratch: &Path,
    store_dir: Option<&Path>,
    workers: usize,
    queue: usize,
    addr: Option<SocketAddr>,
) -> Result<ServerHandle, String> {
    let port_file = scratch.join(format!("port-{}", BOOT_ID.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = Command::new(bin);
    cmd.arg("--addr")
        .arg(addr.map_or_else(|| "127.0.0.1:0".into(), |a| a.to_string()))
        .arg("--port-file")
        .arg(&port_file)
        .arg("--workers")
        .arg(workers.to_string())
        .arg("--queue")
        .arg(queue.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(dir) = store_dir {
        cmd.arg("--store").arg(dir);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;

    let deadline = Instant::now() + LIVENESS;
    let port: u16 = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse() {
                break port;
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("daemon exited during boot: {status}"));
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            return Err("daemon never wrote its port file".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let addr = format!("127.0.0.1:{port}")
        .parse()
        .map_err(|e| format!("bad port: {e}"))?;
    Ok(ServerHandle::Child { addr, child })
}

// ---------------------------------------------------------------------
// Response validation

/// Error codes the protocol defines; anything else on the wire is an
/// invariant violation.
pub(crate) const KNOWN_ERRORS: [&str; 7] = [
    "parse",
    "bad_request",
    "overloaded",
    "deadline",
    "sched",
    "shutting_down",
    "internal",
];

/// A validated response: parsed JSON plus the typed error code when
/// `ok` was false.
pub(crate) struct Checked {
    pub json: Json,
    pub error: Option<String>,
}

/// Validates the protocol frame of one response line: parseable JSON,
/// a boolean `ok`, a known error code when `ok:false`, and an echoed
/// id matching `expect_id` when one was sent.
pub(crate) fn check_response(line: &str, expect_id: Option<&str>) -> Result<Checked, String> {
    let json = parse(line).map_err(|e| format!("unparseable response {line:?}: {e:?}"))?;
    let ok = json
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("response missing boolean ok: {line}"))?;
    let error = if ok {
        None
    } else {
        let code = json
            .get("error")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("error response without code: {line}"))?;
        if !KNOWN_ERRORS.contains(&code) {
            return Err(format!("unknown error code {code:?}: {line}"));
        }
        Some(code.to_string())
    };
    if let Some(want) = expect_id {
        // Error paths that fail before parsing (parse/oversized) may
        // legitimately drop the id; a *successful* response must echo
        // it, and a present id must never be someone else's.
        match json.get("id").and_then(Json::as_str) {
            Some(got) if got != want => {
                return Err(format!(
                    "response id {got:?} is not ours ({want:?}): {line}"
                ));
            }
            None if ok => return Err(format!("ok response dropped id {want:?}: {line}")),
            _ => {}
        }
    }
    Ok(Checked { json, error })
}

/// A response with store-provenance stripped: per-layer
/// `"store":"hit"|"miss"` markers removed and `store_hits` /
/// `store_misses` totals zeroed. Two answers for the same request must
/// be byte-identical under this mask whether they were computed or
/// warm-started.
pub(crate) fn mask_provenance(line: &str) -> String {
    flexer_serve::mask_provenance(line)
}

/// Writes `line` + newline to a raw stream in one write (scenario
/// clients that bypass [`flexer_serve::client::Client`] for byte-level
/// control).
pub(crate) fn send_raw(stream: &mut std::net::TcpStream, line: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    stream.write_all(&frame)?;
    stream.flush()
}
