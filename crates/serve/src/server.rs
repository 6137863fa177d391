//! The TCP server: a bounded worker pool over a bounded accept queue.
//!
//! # Backpressure
//!
//! Connections the workers have not yet picked up wait in a bounded
//! queue. When the queue is full the accept loop *sheds load*: it
//! writes one typed `overloaded` error line to the new connection and
//! closes it, so a saturated server answers in microseconds instead of
//! stalling every client behind the slowest search.
//!
//! # Shutdown
//!
//! A `shutdown` request (or stdin EOF in the binary, the no-signals
//! stand-in for SIGTERM) flips the drain flag. In-flight requests run
//! to completion and their responses are delivered; queued connections
//! that no worker has started are answered with a typed
//! `shutting_down` error; the accept loop stops; the persistent store
//! is flushed; then [`Server::run`] returns.

use crate::engine::{Deadline, Engine};
use crate::protocol::{error_line, ok_response, parse_request, ErrorKind, Obj, Op, MAX_LINE_BYTES};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How the server is sized and where it listens.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port.
    pub addr: String,
    /// Worker threads — the number of connections served concurrently.
    pub workers: usize,
    /// Accepted connections waiting for a worker before new ones are
    /// shed with `overloaded`.
    pub queue: usize,
    /// Deadline applied to requests that don't carry their own, in
    /// milliseconds; `0` means unbounded.
    pub default_deadline_ms: u64,
    /// Persistent schedule-store directory. The server opens one
    /// store handle on it, shared by every driver and the replication
    /// ops.
    pub store_dir: Option<PathBuf>,
    /// Store eviction capacity in bytes (`None` = store default,
    /// `Some(0)` = unbounded).
    pub store_capacity: Option<u64>,
    /// Optional fleet-member name, echoed in `health` and `stats`
    /// responses as `"node"` so clients can tell which member of a
    /// fleet answered. Scheduling responses deliberately omit it:
    /// their bytes must stay identical no matter which replica serves
    /// them.
    pub node_name: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue: 16,
            default_deadline_ms: 0,
            store_dir: None,
            store_capacity: None,
            node_name: None,
        }
    }
}

/// Interval at which an idle worker re-checks the drain flag while
/// blocked reading a connection.
const READ_POLL: Duration = Duration::from_millis(50);

#[derive(Debug)]
struct Shared {
    engine: Engine,
    config: ServerConfig,
    queue: Mutex<VecDeque<TcpStream>>,
    work_ready: Condvar,
    shutting_down: AtomicBool,
    local_addr: SocketAddr,
    requests: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
}

/// A bound, not-yet-running scheduling server. [`Server::run`]
/// consumes it and blocks until graceful shutdown.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and prepares the engine.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let engine = match &config.store_dir {
            Some(dir) => Engine::with_store(dir.clone(), config.store_capacity),
            None => Engine::new(),
        };
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                engine,
                config,
                queue: Mutex::new(VecDeque::new()),
                work_ready: Condvar::new(),
                shutting_down: AtomicBool::new(false),
                local_addr,
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                overloaded: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (with the real port when `addr` asked for
    /// port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Serves until graceful shutdown: spawns the worker pool, runs
    /// the accept loop on the calling thread, and on drain joins every
    /// worker and flushes the persistent store.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors other than per-connection
    /// failures (which are shed silently).
    pub fn run(self) -> io::Result<()> {
        let workers: Vec<_> = (0..self.shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("flexer-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Wake the pool before reporting, so a dying accept
                    // loop cannot strand blocked workers.
                    self.shared.shutting_down.store(true, Ordering::SeqCst);
                    self.shared.work_ready.notify_all();
                    for w in workers {
                        let _ = w.join();
                    }
                    return Err(e);
                }
            };
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                shed(stream, ErrorKind::ShuttingDown, "server is draining");
                break;
            }
            let mut queue = self.shared.queue.lock().expect("accept queue poisoned");
            if queue.len() >= self.shared.config.queue.max(1) {
                drop(queue);
                self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
                shed(
                    stream,
                    ErrorKind::Overloaded,
                    "all workers busy and the accept queue is full; retry later",
                );
                continue;
            }
            queue.push_back(stream);
            drop(queue);
            self.shared.work_ready.notify_one();
        }

        self.shared.work_ready.notify_all();
        for w in workers {
            let _ = w.join();
        }
        // Queued connections no worker started: answer, don't strand.
        let mut queue = self.shared.queue.lock().expect("accept queue poisoned");
        while let Some(stream) = queue.pop_front() {
            shed(stream, ErrorKind::ShuttingDown, "server is draining");
        }
        drop(queue);
        self.shared.engine.flush_store();
        Ok(())
    }
}

/// Writes one typed error line to a connection being turned away.
fn shed(mut stream: TcpStream, kind: ErrorKind, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut line = error_line(kind, None, message);
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("accept queue poisoned");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .expect("accept queue poisoned");
            }
        };
        match stream {
            Some(stream) => handle_connection(shared, stream),
            None => return,
        }
    }
}

/// One bounded line read: at most [`MAX_LINE_BYTES`] bytes are
/// buffered before the line is declared oversized, whether or not a
/// newline ever arrives.
enum LineRead {
    /// A complete line (without the trailing newline).
    Line(String),
    /// The peer closed the connection between requests.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`]; the connection cannot be
    /// resynchronized.
    TooLong,
    /// The drain flag was raised while waiting for input.
    Draining,
    /// The connection failed.
    Io,
}

fn read_bounded_line(reader: &mut BufReader<TcpStream>, shared: &Shared) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok([]) => {
                return if line.is_empty() {
                    LineRead::Eof
                } else {
                    // A final unterminated line: serve it; the EOF
                    // surfaces on the next read.
                    match String::from_utf8(std::mem::take(&mut line)) {
                        Ok(s) => LineRead::Line(s),
                        Err(_) => LineRead::Io,
                    }
                };
            }
            Ok(buf) => buf,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return LineRead::Draining;
                }
                continue;
            }
            Err(_) => return LineRead::Io,
        };
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            return match String::from_utf8(line) {
                Ok(s) => LineRead::Line(s),
                Err(_) => LineRead::Io,
            };
        }
        let taken = buf.len();
        line.extend_from_slice(buf);
        reader.consume(taken);
        if line.len() > MAX_LINE_BYTES {
            return LineRead::TooLong;
        }
        // Re-check the drain flag on the data path too. Pre-fix it was
        // only checked on read *timeouts*, so a byte-dribbling client
        // whose data kept arriving (never a newline) pinned a worker
        // until the line cap — hours at one byte per poll — and
        // graceful shutdown stalled behind it.
        if shared.shutting_down.load(Ordering::SeqCst) {
            return LineRead::Draining;
        }
    }
}

/// The most bytes [`drain_briefly`] will swallow before giving up on a
/// tidy close. Anything larger is a flood, and floods get a reset.
const DRAIN_MAX_BYTES: usize = 64 * 1024;

/// The longest [`drain_briefly`] will wait on a peer that has stopped
/// sending.
const DRAIN_MAX_TIME: Duration = Duration::from_millis(500);

/// Discards pending input until EOF, bounded by **both**
/// [`DRAIN_MAX_BYTES`] and [`DRAIN_MAX_TIME`]. The byte bound is the
/// load-bearing one: draining exists only to move our already-written
/// error reply ahead of the connection reset, and a peer still
/// flooding past 64 KiB is not reading replies — while pre-fix an
/// unbounded-bytes drain let a fast writer pump hundreds of megabytes
/// through a worker during its whole 500 ms window. A raised drain
/// flag also ends the drain: shutdown never waits on a misbehaving
/// peer's leftovers.
fn drain_briefly(reader: &mut BufReader<TcpStream>, shared: &Shared) {
    let deadline = std::time::Instant::now() + DRAIN_MAX_TIME;
    let mut drained = 0usize;
    while std::time::Instant::now() < deadline
        && drained < DRAIN_MAX_BYTES
        && !shared.shutting_down.load(Ordering::SeqCst)
    {
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(buf) => {
                let n = buf.len();
                drained += n;
                reader.consume(n);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

fn write_line(stream: &mut TcpStream, mut line: String) -> io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Responses are written whole, but one larger than a segment would
    // otherwise hold its tail back until the client ACKs the head.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            // Between requests: nothing in flight on this connection.
            let _ = write_line(
                &mut writer,
                error_line(ErrorKind::ShuttingDown, None, "server is draining"),
            );
            return;
        }
        let line = match read_bounded_line(&mut reader, shared) {
            LineRead::Line(line) => line,
            LineRead::Eof | LineRead::Io => return,
            LineRead::Draining => {
                let _ = write_line(
                    &mut writer,
                    error_line(ErrorKind::ShuttingDown, None, "server is draining"),
                );
                return;
            }
            LineRead::TooLong => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_line(
                    &mut writer,
                    error_line(
                        ErrorKind::Parse,
                        None,
                        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    ),
                );
                // Cannot resynchronize mid-line; swallow what the peer
                // already sent so closing with unread input does not
                // reset the connection under our reply.
                drain_briefly(&mut reader, shared);
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        // A panic in request execution must not unwind through the
        // worker loop: a dead worker silently shrinks the pool until
        // the server hangs. Catch it and answer with a typed
        // `internal` error instead; the engine's shared state is lock-
        // per-call, so a panicked request cannot leave it mid-update
        // (a poisoned lock would surface as a panic on the next
        // request, which this same guard converts to `internal`).
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process_line(shared, &line)));
        let (response, shutdown) = outcome.unwrap_or_else(|_| {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            (
                error_line(
                    ErrorKind::Internal,
                    None,
                    "request execution panicked; see server logs",
                ),
                false,
            )
        });
        if write_line(&mut writer, response).is_err() {
            return;
        }
        if shutdown {
            initiate_shutdown(shared);
            return;
        }
    }
}

/// Runs one request line to a serialized response. The bool asks the
/// connection handler to initiate a server-wide drain.
fn process_line(shared: &Shared, line: &str) -> (String, bool) {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err((kind, msg)) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return (error_line(kind, None, &msg), false);
        }
    };
    let id = req.id.clone();
    match req.op {
        Op::Health => {
            let mut o = ok_response(Op::Health, id.as_deref());
            if let Some(node) = &shared.config.node_name {
                o.str("node", node);
            }
            (o.finish(), false)
        }
        Op::Shutdown => (ok_response(Op::Shutdown, id.as_deref()).finish(), true),
        Op::Stats => (stats_response(shared, id.as_deref()), false),
        Op::StoreManifest | Op::StorePull | Op::StorePush => match shared.engine.run_store(&req) {
            Ok(line) => (line, false),
            Err((kind, msg)) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                (error_line(kind, id.as_deref(), &msg), false)
            }
        },
        Op::Schedule | Op::Compare | Op::Verify => {
            let deadline = Deadline::from_ms(req.deadline_ms, shared.config.default_deadline_ms);
            match shared.engine.run(&req, &deadline) {
                Ok(line) => (line, false),
                Err((kind, msg)) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    (error_line(kind, id.as_deref(), &msg), false)
                }
            }
        }
    }
}

fn stats_response(shared: &Shared, id: Option<&str>) -> String {
    let mut o = ok_response(Op::Stats, id);
    if let Some(node) = &shared.config.node_name {
        o.str("node", node);
    }
    o.u64("requests", shared.requests.load(Ordering::Relaxed))
        .u64("errors", shared.errors.load(Ordering::Relaxed))
        .u64("overloaded", shared.overloaded.load(Ordering::Relaxed))
        .u64("workers", shared.config.workers.max(1) as u64)
        .u64("drivers", shared.engine.driver_count() as u64);
    if let Some(store) = shared.engine.store_summary() {
        let mut s = Obj::new();
        s.u64("hits", store.hits)
            .u64("memory_hits", store.memory_hits)
            .u64("misses", store.misses)
            .u64("evictions", store.evictions)
            .u64("corrupt", store.corrupt)
            .u64("entries", shared.engine.store_entries().unwrap_or(0) as u64);
        o.raw("store", &s.finish());
    }
    let residency = shared.engine.residency_summary();
    let mut r = Obj::new();
    r.u64("networks", residency.networks)
        .u64("resident_edges", residency.resident_edges)
        .u64("spilled_edges", residency.spilled_edges)
        .u64("dma_bytes_saved", residency.dma_bytes_saved);
    o.raw("residency", &r.finish());
    o.finish()
}

/// Flips the drain flag and wakes everything that might be blocked on
/// it: the worker pool (condvar) and the accept loop (a loopback
/// connection, since `accept` cannot be timed out portably).
fn initiate_shutdown(shared: &Shared) {
    shared.shutting_down.store(true, Ordering::SeqCst);
    shared.work_ready.notify_all();
    let _ = TcpStream::connect_timeout(&shared.local_addr, Duration::from_secs(1));
}

/// Connects to a running server and triggers its graceful drain — the
/// programmatic twin of sending `{"op":"shutdown"}` over the wire.
/// Used by the binary's stdin-EOF watcher.
///
/// # Errors
///
/// Propagates connection and write failures.
pub fn request_shutdown(addr: SocketAddr) -> io::Result<()> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    stream.write_all(b"{\"op\":\"shutdown\"}\n")?;
    let mut sink = [0u8; 256];
    let _ = stream.read(&mut sink);
    Ok(())
}
