//! Starting, probing and stopping one `flexer-serve` process.

use flexer::trace::json::{parse, Json};
use flexer_serve::Client;
use std::fs;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const STOP_LIMIT: Duration = Duration::from_secs(30);
/// `USER_HZ`, the unit of the CPU times in `/proc/<pid>/stat`.
const CLOCK_TICKS: f64 = 100.0;

/// `(steal ticks, all ticks)` of the `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let nums: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (nums.get(7).copied().unwrap_or(0), nums.iter().sum())
}

/// A running daemon, started with its defaults plus `--store`. Dropping
/// it kills the process if [`Daemon::stop`] was not called.
pub struct Daemon {
    child: Child,
    /// Held until the daemon exits: it prints a last line as it stops.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Seconds from spawn until the first `health` reply.
    pub boot_s: f64,
}

impl Daemon {
    /// Spawns `bin` on the store at `store`, reads the address it prints
    /// once listening, and waits for its first `health` reply. Reading
    /// the line blocks until it is written, so the boot time holds no
    /// polling interval.
    pub fn start(bin: &Path, store: &Path) -> io::Result<Daemon> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("--store")
            .arg(store)
            .arg("--stdin-shutdown")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line
            .trim_end()
            .strip_prefix("flexer-serve listening on ")
            .and_then(|a| a.parse().ok())
        else {
            let status = child.wait()?;
            return Err(io::Error::other(format!(
                "flexer-serve did not report its address ({status}): {line:?}"
            )));
        };
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
            boot_s: 0.0,
        };
        let health = Client::connect(daemon.addr)?.roundtrip(r#"{"op":"health"}"#)?;
        daemon.boot_s = started.elapsed().as_secs_f64();
        if !health.contains(r#""ok":true"#) {
            return Err(io::Error::other(format!("health failed: {health}")));
        }
        Ok(daemon)
    }

    /// The daemon's `stats` reply.
    pub fn stats(&self) -> io::Result<Json> {
        let line = Client::connect(self.addr)?.roundtrip(r#"{"op":"stats"}"#)?;
        parse(&line).map_err(|e| io::Error::other(format!("stats reply: {}", e.message)))
    }

    /// The daemon's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// CPU seconds (user + system) the daemon has used so far.
    pub fn cpu_s(&self) -> io::Result<f64> {
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesized command name: state is the
        // first, utime the 12th and stime the 13th (clock ticks).
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => Ok((user + system) / CLOCK_TICKS),
            _ => Err(io::Error::other("unreadable /proc stat")),
        }
    }

    /// Closes the daemon's stdin, which drains it and flushes its store,
    /// and waits for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.child.stdin.take());
        let asked = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "flexer-serve exited with {status}"
                    )))
                };
            }
            if asked.elapsed() > STOP_LIMIT {
                return Err(io::Error::other("flexer-serve did not drain in time"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A fresh, empty directory under `work`.
pub fn fresh_dir(work: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = work.join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir)?;
    }
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Copies the flat store directory `from` into a fresh `to`.
pub fn copy_store(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// `(entries, bytes)` of the `.fxs` entry files in a store directory.
pub fn store_size(dir: &Path) -> io::Result<(u64, u64)> {
    let (mut n, mut bytes) = (0, 0);
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.path().extension().is_some_and(|e| e == "fxs") {
            n += 1;
            bytes += entry.metadata()?.len();
        }
    }
    Ok((n, bytes))
}
