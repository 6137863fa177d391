//! Spawning and supervising member daemons from a topology.
//!
//! The supervisor owns one `flexer-serve` child per topology node,
//! started with that node's RAM dials (`--store-capacity`,
//! `--workers`, `--queue`) and `--stdin-shutdown` on a held pipe — if
//! the supervisor dies, every member's stdin closes and the member
//! drains gracefully instead of leaking. Port-0 members report their
//! concrete port through a port file; the supervisor records the
//! resolved `host:port`, which is the node's ring identity from then
//! on (restarts re-bind the *same* address so the ring never drifts).

use crate::topology::{NodeSpec, Topology};
use flexer_serve::client::roundtrip;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long to wait for a member to write its port file.
const BOOT_TIMEOUT: Duration = Duration::from_secs(10);
/// Spawn attempts per member (re-binding a just-freed port can race
/// the kernel briefly).
const SPAWN_ATTEMPTS: u32 = 5;

/// One running member.
#[derive(Debug)]
pub struct Member {
    /// The topology entry this member was started from.
    pub spec: NodeSpec,
    /// The resolved `host:port` the member listens on — its ring
    /// identity.
    pub addr: String,
    child: Option<Child>,
}

impl Member {
    /// Whether the child process is still running.
    pub fn alive(&mut self) -> bool {
        match self.child.as_mut() {
            Some(child) => matches!(child.try_wait(), Ok(None)),
            None => false,
        }
    }
}

/// A running fleet of member daemons.
#[derive(Debug)]
pub struct Supervisor {
    members: Vec<Member>,
    serve_bin: PathBuf,
    run_dir: PathBuf,
}

fn wait_port(path: &Path) -> Result<u16, String> {
    let start = Instant::now();
    while start.elapsed() < BOOT_TIMEOUT {
        if let Ok(text) = fs::read_to_string(path) {
            if let Ok(port) = text.trim().parse::<u16>() {
                return Ok(port);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(format!(
        "no port file at {} after boot timeout",
        path.display()
    ))
}

fn spawn_member(
    serve_bin: &Path,
    spec: &NodeSpec,
    addr: &str,
    run_dir: &Path,
) -> Result<(Child, String), String> {
    let port_file = run_dir.join(format!("{}.port", spec.name));
    let log = run_dir.join(format!("{}.log", spec.name));
    let mut last = String::new();
    for attempt in 0..SPAWN_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(100 * u64::from(attempt)));
        }
        let _ = fs::remove_file(&port_file);
        let log_file =
            fs::File::create(&log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let err_file = log_file
            .try_clone()
            .map_err(|e| format!("cannot clone log handle: {e}"))?;
        let mut child = Command::new(serve_bin)
            .arg("--addr")
            .arg(addr)
            .arg("--port-file")
            .arg(&port_file)
            .arg("--store")
            .arg(&spec.store_dir)
            .arg("--store-capacity")
            .arg(spec.effective_store_capacity().to_string())
            .arg("--workers")
            .arg(spec.effective_workers().to_string())
            .arg("--queue")
            .arg(spec.effective_queue().to_string())
            .arg("--node-name")
            .arg(&spec.name)
            .arg("--stdin-shutdown")
            .stdin(Stdio::piped())
            .stdout(Stdio::from(log_file))
            .stderr(Stdio::from(err_file))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", serve_bin.display()))?;
        match wait_port(&port_file) {
            Ok(port) => {
                let host = addr.rsplit_once(':').map_or("127.0.0.1", |(h, _)| h);
                return Ok((child, format!("{host}:{port}")));
            }
            Err(e) => {
                last = e;
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
    Err(format!(
        "member {:?} failed to boot on {addr}: {last}",
        spec.name
    ))
}

impl Supervisor {
    /// Spawns every topology member. `run_dir` holds port files and
    /// per-member logs; it is created if missing.
    ///
    /// # Errors
    ///
    /// The first member that fails to boot (already-started members
    /// are torn down).
    pub fn spawn(topology: &Topology, serve_bin: &Path, run_dir: &Path) -> Result<Self, String> {
        fs::create_dir_all(run_dir)
            .map_err(|e| format!("cannot create run dir {}: {e}", run_dir.display()))?;
        let mut sup = Self {
            members: Vec::with_capacity(topology.nodes.len()),
            serve_bin: serve_bin.to_path_buf(),
            run_dir: run_dir.to_path_buf(),
        };
        for spec in &topology.nodes {
            match spawn_member(serve_bin, spec, &spec.addr, run_dir) {
                Ok((child, addr)) => sup.members.push(Member {
                    spec: spec.clone(),
                    addr,
                    child: Some(child),
                }),
                Err(e) => {
                    sup.kill_all();
                    return Err(e);
                }
            }
        }
        Ok(sup)
    }

    /// The resolved member addresses, in topology order.
    #[must_use]
    pub fn addrs(&self) -> Vec<String> {
        self.members.iter().map(|m| m.addr.clone()).collect()
    }

    /// The members.
    #[must_use]
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    fn member_mut(&mut self, name: &str) -> Result<&mut Member, String> {
        self.members
            .iter_mut()
            .find(|m| m.spec.name == name)
            .ok_or_else(|| format!("no member named {name:?}"))
    }

    /// Hard-kills one member (crash injection; no drain).
    ///
    /// # Errors
    ///
    /// Unknown member name.
    pub fn kill(&mut self, name: &str) -> Result<(), String> {
        let member = self.member_mut(name)?;
        if let Some(mut child) = member.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        Ok(())
    }

    /// Restarts a (killed or crashed) member on its recorded address.
    /// `fresh_store` wipes the member's store directory first — the
    /// "new node joins with nothing" case anti-entropy then repairs.
    ///
    /// # Errors
    ///
    /// Unknown member, store wipe failure, or boot failure.
    pub fn restart(&mut self, name: &str, fresh_store: bool) -> Result<(), String> {
        let serve_bin = self.serve_bin.clone();
        let run_dir = self.run_dir.clone();
        let member = self.member_mut(name)?;
        if let Some(mut child) = member.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if fresh_store && member.spec.store_dir.exists() {
            fs::remove_dir_all(&member.spec.store_dir).map_err(|e| {
                format!("cannot wipe store {}: {e}", member.spec.store_dir.display())
            })?;
        }
        let (child, addr) = spawn_member(&serve_bin, &member.spec, &member.addr, &run_dir)?;
        debug_assert_eq!(addr, member.addr, "ring identity must not drift");
        member.addr = addr;
        member.child = Some(child);
        Ok(())
    }

    /// Respawns every member whose process has died (crash recovery in
    /// the supervise loop). Returns the names respawned.
    ///
    /// # Errors
    ///
    /// The first failed respawn.
    pub fn respawn_dead(&mut self) -> Result<Vec<String>, String> {
        let mut dead: Vec<String> = Vec::new();
        for member in &mut self.members {
            if !member.alive() {
                dead.push(member.spec.name.clone());
            }
        }
        for name in &dead {
            self.restart(name, false)?;
        }
        Ok(dead)
    }

    /// Gracefully drains one member (`shutdown` op, then reap).
    ///
    /// # Errors
    ///
    /// Unknown member name (an already-dead member is fine).
    pub fn drain(&mut self, name: &str) -> Result<(), String> {
        let member = self.member_mut(name)?;
        let _ = roundtrip(member.addr.as_str(), r#"{"op":"shutdown"}"#);
        if let Some(mut child) = member.child.take() {
            // The drain request closes the accept loop; give the child
            // a moment, then make sure it is gone.
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(5) {
                if !matches!(child.try_wait(), Ok(None)) {
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
        Ok(())
    }

    /// Drains every member and consumes the supervisor.
    pub fn drain_all(mut self) {
        let names: Vec<String> = self.members.iter().map(|m| m.spec.name.clone()).collect();
        for name in names {
            let _ = self.drain(&name);
        }
    }

    fn kill_all(&mut self) {
        for member in &mut self.members {
            if let Some(mut child) = member.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        // Leak nothing even on panic paths; a graceful caller used
        // drain_all (which emptied the child slots) already.
        self.kill_all();
    }
}
