//! The `flexer-fleet` binary: spawn and supervise a sharded scheduling
//! fleet, run anti-entropy passes, or run the scripted acceptance
//! smoke.

use flexer_fleet::{smoke, sync_pass, Router, Supervisor, Topology};
use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
flexer-fleet — consistent-hash sharded scheduling fleet over flexer-serve

USAGE:
  flexer-fleet run --topology FILE --serve-bin PATH [OPTIONS]
      Spawn every topology member, then supervise: crashed members are
      respawned on their recorded address and an anti-entropy pass runs
      every --sync-interval-ms. Stops (draining every member) when
      stdin reaches EOF — run it with a pipe on stdin and close it.

  flexer-fleet sync --fleet HOST:PORT,... [OPTIONS]
      Run one anti-entropy pass over a running fleet and print what it
      copied.

  flexer-fleet smoke --serve-bin PATH [--scratch DIR]
      Run the three-node acceptance smoke: fingerprint routing to the
      owning shard, failover with one member killed, and search-free
      warm start of a wiped member via replication.

OPTIONS:
  --topology FILE        TOML fleet description (see crate docs)
  --serve-bin PATH       the flexer-serve binary to spawn members from
  --run-dir DIR          port files + member logs (default .fleet-run)
  --sync-interval-ms N   anti-entropy period for `run` (default 2000)
  --fleet A,B,C          member addresses for `sync`
  --replicas N           replication factor for `sync` (default 2)
  --vnodes N             ring virtual nodes (default 64; must match fleet)
  --seed N               ring hash seed (must match fleet)
  --scratch DIR          smoke working dir (default .fleet-smoke)
  -h, --help             this text";

fn value(args: &mut impl Iterator<Item = String>, what: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{what} needs a value (see --help)"))
}

fn run_fleet(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut topology = None;
    let mut serve_bin = None;
    let mut run_dir = PathBuf::from(".fleet-run");
    let mut interval = Duration::from_millis(2000);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--topology" => topology = Some(PathBuf::from(value(&mut args, "--topology")?)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value(&mut args, "--serve-bin")?)),
            "--run-dir" => run_dir = PathBuf::from(value(&mut args, "--run-dir")?),
            "--sync-interval-ms" => {
                interval = Duration::from_millis(
                    value(&mut args, "--sync-interval-ms")?
                        .parse()
                        .map_err(|e| format!("--sync-interval-ms: {e}"))?,
                );
            }
            other => return Err(format!("run: unknown flag {other:?}")),
        }
    }
    let topology = Topology::from_file(&topology.ok_or("run needs --topology")?)?;
    let serve_bin = serve_bin.ok_or("run needs --serve-bin")?;
    let mut fleet = Supervisor::spawn(&topology, &serve_bin, &run_dir)?;
    for member in fleet.members() {
        println!(
            "flexer-fleet: member {} ({}) on {}",
            member.spec.name,
            member.spec.role.code(),
            member.addr
        );
    }
    let router = Router::with_ring_params(&fleet.addrs(), topology.vnodes, topology.seed);
    let replicas = topology.effective_replicas();

    // Stdin EOF is the stop signal, watched from a thread so the
    // supervise loop below stays a plain timer.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("flexer-fleet-stdin".into())
            .spawn(move || {
                let mut sink = [0u8; 4096];
                let mut stdin = std::io::stdin();
                while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
                stop.store(true, Ordering::SeqCst);
            })
            .map_err(|e| format!("cannot spawn stdin watcher: {e}"))?;
    }
    println!("flexer-fleet: supervising (close stdin to stop)");
    'supervise: loop {
        // Sleep out the interval in stop-checkable slices.
        let mut slept = Duration::ZERO;
        while slept < interval {
            if stop.load(Ordering::SeqCst) {
                break 'supervise;
            }
            std::thread::sleep(Duration::from_millis(100));
            slept += Duration::from_millis(100);
        }
        for name in fleet.respawn_dead()? {
            println!("flexer-fleet: respawned crashed member {name}");
        }
        match sync_pass(&router, replicas) {
            Ok(report) if report.copied > 0 => {
                println!(
                    "flexer-fleet: anti-entropy copied {} entries ({} rejected)",
                    report.copied, report.rejected
                );
            }
            Ok(_) => {}
            Err(e) => eprintln!("flexer-fleet: anti-entropy pass failed: {e}"),
        }
    }
    println!("flexer-fleet: draining members");
    fleet.drain_all();
    Ok(())
}

fn run_sync(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut fleet = None;
    let mut replicas = 2usize;
    let mut vnodes = flexer_fleet::ring::DEFAULT_VNODES;
    let mut seed = flexer_fleet::ring::DEFAULT_SEED;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fleet" => fleet = Some(value(&mut args, "--fleet")?),
            "--replicas" => {
                replicas = value(&mut args, "--replicas")?
                    .parse()
                    .map_err(|e| format!("--replicas: {e}"))?;
            }
            "--vnodes" => {
                vnodes = value(&mut args, "--vnodes")?
                    .parse()
                    .map_err(|e| format!("--vnodes: {e}"))?;
            }
            "--seed" => {
                seed = value(&mut args, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            other => return Err(format!("sync: unknown flag {other:?}")),
        }
    }
    let fleet = fleet.ok_or("sync needs --fleet HOST:PORT,...")?;
    let addrs: Vec<&str> = fleet.split(',').filter(|a| !a.is_empty()).collect();
    let router = Router::with_ring_params(&addrs, vnodes, seed);
    let report = sync_pass(&router, replicas)?;
    println!(
        "flexer-fleet: sync over {} nodes, {} entries: copied {}, existing {}, rejected {}, vanished {}",
        report.nodes, report.entries, report.copied, report.existing, report.rejected, report.vanished
    );
    for addr in &report.unreachable {
        println!("flexer-fleet: unreachable member {addr}");
    }
    Ok(())
}

fn run_smoke(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut serve_bin = None;
    let mut scratch = PathBuf::from(".fleet-smoke");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serve-bin" => serve_bin = Some(PathBuf::from(value(&mut args, "--serve-bin")?)),
            "--scratch" => scratch = PathBuf::from(value(&mut args, "--scratch")?),
            other => return Err(format!("smoke: unknown flag {other:?}")),
        }
    }
    let serve_bin = serve_bin.ok_or("smoke needs --serve-bin PATH")?;
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch)
            .map_err(|e| format!("cannot wipe scratch {}: {e}", scratch.display()))?;
    }
    smoke::run(&serve_bin, &scratch)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("run") => run_fleet(args),
        Some("sync") => run_sync(args),
        Some("smoke") => run_smoke(args),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?} (see --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("flexer-fleet: {msg}");
            ExitCode::from(2)
        }
    }
}
