//! `flexbench`: the end-to-end benchmark of the `flexer-serve` daemon.
//!
//! ```text
//! flexbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! Runs one workload against the real daemon and prints, as the last
//! line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
//! are the end-to-end ones; with `--trace 1` they are the per-layer
//! ones. See `README.md` beside this package.

mod daemon;
mod gen;
mod layers;
mod load;
mod stats;
mod trace;

use daemon::{copy_store, fresh_dir, store_size, Daemon};
use flexer_serve::mask_provenance;
use gen::{properties, Generator, Req, Size};
use layers::Metrics;
use load::{closed_loop, plain_send, reference_of, Outcome, Pattern, Run, Slot, Stream};
use stats::{median, summarize_windows};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Mirror, Span};

/// Each workload and why it was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "cold_compile",
        "every layer searches on an empty store: the compiler user's time to a schedule",
    ),
    (
        "warm_hits",
        "nothing searches: client, socket, protocol, engine, store reads and encoding do the work",
    ),
    (
        "mixed_rw",
        "one request in five searches and writes the store beside the hit path, on both cores",
    ),
];
/// Set-ups per warm run; `setup_s` is their median.
const WARM_SETUPS: usize = 3;
/// Extra boot-to-health samples a cold run takes before each round, so
/// the boots spread over the whole run.
const BOOTS_PER_ROUND: usize = 16;
/// Passes over the mixed stream's prefix in one `mixed_rw` epoch.
const EPOCH_PASSES: usize = 2;
/// Fresh stacks the `warm_hits` miss probe sends.
const MISS_PROBE: usize = 96;

struct Args {
    daemon: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut daemon, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    let mut size = Size::FULL;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => trace = Some(value()? == "1"),
            "--tiny" => size = Size::TINY,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("unknown workload {workload}; one of {names:?}"));
    }
    Ok(Args {
        daemon: daemon.ok_or("--daemon is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        size,
    })
}

/// What a run reports.
#[derive(Default)]
struct Report {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    mismatches: Vec<String>,
    details: BTreeMap<String, String>,
    spans: Vec<Span>,
    response_bytes: Vec<f64>,
}

impl Report {
    fn absorb(&mut self, out: &Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.mismatches.extend(out.mismatches.iter().cloned());
    }

    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// `<class>_p50_ms` and `<class>_tail_ms`: metrics when `bounded`,
    /// details otherwise. The tail's percentile and sample count always go
    /// to the details. Miss latencies are CPU-bound and move with the
    /// host's speed by more than any bound the benchmark may set, so they
    /// are reported in the details only.
    fn latency(&mut self, class: &str, ms: &[f64], bounded: bool) -> io::Result<()> {
        let (s, windows) = summarize_windows(ms)
            .ok_or_else(|| io::Error::other(format!("no {class} samples were measured")))?;
        if bounded {
            self.set(&format!("{class}_p50_ms"), s.p50, "ms");
            self.set(&format!("{class}_tail_ms"), s.tail, "ms");
        } else {
            self.details
                .insert(format!("{class}_p50_ms"), format!("{:.3}", s.p50));
        }
        self.details.insert(
            format!("{class}_tail"),
            format!(
                "{:.3} ms, p{} of {} samples, median over {windows} windows",
                s.tail, s.tail_pct, s.count
            ),
        );
        Ok(())
    }

    /// Completed requests per second, in the details: on `cold_compile`
    /// and `mixed_rw` it is CPU-bound like the miss latencies.
    fn rps(&mut self, rps: f64) {
        self.details.insert("rps".into(), format!("{rps:.3}"));
    }

    /// The measured loop's share of requests that searched.
    fn miss_share(&mut self, misses: usize, requests: usize) {
        let share = misses as f64 / requests.max(1) as f64;
        self.details
            .insert("miss_share".into(), format!("{share:.3}"));
    }

    /// `latency_mcycles` and `dram_mb`: sums over the set's preset
    /// requests, which are the same distinct requests for every seed, so
    /// runs on any seeds compare exactly.
    fn sums(&mut self, set: &[Req], reference: &[String]) -> io::Result<()> {
        let (mut latency, mut bytes, mut n) = (0.0, 0.0, 0);
        for (_, reply) in set.iter().zip(reference).filter(|(q, _)| q.preset) {
            let j = flexer::trace::json::parse(reply)
                .map_err(|e| io::Error::other(format!("reply is not JSON: {}", e.message)))?;
            let num = |k: &str| j.get(k).and_then(|v| v.as_num()).unwrap_or(0.0);
            latency += num("latency");
            bytes += num("transfer_bytes");
            n += 1;
        }
        self.set("latency_mcycles", latency / 1e6, "Mcycles");
        self.set("dram_mb", bytes / 1e6, "MB");
        self.details
            .insert("sum_over_requests".into(), n.to_string());
        Ok(())
    }

    /// The daemon's CPU time per request and the host's steal share
    /// over the measured loops.
    fn host(&mut self, cpu_s: f64, requests: usize, ticks: (u64, u64)) {
        self.details.insert(
            "daemon_cpu_ms_per_request".into(),
            format!("{:.3}", cpu_s * 1e3 / requests.max(1) as f64),
        );
        self.details.insert("host_steal".into(), steal_since(ticks));
    }
}

fn miss_ms(out: &Outcome, miss: bool) -> Vec<f64> {
    out.samples
        .iter()
        .filter(|s| s.miss == miss)
        .map(|s| s.ms)
        .collect()
}

fn rps(outs: &[Outcome]) -> f64 {
    let wall: f64 = outs.iter().map(|o| o.wall_s).sum();
    requests(outs) as f64 / wall
}

fn requests(outs: &[Outcome]) -> usize {
    outs.iter().map(|o| o.samples.len()).sum()
}

/// Each request's best round trip over loops that sent it repeatedly,
/// with whether that reply searched. A burst of host contention slows
/// one send of a request, not all of them, so the best of several sends
/// holds still where a single send does not.
fn best_by_slot(outs: &[Outcome]) -> BTreeMap<Slot, (f64, bool)> {
    let mut best: BTreeMap<Slot, (f64, bool)> = BTreeMap::new();
    for s in outs.iter().flat_map(|o| &o.samples) {
        let e = best.entry(s.slot).or_insert((s.ms, s.miss));
        if s.ms < e.0 {
            *e = (s.ms, s.miss);
        }
    }
    best
}

/// The median of every sample of `outs`.
fn p50_of(outs: &[Outcome]) -> f64 {
    let v: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.samples.iter().map(|s| s.ms))
        .collect();
    median(&v)
}

/// Layers the requests of `outs` carry.
fn layers_of(stream: &Stream, outs: &[Outcome]) -> usize {
    outs.iter()
        .flat_map(|o| &o.samples)
        .map(|s| stream.request(s.slot).layers().len())
        .sum()
}

/// Each fresh stack must get the same reply, after `mask_provenance`,
/// every time it is searched.
fn check_fresh(out: &Outcome, first: &mut BTreeMap<usize, String>, r: &mut Report) {
    for (slot, reply) in &out.kept {
        let Slot::Fresh(n) = *slot else { continue };
        let masked = mask_provenance(reply);
        match first.get(&n) {
            None => {
                first.insert(n, masked);
            }
            Some(seen) if *seen != masked => {
                r.failed += 1;
                r.mismatches
                    .push(format!("f{n}: reply differs between epochs"));
            }
            Some(_) => {}
        }
    }
}

/// Daemon `store` counters: `(hits, misses, corrupt)`.
fn store_counters(d: &Daemon) -> io::Result<(f64, f64, f64)> {
    let stats = d.stats()?;
    let store = stats
        .get("store")
        .ok_or_else(|| io::Error::other("stats reply has no store"))?;
    let n = |k: &str| store.get(k).and_then(|v| v.as_num()).unwrap_or(0.0);
    Ok((n("hits"), n("misses"), n("corrupt")))
}

struct Bench<'a> {
    args: &'a Args,
    work: PathBuf,
}

impl Bench<'_> {
    fn start(&self, store: &Path) -> io::Result<Daemon> {
        Daemon::start(&self.args.daemon, store)
    }

    fn once(&self, d: &Daemon, set: &[Req], reference: Option<&[String]>) -> io::Result<Outcome> {
        let stream = Stream::new(set, Pattern::Once, self.args.seed, Generator::new(0));
        let run = Run {
            addr: d.addr,
            conns: 1,
            first_slot: 0,
            min_slots: set.len(),
            seconds: None,
            reference,
            seq_base: 0,
        };
        closed_loop(&stream, &run, &plain_send)
    }

    /// Seconds of the run measured untraced: a traced run spends its
    /// first third untraced.
    fn untraced_s(&self) -> f64 {
        if self.args.trace {
            self.args.seconds / 3.0
        } else {
            self.args.seconds
        }
    }

    /// `cold_compile`: rounds of the cold set on a fresh daemon and an
    /// empty store, one connection, until the run time is spent.
    fn cold_compile(&self, set: &[Req], r: &mut Report) -> io::Result<()> {
        let args = self.args;
        let mut boots = Vec::new();
        let mut reference: Option<Vec<String>> = None;
        let (mut rounds, mut rss) = (Vec::new(), Vec::new());
        let mut traced = Vec::new();
        let started = Instant::now();
        let last_store;
        let (mut lookups, mut corrupt) = ((0.0, 0.0), 0.0);
        let mut cpu_s = 0.0;
        let ticks = daemon::cpu_ticks();
        let rebuild = loop {
            for _ in 0..BOOTS_PER_ROUND {
                let d = self.start(&fresh_dir(&self.work, "store")?)?;
                boots.push(d.boot_s);
                d.stop()?;
            }
            let store = fresh_dir(&self.work, "store")?;
            let d = self.start(&store)?;
            boots.push(d.boot_s);
            let tracing = args.trace && started.elapsed().as_secs_f64() >= self.untraced_s();
            let out = if tracing {
                let mirror = Mirror::new(&fresh_dir(&self.work, "mirror")?);
                let stream = Stream::new(set, Pattern::Once, args.seed, Generator::new(0));
                let run = Run {
                    addr: d.addr,
                    conns: 1,
                    first_slot: 0,
                    min_slots: set.len(),
                    seconds: None,
                    reference: reference.as_deref(),
                    seq_base: ((rounds.len() + traced.len()) * set.len()) as u64,
                };
                let before = store_counters(&d)?;
                let out = closed_loop(&stream, &run, &|c, q, s, sp| mirror.send(c, q, s, sp))?;
                let after = store_counters(&d)?;
                (lookups, corrupt) = ((after.0 - before.0, after.1 - before.1), after.2);
                finish_mirror(&mirror, r);
                out
            } else {
                let cpu = d.cpu_s()?;
                let out = self.once(&d, set, reference.as_deref())?;
                cpu_s += d.cpu_s()? - cpu;
                out
            };
            r.absorb(&out);
            if reference.is_none() {
                reference = Some(reference_of(set.len(), &out.kept).ok_or_else(|| {
                    io::Error::other("first cold round left requests unanswered")
                })?);
            }
            rss.push(d.peak_rss_mb()?);
            if tracing {
                traced.push(out);
            } else {
                rounds.push(out);
            }
            if started.elapsed().as_secs_f64() >= args.seconds
                && (!args.trace || !traced.is_empty())
            {
                // The rebuild probe: the same set again on the now warm
                // daemon, which gives the workload its hit latencies.
                let probe = self.once(&d, set, reference.as_deref())?;
                r.absorb(&probe);
                d.stop()?;
                last_store = store;
                break probe;
            }
            d.stop()?;
        };
        let reference = reference.expect("set by the first round");
        if args.trace {
            trace_overhead(p50_of(&rounds), p50_of(&traced), r);
            for out in &mut traced {
                r.spans.append(&mut out.spans);
            }
            // The counters cover the last traced round only.
            let layers: usize = set.iter().map(|q| q.layers().len()).sum();
            self.store_metrics(&last_store, lookups, corrupt, layers as f64, r)?;
            self.layer_probes(
                set,
                &reference,
                &layers::distinct_layers(set),
                &last_store,
                r,
            )?;
            return Ok(());
        }
        let n = requests(&rounds);
        let misses = rounds.iter().map(|o| miss_ms(o, true).len()).sum();
        r.miss_share(misses, n);
        let best = best_by_slot(&rounds);
        let best_s: f64 = best.values().map(|(ms, _)| ms / 1e3).sum();
        r.rps(best.len() as f64 / best_s);
        let best_misses: Vec<f64> = best
            .values()
            .filter(|(_, miss)| *miss)
            .map(|(ms, _)| *ms)
            .collect();
        r.latency("miss", &best_misses, false)?;
        r.latency("hit", &miss_ms(&rebuild, false), true)?;
        r.set("setup_s", median(&boots), "s");
        r.set("peak_rss_mb", median(&rss), "MB");
        r.sums(set, &reference)?;
        r.details.insert("rounds".into(), rounds.len().to_string());
        r.details.insert("boots".into(), boots.len().to_string());
        r.host(cpu_s, n, ticks);
        Ok(())
    }

    /// The warm set-ups: fill a fresh store with the cold set, restart
    /// the daemon on it, and check that every fill agrees with the first.
    /// Returns the serving daemon, its store and the cold replies.
    fn warm_setup(
        &self,
        set: &[Req],
        r: &mut Report,
    ) -> io::Result<(Daemon, PathBuf, Vec<String>)> {
        let setups = if self.args.trace { 1 } else { WARM_SETUPS };
        let mut setup_s = Vec::new();
        let mut reference: Option<Vec<String>> = None;
        let mut serving = None;
        let store = self.work.join("store");
        for k in 0..setups {
            let t = Instant::now();
            let store = fresh_dir(&self.work, "store")?;
            let d = self.start(&store)?;
            let fill = self.once(&d, set, None)?;
            r.absorb(&fill);
            d.stop()?;
            let d = self.start(&store)?;
            setup_s.push(t.elapsed().as_secs_f64());
            let refs = reference_of(set.len(), &fill.kept)
                .ok_or_else(|| io::Error::other("the cold fill left requests unanswered"))?;
            match &reference {
                None => reference = Some(refs),
                Some(first) => {
                    for (i, (a, b)) in first.iter().zip(&refs).enumerate() {
                        if a != b {
                            r.failed += 1;
                            r.mismatches.push(format!("c{i}: cold fills disagree"));
                        }
                    }
                }
            }
            if k + 1 == setups {
                serving = Some(d);
            } else {
                d.stop()?;
            }
        }
        if !self.args.trace {
            r.set("setup_s", median(&setup_s), "s");
        }
        let d = serving.expect("at least one set-up");
        Ok((d, store, reference.expect("at least one fill")))
    }

    /// `warm_hits`: two connections replay a seeded permutation of the
    /// set and seeded draws from it on the warm daemon.
    fn warm_hits(&self, set: &[Req], gen: Generator, r: &mut Report) -> io::Result<()> {
        let args = self.args;
        let (d, store, reference) = self.warm_setup(set, r)?;
        let stream = Stream::new(set, Pattern::Draws, args.seed, gen);
        let run = Run {
            addr: d.addr,
            conns: 2,
            first_slot: 0,
            min_slots: stream.prefix(),
            seconds: Some(self.untraced_s()),
            reference: Some(&reference),
            seq_base: 0,
        };
        let (cpu, ticks) = (d.cpu_s()?, daemon::cpu_ticks());
        let out = closed_loop(&stream, &run, &plain_send)?;
        r.host(d.cpu_s()? - cpu, out.samples.len(), ticks);
        r.absorb(&out);
        if args.trace {
            let mirror_store = fresh_dir(&self.work, "mirror")?;
            copy_store(&store, &mirror_store)?;
            let mirror = Mirror::new(&mirror_store);
            let taken = out.attempted;
            let run = Run {
                first_slot: taken,
                min_slots: taken,
                seconds: Some(args.seconds - self.untraced_s()),
                ..run
            };
            let before = store_counters(&d)?;
            let traced = closed_loop(&stream, &run, &|c, q, s, sp| mirror.send(c, q, s, sp))?;
            let after = store_counters(&d)?;
            d.stop()?;
            r.absorb(&traced);
            finish_mirror(&mirror, r);
            let (untraced, mut traced) = ([out], [traced]);
            trace_overhead(p50_of(&untraced), p50_of(&traced), r);
            let layers = layers_of(&stream, &traced);
            r.spans.append(&mut traced[0].spans);
            let lookups = (after.0 - before.0, after.1 - before.1);
            self.store_metrics(&store, lookups, after.2, layers as f64, r)?;
            // Nothing searched: the sched probes have no layers.
            return self.layer_probes(set, &reference, &[], &store, r);
        }
        let mut hits = miss_ms(&out, false);
        r.miss_share(out.samples.len() - hits.len(), out.samples.len());
        r.rps(rps(&[out]));
        // The miss probe: fresh stacks on the warm daemon, outside the
        // measured loop.
        let probe_set: Vec<Req> = (0..MISS_PROBE)
            .map(|n| (*stream.fresh(n)).clone())
            .collect();
        let probe = self.once(&d, &probe_set, None)?;
        r.absorb(&probe);
        hits.extend(miss_ms(&probe, false));
        r.latency("hit", &hits, true)?;
        r.latency("miss", &miss_ms(&probe, true), false)?;
        r.set("peak_rss_mb", d.peak_rss_mb()?, "MB");
        d.stop()?;
        r.sums(set, &reference)
    }

    /// `mixed_rw`: epochs of the mixed stream on two connections, each
    /// epoch on a fresh daemon over a fresh copy of the warm store. Every
    /// epoch sends the same requests, so each fresh stack searches and
    /// writes the store once per epoch, and its best round trip over the
    /// epochs gives the miss latency.
    fn mixed_rw(&self, set: &[Req], gen: Generator, r: &mut Report) -> io::Result<()> {
        let args = self.args;
        let (d, warm, reference) = self.warm_setup(set, r)?;
        d.stop()?;
        let stream = Stream::new(set, Pattern::Mixed, args.seed, gen);
        let slots = EPOCH_PASSES * stream.prefix();
        let (mut epochs, mut traced, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        let mut fresh_replies = BTreeMap::new();
        let (mut lookups, mut corrupt) = ((0.0, 0.0), 0.0);
        let (mut cpu_s, ticks) = (0.0, daemon::cpu_ticks());
        let started = Instant::now();
        let mut last_store = warm.clone();
        while started.elapsed().as_secs_f64() < args.seconds
            || epochs.is_empty()
            || (args.trace && traced.is_empty())
        {
            let tracing = args.trace
                && !epochs.is_empty()
                && started.elapsed().as_secs_f64() >= self.untraced_s();
            let store = fresh_dir(&self.work, "epoch")?;
            copy_store(&warm, &store)?;
            let d = self.start(&store)?;
            let run = Run {
                addr: d.addr,
                conns: 2,
                first_slot: 0,
                min_slots: slots,
                seconds: None,
                reference: Some(&reference),
                seq_base: ((epochs.len() + traced.len()) * slots) as u64,
            };
            let out = if tracing {
                let mirror_store = fresh_dir(&self.work, "mirror")?;
                copy_store(&warm, &mirror_store)?;
                let mirror = Mirror::new(&mirror_store);
                let before = store_counters(&d)?;
                let out = closed_loop(&stream, &run, &|c, q, s, sp| mirror.send(c, q, s, sp))?;
                let after = store_counters(&d)?;
                lookups.0 += after.0 - before.0;
                lookups.1 += after.1 - before.1;
                corrupt += after.2;
                finish_mirror(&mirror, r);
                out
            } else {
                let cpu = d.cpu_s()?;
                let out = closed_loop(&stream, &run, &plain_send)?;
                cpu_s += d.cpu_s()? - cpu;
                out
            };
            r.absorb(&out);
            check_fresh(&out, &mut fresh_replies, r);
            rss.push(d.peak_rss_mb()?);
            d.stop()?;
            if tracing {
                traced.push(out);
                last_store = store;
            } else {
                epochs.push(out);
            }
        }
        if args.trace {
            trace_overhead(p50_of(&epochs), p50_of(&traced), r);
            let layers = layers_of(&stream, &traced);
            let searched: Vec<Req> = fresh_replies
                .keys()
                .map(|&n| (*stream.fresh(n)).clone())
                .collect();
            for out in &mut traced {
                r.spans.append(&mut out.spans);
            }
            self.store_metrics(&last_store, lookups, corrupt, layers as f64, r)?;
            return self.layer_probes(
                set,
                &reference,
                &layers::distinct_layers(&searched),
                &warm,
                r,
            );
        }
        let hits: Vec<f64> = epochs.iter().flat_map(|o| miss_ms(o, false)).collect();
        let n = requests(&epochs);
        r.miss_share(n - hits.len(), n);
        r.rps(rps(&epochs));
        let best_misses: Vec<f64> = best_by_slot(&epochs)
            .values()
            .filter(|(_, miss)| *miss)
            .map(|(ms, _)| *ms)
            .collect();
        r.latency("hit", &hits, true)?;
        r.latency("miss", &best_misses, false)?;
        r.set("peak_rss_mb", median(&rss), "MB");
        r.sums(set, &reference)?;
        r.details.insert("epochs".into(), epochs.len().to_string());
        r.host(cpu_s, n, ticks);
        Ok(())
    }

    /// The store metrics of the traced loops: `(hits, misses)` are the
    /// daemon's store lookups during them, `layers` the layers they sent.
    fn store_metrics(
        &self,
        store: &Path,
        (hits, misses): (f64, f64),
        corrupt: f64,
        layers: f64,
        r: &mut Report,
    ) -> io::Result<()> {
        let lookups = hits + misses;
        r.set(
            "store.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        );
        // Layers a driver answered without a store lookup.
        let memo = if layers > 0.0 {
            (layers - lookups).max(0.0) / layers
        } else {
            0.0
        };
        r.set("core.memo_hit_ratio", memo, "ratio");
        r.set("store.corrupt", corrupt, "count");
        let (entries, bytes) = store_size(store)?;
        r.set("store.entries", entries as f64, "count");
        r.set("store.bytes", bytes as f64, "bytes");
        Ok(())
    }

    /// The in-process probes of the traced run.
    fn layer_probes(
        &self,
        set: &[Req],
        reference: &[String],
        searched: &[(flexer::model::ConvLayer, flexer::arch::ArchPreset)],
        store: &Path,
        r: &mut Report,
    ) -> io::Result<()> {
        let seed = self.args.seed;
        serving_metrics(r);
        let (checked, failures) =
            layers::verify_cold(set, reference, seed, &mut r.spans, &mut r.metrics);
        r.attempted += checked;
        r.failed += failures.len();
        r.mismatches.extend(failures);
        let scratch = fresh_dir(&self.work, "probe-store")?;
        layers::search_probes(searched, &scratch, seed, &mut r.spans, &mut r.metrics)?;
        layers::store_get_probe(set, store, seed, &mut r.spans, &mut r.metrics)?;
        for (name, total_ms) in trace::self_times(&r.spans) {
            r.set(&format!("self.{name}_ms"), total_ms, "ms");
        }
        let path = Path::new(".bench_work").join("traces").join(format!(
            "{}-seed{}.json",
            self.args.workload, self.args.seed
        ));
        trace::write(&r.spans, &path)?;
        r.details.insert("spans".into(), path.display().to_string());
        Ok(())
    }
}

/// Folds a traced loop's in-process comparisons into the report.
fn finish_mirror(mirror: &Mirror, r: &mut Report) {
    let mismatches =
        std::mem::take(&mut *mirror.mismatches.lock().expect("mismatch list poisoned"));
    r.failed += mismatches.len();
    r.mismatches.extend(mismatches);
    r.response_bytes.extend(
        mirror
            .response_bytes
            .lock()
            .expect("size list poisoned")
            .iter(),
    );
}

/// The serving-stage metrics, from the spans of the traced loops.
fn serving_metrics(r: &mut Report) {
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    let transport = med(trace::transport_ms(&r.spans));
    let run = med(trace::durations_ms(&r.spans, "serve.engine.run"));
    let parse = med(trace::durations_ms(&r.spans, "serve.protocol.parse"));
    let route = med(trace::durations_ms(&r.spans, "fleet.route"));
    let bytes = med(r.response_bytes.clone());
    r.set("serve.transport_ms", transport, "ms");
    r.set("serve.engine.run_ms", run, "ms");
    r.set("serve.protocol.parse_us", parse * 1e3, "us");
    r.set("serve.protocol.response_bytes", bytes, "bytes");
    r.set("fleet.route_us", route * 1e3, "us");
}

/// The host's CPU steal share since `ticks` were read.
fn steal_since((steal, all): (u64, u64)) -> String {
    let (steal_now, all_now) = daemon::cpu_ticks();
    let share = (steal_now - steal) as f64 / (all_now - all).max(1) as f64;
    format!("{:.1}%", share * 100.0)
}

fn trace_overhead(untraced_p50: f64, traced_p50: f64, r: &mut Report) {
    r.set("trace.untraced_p50_ms", untraced_p50, "ms");
    r.set("trace.traced_p50_ms", traced_p50, "ms");
    r.set("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
}

fn run(args: &Args) -> io::Result<Report> {
    let root = std::env::current_dir()?;
    let work = root
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work)?;
    let bench = Bench {
        args,
        work: work.clone(),
    };
    let mut gen = Generator::new(args.seed);
    let set = gen.cold_set(args.size);
    let mut r = Report::default();
    for (k, v) in properties(&set) {
        r.details.insert(k.to_string(), v);
    }
    if let Some((_, why)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) {
        r.details.insert("why".into(), (*why).to_string());
    }
    let result = match args.workload.as_str() {
        "cold_compile" => bench.cold_compile(&set, &mut r),
        "warm_hits" => bench.warm_hits(&set, gen, &mut r),
        _ => bench.mixed_rw(&set, gen, &mut r),
    };
    let _ = std::fs::remove_dir_all(&work);
    result.map(|()| r)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flexbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut r = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flexbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        let attempted = r.attempted.max(1) as f64;
        r.set("success_ratio", 1.0 - r.failed as f64 / attempted, "ratio");
    }
    for m in r.mismatches.iter().take(20) {
        eprintln!("flexbench: check failed: {m}");
    }
    let details: Vec<String> = r
        .details
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    println!(
        "{{\"workload\":\"{}\",{}}}",
        args.workload,
        details.join(",")
    );
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
