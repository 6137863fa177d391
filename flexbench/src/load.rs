//! The closed-loop load generator and its output checks.
//!
//! Each connection sends its next request only after the previous
//! reply arrived, through the shared `flexer_serve::Client` as it is.
//! Connections take slots from one shared cursor over a request
//! sequence that is a pure function of the seed, so the stream of
//! request lines is the same on every run with that seed.

use crate::gen::{Generator, Req};
use crate::trace::Span;
use flexer_serve::{mask_provenance, Client};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one position of a request sequence sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Slot {
    /// A request of the cold set, by index.
    Set(usize),
    /// The n-th fresh stack.
    Fresh(usize),
}

/// The shape of a request sequence over a cold set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// The cold set once, in order.
    Once,
    /// A seeded permutation of the set, then seeded draws from it.
    Draws,
    /// As `Draws`, with one fresh stack at a seeded position in every
    /// block of five.
    Mixed,
}

fn mix(seed: u64, i: u64) -> u64 {
    let mut r = crate::gen::Rng::new(seed ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03));
    r.next_u64()
}

/// A seeded request sequence over a cold set, plus the generator that
/// produces its fresh stacks on demand.
pub struct Stream<'a> {
    set: &'a [Req],
    shared: Vec<Arc<Req>>,
    pattern: Pattern,
    seed: u64,
    perm: Vec<usize>,
    fresh: Mutex<(Generator, Vec<Arc<Req>>)>,
}

impl<'a> Stream<'a> {
    pub fn new(set: &'a [Req], pattern: Pattern, seed: u64, fresh: Generator) -> Self {
        let mut perm: Vec<usize> = (0..set.len()).collect();
        crate::gen::Rng::new(seed ^ 0x00dd_ba11).shuffle(&mut perm);
        Self {
            set,
            shared: set.iter().cloned().map(Arc::new).collect(),
            pattern,
            seed,
            perm,
            fresh: Mutex::new((fresh, Vec::new())),
        }
    }

    /// The slot at position `i`, or `None` past the end of a `Once`
    /// sequence.
    pub fn slot(&self, i: usize) -> Option<Slot> {
        let n = self.set.len();
        let draw = |j: usize| {
            if j < n {
                Slot::Set(self.perm[j])
            } else {
                Slot::Set((mix(self.seed, j as u64) % n as u64) as usize)
            }
        };
        match self.pattern {
            Pattern::Once => (i < n).then_some(Slot::Set(i)),
            Pattern::Draws => Some(draw(i)),
            Pattern::Mixed => {
                let (block, pos) = (i / 5, i % 5);
                let fresh_pos = (mix(self.seed ^ 0xf5e5, block as u64) % 5) as usize;
                Some(match pos.cmp(&fresh_pos) {
                    std::cmp::Ordering::Equal => Slot::Fresh(block),
                    std::cmp::Ordering::Less => draw(block * 4 + pos),
                    std::cmp::Ordering::Greater => draw(block * 4 + pos - 1),
                })
            }
        }
    }

    /// Positions that together touch every request of the set at least
    /// once.
    pub fn prefix(&self) -> usize {
        let n = self.set.len();
        match self.pattern {
            Pattern::Once | Pattern::Draws => n,
            Pattern::Mixed => n.div_ceil(4) * 5,
        }
    }

    /// The n-th fresh stack, generated in order on first use.
    pub fn fresh(&self, n: usize) -> Arc<Req> {
        let mut guard = self.fresh.lock().expect("fresh generator poisoned");
        let (gen, made) = &mut *guard;
        while made.len() <= n {
            made.push(Arc::new(gen.fresh()));
        }
        Arc::clone(&made[n])
    }

    pub fn request(&self, slot: Slot) -> Arc<Req> {
        match slot {
            Slot::Set(i) => Arc::clone(&self.shared[i]),
            Slot::Fresh(n) => self.fresh(n),
        }
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub slot: Slot,
    /// Round-trip time in milliseconds.
    pub ms: f64,
    /// Seconds from the loop's start to the reply.
    pub done: f64,
    /// Whether the daemon searched at least one layer for it.
    pub miss: bool,
}

/// Everything one closed loop produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    /// Seconds from the first send to the last reply.
    pub wall_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Replies kept for later checks: every set request when there is
    /// no reference yet, and every fresh stack.
    pub kept: Vec<(Slot, String)>,
    pub mismatches: Vec<String>,
}

/// How a loop sends one request: returns the reply and the time the
/// round trip alone took. Traced loops wrap extra work around it.
pub type Send<'s> =
    dyn Fn(&mut Client, &Req, u64, &mut Vec<Span>) -> io::Result<(String, Duration)> + Sync + 's;

/// The untraced request: one timed round trip.
pub fn plain_send(
    client: &mut Client,
    req: &Req,
    _seq: u64,
    _spans: &mut Vec<Span>,
) -> io::Result<(String, Duration)> {
    let t = Instant::now();
    let reply = client.roundtrip(&req.line)?;
    Ok((reply, t.elapsed()))
}

/// Loop settings.
pub struct Run<'r> {
    pub addr: SocketAddr,
    pub conns: usize,
    /// The sequence position the loop starts at.
    pub first_slot: usize,
    /// Keep sending until at least this many positions were taken...
    pub min_slots: usize,
    /// ...and this long has passed (`None`: stop after `min_slots`).
    pub seconds: Option<f64>,
    /// Masked replies each set request must match; `None` keeps the
    /// replies instead.
    pub reference: Option<&'r [String]>,
    /// First sequence number for span request ids.
    pub seq_base: u64,
}

/// Whether `reply` is a success that echoes `id`.
fn ok_for(reply: &str, id: &str) -> bool {
    reply.starts_with(&format!(r#"{{"ok":true,"op":"schedule","id":"{id}""#))
}

/// Runs one closed loop with `run.conns` connections.
pub fn closed_loop(stream: &Stream, run: &Run, send: &Send) -> io::Result<Outcome> {
    let cursor = AtomicUsize::new(run.first_slot);
    let started = Instant::now();
    let per_conn: Vec<io::Result<Outcome>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..run.conns)
            .map(|_| {
                s.spawn(|| -> io::Result<Outcome> {
                    let mut out = Outcome::default();
                    let mut client = Client::connect(run.addr)?;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let past_time = run
                            .seconds
                            .is_none_or(|limit| started.elapsed().as_secs_f64() >= limit);
                        if i >= run.min_slots && past_time {
                            break;
                        }
                        let Some(slot) = stream.slot(i) else { break };
                        let req = stream.request(slot);
                        out.attempted += 1;
                        let seq = run.seq_base + i as u64;
                        let (reply, rt) = match send(&mut client, &req, seq, &mut out.spans) {
                            Ok(r) => r,
                            Err(e) => {
                                out.failed += 1;
                                out.mismatches.push(format!("{}: transport: {e}", req.id));
                                client = Client::connect(run.addr)?;
                                continue;
                            }
                        };
                        let miss = reply.contains(r#""store":"miss""#);
                        if !check(&req, slot, &reply, run.reference, &mut out) {
                            out.failed += 1;
                        }
                        let keep = match slot {
                            Slot::Set(_) => run.reference.is_none(),
                            Slot::Fresh(_) => true,
                        };
                        if keep {
                            out.kept.push((slot, reply));
                        }
                        out.samples.push(Sample {
                            slot,
                            ms: rt.as_secs_f64() * 1e3,
                            done: started.elapsed().as_secs_f64(),
                            miss,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = Outcome {
        wall_s: started.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    for out in per_conn {
        let out = out?;
        total.samples.extend(out.samples);
        total.spans.extend(out.spans);
        total.attempted += out.attempted;
        total.failed += out.failed;
        total.kept.extend(out.kept);
        total.mismatches.extend(out.mismatches);
    }
    total.samples.sort_by(|a, b| a.done.total_cmp(&b.done));
    Ok(total)
}

/// The output checks every reply passes: `ok`, echoes its id, and — for
/// a set request with a reference — matches the reference byte for byte
/// once store provenance is masked.
fn check(
    req: &Req,
    slot: Slot,
    reply: &str,
    reference: Option<&[String]>,
    out: &mut Outcome,
) -> bool {
    if !ok_for(reply, &req.id) {
        out.mismatches
            .push(format!("{}: not ok: {}", req.id, truncate(reply)));
        return false;
    }
    if let (Slot::Set(i), Some(reference)) = (slot, reference) {
        if mask_provenance(reply) != reference[i] {
            out.mismatches.push(format!(
                "{}: differs from its cold reply: {}",
                req.id,
                truncate(reply)
            ));
            return false;
        }
    }
    true
}

/// The first 200 characters of `s`, for error messages.
fn truncate(s: &str) -> &str {
    s.char_indices().nth(200).map_or(s, |(i, _)| &s[..i])
}

/// Masked replies of a complete pass over the set, in set order.
pub fn reference_of(set_len: usize, kept: &[(Slot, String)]) -> Option<Vec<String>> {
    let mut refs = vec![String::new(); set_len];
    for (slot, reply) in kept {
        if let Slot::Set(i) = slot {
            refs[*i] = mask_provenance(reply);
        }
    }
    refs.iter().all(|r| !r.is_empty()).then_some(refs)
}
