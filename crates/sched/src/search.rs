//! The Algorithm-1 search driver: exhaustive search over tilings and
//! dataflows.

use crate::bound::{lower_bound_resident, Cutoff, Incumbent};
use crate::combo::ComboOptions;
use crate::error::SchedError;
use crate::metric::Metric;
use crate::ooo::{EvalMode, OooScheduler};
use crate::priority::PriorityPolicy;
use crate::static_sched::StaticScheduler;
use crate::stats::SearchStats;
use crate::verify::{verify_schedule_program, VerifyError};
use crate::wire::canonical_key_bytes;
use flexer_arch::{ArchConfig, SystolicModel};
use flexer_model::ConvLayer;
use flexer_sim::Schedule;
use flexer_spm::{FirstFitSpill, FlexerSpill, SmallestFirstSpill, SpillPolicy};
use flexer_tiling::{enumerate_tilings, Dataflow, Dfg, Residency, TilingFactors, TilingOptions};
use flexer_trace::{ClockMode, Lane, Trace, TraceConfig, TraceDetail, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Which spill-victim policy the scheduler uses (Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpillPolicyChoice {
    /// The paper's Algorithm 2 (default).
    #[default]
    Flexer,
    /// Table 2 MemPolicy1: first fit.
    FirstFit,
    /// Table 2 MemPolicy2: smallest blocks first.
    SmallestFirst,
}

impl SpillPolicyChoice {
    /// The policy instance.
    #[must_use]
    pub fn policy(self) -> &'static dyn SpillPolicy {
        match self {
            SpillPolicyChoice::Flexer => &FlexerSpill,
            SpillPolicyChoice::FirstFit => &FirstFitSpill,
            SpillPolicyChoice::SmallestFirst => &SmallestFirstSpill,
        }
    }
}

/// How a traced [`Search`] records its run: timestamp source and
/// instrumentation depth. Recording itself is switched on by setting
/// [`Search::trace`]; untraced searches never record. Tracing never
/// changes a winner, so it is no part of a result's cache key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceOptions {
    /// Timestamp source. The default logical clock makes traces
    /// byte-stable across runs; [`ClockMode::Wall`] records real
    /// profiles at the price of run-to-run stability.
    pub clock: ClockMode,
    /// Instrumentation depth, from search-level spans only up to
    /// per-step memory events.
    pub detail: TraceDetail,
}

impl TraceOptions {
    /// The tracer these options describe.
    #[must_use]
    pub fn tracer(&self) -> Tracer {
        Tracer::new(TraceConfig {
            clock: self.clock,
            detail: self.detail,
        })
    }
}

/// How a layer search terminated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchOutcome {
    /// Every candidate was resolved: the result is the proven optimum
    /// under the search metric.
    Exact,
    /// A deadline expired before every candidate was resolved: the
    /// result is the best schedule found so far.
    Anytime {
        /// Proven optimality gap: `score / best-unresolved-lower-bound`
        /// (`1.0` means the partial result is provably optimal anyway;
        /// `+inf` when no bounds were available to prove a gap).
        gap: f64,
    },
}

impl SearchOutcome {
    /// Whether this outcome proves the result optimal *and* the search
    /// exhaustive — the only results a result cache or the persistent
    /// store are allowed to keep.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, SearchOutcome::Exact)
    }
}

/// Every knob of the Algorithm-1 search.
///
/// # Examples
///
/// ```
/// use flexer_sched::{Metric, SearchOptions};
///
/// let opts = SearchOptions {
///     metric: Metric::Transfer,
///     ..SearchOptions::quick()
/// };
/// assert_eq!(opts.metric, Metric::Transfer);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchOptions {
    /// Tiling enumeration limits.
    pub tiling: TilingOptions,
    /// Dataflows (loop orders) explored; defaults to all six.
    pub dataflows: Vec<Dataflow>,
    /// The schedule-ranking metric (Algorithm 1 line 5).
    pub metric: Metric,
    /// Operation-set priority policy (§4.3 / Table 2).
    pub priority: PriorityPolicy,
    /// Spill-victim policy (§4.1 / Table 2).
    pub spill: SpillPolicyChoice,
    /// Combination-generation budgets (§4.2).
    pub combo: ComboOptions,
    /// How candidate sets are trial-planned against SPM state:
    /// transactionally on the live memory (default) or on a clone per
    /// candidate (the pre-optimization baseline, kept for benchmarks).
    /// Both produce byte-identical schedules.
    pub eval_mode: EvalMode,
    /// Worker threads for the parallel search the paper suggests (§3);
    /// `0` uses the available parallelism, `1` is serial. The unit of
    /// work is one `(layer, tiling, dataflow)` triple, so multi-layer
    /// searches do not serialize on layer boundaries.
    pub threads: usize,
    /// Whether to keep the `(latency, transfer)` point of every
    /// explored `(tiling, dataflow)` pair — the Figure-1 scatter data.
    pub collect_points: bool,
    /// Differentially verify every winning schedule: re-run its
    /// scheduler, lower the run to a command [`crate::Program`],
    /// execute it on the `flexer-sim` SPM abstract machine, and
    /// cross-check traffic, load counts, core placement and
    /// compaction against the analytical schedule
    /// ([`crate::verify_schedule_program`]). A failure surfaces as
    /// [`SchedError::IllegalSchedule`] instead of a silently wrong
    /// result. Off by default (one extra scheduler run per layer).
    /// Excluded from the cache key ([`crate::wire::canonical_key_bytes`])
    /// — cached winners are re-verified when served.
    #[serde(default)]
    pub validate: bool,
    /// Branch-and-bound pruning (on by default): skip candidates whose
    /// admissible lower bound is strictly worse than the layer's best
    /// score so far, and abort scheduler runs whose running score
    /// strictly exceeds it. *Exact*: strict comparisons preserve the
    /// exhaustive search's first-in-work-order tie-break, so winning
    /// schedules are byte-identical (see DESIGN.md §10).
    /// Force-disabled when [`SearchOptions::collect_points`] is set
    /// (point collection needs every candidate) or the metric is not
    /// monotone in (latency, transfer). Excluded from the cache key
    /// ([`crate::wire::canonical_key_bytes`]) — the winner does not
    /// depend on it.
    #[serde(default)]
    pub prune: bool,
    /// Cross-layer SPM residency of this layer's tensors, assigned by
    /// the network-level planner (`flexer-core`). A resident input is
    /// gathered from the producer's reserved SPM region instead of
    /// loaded from DRAM; a resident output is scattered into its own
    /// reserved region instead of stored. Resident transfers occupy
    /// the DMA engine for the same span but move zero DRAM bytes, so
    /// they change the transfer side of every score, bound and
    /// estimate — *included* in the cache key and the store
    /// fingerprint. Off (all-DRAM) by default.
    #[serde(default)]
    pub residency: Residency,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            tiling: TilingOptions::default(),
            dataflows: Dataflow::all().to_vec(),
            metric: Metric::default(),
            priority: PriorityPolicy::default(),
            spill: SpillPolicyChoice::default(),
            combo: ComboOptions::default(),
            eval_mode: EvalMode::default(),
            threads: 0,
            collect_points: false,
            validate: false,
            prune: true,
            residency: Residency::default(),
        }
    }
}

impl SearchOptions {
    /// A reduced-budget configuration for tests and quick experiment
    /// runs: fewer tilings, smaller DFGs, tighter combination budgets.
    /// The search structure is unchanged, only its breadth.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            tiling: TilingOptions {
                max_ops: 256,
                max_tilings: 10,
                ..TilingOptions::default()
            },
            combo: ComboOptions {
                width_cap: 10,
                max_combos: 512,
                max_sets: 24,
                prune: true,
            },
            ..Self::default()
        }
    }
}

/// The `(latency, transfer)` outcome of one `(tiling, dataflow)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulePoint {
    /// The tiling factors.
    pub factors: TilingFactors,
    /// The dataflow (loop order).
    pub dataflow: Dataflow,
    /// Schedule latency in cycles.
    pub latency: u64,
    /// Transferred bytes.
    pub transfer_bytes: u64,
    /// The metric score (lower is better).
    pub score: f64,
}

/// The result of one layer search.
#[derive(Debug, Clone)]
pub struct LayerSearchResult {
    /// The layer searched.
    pub layer: String,
    /// The winning schedule.
    pub schedule: Schedule,
    /// Its tiling factors.
    pub factors: TilingFactors,
    /// Its dataflow.
    pub dataflow: Dataflow,
    /// Its metric score.
    pub score: f64,
    /// `(tiling, dataflow)` pairs the search resolved: scheduled to
    /// completion, bound-pruned, or early-exited (1 on an in-batch
    /// duplicate's replay).
    pub evaluated: usize,
    /// All explored points when
    /// [`SearchOptions::collect_points`] was set.
    pub points: Vec<SchedulePoint>,
    /// Search-effort counters summed over every evaluated pair
    /// (zeroed for the static scheduler, which has no set search).
    pub stats: SearchStats,
    /// Whether the search was exhaustive ([`SearchOutcome::Exact`]) or
    /// cut short by a deadline with a proven optimality gap
    /// ([`SearchOutcome::Anytime`]).
    pub outcome: SearchOutcome,
}

impl LayerSearchResult {
    /// Whether this result is the proven optimum of an exhaustive
    /// search.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.outcome.is_exact()
    }

    /// The anytime optimality gap, or `None` for an exact result.
    #[must_use]
    pub fn gap(&self) -> Option<f64> {
        match self.outcome {
            SearchOutcome::Exact => None,
            SearchOutcome::Anytime { gap } => Some(gap),
        }
    }
}

/// Which scheduler a search (or a persisted result) ran: the paper's
/// out-of-order scheduler or the static loop-order baseline. Part of
/// the cache key and of the `flexer-store` fingerprint — the two
/// schedulers' winners must never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Flexer's out-of-order scheduler (Algorithm 1 `GetSchedule`).
    Ooo,
    /// The in-order loop-order baseline (§5).
    Static,
}

/// How one layer of a batch search is resolved.
enum Role {
    /// Searched exhaustively; owns work items `span.0..span.1` of the
    /// global queue.
    Leader { span: (usize, usize) },
    /// Same cache key as an earlier layer of this batch: replays the
    /// leader's winner with a single scheduler run.
    Duplicate { leader: usize },
}

/// How one `(layer, tiling, dataflow)` work item was resolved.
enum RunOutcome {
    /// Scheduled to completion (boxed: the other arms are small and
    /// pruned searches produce many of them).
    Done(Box<(Schedule, SearchStats)>),
    /// Skipped outright: its admissible lower bound was strictly worse
    /// than the layer's incumbent.
    Bounded,
    /// The scheduler aborted mid-run when the running score strictly
    /// exceeded the incumbent.
    EarlyExit,
    /// Left unresolved: the search deadline expired before this item's
    /// turn (the first item of each layer always runs, so an anytime
    /// search still produces a schedule).
    DeadlineCut,
    /// A real scheduling failure.
    Failed(SchedError),
}

/// Builds the DFG of one `(tiling, dataflow)` pair and runs the chosen
/// scheduler over it. A `cutoff` arms the out-of-order scheduler's
/// branch-and-bound early exit (the static scheduler has no incremental
/// cost to watch, so it ignores it).
#[allow(clippy::too_many_arguments)]
fn run_one(
    kind: SchedulerKind,
    layer: &ConvLayer,
    arch: &ArchConfig,
    model: &SystolicModel,
    (factors, dataflow): (TilingFactors, Dataflow),
    opts: &SearchOptions,
    cutoff: Option<Cutoff<'_>>,
    lane: &mut Lane,
) -> Result<(Schedule, SearchStats), SchedError> {
    let dfg = Dfg::build_resident(layer, factors, dataflow, model, arch, opts.residency)?;
    match kind {
        SchedulerKind::Ooo => {
            let mut sched = OooScheduler::new(&dfg, arch, model)
                .with_spill(opts.spill.policy())
                .with_priority(opts.priority)
                .with_combo(opts.combo)
                .with_eval_mode(opts.eval_mode);
            if let Some(cutoff) = cutoff {
                sched = sched.with_cutoff(cutoff);
            }
            sched
                .schedule_traced(lane)
                .map(|(schedule, _, stats)| (schedule, stats))
        }
        SchedulerKind::Static => StaticScheduler::new(&dfg, arch, model)
            .schedule()
            .map(|schedule| (schedule, SearchStats::default())),
    }
}

/// Differentially verifies a resolved winner: re-runs its scheduler
/// with program lowering, confirms the replay reproduces the winning
/// schedule, and runs the full verification chain
/// ([`verify_schedule_program`]) over the pair.
fn verify_winner(
    kind: SchedulerKind,
    layer: &ConvLayer,
    arch: &ArchConfig,
    model: &SystolicModel,
    opts: &SearchOptions,
    result: &mut LayerSearchResult,
) -> Result<(), SchedError> {
    let start = Instant::now();
    let dfg = Dfg::build_resident(
        layer,
        result.factors,
        result.dataflow,
        model,
        arch,
        opts.residency,
    )?;
    let (schedule, program) = match kind {
        SchedulerKind::Ooo => OooScheduler::new(&dfg, arch, model)
            .with_spill(opts.spill.policy())
            .with_priority(opts.priority)
            .with_combo(opts.combo)
            .with_eval_mode(opts.eval_mode)
            .schedule_with_program()?,
        SchedulerKind::Static => StaticScheduler::new(&dfg, arch, model).schedule_with_program()?,
    };
    if schedule != result.schedule {
        return Err(SchedError::IllegalSchedule(VerifyError::ReplayDiverged));
    }
    // Only the out-of-order scheduler's compactions are timed; the
    // static program's repacking moves are an addressing artifact.
    let check_compaction = kind == SchedulerKind::Ooo;
    verify_schedule_program(&dfg, &schedule, &program, check_compaction)?;
    result.stats.schedules_verified += 1;
    result.stats.verify_nanos += start.elapsed().as_nanos() as u64;
    Ok(())
}

/// Differentially verifies an already-resolved [`LayerSearchResult`]
/// — the public face of the search's internal winner verification,
/// for results that did not come out of a live search (e.g. a
/// `flexer-store` warm start): re-runs the result's scheduler with
/// program lowering, confirms the replay reproduces the recorded
/// schedule, and runs the full verification chain over the pair.
/// On success `result.stats.schedules_verified` is incremented.
///
/// # Errors
///
/// [`SchedError::IllegalSchedule`] when the replay diverges from the
/// recorded schedule or the program fails verification; any
/// [`SchedError`] the replayed scheduler itself reports.
pub fn verify_layer_result(
    layer: &ConvLayer,
    arch: &ArchConfig,
    opts: &SearchOptions,
    kind: SchedulerKind,
    result: &mut LayerSearchResult,
) -> Result<(), SchedError> {
    let model = SystolicModel::new(arch);
    verify_winner(kind, layer, arch, &model, opts, result)
}

/// Replays a known `(tiling, dataflow)` winner as a full
/// [`LayerSearchResult`] with `evaluated == 1`.
#[allow(clippy::too_many_arguments)]
fn replay_one(
    kind: SchedulerKind,
    layer: &ConvLayer,
    arch: &ArchConfig,
    model: &SystolicModel,
    factors: TilingFactors,
    dataflow: Dataflow,
    opts: &SearchOptions,
    lane: &mut Lane,
) -> Result<LayerSearchResult, SchedError> {
    let (schedule, stats) = run_one(
        kind,
        layer,
        arch,
        model,
        (factors, dataflow),
        opts,
        None,
        lane,
    )?;
    let score = opts
        .metric
        .score(schedule.latency(), schedule.transfer_bytes());
    Ok(LayerSearchResult {
        layer: layer.name().to_owned(),
        schedule,
        factors,
        dataflow,
        score,
        evaluated: 1,
        points: Vec::new(),
        stats,
        outcome: SearchOutcome::Exact,
    })
}

/// One Algorithm-1 search request: which scheduler runs, on what
/// hardware, under which options, and with which deadline and trace
/// recording. [`Search::run`] is the one search entry point;
/// the static baseline (§5) is the same search with a different
/// [`SchedulerKind`]. [`search_layer`] is shorthand for the plain
/// out-of-order search of one layer.
///
/// # Examples
///
/// ```
/// use flexer_arch::{ArchConfig, ArchPreset};
/// use flexer_model::ConvLayer;
/// use flexer_sched::{SchedulerKind, Search, SearchOptions};
///
/// let arch = ArchConfig::preset(ArchPreset::Arch1);
/// let opts = SearchOptions::quick();
/// let layers = [ConvLayer::new("conv", 32, 14, 14, 32)?];
/// let baseline = Search {
///     kind: SchedulerKind::Static,
///     ..Search::new(&arch, &opts)
/// }
/// .run(&layers)
/// .into_result()?;
/// assert!(baseline[0].schedule.latency() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Search<'a> {
    /// The scheduler every candidate runs.
    pub kind: SchedulerKind,
    /// The target hardware.
    pub arch: &'a ArchConfig,
    /// The search knobs.
    pub opts: &'a SearchOptions,
    /// An *anytime* deadline. Up to it the search is the exact
    /// branch-and-bound search; once it expires, unstarted candidates
    /// are left unresolved and each layer returns the best schedule
    /// found so far with [`SearchOutcome::Anytime`] carrying a proven
    /// optimality gap — `score / min(lower bound of the unresolved
    /// candidates)`. The first candidate of every layer always runs,
    /// even under an already-expired deadline, so every layer gets a
    /// real, verifiable schedule. `None` runs to completion.
    pub deadline: Option<Instant>,
    /// Trace recording; `None` records nothing. With the default
    /// logical clock the trace is byte-identical across runs when
    /// `opts.threads == 1` (any options), or at any thread count with
    /// `opts.prune == false`; under parallel pruning the incumbent
    /// race decides when candidates are cut, which the trace records
    /// faithfully.
    pub trace: Option<TraceOptions>,
}

/// What [`Search::run`] returns.
#[derive(Debug)]
pub struct SearchRun {
    /// One result per layer, index-aligned with the searched layers. A
    /// duplicate of a failed leader surfaces as
    /// [`SchedError::DuplicateOf`] wrapping the leader's error.
    pub results: Vec<Result<LayerSearchResult, SchedError>>,
    /// The recorded trace — empty when the search was untraced, and
    /// present even when layers failed, since failed searches are
    /// exactly when a trace is most useful.
    pub trace: Trace,
}

impl SearchRun {
    /// The results with the first failing layer's error, in layer
    /// order, standing for the whole run.
    ///
    /// # Errors
    ///
    /// The first failing layer's error.
    pub fn into_result(self) -> Result<Vec<LayerSearchResult>, SchedError> {
        self.results.into_iter().collect()
    }
}

impl<'a> Search<'a> {
    /// The plain out-of-order search on `arch` under `opts`: no
    /// deadline, no trace.
    #[must_use]
    pub fn new(arch: &'a ArchConfig, opts: &'a SearchOptions) -> Self {
        Self {
            kind: SchedulerKind::Ooo,
            arch,
            opts,
            deadline: None,
            trace: None,
        }
    }

    /// Searches a batch of layers over one flat work queue of
    /// `(layer, tiling, dataflow)` triples.
    ///
    /// Workers pull triples off a single shared index, so a network
    /// search never serializes on layer boundaries: the last straggler
    /// tiling of layer *i* overlaps with layer *i+1*'s search. Layers
    /// that repeat an earlier in-batch shape replay the winner with one
    /// scheduler run instead of contributing work items. The reduction per layer is
    /// deterministic in work order regardless of thread count, so the
    /// results equal per-layer searches.
    ///
    /// Lane 0 of the trace is the orchestrator: the search root span,
    /// per-leader bound pre-passes, per-layer reduction / replay /
    /// verification spans and the per-layer [`SearchStats`] counters.
    /// Work item *i* of the global queue records into lane `1 + i`, so
    /// span identity is a function of the deterministic work order,
    /// never of thread interleaving.
    #[must_use]
    pub fn run(&self, layers: &[ConvLayer]) -> SearchRun {
        let Search {
            kind,
            arch,
            opts,
            deadline,
            trace,
        } = *self;
        let tracer = trace.map_or_else(Tracer::disabled, |t| t.tracer());
        let model = SystolicModel::new(arch);
        let mut lane0 = tracer.lane(0, "search");
        let root_span = lane0.is_enabled().then(|| {
            let guard = lane0.enter("search");
            lane0.attr(
                "scheduler",
                match kind {
                    SchedulerKind::Ooo => "ooo",
                    SchedulerKind::Static => "static",
                },
            );
            lane0.attr("layers", layers.len());
            guard
        });

        // Classify layers: in-batch duplicates, and leaders that
        // contribute work to the global queue. Point collection forces a
        // full search of every layer.
        let mut seen: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut roles: Vec<Role> = Vec::with_capacity(layers.len());
        let mut work: Vec<(usize, TilingFactors, Dataflow)> = Vec::new();
        for (li, layer) in layers.iter().enumerate() {
            if !opts.collect_points {
                let key = canonical_key_bytes(layer, arch, opts, kind);
                if let Some(&leader) = seen.get(&key) {
                    roles.push(Role::Duplicate { leader });
                    continue;
                }
                seen.insert(key, li);
            }
            let tilings = enumerate_tilings(layer, arch, &opts.tiling);
            let start = work.len();
            work.extend(
                tilings
                    .iter()
                    .flat_map(|&f| opts.dataflows.iter().map(move |&d| (li, f, d))),
            );
            roles.push(Role::Leader {
                span: (start, work.len()),
            });
        }

        // Branch-and-bound pre-pass. Admissible lower bounds are
        // dataflow-independent, so one bound per (layer, tiling) covers the
        // whole consecutive run of its dataflow work items. Each leader's
        // span is then *executed* best-bound-first so strong incumbents
        // form early, while the reduction below still scans the span in
        // original work order — pruning never changes the winner (see
        // DESIGN.md §10).
        // Bounds are computed when pruning wants them *or* a deadline is
        // set (an anytime result needs per-candidate bounds to prove its
        // optimality gap); pruning additionally requires the bounds.
        let bounds_enabled =
            (opts.prune || deadline.is_some()) && !opts.collect_points && opts.metric.is_monotone();
        let prune_enabled = opts.prune && bounds_enabled;
        if root_span.is_some() {
            lane0.attr("prune", prune_enabled);
        }
        let incumbents: Vec<Incumbent> = layers.iter().map(|_| Incumbent::new()).collect();
        let mut bounds: Vec<f64> = Vec::new();
        let mut bound_nanos: Vec<u64> = vec![0; layers.len()];
        let mut exec_order: Vec<usize> = (0..work.len()).collect();
        if bounds_enabled {
            bounds = vec![0.0; work.len()];
            for (li, role) in roles.iter().enumerate() {
                let Role::Leader { span: (start, end) } = *role else {
                    continue;
                };
                let bound_span = lane0.is_enabled().then(|| {
                    let guard = lane0.enter("bound");
                    lane0.attr("layer", layers[li].name());
                    lane0.attr("candidates", end - start);
                    guard
                });
                let bound_start = Instant::now();
                let mut i = start;
                while i < end {
                    let factors = work[i].1;
                    let score =
                        lower_bound_resident(&layers[li], arch, &model, &factors, opts.residency)
                            .score(opts.metric);
                    while i < end && work[i].1 == factors {
                        bounds[i] = score;
                        i += 1;
                    }
                }
                bound_nanos[li] = bound_start.elapsed().as_nanos() as u64;
                exec_order[start..end]
                    .sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));
                if let Some(guard) = bound_span {
                    lane0.exit(guard);
                }
            }
        }

        // Drain the queue, optionally across threads (§3's suggested
        // parallelization). Each worker keeps its results in a private
        // vector — no per-slot lock — and they are scattered back into
        // work order afterwards.
        let threads = match opts.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        }
        .min(work.len())
        .max(1);

        // Deadline bookkeeping. `expired` latches the first observation so
        // later items skip the clock read; `started` guarantees the first
        // item of every layer always runs — an anytime search must produce
        // *a* schedule per layer, however late the deadline already is.
        let expired = AtomicBool::new(false);
        let started: Vec<AtomicBool> = layers.iter().map(|_| AtomicBool::new(false)).collect();

        // Resolves work item `i`: bound-gate, schedule (with the layer's
        // shared incumbent armed as a cutoff), record the incumbent. The
        // item records into its own lane — identity `1 + i` pins the span
        // order to the work queue, not the thread schedule.
        let process = |i: usize| -> (RunOutcome, Lane) {
            let (li, f, d) = work[i];
            let mut lane = if tracer.is_enabled() {
                tracer.lane(
                    1 + u32::try_from(i).expect("work queue fits in u32"),
                    format!("{}/{i}", layers[li].name()),
                )
            } else {
                Lane::off()
            };
            let span = lane.is_enabled().then(|| {
                let guard = lane.enter("candidate");
                lane.attr("layer", layers[li].name());
                lane.attr("tiling", f.to_string());
                lane.attr("dataflow", format!("{d:?}"));
                guard
            });
            let first = !started[li].swap(true, Ordering::Relaxed);
            let cut = !first
                && deadline.is_some_and(|d| {
                    expired.load(Ordering::Relaxed) || {
                        let e = Instant::now() >= d;
                        if e {
                            expired.store(true, Ordering::Relaxed);
                        }
                        e
                    }
                });
            let outcome = if cut {
                if span.is_some() {
                    lane.attr("outcome", "deadline");
                }
                RunOutcome::DeadlineCut
            } else if prune_enabled && bounds[i] > incumbents[li].get() {
                if span.is_some() {
                    lane.attr("outcome", "bounded");
                    lane.attr("bound", bounds[i]);
                }
                RunOutcome::Bounded
            } else {
                let cutoff = (prune_enabled && kind == SchedulerKind::Ooo)
                    .then(|| Cutoff::new(&incumbents[li], opts.metric));
                match run_one(
                    kind,
                    &layers[li],
                    arch,
                    &model,
                    (f, d),
                    opts,
                    cutoff,
                    &mut lane,
                ) {
                    Ok((schedule, stats)) => {
                        let score = opts
                            .metric
                            .score(schedule.latency(), schedule.transfer_bytes());
                        if prune_enabled {
                            incumbents[li].observe(score);
                        }
                        if span.is_some() {
                            lane.attr("outcome", "scheduled");
                            lane.attr("latency", schedule.latency());
                            lane.attr("transfer_bytes", schedule.transfer_bytes());
                            lane.attr("score", score);
                        }
                        RunOutcome::Done(Box::new((schedule, stats)))
                    }
                    Err(SchedError::Pruned) => {
                        if span.is_some() {
                            lane.attr("outcome", "early-exit");
                        }
                        RunOutcome::EarlyExit
                    }
                    Err(e) => {
                        if span.is_some() {
                            lane.attr("outcome", "failed");
                            lane.attr("error", e.to_string());
                        }
                        RunOutcome::Failed(e)
                    }
                }
            };
            if let Some(guard) = span {
                lane.exit(guard);
            }
            (outcome, lane)
        };

        let mut results: Vec<Option<(RunOutcome, Lane)>> = if threads == 1 {
            let mut slots: Vec<Option<(RunOutcome, Lane)>> = work.iter().map(|_| None).collect();
            for &i in &exec_order {
                slots[i] = Some(process(i));
            }
            slots
        } else {
            let next = AtomicUsize::new(0);
            let locals: Vec<Vec<(usize, (RunOutcome, Lane))>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let n = next.fetch_add(1, Ordering::Relaxed);
                                if n >= exec_order.len() {
                                    break;
                                }
                                let i = exec_order[n];
                                local.push((i, process(i)));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("search worker panicked"))
                    .collect()
            });
            let mut slots: Vec<Option<(RunOutcome, Lane)>> = work.iter().map(|_| None).collect();
            for (i, r) in locals.into_iter().flatten() {
                slots[i] = Some(r);
            }
            slots
        };

        // Deterministic per-layer reduction in work order. Leaders always
        // precede their duplicates, so a single in-order pass resolves
        // every role. Candidate lanes drain into the trace here, in work
        // order.
        let mut lanes: Vec<Lane> = Vec::new();
        let mut out: Vec<Result<LayerSearchResult, SchedError>> = Vec::with_capacity(layers.len());
        for (li, role) in roles.iter().enumerate() {
            let layer = &layers[li];
            let layer_span = lane0.is_enabled().then(|| {
                let guard = lane0.enter("layer");
                lane0.attr("name", layer.name());
                lane0.attr(
                    "role",
                    match role {
                        Role::Leader { .. } => "leader",
                        Role::Duplicate { .. } => "duplicate",
                    },
                );
                guard
            });
            let resolved = match *role {
                Role::Duplicate { leader } => match &out[leader] {
                    // The duplicate inherits the leader's outcome: a
                    // deadline-cut leader's winner is not proven optimal
                    // for the duplicate either.
                    Ok(lead) => replay_one(
                        kind,
                        layer,
                        arch,
                        &model,
                        lead.factors,
                        lead.dataflow,
                        opts,
                        &mut lane0,
                    )
                    .map(|mut r| {
                        r.outcome = lead.outcome;
                        r
                    }),
                    // The replayed error names the layer whose search
                    // actually ran (the leader), not this duplicate.
                    Err(e) => Err(SchedError::DuplicateOf {
                        leader: layers[leader].name().to_owned(),
                        error: Box::new(e.clone()),
                    }),
                },
                Role::Leader { span: (start, end) } => {
                    let mut best: Option<(usize, Schedule, f64)> = None;
                    let mut points = Vec::new();
                    let mut first_err: Option<SchedError> = None;
                    let mut evaluated = 0usize;
                    let mut cut = 0u64;
                    let mut cut_min_bound = f64::INFINITY;
                    let mut stats = SearchStats::default();
                    if bounds_enabled {
                        stats.candidates_bounded += (end - start) as u64;
                        stats.bound_nanos += bound_nanos[li];
                    }
                    // Original work order, NOT execution order: a pruned
                    // candidate can never beat (nor tie) the incumbent, so
                    // keeping the first strict minimum over the surviving
                    // candidates reproduces the exhaustive search's
                    // first-in-work-order tie-break exactly.
                    for i in start..end {
                        let (outcome, lane) = results[i].take().expect("every work item processed");
                        lanes.push(lane);
                        match outcome {
                            RunOutcome::Done(done) => {
                                let (schedule, run_stats) = *done;
                                evaluated += 1;
                                stats.merge(&run_stats);
                                let score = opts
                                    .metric
                                    .score(schedule.latency(), schedule.transfer_bytes());
                                if opts.collect_points {
                                    points.push(SchedulePoint {
                                        factors: work[i].1,
                                        dataflow: work[i].2,
                                        latency: schedule.latency(),
                                        transfer_bytes: schedule.transfer_bytes(),
                                        score,
                                    });
                                }
                                if best.as_ref().is_none_or(|(_, _, s)| score < *s) {
                                    best = Some((i, schedule, score));
                                }
                            }
                            RunOutcome::Bounded => {
                                evaluated += 1;
                                stats.candidates_pruned += 1;
                            }
                            RunOutcome::EarlyExit => {
                                evaluated += 1;
                                stats.early_exits += 1;
                            }
                            RunOutcome::DeadlineCut => {
                                cut += 1;
                                if bounds_enabled {
                                    cut_min_bound = cut_min_bound.min(bounds[i]);
                                }
                            }
                            RunOutcome::Failed(e) => first_err = first_err.or(Some(e)),
                        }
                    }
                    match best {
                        Some((i, schedule, score)) => {
                            let outcome = if cut == 0 {
                                SearchOutcome::Exact
                            } else if !bounds_enabled {
                                // Unresolved candidates with no bounds:
                                // nothing provable about the gap.
                                SearchOutcome::Anytime { gap: f64::INFINITY }
                            } else if cut_min_bound >= score {
                                // Every unresolved candidate provably
                                // cannot beat the result — but the
                                // search was still not exhaustive, so
                                // it is not reported as exact.
                                SearchOutcome::Anytime { gap: 1.0 }
                            } else {
                                SearchOutcome::Anytime {
                                    gap: score / cut_min_bound,
                                }
                            };
                            Ok(LayerSearchResult {
                                layer: layer.name().to_owned(),
                                schedule,
                                factors: work[i].1,
                                dataflow: work[i].2,
                                score,
                                evaluated,
                                points,
                                stats,
                                outcome,
                            })
                        }
                        None => Err(first_err.unwrap_or_else(|| SchedError::NoViableTiling {
                            layer: layer.name().to_owned(),
                        })),
                    }
                }
            };
            let resolved = if opts.validate {
                resolved.and_then(|mut r| {
                    let verify_span = lane0.is_enabled().then(|| lane0.enter("verify"));
                    let verified = verify_winner(kind, layer, arch, &model, opts, &mut r);
                    if let Some(guard) = verify_span {
                        lane0.attr("ok", verified.is_ok());
                        lane0.exit(guard);
                    }
                    verified.map(|()| r)
                })
            } else {
                resolved
            };
            if let Some(guard) = layer_span {
                match &resolved {
                    Ok(r) => {
                        lane0.attr("outcome", "ok");
                        lane0.attr("evaluated", r.evaluated);
                        lane0.attr("score", r.score);
                        lane0.attr("latency", r.schedule.latency());
                        lane0.attr("transfer_bytes", r.schedule.transfer_bytes());
                        if let SearchOutcome::Anytime { gap } = r.outcome {
                            lane0.attr("gap", gap);
                        }
                        r.stats.record_counters(&mut lane0);
                    }
                    Err(e) => {
                        lane0.attr("outcome", "failed");
                        lane0.attr("error", e.to_string());
                    }
                }
                lane0.exit(guard);
            }
            out.push(resolved);
        }

        if let Some(guard) = root_span {
            lane0.exit(guard);
        }
        let mut all_lanes = Vec::with_capacity(lanes.len() + 1);
        all_lanes.push(lane0);
        all_lanes.extend(lanes);
        SearchRun {
            results: out,
            trace: Trace::from_lanes(tracer.config(), all_lanes),
        }
    }

    /// [`Search::run`] on one layer: its one result, without the trace.
    ///
    /// # Errors
    ///
    /// As [`search_layer`].
    pub fn run_layer(&self, layer: &ConvLayer) -> Result<LayerSearchResult, SchedError> {
        let mut run = self.run(std::slice::from_ref(layer));
        run.results.pop().expect("one layer in, one result out")
    }
}

/// Finds the best out-of-order schedule of `layer` on `arch` — the
/// paper's Algorithm 1. Shorthand for a one-layer [`Search::new`] run.
///
/// # Errors
///
/// Returns [`SchedError::NoViableTiling`] when no tiling fits the
/// architecture, or the scheduling error of the only viable tilings.
pub fn search_layer(
    layer: &ConvLayer,
    arch: &ArchConfig,
    opts: &SearchOptions,
) -> Result<LayerSearchResult, SchedError> {
    Search::new(arch, opts).run_layer(layer)
}

/// Explores every `(tiling, dataflow)` pair with both schedulers and
/// returns their `(latency, transfer)` scatter — the data behind the
/// paper's Figure 1.
///
/// Returns index-aligned `(ooo_points, static_points)`: entry `i` of
/// both vectors describes the same `(tiling, dataflow)` pair. Pairs
/// where either scheduler failed are omitted from both vectors.
///
/// # Errors
///
/// As [`search_layer`].
pub fn sweep_tilings(
    layer: &ConvLayer,
    arch: &ArchConfig,
    opts: &SearchOptions,
) -> Result<(Vec<SchedulePoint>, Vec<SchedulePoint>), SchedError> {
    let mut opts = opts.clone();
    opts.collect_points = true;
    let ooo = search_layer(layer, arch, &opts)?;
    let st = Search {
        kind: SchedulerKind::Static,
        ..Search::new(arch, &opts)
    }
    .run_layer(layer)?;
    // Inner-join on the (tiling, dataflow) key: either scheduler may
    // have skipped pairs it could not schedule.
    let key = |p: &SchedulePoint| (p.factors, p.dataflow);
    let static_by_key: std::collections::BTreeMap<_, SchedulePoint> =
        st.points.into_iter().map(|p| (key(&p), p)).collect();
    let mut ooo_points = Vec::new();
    let mut static_points = Vec::new();
    for p in ooo.points {
        if let Some(s) = static_by_key.get(&key(&p)) {
            ooo_points.push(p);
            static_points.push(*s);
        }
    }
    Ok((ooo_points, static_points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_arch::ArchPreset;

    fn layer() -> ConvLayer {
        ConvLayer::new("t", 32, 14, 14, 32).unwrap()
    }

    fn arch() -> ArchConfig {
        ArchConfig::preset(ArchPreset::Arch1)
    }

    #[test]
    fn ooo_search_returns_best_of_points() {
        let mut opts = SearchOptions::quick();
        opts.collect_points = true;
        opts.threads = 1;
        let r = search_layer(&layer(), &arch(), &opts).unwrap();
        assert!(!r.points.is_empty());
        assert_eq!(r.evaluated, r.points.len());
        let min = r
            .points
            .iter()
            .map(|p| p.score)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(r.score, min);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let mut serial_opts = SearchOptions::quick();
        serial_opts.threads = 1;
        let mut par_opts = SearchOptions::quick();
        par_opts.threads = 4;
        let a = search_layer(&layer(), &arch(), &serial_opts).unwrap();
        let b = search_layer(&layer(), &arch(), &par_opts).unwrap();
        assert_eq!(a.factors, b.factors);
        assert_eq!(a.dataflow, b.dataflow);
        assert_eq!(a.score, b.score);
        assert_eq!(a.schedule.latency(), b.schedule.latency());
    }

    #[test]
    fn network_search_matches_per_layer_searches() {
        // One queue over all layers must produce exactly what
        // independent per-layer searches produce, at any thread count.
        let layers = [
            layer(),
            ConvLayer::new("u", 16, 28, 28, 32).unwrap(),
            layer().with_name("t-again"),
        ];
        for threads in [1, 4] {
            let mut opts = SearchOptions::quick();
            opts.threads = threads;
            let batch = Search::new(&arch(), &opts)
                .run(&layers)
                .into_result()
                .unwrap();
            assert_eq!(batch.len(), layers.len());
            for (l, b) in layers.iter().zip(&batch) {
                let solo = search_layer(l, &arch(), &opts).unwrap();
                assert_eq!(b.layer, l.name());
                assert_eq!(b.factors, solo.factors);
                assert_eq!(b.dataflow, solo.dataflow);
                assert_eq!(b.score, solo.score);
                assert_eq!(b.schedule, solo.schedule);
            }
        }
    }

    #[test]
    fn network_search_replays_repeated_shapes() {
        let layers = [layer(), layer().with_name("twin")];
        let opts = SearchOptions::quick();
        let batch = Search::new(&arch(), &opts)
            .run(&layers)
            .into_result()
            .unwrap();
        assert!(batch[0].evaluated > 1, "leader searches exhaustively");
        assert_eq!(batch[1].evaluated, 1, "duplicate replays the winner");
        assert_eq!(batch[0].schedule, batch[1].schedule);
    }

    #[test]
    fn search_results_carry_stats() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        let r = search_layer(&layer(), &arch(), &opts).unwrap();
        assert!(r.stats.steps > 0);
        assert!(r.stats.sets_evaluated > 0);
        assert!(r.stats.rollback_bytes > 0, "transactional mode is default");
        assert_eq!(r.stats.candidates_bounded as usize, r.evaluated);
        // The static scheduler has no set search, but the
        // branch-and-bound layer still bounds its candidates.
        let s = Search {
            kind: SchedulerKind::Static,
            ..Search::new(&arch(), &opts)
        }
        .run_layer(&layer())
        .unwrap();
        assert_eq!(s.stats.steps, 0);
        assert_eq!(s.stats.sets_evaluated, 0);
        assert!(s.stats.candidates_bounded > 0);
        assert_eq!(s.stats.early_exits, 0, "no cutoff in the static path");
    }

    #[test]
    fn pruned_search_matches_exhaustive() {
        for threads in [1, 4] {
            let mut pruned = SearchOptions::quick();
            pruned.threads = threads;
            assert!(pruned.prune, "pruning is the default");
            let mut exhaustive = pruned.clone();
            exhaustive.prune = false;
            for (l, ar) in [
                (layer(), arch()),
                (
                    ConvLayer::new("v", 64, 28, 28, 48).unwrap(),
                    ArchConfig::preset(ArchPreset::Arch5),
                ),
            ] {
                let p = search_layer(&l, &ar, &pruned).unwrap();
                let e = search_layer(&l, &ar, &exhaustive).unwrap();
                assert_eq!(p.factors, e.factors);
                assert_eq!(p.dataflow, e.dataflow);
                assert_eq!(p.score, e.score);
                assert_eq!(p.schedule, e.schedule);
                assert!(p.stats.candidates_bounded > 0);
                assert_eq!(e.stats.candidates_bounded, 0);
                let ps = Search {
                    kind: SchedulerKind::Static,
                    ..Search::new(&ar, &pruned)
                }
                .run_layer(&l)
                .unwrap();
                let es = Search {
                    kind: SchedulerKind::Static,
                    ..Search::new(&ar, &exhaustive)
                }
                .run_layer(&l)
                .unwrap();
                assert_eq!(ps.factors, es.factors);
                assert_eq!(ps.score, es.score);
                assert_eq!(ps.schedule, es.schedule);
            }
        }
    }

    #[test]
    fn serial_pruned_search_actually_prunes() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        let r = search_layer(&layer(), &arch(), &opts).unwrap();
        assert!(
            r.stats.candidates_pruned + r.stats.early_exits > 0,
            "quick search of a 32-channel layer should cut something: {:?}",
            r.stats
        );
        assert!(r.stats.bound_nanos > 0);
    }

    #[test]
    fn non_monotone_metric_disables_pruning() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        opts.metric = Metric::TransferWeighted { weight: -1.0 };
        let r = search_layer(&layer(), &arch(), &opts).unwrap();
        assert_eq!(r.stats.candidates_bounded, 0);
        assert_eq!(r.stats.candidates_pruned, 0);
        assert_eq!(r.stats.early_exits, 0);
    }

    #[test]
    fn static_search_works() {
        let opts = SearchOptions::quick();
        let r = Search {
            kind: SchedulerKind::Static,
            ..Search::new(&arch(), &opts)
        }
        .run_layer(&layer())
        .unwrap();
        assert!(r.schedule.latency() > 0);
        assert!(r.schedule.transfer_bytes() > 0);
    }

    #[test]
    fn sweep_produces_both_scatters() {
        let opts = SearchOptions::quick();
        let (ooo, st) = sweep_tilings(&layer(), &arch(), &opts).unwrap();
        assert!(!ooo.is_empty());
        assert_eq!(ooo.len(), st.len());
    }

    #[test]
    fn restricted_dataflows_are_honoured() {
        let mut opts = SearchOptions::quick();
        opts.dataflows = vec![Dataflow::Ksc];
        opts.collect_points = true;
        let r = Search {
            kind: SchedulerKind::Static,
            ..Search::new(&arch(), &opts)
        }
        .run_layer(&layer())
        .unwrap();
        assert!(r.points.iter().all(|p| p.dataflow == Dataflow::Ksc));
        assert_eq!(r.dataflow, Dataflow::Ksc);
    }

    #[test]
    fn spill_policy_choices_resolve() {
        assert_eq!(SpillPolicyChoice::Flexer.policy().name(), "flexer");
        assert_eq!(SpillPolicyChoice::FirstFit.policy().name(), "first-fit");
        assert_eq!(
            SpillPolicyChoice::SmallestFirst.policy().name(),
            "small-first"
        );
        assert_eq!(SpillPolicyChoice::default(), SpillPolicyChoice::Flexer);
    }

    #[test]
    fn validated_searches_verify_every_winner() {
        let mut opts = SearchOptions::quick();
        opts.validate = true;
        opts.threads = 1;
        let r = search_layer(&layer(), &arch(), &opts).unwrap();
        assert_eq!(r.stats.schedules_verified, 1);
        assert!(r.stats.verify_nanos > 0);
        let s = Search {
            kind: SchedulerKind::Static,
            ..Search::new(&arch(), &opts)
        }
        .run_layer(&layer())
        .unwrap();
        assert_eq!(s.stats.schedules_verified, 1);
    }

    /// Number of `Enter` events named `name` across all lanes.
    fn count_spans(trace: &Trace, name: &str) -> usize {
        trace
            .lanes()
            .iter()
            .flat_map(|l| &l.events)
            .filter(|e| matches!(e.kind, flexer_trace::EventKind::Enter { name: n } if n == name))
            .count()
    }

    #[test]
    fn traced_search_records_a_well_formed_trace() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        let SearchRun { results, trace } = Search {
            trace: Some(TraceOptions::default()),
            ..Search::new(&arch(), &opts)
        }
        .run(&[layer()]);
        let r = results[0].as_ref().unwrap();
        trace.check().unwrap();
        assert_eq!(count_spans(&trace, "search"), 1);
        assert_eq!(count_spans(&trace, "layer"), 1);
        assert_eq!(
            count_spans(&trace, "candidate"),
            r.evaluated,
            "one candidate span per evaluated (tiling, dataflow) pair"
        );
        assert!(count_spans(&trace, "bound") > 0, "pruning is the default");
        let summary = trace.summary();
        assert!(summary.counters > 0, "layer stats become counters");
    }

    #[test]
    fn traced_serial_search_is_deterministic() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        let ar = arch();
        let traced = Search {
            trace: Some(TraceOptions::default()),
            ..Search::new(&ar, &opts)
        };
        let a = traced.run(&[layer()]).trace;
        let b = traced.run(&[layer()]).trace;
        assert_eq!(
            flexer_trace::text::render_tree(&a),
            flexer_trace::text::render_tree(&b)
        );
        assert_eq!(
            flexer_trace::chrome::to_chrome_json(&a),
            flexer_trace::chrome::to_chrome_json(&b)
        );
    }

    #[test]
    fn traced_search_returns_trace_on_failure() {
        let huge = flexer_model::ConvLayerBuilder::new("huge", 4096, 1024, 1024, 4096)
            .build()
            .unwrap();
        let mut opts = SearchOptions::quick();
        opts.tiling.max_ops = 32;
        let SearchRun { results, trace } = Search {
            trace: Some(TraceOptions::default()),
            ..Search::new(&arch(), &opts)
        }
        .run(&[huge]);
        assert!(results[0].is_err());
        trace.check().unwrap();
        assert!(!trace.is_empty(), "failures still produce a trace");
        let tree = flexer_trace::text::render_tree(&trace);
        assert!(tree.contains("outcome=failed"), "{tree}");
    }

    #[test]
    fn untraced_searches_share_the_traced_code_path() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        let plain = search_layer(&layer(), &arch(), &opts).unwrap();
        let run = Search {
            trace: Some(TraceOptions {
                detail: TraceDetail::Memory,
                ..TraceOptions::default()
            }),
            ..Search::new(&arch(), &opts)
        }
        .run(&[layer()]);
        let (traced, trace) = (run.results[0].as_ref().unwrap(), run.trace);
        assert_eq!(
            plain.schedule, traced.schedule,
            "tracing never changes winners"
        );
        assert_eq!(plain.score, traced.score);
        assert!(
            count_spans(&trace, "step") > 0,
            "Memory detail includes steps"
        );
        assert!(count_spans(&trace, "commit") > 0);
    }

    #[test]
    fn layerwise_search_keeps_per_layer_errors() {
        let good = layer();
        let bad = flexer_model::ConvLayerBuilder::new("huge", 4096, 1024, 1024, 4096)
            .build()
            .unwrap();
        let mut opts = SearchOptions::quick();
        opts.tiling.max_ops = 32;
        let results = Search::new(&arch(), &opts).run(&[good, bad]).results;
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1].as_ref().unwrap_err(),
            SchedError::NoViableTiling { .. }
        ));
    }

    #[test]
    fn expired_deadline_returns_an_anytime_result() {
        for threads in [1, 4] {
            let mut opts = SearchOptions::quick();
            opts.threads = threads;
            let r = Search {
                deadline: Some(Instant::now()),
                ..Search::new(&arch(), &opts)
            }
            .run_layer(&layer())
            .unwrap();
            assert!(!r.is_exact(), "an expired deadline cannot be exhaustive");
            let gap = r.gap().unwrap();
            assert!(gap >= 1.0, "gap is a ratio over a lower bound: {gap}");
            assert!(gap.is_finite(), "bounds were available to prove a gap");
            assert!(r.schedule.latency() > 0);
            // The partial winner is still a real, verifiable schedule.
            let mut r = r;
            verify_layer_result(&layer(), &arch(), &opts, SchedulerKind::Ooo, &mut r).unwrap();
        }
    }

    #[test]
    fn expired_deadline_still_schedules_every_layer() {
        let layers = [layer(), ConvLayer::new("u", 16, 28, 28, 32).unwrap()];
        let opts = SearchOptions::quick();
        let batch = Search {
            deadline: Some(Instant::now()),
            ..Search::new(&arch(), &opts)
        }
        .run(&layers)
        .into_result()
        .unwrap();
        assert_eq!(batch.len(), layers.len());
        for r in &batch {
            assert!(r.schedule.latency() > 0);
        }
    }

    #[test]
    fn generous_deadline_stays_exact() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let r = Search {
            deadline: Some(far),
            ..Search::new(&arch(), &opts)
        }
        .run_layer(&layer())
        .unwrap();
        let plain = search_layer(&layer(), &arch(), &opts).unwrap();
        assert!(r.is_exact());
        assert_eq!(r.gap(), None);
        assert_eq!(r.schedule, plain.schedule);
        assert_eq!(r.score, plain.score);
    }

    #[test]
    fn static_expired_deadline_returns_an_anytime_result() {
        for threads in [1, 4] {
            let mut opts = SearchOptions::quick();
            opts.threads = threads;
            let r = Search {
                kind: SchedulerKind::Static,
                deadline: Some(Instant::now()),
                ..Search::new(&arch(), &opts)
            }
            .run_layer(&layer())
            .unwrap();
            assert!(!r.is_exact(), "an expired deadline cannot be exhaustive");
            let gap = r.gap().unwrap();
            assert!(gap >= 1.0, "gap is a ratio over a lower bound: {gap}");
            assert!(gap.is_finite(), "bounds were available to prove a gap");
            assert!(r.schedule.latency() > 0);
            // The partial winner is still a real, verifiable schedule.
            let mut r = r;
            verify_layer_result(&layer(), &arch(), &opts, SchedulerKind::Static, &mut r).unwrap();
        }
    }

    #[test]
    fn static_generous_deadline_stays_exact() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let r = Search {
            kind: SchedulerKind::Static,
            deadline: Some(far),
            ..Search::new(&arch(), &opts)
        }
        .run_layer(&layer())
        .unwrap();
        let plain = Search {
            kind: SchedulerKind::Static,
            ..Search::new(&arch(), &opts)
        }
        .run_layer(&layer())
        .unwrap();
        assert!(r.is_exact());
        assert_eq!(r.gap(), None);
        assert_eq!(r.schedule, plain.schedule);
        assert_eq!(r.score, plain.score);
    }

    #[test]
    fn static_expired_deadline_still_schedules_every_layer() {
        let layers = [layer(), ConvLayer::new("u", 16, 28, 28, 32).unwrap()];
        let opts = SearchOptions::quick();
        let batch = Search {
            kind: SchedulerKind::Static,
            deadline: Some(Instant::now()),
            ..Search::new(&arch(), &opts)
        }
        .run(&layers)
        .into_result()
        .unwrap();
        assert_eq!(batch.len(), layers.len());
        for r in &batch {
            assert!(r.schedule.latency() > 0);
            assert!(!r.is_exact());
        }
    }

    #[test]
    fn resident_search_validates_and_cuts_dram_traffic() {
        use flexer_sim::TrafficClass;
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        opts.validate = true;
        let plain = search_layer(&layer(), &arch(), &opts).unwrap();
        opts.residency = Residency {
            input_resident: true,
            output_resident: true,
        };
        let resident = search_layer(&layer(), &arch(), &opts).unwrap();
        // Resident classes never touch DRAM; their bytes live in the
        // resident counters instead.
        let traffic = resident.schedule.traffic();
        assert_eq!(traffic.class_bytes(TrafficClass::Input), 0);
        assert_eq!(traffic.class_bytes(TrafficClass::Output), 0);
        assert!(resident.schedule.resident_in_bytes() > 0);
        assert!(resident.schedule.resident_out_bytes() > 0);
        assert!(
            resident.schedule.transfer_bytes() < plain.schedule.transfer_bytes(),
            "residency must strictly cut DRAM traffic"
        );
    }

    #[test]
    fn resident_static_search_validates_and_cuts_dram_traffic() {
        use flexer_sim::TrafficClass;
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        opts.validate = true;
        let plain = Search {
            kind: SchedulerKind::Static,
            ..Search::new(&arch(), &opts)
        }
        .run_layer(&layer())
        .unwrap();
        opts.residency = Residency {
            input_resident: true,
            output_resident: true,
        };
        let resident = Search {
            kind: SchedulerKind::Static,
            ..Search::new(&arch(), &opts)
        }
        .run_layer(&layer())
        .unwrap();
        let traffic = resident.schedule.traffic();
        assert_eq!(traffic.class_bytes(TrafficClass::Input), 0);
        assert_eq!(traffic.class_bytes(TrafficClass::Output), 0);
        assert!(
            resident.schedule.transfer_bytes() < plain.schedule.transfer_bytes(),
            "residency must strictly cut DRAM traffic"
        );
    }

    #[test]
    fn impossible_layer_reports_no_viable_tiling() {
        // A single 1x1 output with enormous channel depth: every tiling
        // of the channel dims still needs the full-width weight tile
        // rows; choose dims the enumerator cannot fit into 256 KiB.
        let huge = flexer_model::ConvLayerBuilder::new("huge", 4096, 1024, 1024, 4096)
            .build()
            .unwrap();
        let mut opts = SearchOptions::quick();
        opts.tiling.max_ops = 32; // too few ops allowed to shrink tiles enough
        let err = search_layer(&huge, &arch(), &opts).unwrap_err();
        assert!(matches!(err, SchedError::NoViableTiling { .. }), "{err}");
    }
}
