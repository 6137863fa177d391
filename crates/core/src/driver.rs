//! The high-level Flexer driver.

use crate::report::{NetworkComparison, NetworkResult};
use crate::residency::{replay_ledger, EdgeDecision, ResidencyPlan, ResidentNetworkResult};
use crate::tier::ResultTier;
use flexer_arch::{ArchConfig, ArchConfigBuilder};
use flexer_model::{ConvLayer, Network};
use flexer_sched::wire::{decode_layer_result, encode_layer_result};
use flexer_sched::{
    verify_layer_result, LayerSearchResult, SchedError, SchedulerKind, Search, SearchOptions,
    SearchRun, TraceOptions,
};
use flexer_store::{fingerprint, Lookup, ScheduleStore};
use flexer_tiling::Residency;
use flexer_trace::Trace;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The end-to-end schedule generator: Algorithm-1 searches per layer,
/// with a bounded in-process tier of whole winners, so repeated layer
/// shapes (e.g. ResNet-50's bottleneck blocks) search only once, and an
/// optional persistent store behind it, plus the comparison helpers the
/// evaluation section needs. [`Flexer::search`] is its one search entry
/// point.
///
/// # Examples
///
/// ```
/// use flexer::prelude::*;
///
/// let arch = ArchConfig::preset(ArchPreset::Arch1);
/// let driver = Flexer::new(arch).with_options(SearchOptions::quick());
///
/// let layer = ConvLayer::new("c", 32, 14, 14, 32)?;
/// let result = driver.schedule_layer(&layer)?;
/// assert!(result.schedule.latency() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Flexer {
    arch: ArchConfig,
    options: SearchOptions,
    tier: ResultTier,
    store: Option<Arc<ScheduleStore>>,
}

impl Flexer {
    /// Creates a driver for `arch` with default search options.
    #[must_use]
    pub fn new(arch: ArchConfig) -> Self {
        Self {
            arch,
            options: SearchOptions::default(),
            tier: ResultTier::new(),
            store: None,
        }
    }

    /// Replaces the search options. Clears the result tier, since
    /// held winners are option-specific. A configured persistent
    /// store stays attached: its entries are content-addressed by the
    /// options, so entries for the old options simply stop matching.
    #[must_use]
    pub fn with_options(mut self, options: SearchOptions) -> Self {
        self.options = options;
        self.tier = ResultTier::new();
        self
    }

    /// Attaches a persistent [`ScheduleStore`], so layer searches
    /// warm-start across processes: every search first consults the
    /// store by content address, and every freshly searched winner is
    /// persisted. Drivers of one process on one directory should share
    /// one handle, so its LRU recency sees all their traffic.
    ///
    /// A store hit returns the persisted winner byte-for-byte (modulo
    /// the store hit/miss counters in its stats) without re-searching;
    /// under [`SearchOptions::validate`] the hit is still re-verified
    /// against the SPM abstract machine before being trusted. Corrupt
    /// entries are deleted and transparently re-searched. A winner read
    /// back from the store enters the driver's result tier, which
    /// answers later lookups without a file read and reports each one
    /// to the store ([`ScheduleStore::note_memory_hit`]).
    #[must_use]
    pub fn with_store(mut self, store: Arc<ScheduleStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&ScheduleStore> {
        self.store.as_deref()
    }

    /// The target architecture.
    #[must_use]
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The active search options.
    #[must_use]
    pub fn options(&self) -> &SearchOptions {
        &self.options
    }

    /// Number of winners the driver's in-process result tier holds.
    #[must_use]
    pub fn cached_shapes(&self) -> usize {
        self.tier.len()
    }

    /// Searches `layers` with the `kind` scheduler under the driver's
    /// options — the driver's one search entry point. Results are
    /// index-aligned with `layers`.
    ///
    /// The mode decides what the driver's result tier and persistent
    /// store see. The tier holds whole winners, keyed by the store's
    /// fingerprint and bounded in bytes (least recently used out):
    ///
    /// - An exact, untraced run reads the tier, then the store. Hits
    ///   of either skip the search entirely (re-verified first under
    ///   [`SearchOptions::validate`]); misses search. With a store
    ///   attached, a searched winner is persisted and enters the tier
    ///   when it is first read back; without one, it enters the tier
    ///   at once.
    /// - A `deadline` run bypasses both in both directions. Both keep
    ///   only proven optima, and an anytime result depends on
    ///   wall-clock luck, not just the search key. See
    ///   [`Search::deadline`] for the anytime semantics.
    /// - A traced run reads neither, so the trace shows the real
    ///   search of every layer. It writes the tier of a driver without
    ///   a store, and nothing on a store-backed one: there a tier hit
    ///   counts as a store hit, so the tier holds only stored winners.
    /// - A [`SearchOptions::collect_points`] run never touches the
    ///   tier: a point sweep needs every candidate.
    ///
    /// # Examples
    ///
    /// ```
    /// use flexer::prelude::*;
    ///
    /// let arch = ArchConfig::preset(ArchPreset::Arch1);
    /// let mut opts = SearchOptions::quick();
    /// opts.threads = 1; // byte-stable trace
    /// let driver = Flexer::new(arch).with_options(opts);
    ///
    /// let layers = [ConvLayer::new("c", 16, 14, 14, 16)?];
    /// let trace = Some(TraceOptions::default());
    /// let run = driver.search(&layers, SchedulerKind::Static, None, trace);
    /// assert!(run.results[0].is_ok());
    /// assert!(!run.trace.is_empty());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn search(
        &self,
        layers: &[ConvLayer],
        kind: SchedulerKind,
        deadline: Option<Instant>,
        trace: Option<TraceOptions>,
    ) -> SearchRun {
        let request = Search {
            kind,
            deadline,
            trace,
            ..Search::new(&self.arch, &self.options)
        };
        self.search_on(request, layers)
    }

    /// [`Flexer::search`] for an explicit request: the residency
    /// planner searches reduced-SPM variants of [`Flexer::arch`], and
    /// verification forces [`SearchOptions::validate`]. The store
    /// fingerprint, which keys the tier too, covers the architecture
    /// and the options, so sharing the tier and the store stays sound.
    fn search_on(&self, request: Search<'_>, layers: &[ConvLayer]) -> SearchRun {
        if request.deadline.is_some() {
            return request.run(layers);
        }
        let untraced = request.trace.is_none();
        let tiered = !request.opts.collect_points;
        let store = self.store.as_deref().filter(|_| untraced);
        // A store-backed tier holds only winners read back from the
        // store: a tier hit counts as a store hit.
        let admit_searched = tiered && self.store.is_none();
        let mut slots: Vec<Option<Result<LayerSearchResult, SchedError>>> =
            (0..layers.len()).map(|_| None).collect();
        let mut misses = Vec::new();
        for (i, layer) in layers.iter().enumerate() {
            let fp = fingerprint(layer, request.arch, request.opts, request.kind);
            let held = if tiered && untraced {
                self.tier.get(fp)
            } else {
                None
            };
            if let Some(payload) = held {
                let mut hit = decode_layer_result(&payload)
                    .expect("the tier holds only payloads this process encoded");
                if let Some(store) = store {
                    store.note_memory_hit(fp);
                    hit.stats.store_hits = 1;
                }
                slots[i] = Some(Self::serve_hit(&request, layer, hit));
                continue;
            }
            match store.map(|store| store.get(fp)) {
                Some(Lookup::Hit(mut hit)) => {
                    if tiered {
                        self.tier.insert(fp, encode_layer_result(&hit));
                    }
                    hit.stats.store_hits = 1;
                    slots[i] = Some(Self::serve_hit(&request, layer, *hit));
                }
                Some(Lookup::Miss | Lookup::Corrupt(_)) | None => misses.push((i, fp)),
            }
        }
        let mut trace = Trace::empty();
        if !misses.is_empty() {
            let missed: Vec<ConvLayer> = misses.iter().map(|&(i, _)| layers[i].clone()).collect();
            let run = request.run(&missed);
            trace = run.trace;
            for ((i, fp), result) in misses.into_iter().zip(run.results) {
                slots[i] = Some(result.map(|mut result| {
                    // Only exact winners are kept — an anytime result
                    // must never masquerade as the proven optimum on a
                    // later, unhurried run.
                    if let Some(store) = store {
                        result.stats.store_misses = 1;
                        // Persisting is best-effort: a full disk must
                        // not fail the search that just succeeded.
                        if result.is_exact() {
                            let _ = store.put(fp, &result);
                        }
                    } else if admit_searched && result.is_exact() {
                        // The search leaves the store counters zero, so
                        // these are the bytes a store entry would hold.
                        self.tier.insert(fp, encode_layer_result(&result));
                    }
                    result
                }));
            }
        }
        SearchRun {
            results: slots.into_iter().map(|s| s.expect("slot filled")).collect(),
            trace,
        }
    }

    /// A winner served from the tier or the store for `layer`: renamed
    /// (the fingerprint ignores names) and, under
    /// [`SearchOptions::validate`], re-verified before it is trusted.
    fn serve_hit(
        request: &Search<'_>,
        layer: &ConvLayer,
        mut hit: LayerSearchResult,
    ) -> Result<LayerSearchResult, SchedError> {
        hit.layer = layer.name().to_string();
        if request.opts.validate {
            verify_layer_result(layer, request.arch, request.opts, request.kind, &mut hit)?;
        }
        Ok(hit)
    }

    /// Finds the best out-of-order schedule for one layer
    /// (Algorithm 1) — shorthand for a one-layer [`Flexer::search`].
    ///
    /// # Errors
    ///
    /// Returns [`SchedError`] when no tiling of the layer fits the
    /// architecture or scheduling fails.
    pub fn schedule_layer(&self, layer: &ConvLayer) -> Result<LayerSearchResult, SchedError> {
        let mut run = self.search(std::slice::from_ref(layer), SchedulerKind::Ooo, None, None);
        run.results.pop().expect("one layer in, one result out")
    }

    /// Schedules every layer of `network` with the out-of-order
    /// scheduler.
    ///
    /// All layers feed one shared work queue of `(layer, tiling,
    /// dataflow)` triples, so worker threads never serialize on layer
    /// boundaries; repeated layer shapes search once and replay.
    ///
    /// # Errors
    ///
    /// Returns the first per-layer error encountered.
    pub fn schedule_network(&self, network: &Network) -> Result<NetworkResult, SchedError> {
        let run = self.search(network.layers(), SchedulerKind::Ooo, None, None);
        Ok(NetworkResult::new(network.name(), run.into_result()?))
    }

    /// The architecture with `reserved` bytes of SPM set aside for
    /// residency regions, or `None` when too little SPM would remain
    /// for a working set.
    fn reduced_arch(&self, reserved: u64) -> Option<ArchConfig> {
        let spm = self.arch.spm_bytes().checked_sub(reserved)?;
        ArchConfigBuilder::new(self.arch.cores(), spm, self.arch.dma_bytes_per_cycle())
            .pe_array(self.arch.pe_rows(), self.arch.pe_cols())
            .dram_latency(self.arch.dram_latency_cycles())
            .element_size(self.arch.element_size())
            .build()
            .ok()
    }

    /// Searches one layer under explicit residency flags with
    /// `reserved` bytes of SPM carved out for residency regions.
    /// `None` when the reduced architecture is infeasible or no tiling
    /// fits it — the planner treats both as "this edge cannot be made
    /// resident", not as errors.
    fn search_one_resident(
        &self,
        layer: &ConvLayer,
        residency: Residency,
        reserved: u64,
    ) -> Option<LayerSearchResult> {
        let arch = self.reduced_arch(reserved)?;
        let mut options = self.options.clone();
        options.residency = residency;
        let request = Search::new(&arch, &options);
        let mut run = self.search_on(request, std::slice::from_ref(layer));
        run.results.pop().and_then(Result::ok)
    }

    /// Schedules `network` under a network-level inter-layer residency
    /// plan: a pass over the layer chain decides per producer→consumer
    /// edge whether the producer's output tensor stays resident in SPM
    /// (its store becomes an on-chip scatter, the consumer's input
    /// loads become on-chip gathers, and a residency region is reserved
    /// against the SPM budget) or round-trips through DRAM as in
    /// [`Flexer::schedule_network`].
    ///
    /// The plan is greedy left to right with accept/revert: an edge
    /// becomes resident only when re-searching both endpoint layers on
    /// their reduced-SPM architectures *strictly* lowers their combined
    /// DRAM traffic without raising their combined latency. A residency
    /// region is capped at half the SPM; when a layer's incoming and
    /// outgoing regions together exceed that cap, the cheaper-to-reload
    /// (smaller) tensor is spilled back to the DRAM path. With
    /// residency disabled edge-by-edge (no eligible edges, e.g. a
    /// single-layer network), the result is byte-identical to
    /// [`Flexer::schedule_network`].
    ///
    /// The finished plan is replayed against the cross-layer
    /// [`flexer_sim::ResidencyLedger`] — reserve at the producer,
    /// consume at the consumer, budget never exceeded, nothing leaked.
    ///
    /// # Errors
    ///
    /// As [`Flexer::schedule_network`] (the residency-off reference run
    /// must succeed; per-edge residency searches that fail merely
    /// reject their edge).
    ///
    /// # Panics
    ///
    /// Panics if the constructed plan violates the residency ledger —
    /// an internal planner bug, not an input condition: the accept
    /// rules guarantee every region fits and is consumed exactly once.
    pub fn schedule_network_resident(
        &self,
        network: &Network,
    ) -> Result<ResidentNetworkResult, SchedError> {
        let layers = network.layers();
        let n = layers.len();
        let elem = self.arch.element_size();
        let cap = self.arch.spm_bytes() / 2;

        // The all-DRAM reference: what schedule_network returns. Every
        // accepted edge must strictly beat it byte-wise and never lose
        // to it cycle-wise, so the final totals dominate by
        // construction.
        let mut options = self.options.clone();
        options.residency = Residency::default();
        let request = Search::new(&self.arch, &options);
        let baseline = self.search_on(request, layers).into_result()?;

        // Residency planning walks producer -> consumer pairs in index
        // order, which is only meaningful on a chain: in a branching
        // topology adjacent indices need not be connected at all, and a
        // producer's output may have several consumers, so a private
        // SPM hand-off region is unsound. Cleanly decline: baseline
        // results, an all-DRAM plan, zero reservations — byte-identical
        // to [`Flexer::schedule_network`].
        if !network.is_chain() {
            let decline_edges: Vec<EdgeDecision> = network
                .edges()
                .into_iter()
                .map(|e| EdgeDecision {
                    producer: layers[e.from as usize].name().to_string(),
                    consumer: layers[e.to as usize].name().to_string(),
                    bytes: layers[e.from as usize].output_bytes(elem),
                    resident: false,
                    spilled: false,
                })
                .collect();
            let plan = ResidencyPlan::new(decline_edges, vec![Residency::default(); n], 0);
            let ledger_peak = replay_ledger(self.arch.spm_bytes(), &plan.ledger_ops())
                .expect("all-DRAM plan trivially satisfies the ledger");
            debug_assert_eq!(ledger_peak, 0);
            return Ok(ResidentNetworkResult {
                result: NetworkResult::new(network.name(), baseline.clone()),
                baseline: NetworkResult::new(network.name(), baseline),
                plan,
            });
        }

        let mut current = baseline.clone();
        let mut residencies = vec![Residency::default(); n];
        let mut edges: Vec<EdgeDecision> = Vec::new();
        // Bytes reserved at layer i for its incoming / outgoing region.
        let mut in_region = vec![0u64; n];
        let mut out_region = vec![0u64; n];

        for i in 0..n.saturating_sub(1) {
            let (producer, consumer) = (&layers[i], &layers[i + 1]);
            let mut edge = EdgeDecision {
                producer: producer.name().to_string(),
                consumer: consumer.name().to_string(),
                bytes: producer.output_bytes(elem),
                resident: false,
                spilled: false,
            };
            // Eligibility: the tensor must actually chain (the consumer
            // reads exactly what the producer wrote) and its region
            // must leave the layer at least half the SPM to work in.
            if producer.output_shape() != consumer.input_shape()
                || edge.bytes == 0
                || edge.bytes > cap
            {
                edges.push(edge);
                continue;
            }
            // Pressure at the shared layer i: its incoming region and
            // this outgoing region are live at the same time. Spill the
            // cheapest-to-reload (smaller) tensor.
            if in_region[i] > 0 && in_region[i].saturating_add(edge.bytes) > cap {
                if edge.bytes <= in_region[i] {
                    edge.spilled = true;
                    edges.push(edge);
                    continue;
                }
                // The incoming tensor is cheaper to reload: spill it
                // and roll layers i-1 and i back to the DRAM path for
                // that edge before trying this one.
                let prev = edges.last_mut().expect("edge i-1 exists");
                prev.resident = false;
                prev.spilled = true;
                residencies[i - 1].output_resident = false;
                residencies[i].input_resident = false;
                out_region[i - 1] = 0;
                in_region[i] = 0;
                current[i - 1] = if residencies[i - 1].any() {
                    // The winner the earlier accept of edge i-2 found
                    // under exactly these flags: served by the tier or
                    // the store, or re-searched if evicted.
                    self.search_one_resident(&layers[i - 1], residencies[i - 1], in_region[i - 1])
                        .expect("revert re-search reproduces an accepted winner")
                } else {
                    baseline[i - 1].clone()
                };
                current[i] = baseline[i].clone();
            }
            // Tentative accept: re-search both endpoints with the edge
            // resident on their reduced-SPM architectures.
            let p_res = Residency {
                input_resident: residencies[i].input_resident,
                output_resident: true,
            };
            let c_res = Residency {
                input_resident: true,
                output_resident: false,
            };
            let tentative = self
                .search_one_resident(producer, p_res, in_region[i] + edge.bytes)
                .zip(self.search_one_resident(consumer, c_res, edge.bytes));
            if let Some((new_p, new_c)) = tentative {
                let cur_bytes =
                    current[i].schedule.transfer_bytes() + current[i + 1].schedule.transfer_bytes();
                let new_bytes = new_p.schedule.transfer_bytes() + new_c.schedule.transfer_bytes();
                let cur_lat = current[i].schedule.latency() + current[i + 1].schedule.latency();
                let new_lat = new_p.schedule.latency() + new_c.schedule.latency();
                if new_bytes < cur_bytes && new_lat <= cur_lat {
                    edge.resident = true;
                    residencies[i].output_resident = true;
                    residencies[i + 1].input_resident = true;
                    out_region[i] = edge.bytes;
                    in_region[i + 1] = edge.bytes;
                    current[i] = new_p;
                    current[i + 1] = new_c;
                }
            }
            edges.push(edge);
        }

        let peak = (0..n)
            .map(|i| in_region[i] + out_region[i])
            .max()
            .unwrap_or(0);
        let plan = ResidencyPlan::new(edges, residencies, peak);
        let ledger_peak = replay_ledger(self.arch.spm_bytes(), &plan.ledger_ops())
            .expect("residency plan violates the SPM ledger");
        debug_assert_eq!(ledger_peak, plan.peak_reserved());

        Ok(ResidentNetworkResult {
            result: NetworkResult::new(network.name(), current),
            baseline: NetworkResult::new(network.name(), baseline),
            plan,
        })
    }

    /// Schedules a whole network with both schedulers and compares —
    /// the Figure-8 experiment for one (network, architecture) pair.
    ///
    /// # Errors
    ///
    /// As [`Flexer::schedule_network`].
    pub fn compare_network(&self, network: &Network) -> Result<NetworkComparison, SchedError> {
        let flexer = self.schedule_network(network)?;
        let baseline = self.search(network.layers(), SchedulerKind::Static, None, None);
        let baseline = NetworkResult::new(network.name(), baseline.into_result()?);
        Ok(NetworkComparison::new(flexer, baseline))
    }

    /// Schedules `network` with both schedulers under forced
    /// differential verification: every winning schedule is re-run,
    /// lowered to a command program, executed on the `flexer-sim` SPM
    /// abstract machine and cross-checked against its analytical
    /// schedule, regardless of [`SearchOptions::validate`].
    ///
    /// Returns the verified comparison; a scheduler bug surfaces as
    /// [`SchedError::IllegalSchedule`] instead of a wrong number in a
    /// results table.
    ///
    /// # Errors
    ///
    /// As [`Flexer::schedule_network`], plus
    /// [`SchedError::IllegalSchedule`] on any verification failure.
    pub fn verify_network(&self, network: &Network) -> Result<NetworkComparison, SchedError> {
        let mut options = self.options.clone();
        options.validate = true;
        let run = |kind| {
            let request = Search {
                kind,
                ..Search::new(&self.arch, &options)
            };
            let run = self.search_on(request, network.layers());
            run.into_result()
                .map(|layers| NetworkResult::new(network.name(), layers))
        };
        Ok(NetworkComparison::new(
            run(SchedulerKind::Ooo)?,
            run(SchedulerKind::Static)?,
        ))
    }
}

impl fmt::Display for Flexer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Flexer on {}", self.arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_arch::ArchPreset;
    use flexer_model::{networks, scale_spatial, Network};

    fn driver() -> Flexer {
        Flexer::new(ArchConfig::preset(ArchPreset::Arch1)).with_options(SearchOptions::quick())
    }

    fn tiny_net() -> Network {
        Network::new(
            "tiny",
            vec![
                ConvLayer::new("c1", 16, 14, 14, 32).unwrap(),
                ConvLayer::new("c2", 32, 14, 14, 32).unwrap(),
                ConvLayer::new("c3", 32, 14, 14, 32).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn network_scheduling_aggregates_layers() {
        let d = driver();
        let net = tiny_net();
        let r = d.schedule_network(&net).unwrap();
        assert_eq!(r.layers().len(), 3);
        let sum: u64 = r.layers().iter().map(|l| l.schedule.latency()).sum();
        assert_eq!(r.total_latency(), sum);
        assert!(r.layer("c2").is_some());
        assert!(r.layer("nope").is_none());
    }

    #[test]
    fn repeated_shapes_search_once() {
        let d = driver();
        let net = tiny_net();
        let r = d.schedule_network(&net).unwrap();
        // c2 and c3 share a shape: the second is an in-batch replay.
        assert_eq!(r.layers()[2].evaluated, 1);
        assert!(r.layers()[1].evaluated > 1);
        assert_eq!(d.cached_shapes(), 2);
    }

    #[test]
    fn a_repeated_shape_gets_the_held_winner_byte_for_byte() {
        let d = driver();
        let layer = ConvLayer::new("c", 32, 14, 14, 32).unwrap();
        let first = d.schedule_layer(&layer).unwrap();
        assert!(first.evaluated > 1);
        let mut second = d.schedule_layer(&layer.with_name("again")).unwrap();
        assert_eq!(second.layer, "again");
        second.layer = first.layer.clone();
        assert_eq!(
            encode_layer_result(&second),
            encode_layer_result(&first),
            "a tier hit is the searched winner, not a one-candidate replay"
        );
    }

    #[test]
    fn tier_hits_are_reverified_under_validate() {
        let d = driver();
        let net = tiny_net();
        assert!(!d.schedule_network(&net).unwrap().verified());
        // The fingerprint ignores `validate`: every layer is a tier hit
        // of an unverified winner, and each is verified before use.
        let cmp = d.verify_network(&net).unwrap();
        for hit in cmp.flexer().layers() {
            assert_eq!(hit.stats.schedules_verified, 1, "{}", hit.layer);
            assert!(hit.evaluated > 1, "{} is a one-candidate replay", hit.layer);
        }
    }

    #[test]
    fn tier_keeps_schedulers_apart_and_skips_point_sweeps() {
        let mut opts = SearchOptions::quick();
        let d = Flexer::new(ArchConfig::preset(ArchPreset::Arch1)).with_options(opts.clone());
        let layers = [ConvLayer::new("c", 16, 14, 14, 16).unwrap()];
        for kind in [SchedulerKind::Ooo, SchedulerKind::Static] {
            assert!(d.search(&layers, kind, None, None).results[0].is_ok());
        }
        assert_eq!(d.cached_shapes(), 2, "ooo and static winners alias");
        opts.collect_points = true;
        let sweep = d.with_options(opts);
        let full = sweep.search(&layers, SchedulerKind::Ooo, None, None);
        let full = full.into_result().unwrap().remove(0);
        assert!(full.evaluated > 1 && !full.points.is_empty());
        let again = sweep.search(&layers, SchedulerKind::Ooo, None, None);
        assert!(!again.into_result().unwrap()[0].points.is_empty());
        assert_eq!(sweep.cached_shapes(), 0, "a point sweep entered the tier");
    }

    #[test]
    fn network_stats_are_aggregated_and_reported() {
        let d = driver();
        let net = tiny_net();
        let r = d.schedule_network(&net).unwrap();
        let total = r.total_stats();
        assert!(total.steps > 0);
        assert!(total.sets_evaluated > 0);
        assert!(total.rollback_bytes > 0, "transactional mode is default");
        let line = r.to_string();
        assert!(line.contains("steps"), "{line}");
        assert!(line.contains("rollback"), "{line}");
        let table = d.compare_network(&net).unwrap().render_table();
        assert!(table.contains("search effort"), "{table}");
    }

    #[test]
    fn comparison_is_well_formed() {
        let d = driver();
        let net = tiny_net();
        let cmp = d.compare_network(&net).unwrap();
        assert!(cmp.speedup() > 0.0);
        assert!(cmp.transfer_reduction() > 0.0);
        assert_eq!(cmp.per_layer().count(), 3);
        for lc in cmp.per_layer() {
            assert!(lc.flexer_latency > 0);
            assert!(lc.baseline_latency > 0);
        }
    }

    #[test]
    fn scaled_real_network_schedules() {
        let d = driver();
        // Heavily scaled SqueezeNet slice: first four layers.
        let scaled = scale_spatial(&networks::squeezenet(), 8);
        let slice = Network::new("squeeze-slice", scaled.layers()[..4].to_vec()).unwrap();
        let r = d.schedule_network(&slice).unwrap();
        assert!(r.total_latency() > 0);
        assert!(r.total_transfer_bytes() > 0);
    }

    #[test]
    fn verify_network_verifies_both_schedulers() {
        let d = driver();
        let net = tiny_net();
        let cmp = d.verify_network(&net).unwrap();
        assert!(cmp.flexer().verified());
        assert!(cmp.baseline().verified());
        for r in cmp.flexer().layers().iter().chain(cmp.baseline().layers()) {
            assert!(r.stats.schedules_verified > 0, "{} not verified", r.layer);
        }
        let table = cmp.render_table();
        assert!(table.contains("legality"), "{table}");
        // A plain comparison does not claim verification...
        let plain = driver().compare_network(&net).unwrap();
        assert!(!plain.flexer().verified());
        assert!(!plain.render_table().contains("legality"));
        // ...unless it is served the winners a verified run left in
        // the driver's tier, with the stats of the search that found
        // and verified them.
        assert!(d.compare_network(&net).unwrap().flexer().verified());
    }

    #[test]
    fn traced_network_records_and_reports() {
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        let d = Flexer::new(ArchConfig::preset(ArchPreset::Arch1)).with_options(opts);
        let net = tiny_net();
        let traced = d.search(
            net.layers(),
            SchedulerKind::Ooo,
            None,
            Some(TraceOptions::default()),
        );
        let trace = &traced.trace;
        assert_eq!(traced.results.len(), 3);
        assert!(traced.results.iter().all(Result::is_ok));
        trace.check().unwrap();
        assert!(!trace.is_empty());
        assert!(trace.summary().spans > 0);
        // Both exports render without panicking and agree on content.
        assert!(flexer_trace::chrome::to_chrome_json(trace).contains("\"traceEvents\""));
        assert!(flexer_trace::text::render_tree(trace).contains("search"));
        // A traced search on a driver without a store fills its tier.
        assert_eq!(d.cached_shapes(), 2);
    }

    #[test]
    fn with_options_resets_cache() {
        let d = driver();
        let layer = ConvLayer::new("c", 16, 14, 14, 16).unwrap();
        let _ = d.schedule_layer(&layer).unwrap();
        assert!(d.cached_shapes() > 0);
        let d = d.with_options(SearchOptions::quick());
        assert_eq!(d.cached_shapes(), 0);
    }

    #[test]
    fn display_shows_arch() {
        assert!(driver().to_string().contains("2 cores"));
    }

    #[test]
    fn anytime_layer_beats_an_expired_deadline() {
        let d = driver();
        let layers = [ConvLayer::new("c", 32, 14, 14, 32).unwrap()];
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let run = d.search(&layers, SchedulerKind::Ooo, Some(past), None);
        let r = run.into_result().unwrap().remove(0);
        assert!(!r.is_exact());
        let gap = r.gap().unwrap();
        assert!(gap >= 1.0 && gap.is_finite(), "gap {gap}");
        assert!(r.schedule.latency() > 0);
        // A generous deadline degenerates to the exact search.
        let exact = d.schedule_layer(&layers[0]).unwrap();
        assert!(exact.is_exact());
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let run = d.search(&layers, SchedulerKind::Ooo, Some(far), None);
        let generous = run.into_result().unwrap().remove(0);
        assert!(generous.is_exact());
        assert_eq!(generous.schedule, exact.schedule);
    }

    #[test]
    fn anytime_static_baseline_beats_an_expired_deadline() {
        let d = driver();
        let layers = [ConvLayer::new("c", 32, 14, 14, 32).unwrap()];
        let [past, far, exact] = [
            Some(Instant::now() - std::time::Duration::from_secs(1)),
            Some(Instant::now() + std::time::Duration::from_secs(3600)),
            None,
        ]
        .map(|deadline| {
            let run = d.search(&layers, SchedulerKind::Static, deadline, None);
            run.into_result().unwrap().remove(0)
        });
        assert!(!past.is_exact());
        let gap = past.gap().unwrap();
        assert!(gap >= 1.0 && gap.is_finite(), "gap {gap}");
        assert!(past.schedule.latency() > 0);
        // A generous deadline degenerates to the exact static search.
        assert!(far.is_exact());
        assert_eq!(far.schedule, exact.schedule);
    }

    #[test]
    fn resident_network_cuts_dram_traffic_on_the_chain() {
        let d = driver();
        let net = tiny_net();
        let r = d.schedule_network_resident(&net).unwrap();
        assert!(
            r.plan.resident_edges() >= 1,
            "no edge of the chain went resident: {:?}",
            r.plan
        );
        assert!(
            r.result.total_transfer_bytes() < r.baseline.total_transfer_bytes(),
            "resident {} B !< baseline {} B",
            r.result.total_transfer_bytes(),
            r.baseline.total_transfer_bytes()
        );
        assert!(r.result.total_latency() <= r.baseline.total_latency());
        assert_eq!(
            r.dma_bytes_saved(),
            r.baseline.total_transfer_bytes() - r.result.total_transfer_bytes()
        );
        assert!(r.latency_delta() <= 0);
        assert!(r.summary().contains("resident edges"), "{}", r.summary());
        // The per-layer winners actually exercised the resident paths
        // the plan promised, edge by edge.
        for (i, edge) in r.plan.edges().iter().enumerate() {
            if edge.resident {
                assert!(
                    r.result.layers()[i].schedule.resident_out_bytes() > 0,
                    "{} promised a resident output",
                    edge.producer
                );
                assert!(
                    r.result.layers()[i + 1].schedule.resident_in_bytes() > 0,
                    "{} promised a resident input",
                    edge.consumer
                );
            }
        }
        // The plan replays cleanly against the ledger at SPM budget.
        let peak =
            crate::residency::replay_ledger(d.arch().spm_bytes(), &r.plan.ledger_ops()).unwrap();
        assert_eq!(peak, r.plan.peak_reserved());
        assert!(peak <= d.arch().spm_bytes());
    }

    #[test]
    fn resident_network_verifies_under_validate() {
        let mut opts = SearchOptions::quick();
        opts.validate = true;
        let d = Flexer::new(ArchConfig::preset(ArchPreset::Arch1)).with_options(opts);
        let r = d.schedule_network_resident(&tiny_net()).unwrap();
        assert!(r.plan.resident_edges() >= 1);
        assert!(
            r.result.verified(),
            "every residency-on schedule must pass differential verification"
        );
        assert!(r.baseline.verified());
    }

    #[test]
    fn single_layer_network_has_an_empty_plan() {
        let d = driver();
        let net = Network::new("one", vec![ConvLayer::new("c", 16, 14, 14, 16).unwrap()]).unwrap();
        let r = d.schedule_network_resident(&net).unwrap();
        assert!(r.plan.edges().is_empty());
        assert_eq!(r.plan.resident_edges(), 0);
        assert_eq!(r.plan.peak_reserved(), 0);
        assert_eq!(r.dma_bytes_saved(), 0);
        let plain = d.schedule_network(&net).unwrap();
        assert_eq!(
            r.result.layers()[0].schedule,
            plain.layers()[0].schedule,
            "with no resident edges the result is the plain network run"
        );
    }

    #[test]
    fn branching_network_declines_residency_byte_identically() {
        // Regression: the residency planner walks adjacent indices as
        // producer -> consumer pairs, which is meaningless on a
        // branching topology (adjacent layers need not be connected,
        // and one output may feed several consumers). A non-chain
        // network must cleanly decline: no resident edges, no ledger
        // reservations, results byte-identical to the plain run.
        let mk = |name: &str, in_c: u32| ConvLayer::new(name, in_c, 8, 8, 8).unwrap();
        let net = Network::with_topology(
            "branchy",
            vec![mk("stem", 8), mk("a", 8), mk("b", 8), mk("join", 16)],
            vec![
                flexer_model::NetEdge::new(0, 1),
                flexer_model::NetEdge::new(0, 2),
                flexer_model::NetEdge::new(1, 3),
                flexer_model::NetEdge::new(2, 3),
            ],
        )
        .unwrap();
        assert!(!net.is_chain());
        let d = driver();
        let r = d.schedule_network_resident(&net).unwrap();
        assert_eq!(r.plan.resident_edges(), 0);
        assert_eq!(r.plan.peak_reserved(), 0);
        assert_eq!(r.dma_bytes_saved(), 0);
        // One declined decision per actual topology edge.
        assert_eq!(r.plan.edges().len(), 4);
        for edge in r.plan.edges() {
            assert!(!edge.resident && !edge.spilled, "{edge:?}");
        }
        // No ledger activity leaks from the declined plan.
        let peak =
            crate::residency::replay_ledger(d.arch().spm_bytes(), &r.plan.ledger_ops()).unwrap();
        assert_eq!(peak, 0);
        // Byte-identical to the residency-off run, layer by layer.
        let plain = d.schedule_network(&net).unwrap();
        for (res, base) in r.result.layers().iter().zip(plain.layers()) {
            assert_eq!(res.schedule, base.schedule, "{}", res.layer);
        }
    }

    #[test]
    fn resident_network_reuses_the_store_across_runs() {
        let dir = std::env::temp_dir().join(format!(
            "flexer-resident-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ScheduleStore::open(&dir).unwrap());
        let d = driver().with_store(Arc::clone(&store));
        let net = tiny_net();
        let first = d.schedule_network_resident(&net).unwrap();
        assert!(d.store().unwrap().len().unwrap() > 0);
        // A fresh driver (cold result tier) over the same store replays
        // the same plan and the same totals from disk.
        let d2 = driver().with_store(store);
        let second = d2.schedule_network_resident(&net).unwrap();
        assert_eq!(first.plan.resident_edges(), second.plan.resident_edges());
        assert_eq!(
            first.result.total_transfer_bytes(),
            second.result.total_transfer_bytes()
        );
        assert_eq!(first.result.total_latency(), second.result.total_latency());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_mode_keeps_its_store_and_tier_policy() {
        let dir = std::env::temp_dir().join(format!(
            "flexer-mode-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let d = driver().with_store(Arc::new(ScheduleStore::open(&dir).unwrap()));
        let layers = [ConvLayer::new("c", 16, 14, 14, 16).unwrap()];
        let stored = || d.store().unwrap().len().unwrap();
        // A deadline run bypasses the tier and the store, even when it
        // finishes exactly.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let run = d.search(&layers, SchedulerKind::Ooo, Some(far), None);
        assert!(run.results[0].as_ref().unwrap().is_exact());
        assert_eq!((d.cached_shapes(), stored()), (0, 0));
        // A traced run bypasses the store, and a store-backed tier
        // holds only winners read back from the store.
        let trace = Some(TraceOptions::default());
        let run = d.search(&layers, SchedulerKind::Ooo, None, trace);
        assert!(!run.trace.is_empty());
        assert_eq!((d.cached_shapes(), stored()), (0, 0));
        // An exact untraced run persists its winner.
        let run = d.search(&layers, SchedulerKind::Ooo, None, None);
        assert_eq!(run.results[0].as_ref().unwrap().stats.store_misses, 1);
        assert_eq!((d.cached_shapes(), stored()), (0, 1));
        // Read back from disk, the winner enters the tier, which
        // answers the next lookup and reports it as a store hit.
        for memory_hits in [0, 1] {
            let run = d.search(&layers, SchedulerKind::Ooo, None, None);
            assert_eq!(run.results[0].as_ref().unwrap().stats.store_hits, 1);
            assert_eq!(d.cached_shapes(), 1);
            assert_eq!(d.store().unwrap().counters().memory_hits, memory_hits);
        }
        // A traced run still searches.
        let run = d.search(&layers, SchedulerKind::Ooo, None, trace);
        assert!(run.results[0].as_ref().unwrap().evaluated > 1);
        assert_eq!(d.store().unwrap().counters().hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn anytime_results_stay_out_of_the_store() {
        let dir = std::env::temp_dir().join(format!(
            "flexer-anytime-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let d = driver().with_store(Arc::new(ScheduleStore::open(&dir).unwrap()));
        let layers = [ConvLayer::new("c", 32, 14, 14, 32).unwrap()];
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let run = d.search(&layers, SchedulerKind::Ooo, Some(past), None);
        assert!(!run.into_result().unwrap()[0].is_exact());
        assert_eq!(
            d.store().unwrap().len().unwrap(),
            0,
            "anytime result persisted"
        );
        // The exact search persists as usual.
        let exact = d.schedule_layer(&layers[0]).unwrap();
        assert!(exact.is_exact());
        assert_eq!(d.store().unwrap().len().unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
