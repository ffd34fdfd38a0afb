use dream_cost::{AcceleratorId, CostBackend, Platform, SwitchCost, SwitchFactors};
use dream_models::{
    CascadeProbability, ExitPoint, Layer, NodeId, PipelineId, Rate, Scenario, SkipBlock, VariantId,
};

use std::sync::OnceLock;

use crate::fold::canonical_sum;
use crate::{SimError, SimTime};

/// Global index of a layer within a [`WorkloadSet`] (spans every model,
/// variant, and phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LayerId(pub usize);

/// Identity of one deployed model instance: which phase, pipeline, and node
/// it occupies. This is the key metrics are aggregated under (the same
/// network deployed twice — e.g. SSD for hands and faces — is two keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelKey {
    /// Workload phase (0 unless task-level dynamicity is configured).
    pub phase: usize,
    /// Pipeline within the phase's scenario.
    pub pipeline: PipelineId,
    /// Node within the pipeline.
    pub node: NodeId,
}

impl ModelKey {
    /// The deterministic-coin "pipeline" coordinate: disambiguates
    /// identical pipeline indices across phases so draws never collide.
    pub(crate) fn coin_channel(self) -> usize {
        self.phase * 4096 + self.pipeline.0
    }
}

impl std::fmt::Display for ModelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}.{}.{}", self.phase, self.pipeline.0, self.node.0)
    }
}

/// Pre-resolved static description of one model node: layer ids per
/// variant, gates, timing contract, and cascade structure.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    pub(crate) key: ModelKey,
    /// The node's position in [`WorkloadSet::nodes`] — its dense model
    /// index, prefix-stable across workload extensions.
    pub(crate) index: usize,
    pub(crate) model_name: &'static str,
    pub(crate) rate: Rate,
    pub(crate) period: SimTime,
    pub(crate) parent: Option<NodeId>,
    pub(crate) cascade: Option<CascadeProbability>,
    pub(crate) children: Vec<NodeId>,
    pub(crate) variants: Vec<VariantPlan>,
    pub(crate) worst_frame_energy_pj: f64,
}

/// One executable variant of a node: its global layer ids plus gates in
/// graph-index space.
#[derive(Debug, Clone)]
pub struct VariantPlan {
    pub(crate) name: &'static str,
    pub(crate) layers: Vec<LayerId>,
    pub(crate) skip_blocks: Vec<SkipBlock>,
    pub(crate) exit_points: Vec<ExitPoint>,
    /// `(ToGo, minimum_to_go)` over `layers[k..]` for every `k` in
    /// `0..=layers.len()`, as a task with no gate pending sees them.
    /// Built on first read ([`VariantPlan::suffix_to_go`]), not in
    /// [`WorkloadSet::build`]: it costs O(layers²) additions.
    pub(crate) suffix_to_go: OnceLock<Box<[(f64, f64)]>>,
}

impl VariantPlan {
    /// The remaining-work table behind [`Task`](crate::Task)'s O(1)
    /// `ToGo` reads. Entry `k` repeats exactly the operations the
    /// reference walks run over the queue `layers[k..]` when no gate is
    /// pending: every layer has probability `1.0` and is certain. Each
    /// entry is its own left-to-right fold (a running suffix sum would
    /// associate differently), so every read is bit-identical to a walk.
    pub(crate) fn suffix_to_go(&self, ws: &WorkloadSet) -> &[(f64, f64)] {
        self.suffix_to_go.get_or_init(|| {
            (0..=self.layers.len())
                .map(|k| {
                    let tail = &self.layers[k..];
                    (
                        canonical_sum(tail.iter().map(|&l| 1.0 * ws.avg_latency_ns(l))),
                        canonical_sum(tail.iter().map(|&l| ws.min_latency_ns(l))),
                    )
                })
                .collect()
        })
    }
}

impl NodeInfo {
    /// The node's identity.
    pub fn key(&self) -> ModelKey {
        self.key
    }

    /// The deployed network's name (Table 3 naming).
    pub fn model_name(&self) -> &'static str {
        self.model_name
    }

    /// Target frame rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Frame period (= relative deadline).
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// Parent node in the cascade, if any.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Probability the parent's completion launches this node.
    pub fn cascade(&self) -> Option<CascadeProbability> {
        self.cascade
    }

    /// Child nodes (same pipeline) that depend on this node.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Whether no other model depends on this one — the only nodes DREAM's
    /// frame-drop Condition 3 may drop.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Number of variants (1 for ordinary models).
    pub fn variant_count(&self) -> usize {
        self.variants.len()
    }

    /// Whether this node deploys a multi-variant supernet.
    pub fn is_supernet(&self) -> bool {
        self.variants.len() > 1
    }

    /// Global layer ids of a variant.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range.
    pub fn variant_layers(&self, variant: VariantId) -> &[LayerId] {
        &self.variants[variant.0].layers
    }

    /// `ToGo` of a fresh, ungated run of `variant`: the across-accelerator
    /// average latencies of all its layers, summed left to right. Served
    /// from the variant's suffix table, bit-identical to that walk.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range or `ws` is not the workload
    /// this node belongs to.
    pub fn variant_to_go_ns(&self, variant: VariantId, ws: &WorkloadSet) -> f64 {
        self.variant(variant).suffix_to_go(ws)[0].0
    }

    /// The variant's human-readable name.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range.
    pub fn variant_name(&self, variant: VariantId) -> &'static str {
        self.variants[variant.0].name
    }

    /// Skip gates of a variant (graph-index space).
    pub(crate) fn variant(&self, variant: VariantId) -> &VariantPlan {
        &self.variants[variant.0]
    }

    /// Worst-case energy of one frame: every default-variant layer on its
    /// most expensive accelerator (Algorithm 2's normalisation denominator).
    pub fn worst_frame_energy_pj(&self) -> f64 {
        self.worst_frame_energy_pj
    }
}

/// One workload phase: a scenario active during `[start, end)`.
#[derive(Debug, Clone)]
pub struct Phase {
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    pub(crate) scenario: Scenario,
}

impl Phase {
    /// Creates a phase: `scenario` is active during `[start, end)`.
    ///
    /// Phases handed to [`WorkloadSet::build`] must be non-overlapping
    /// and time-ordered; *gaps* between consecutive phases are legal and
    /// mean no scenario is deployed during the gap (no arrivals occur
    /// there — see [`WorkloadSet::active_phase_at`]).
    pub fn new(start: SimTime, end: SimTime, scenario: Scenario) -> Self {
        Phase {
            start,
            end,
            scenario,
        }
    }

    /// Phase start time (inclusive).
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Phase end time (exclusive).
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// The scenario active in this phase.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }
}

/// The fully-resolved workload a simulation executes: phases, nodes,
/// flattened layers, and the offline latency/energy tables DREAM consumes
/// (the paper's `EstLatency` / `EstEnergy` inputs, Figure 4).
///
/// Beyond the raw tables, [`WorkloadSet::build`] precomputes every
/// MapScore term that is constant per (layer, accelerator) pair — the
/// static half of Algorithm 1's static/dynamic split (cf. Sparse-DySta):
///
/// * `lat_pref[layer, acc]   = Σᵢ lat(layer, i) / lat(layer, acc)`
/// * `pref_energy[layer, acc] = Σᵢ E(layer, i) / E(layer, acc)`
/// * `cold_switch_ratio[layer, acc]` — the context-switch energy ratio of
///   a *cold* accelerator (nothing to flush, only the incoming fetch)
/// * `switch_energy_pj_per_byte[acc]` — DRAM energy per switched byte, so
///   the warm-switch ratio needs only the dynamic flush volume online
/// * `avg_lat[layer]` — the across-accelerator mean (`ToGo`'s per-layer
///   term)
///
/// Each cached value is produced by the *identical* floating-point
/// operation sequence the former online path used, so schedulers reading
/// the tables are bit-for-bit equal to a from-scratch recomputation via
/// the [`CostBackend`] (property-tested in `dream-core`).
///
/// The backend is consulted only here, at build time — every
/// per-(layer, accelerator) quantity the decision path needs is resolved
/// into these flat tables, so swapping backends (analytical vs. a
/// MAESTRO-style table import) never adds dispatch cost to a decision.
#[derive(Debug, Clone)]
pub struct WorkloadSet {
    phases: Vec<Phase>,
    /// Every node, ascending by key — the dense model index.
    nodes: Vec<NodeInfo>,
    /// `pipeline_starts[phase][pipeline]` is the index in `nodes` of the
    /// pipeline's node 0; each phase's list ends with its end index.
    pipeline_starts: Vec<Vec<usize>>,
    layers: Vec<Layer>,
    acc_count: usize,
    lat: Vec<f64>,
    energy: Vec<f64>,
    sum_lat: Vec<f64>,
    avg_lat: Vec<f64>,
    min_lat: Vec<f64>,
    sum_energy: Vec<f64>,
    max_energy: Vec<f64>,
    input_bytes: Vec<u64>,
    output_bytes: Vec<u64>,
    lat_pref: Vec<f64>,
    pref_energy: Vec<f64>,
    cold_switch_ratio: Vec<f64>,
    switch_factors: Vec<SwitchFactors>,
    cost_digest: u64,
}

impl WorkloadSet {
    /// Resolves `phases` against `platform`, computing the per-layer cost
    /// tables with `cost` (any [`CostBackend`] — the analytical model or
    /// an imported table).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPhase`] if phases are empty or not
    /// strictly ordered, and [`SimError::Cost`] when the backend cannot
    /// answer a (layer, accelerator) query the workload needs.
    pub fn build(
        phases: Vec<Phase>,
        platform: &Platform,
        cost: &dyn CostBackend,
    ) -> Result<Self, SimError> {
        if phases.is_empty() {
            return Err(SimError::InvalidPhase {
                reason: "no workload phases configured".into(),
            });
        }
        for p in &phases {
            if p.end <= p.start {
                return Err(SimError::InvalidPhase {
                    reason: format!("phase [{}, {}) is empty", p.start, p.end),
                });
            }
        }
        // Gaps between consecutive phases are legal (no scenario deployed
        // during the gap); only overlaps are rejected.
        for w in phases.windows(2) {
            if w[1].start < w[0].end {
                return Err(SimError::InvalidPhase {
                    reason: format!(
                        "phase starting at {} overlaps phase ending at {}",
                        w[1].start, w[0].end
                    ),
                });
            }
        }
        // Per-accelerator switch factors: the static half of Algorithm 1's
        // Cost_switch term and of the engine's dispatch-time switch
        // charges — resolved once here so the backend is never consulted
        // on the decision path.
        let switch_factors = platform
            .accelerators()
            .iter()
            .map(|acc| cost.switch_factors(acc))
            .collect::<Result<Vec<SwitchFactors>, _>>()?;
        let mut ws = WorkloadSet {
            phases,
            nodes: Vec::new(),
            pipeline_starts: Vec::new(),
            layers: Vec::new(),
            acc_count: platform.len(),
            lat: Vec::new(),
            energy: Vec::new(),
            sum_lat: Vec::new(),
            avg_lat: Vec::new(),
            min_lat: Vec::new(),
            sum_energy: Vec::new(),
            max_energy: Vec::new(),
            input_bytes: Vec::new(),
            output_bytes: Vec::new(),
            lat_pref: Vec::new(),
            pref_energy: Vec::new(),
            cold_switch_ratio: Vec::new(),
            switch_factors,
            cost_digest: cost.calibration_digest(),
        };
        let phases_snapshot = ws.phases.clone();
        for (phase_idx, phase) in phases_snapshot.iter().enumerate() {
            let mut starts = Vec::with_capacity(phase.scenario.pipelines().len() + 1);
            for (pl_idx, pipeline) in phase.scenario.pipelines().iter().enumerate() {
                starts.push(ws.nodes.len());
                // First pass: children lists.
                let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); pipeline.nodes().len()];
                for (n_idx, node) in pipeline.nodes().iter().enumerate() {
                    if let Some(p) = node.parent {
                        children[p.0].push(NodeId(n_idx));
                    }
                }
                for (n_idx, node) in pipeline.nodes().iter().enumerate() {
                    let key = ModelKey {
                        phase: phase_idx,
                        pipeline: PipelineId(pl_idx),
                        node: NodeId(n_idx),
                    };
                    let mut variants = Vec::with_capacity(node.model.variant_count());
                    for graph in node.model.variants() {
                        let mut layer_ids = Vec::with_capacity(graph.len());
                        for layer in graph.layers() {
                            layer_ids.push(ws.register_layer(layer.clone(), platform, cost)?);
                        }
                        variants.push(VariantPlan {
                            name: graph.name(),
                            layers: layer_ids,
                            skip_blocks: graph.skip_blocks().to_vec(),
                            exit_points: graph.exit_points().to_vec(),
                            suffix_to_go: OnceLock::new(),
                        });
                    }
                    let worst_frame_energy_pj =
                        canonical_sum(variants[0].layers.iter().map(|&l| ws.max_energy[l.0]));
                    // Phases, pipelines and nodes are walked in ascending
                    // order, so pushing keeps `nodes` sorted by key.
                    ws.nodes.push(NodeInfo {
                        key,
                        index: ws.nodes.len(),
                        model_name: node.model.name(),
                        rate: node.rate,
                        period: SimTime::from_ns(node.rate.period_ns()),
                        parent: node.parent,
                        cascade: node.cascade,
                        children: children[n_idx].clone(),
                        variants,
                        worst_frame_energy_pj,
                    });
                }
            }
            starts.push(ws.nodes.len());
            ws.pipeline_starts.push(starts);
        }
        Ok(ws)
    }

    // detlint: canonical-fold -- per-accelerator cost-table fold in platform order: the reference sequence the cached min/max/avg tables replay
    fn register_layer(
        &mut self,
        layer: Layer,
        platform: &Platform,
        cost: &dyn CostBackend,
    ) -> Result<LayerId, SimError> {
        let id = LayerId(self.layers.len());
        let stats = layer.stats();
        let mut sum_l = 0.0;
        let mut min_l = f64::INFINITY;
        let mut sum_e = 0.0;
        let mut max_e: f64 = 0.0;
        let base = id.0 * self.acc_count;
        for acc in platform.accelerators() {
            let c = cost.layer_cost(&layer, acc)?;
            self.lat.push(c.latency_ns);
            self.energy.push(c.energy_pj);
            sum_l += c.latency_ns;
            min_l = min_l.min(c.latency_ns);
            sum_e += c.energy_pj;
            max_e = max_e.max(c.energy_pj);
        }
        // Second pass: the static MapScore terms. Each expression repeats
        // the exact operation sequence the online path would perform
        // (sum / entry, incoming-bytes · per-byte / entry), keeping the
        // cached tables bit-identical to on-demand recomputation.
        for i in 0..self.acc_count {
            self.lat_pref.push(sum_l / self.lat[base + i]);
            self.pref_energy.push(sum_e / self.energy[base + i]);
            self.cold_switch_ratio.push(
                stats.input_bytes as f64 * self.switch_factors[i].energy_pj_per_byte
                    / self.energy[base + i],
            );
        }
        self.sum_lat.push(sum_l);
        self.avg_lat.push(sum_l / self.acc_count as f64);
        self.min_lat.push(min_l);
        self.sum_energy.push(sum_e);
        self.max_energy.push(max_e);
        self.input_bytes.push(stats.input_bytes);
        self.output_bytes.push(stats.output_bytes);
        self.layers.push(layer);
        Ok(id)
    }

    /// The workload phases in time order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The phase index governing `time`: the phase whose `[start, end)`
    /// window contains it, or — since phases may be separated by gaps in
    /// which no scenario is deployed — the phase the workload is
    /// transitioning *into* (the next phase to start). Times at/after the
    /// last phase's end clamp to the last phase, times before the first
    /// phase's start clamp to the first.
    ///
    /// Use [`active_phase_at`](Self::active_phase_at) to distinguish a
    /// gap from an active phase.
    pub fn phase_at(&self, time: SimTime) -> usize {
        if let Some(active) = self.active_phase_at(time) {
            return active;
        }
        // In a gap (or outside the schedule): the next phase to start,
        // clamped to the last phase once the schedule is over.
        self.phases
            .iter()
            .position(|p| time < p.start)
            .unwrap_or(self.phases.len() - 1)
    }

    /// The phase whose half-open window `[start, end)` contains `time`,
    /// or `None` when `time` falls in an inter-phase gap, before the
    /// first phase, or at/after the end of the last one.
    pub fn active_phase_at(&self, time: SimTime) -> Option<usize> {
        self.phases
            .iter()
            .position(|p| time >= p.start && time < p.end)
    }

    /// All model nodes across all phases.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.iter()
    }

    /// The dense index of `key`: its position in [`nodes`](Self::nodes),
    /// which is ascending key order. Appending a phase only adds indices
    /// after the existing ones, so an index stays valid across a live
    /// hot-swap. `None` for a key this workload set did not produce.
    pub fn model_index(&self, key: ModelKey) -> Option<usize> {
        let starts = self.pipeline_starts.get(key.phase)?;
        let first = *starts.get(key.pipeline.0)?;
        let end = *starts.get(key.pipeline.0 + 1)?;
        let idx = first.checked_add(key.node.0)?;
        (idx < end).then_some(idx)
    }

    /// Node lookup.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not produced by this workload set.
    pub fn node(&self, key: ModelKey) -> &NodeInfo {
        match self.model_index(key) {
            Some(idx) => &self.nodes[idx],
            None => panic!("model {key} is not part of this workload set"),
        }
    }

    /// The node at dense model index `index` (see
    /// [`model_index`](Self::model_index)) — what a
    /// [`Task`](crate::Task) reaches through its
    /// [`model_index`](crate::Task::model_index), without the key walk.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the node count.
    pub fn node_at(&self, index: usize) -> &NodeInfo {
        &self.nodes[index]
    }

    /// Non-panicking node lookup — for validating externally supplied
    /// keys (trace entries, live admissions).
    pub fn try_node(&self, key: ModelKey) -> Option<&NodeInfo> {
        self.model_index(key).map(|idx| &self.nodes[idx])
    }

    /// Number of sub-accelerators the tables were built for.
    pub fn acc_count(&self) -> usize {
        self.acc_count
    }

    /// Total number of registered (flattened) layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The layer object behind an id (for on-demand cost queries, e.g.
    /// Planaria's gang costing).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer(&self, layer: LayerId) -> &Layer {
        &self.layers[layer.0]
    }

    /// All registered layers in [`LayerId`] order — the layer universe a
    /// cost-table export ([`dream_cost::TableBackend::derive`]) must
    /// cover to replay this workload.
    pub fn layers(&self) -> impl Iterator<Item = &Layer> {
        self.layers.iter()
    }

    /// Estimated latency of `layer` on `acc` in nanoseconds — the paper's
    /// `EstLatency(layer, acc)`.
    pub fn latency_ns(&self, layer: LayerId, acc: AcceleratorId) -> f64 {
        self.lat[layer.0 * self.acc_count + acc.0]
    }

    /// Estimated energy of `layer` on `acc` in picojoules — the paper's
    /// `EstEnergy(layer, acc)`.
    pub fn energy_pj(&self, layer: LayerId, acc: AcceleratorId) -> f64 {
        self.energy[layer.0 * self.acc_count + acc.0]
    }

    /// Σ over accelerators of `latency_ns` (Algorithm 1's preference
    /// numerator).
    pub fn sum_latency_ns(&self, layer: LayerId) -> f64 {
        self.sum_lat[layer.0]
    }

    /// Mean latency across accelerators (Algorithm 1's `ToGo` term),
    /// precomputed at build time.
    pub fn avg_latency_ns(&self, layer: LayerId) -> f64 {
        self.avg_lat[layer.0]
    }

    /// Best-case latency across accelerators (smart frame drop's
    /// `minimum_to_go` term).
    pub fn min_latency_ns(&self, layer: LayerId) -> f64 {
        self.min_lat[layer.0]
    }

    /// Σ over accelerators of `energy_pj` (energy preference numerator).
    pub fn sum_energy_pj(&self, layer: LayerId) -> f64 {
        self.sum_energy[layer.0]
    }

    /// Worst-case energy across accelerators (UXCost normalisation).
    pub fn max_energy_pj(&self, layer: LayerId) -> f64 {
        self.max_energy[layer.0]
    }

    /// Input activation bytes of a layer (context-switch fetch volume).
    pub fn input_bytes(&self, layer: LayerId) -> u64 {
        self.input_bytes[layer.0]
    }

    /// Output activation bytes of a layer (context-switch flush volume).
    pub fn output_bytes(&self, layer: LayerId) -> u64 {
        self.output_bytes[layer.0]
    }

    /// Precomputed `ScoreLatPref(layer, acc)` — Algorithm 1 line 8's
    /// `Σᵢ lat(layer, i) / lat(layer, acc)`, hoisted offline.
    pub fn lat_pref(&self, layer: LayerId, acc: AcceleratorId) -> f64 {
        self.lat_pref[layer.0 * self.acc_count + acc.0]
    }

    /// Precomputed `PrefEnergy(layer, acc)` — Algorithm 1 line 11's
    /// `Σᵢ E(layer, i) / E(layer, acc)`, hoisted offline.
    pub fn pref_energy(&self, layer: LayerId, acc: AcceleratorId) -> f64 {
        self.pref_energy[layer.0 * self.acc_count + acc.0]
    }

    /// Precomputed cold context-switch energy ratio — Algorithm 1 line
    /// 10's `CswitchEnergy / EstEnergy(layer, acc)` when the accelerator
    /// has nothing to flush (`last_output_bytes == 0`): only the incoming
    /// working-set fetch is paid.
    pub fn cold_switch_ratio(&self, layer: LayerId, acc: AcceleratorId) -> f64 {
        self.cold_switch_ratio[layer.0 * self.acc_count + acc.0]
    }

    /// DRAM energy per context-switched byte on `acc` (pJ/byte) — the
    /// static factor of the warm-switch ratio, whose only online input is
    /// the departing task's flush volume.
    pub fn switch_energy_pj_per_byte(&self, acc: AcceleratorId) -> f64 {
        self.switch_factors[acc.0].energy_pj_per_byte
    }

    /// Both per-byte context-switch factors of `acc`, as resolved from
    /// the backend at build time.
    pub fn switch_factors(&self, acc: AcceleratorId) -> SwitchFactors {
        self.switch_factors[acc.0]
    }

    /// The cost of a context switch fetching `incoming_bytes` and
    /// flushing `outgoing_bytes` through `acc`, served from the
    /// build-time factors with the one shared formula
    /// ([`SwitchFactors::cost`]) — bit-identical to asking the backend,
    /// without the dynamic dispatch. This is what the engine charges on
    /// dispatch.
    pub fn switch_cost(
        &self,
        incoming_bytes: u64,
        outgoing_bytes: u64,
        acc: AcceleratorId,
    ) -> SwitchCost {
        self.switch_factors[acc.0].cost(incoming_bytes, outgoing_bytes)
    }

    /// The digest of the backend calibration these tables were built
    /// with ([`CostBackend::calibration_digest`]). Two workloads built
    /// from backends with different digests hold different tables; the
    /// engine uses this to reject a prebuilt workload whose backend
    /// disagrees with the simulation's.
    pub fn cost_digest(&self) -> u64 {
        self.cost_digest
    }

    /// The distinct model names active in `phase` — the "inference model
    /// list" DREAM's adaptivity engine watches for workload changes.
    pub fn model_names(&self, phase: usize) -> Vec<&'static str> {
        self.phases
            .get(phase)
            .map(|p| p.scenario.model_names())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_cost::{CostModel, PlatformPreset};
    use dream_models::ScenarioKind;

    fn build_default() -> (WorkloadSet, Platform) {
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let cost = CostModel::paper_default();
        let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let ws = WorkloadSet::build(
            vec![Phase {
                start: SimTime::ZERO,
                end: SimTime::from(crate::Millis::new(1000)),
                scenario,
            }],
            &platform,
            &cost,
        )
        .unwrap();
        (ws, platform)
    }

    #[test]
    fn builds_ar_call_nodes() {
        let (ws, _) = build_default();
        // AR_Call: KWS, GNMT, SkipNet.
        assert_eq!(ws.nodes().count(), 3);
        let names: Vec<_> = ws.nodes().map(NodeInfo::model_name).collect();
        assert!(names.contains(&"GNMT"));
        assert!(names.contains(&"SkipNet"));
    }

    #[test]
    fn model_index_is_the_key_order_position_and_prefix_stable() {
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let cost = CostModel::paper_default();
        let p = CascadeProbability::default_paper();
        let ms = |v| SimTime::from(crate::Millis::new(v));
        let one = vec![Phase::new(
            SimTime::ZERO,
            ms(500),
            Scenario::new(ScenarioKind::ArCall, p),
        )];
        let mut two = one.clone();
        two.push(Phase::new(
            ms(500),
            ms(1000),
            Scenario::new(ScenarioKind::VrGaming, p),
        ));
        let one = WorkloadSet::build(one, &platform, &cost).unwrap();
        let two = WorkloadSet::build(two, &platform, &cost).unwrap();
        let keys: Vec<ModelKey> = two.nodes().map(NodeInfo::key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "nodes ascend by key");
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(two.model_index(key), Some(i));
            assert_eq!(two.node(key).key(), key);
            if key.phase == 0 {
                assert_eq!(
                    one.model_index(key),
                    Some(i),
                    "appending a phase moved {key}"
                );
            }
        }
        let last = *keys.last().unwrap();
        for unknown in [
            ModelKey { phase: 2, ..last },
            ModelKey {
                pipeline: PipelineId(last.pipeline.0 + 1),
                ..last
            },
            ModelKey {
                node: NodeId(last.node.0 + 1),
                ..last
            },
            ModelKey {
                node: NodeId(usize::MAX),
                ..last
            },
        ] {
            assert_eq!(two.model_index(unknown), None, "{unknown}");
            assert!(two.try_node(unknown).is_none());
        }
        assert_eq!(one.model_index(keys[keys.len() - 1]), None);
    }

    #[test]
    fn tables_cover_every_layer_accelerator_pair() {
        let (ws, platform) = build_default();
        assert_eq!(ws.acc_count(), 3);
        for node in ws.nodes() {
            for v in 0..node.variant_count() {
                for &l in node.variant_layers(VariantId(v)) {
                    for acc in platform.ids() {
                        let lat = ws.latency_ns(l, acc);
                        let e = ws.energy_pj(l, acc);
                        assert!(lat.is_finite() && lat > 0.0);
                        assert!(e.is_finite() && e > 0.0);
                    }
                    assert!(ws.min_latency_ns(l) <= ws.avg_latency_ns(l));
                    assert!(ws.max_energy_pj(l) * 3.0 >= ws.sum_energy_pj(l));
                }
            }
        }
    }

    #[test]
    fn precomputed_score_tables_match_from_scratch_bitwise() {
        let (ws, platform) = build_default();
        let cost = CostModel::paper_default();
        for node in ws.nodes() {
            for v in 0..node.variant_count() {
                for &l in node.variant_layers(VariantId(v)) {
                    for acc in platform.ids() {
                        let lp = ws.sum_latency_ns(l) / ws.latency_ns(l, acc);
                        assert_eq!(ws.lat_pref(l, acc).to_bits(), lp.to_bits());
                        let pe = ws.sum_energy_pj(l) / ws.energy_pj(l, acc);
                        assert_eq!(ws.pref_energy(l, acc).to_bits(), pe.to_bits());
                        let config = platform.accelerator(acc).unwrap();
                        let sw = cost.switch_cost(ws.input_bytes(l), 0, config);
                        let cold = sw.energy_pj / ws.energy_pj(l, acc);
                        assert_eq!(ws.cold_switch_ratio(l, acc).to_bits(), cold.to_bits());
                        let per_byte = cost.switch_cost(1, 0, config).energy_pj;
                        assert_eq!(
                            ws.switch_energy_pj_per_byte(acc).to_bits(),
                            per_byte.to_bits()
                        );
                    }
                    let avg = ws.sum_latency_ns(l) / ws.acc_count() as f64;
                    assert_eq!(ws.avg_latency_ns(l).to_bits(), avg.to_bits());
                }
            }
        }
    }

    #[test]
    fn cascade_structure_resolved() {
        let (ws, _) = build_default();
        let audio_parent = ModelKey {
            phase: 0,
            pipeline: PipelineId(0),
            node: NodeId(0),
        };
        let kws = ws.node(audio_parent);
        assert_eq!(kws.model_name(), "KWS_res8");
        assert!(!kws.is_leaf());
        assert_eq!(kws.children(), &[NodeId(1)]);
        let gnmt = ws.node(ModelKey {
            phase: 0,
            pipeline: PipelineId(0),
            node: NodeId(1),
        });
        assert!(gnmt.is_leaf());
        assert_eq!(gnmt.parent(), Some(NodeId(0)));
    }

    #[test]
    fn worst_energy_bounds_any_single_assignment() {
        let (ws, platform) = build_default();
        for node in ws.nodes() {
            let worst = node.worst_frame_energy_pj();
            let single_acc: f64 = node
                .variant_layers(VariantId(0))
                .iter()
                .map(|&l| ws.energy_pj(l, AcceleratorId(0)))
                .sum();
            assert!(worst >= single_acc - 1e-9, "{}", node.model_name());
            let _ = platform;
        }
    }

    #[test]
    fn phase_lookup() {
        let (ws, _) = build_default();
        assert_eq!(ws.phase_at(SimTime::ZERO), 0);
        assert_eq!(ws.phase_at(SimTime::from_ns(u64::MAX / 2)), 0);
        assert_eq!(ws.model_names(0).len(), 3);
        assert!(ws.model_names(7).is_empty());
    }

    #[test]
    fn gapped_phases_resolve_per_window() {
        // Regression: phase_at used to return the previous, already-ended
        // phase for any time inside an inter-phase gap.
        let platform = Platform::preset(PlatformPreset::Homo4kWs2);
        let cost = CostModel::paper_default();
        let s = || Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let ws = WorkloadSet::build(
            vec![
                Phase::new(SimTime::from_ns(0), SimTime::from_ns(100), s()),
                // Gap: [100, 200) has no deployed scenario.
                Phase::new(SimTime::from_ns(200), SimTime::from_ns(300), s()),
            ],
            &platform,
            &cost,
        )
        .unwrap();
        // Inside the phases.
        assert_eq!(ws.active_phase_at(SimTime::from_ns(0)), Some(0));
        assert_eq!(ws.active_phase_at(SimTime::from_ns(99)), Some(0));
        assert_eq!(ws.active_phase_at(SimTime::from_ns(200)), Some(1));
        assert_eq!(ws.active_phase_at(SimTime::from_ns(299)), Some(1));
        // The gap: no active phase; phase_at reports the upcoming one.
        assert_eq!(ws.active_phase_at(SimTime::from_ns(100)), None);
        assert_eq!(ws.active_phase_at(SimTime::from_ns(150)), None);
        assert_eq!(ws.active_phase_at(SimTime::from_ns(199)), None);
        assert_eq!(ws.phase_at(SimTime::from_ns(150)), 1);
        // Past the schedule: clamped to the last phase, but not active.
        assert_eq!(ws.active_phase_at(SimTime::from_ns(300)), None);
        assert_eq!(ws.phase_at(SimTime::from_ns(1_000)), 1);
    }

    #[test]
    fn empty_phase_window_rejected() {
        let platform = Platform::preset(PlatformPreset::Homo4kWs2);
        let cost = CostModel::paper_default();
        let s = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let phases = vec![Phase::new(SimTime::from_ns(50), SimTime::from_ns(50), s)];
        assert!(WorkloadSet::build(phases, &platform, &cost).is_err());
    }

    #[test]
    fn overlapping_phases_rejected() {
        let platform = Platform::preset(PlatformPreset::Homo4kWs2);
        let cost = CostModel::paper_default();
        let s = || Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let phases = vec![
            Phase {
                start: SimTime::ZERO,
                end: SimTime::from_ns(100),
                scenario: s(),
            },
            Phase {
                start: SimTime::from_ns(50),
                end: SimTime::from_ns(200),
                scenario: s(),
            },
        ];
        assert!(WorkloadSet::build(phases, &platform, &cost).is_err());
    }

    #[test]
    fn empty_phases_rejected() {
        let platform = Platform::preset(PlatformPreset::Homo4kWs2);
        let cost = CostModel::paper_default();
        assert!(WorkloadSet::build(vec![], &platform, &cost).is_err());
    }
}
