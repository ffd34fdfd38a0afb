use std::time::Instant;

use dream_models::VariantId;
use dream_sim::{
    canonical_sum, Assignment, Decision, DecisionRecord, Scheduler, SchedulerCapabilities,
    SystemView, Task, TaskEvent, TaskEventKind, TaskId,
};

use crate::matching::{greedy_assign, Candidate};
use crate::{AdaptivityEngine, DreamConfig, FrameDropEngine, ScoreContext, ScoreParams};

/// Cumulative wall-clock spent in each stage of
/// [`DreamScheduler::schedule`], recorded only when
/// [`DreamScheduler::enable_stage_timing`] was called (the hot path pays
/// a single branch otherwise). Consumed by the hotpath bench's per-stage
/// report in `BENCH_hotpath.json`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageTimings {
    /// Scheduler invocations measured.
    pub invocations: u64,
    /// Building the MapScore candidate table (per-task terms + cached
    /// table lookups).
    pub score_build_ns: u64,
    /// Sorting the candidates and emitting the greedy matching.
    pub matching_ns: u64,
    /// Everything else inside `schedule` (supernet switching, frame drop,
    /// adaptivity tick, decision bookkeeping).
    pub other_ns: u64,
}

impl StageTimings {
    /// Total measured scheduler time.
    pub fn total_ns(&self) -> u64 {
        self.score_build_ns + self.matching_ns + self.other_ns
    }
}

/// Reusable per-invocation buffers: held on the scheduler so the steady
/// state of [`DreamScheduler::schedule`] performs no heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// Ready tasks surviving the drop filter, ascending by id (mirrors
    /// the view's ready index order).
    ready: Vec<TaskId>,
    /// Tasks switched to a new variant this invocation, ascending by id
    /// (pushed in ready-index order), so membership is a binary search
    /// instead of the former O(n) `Vec::contains` scan.
    switched: Vec<TaskId>,
    /// The flattened MapScore table as (score, row, column) candidates.
    candidates: Vec<Candidate>,
    /// Occupancy flags over `ready` rows.
    used_tasks: Vec<bool>,
    /// Occupancy flags over the view's idle-accelerator columns.
    used_accs: Vec<bool>,
    /// The last decision, handed back emptied by the engine
    /// ([`Scheduler::recycle`]); the next one is built in its buffers.
    decision: Decision,
}

/// The DREAM scheduler (§4): MapScore-driven job assignment with optional
/// smart frame drop, supernet switching, and online (α, β) adaptation.
///
/// Construct one of the paper's Table 4 configurations with
/// [`DreamConfig::mapscore`], [`DreamConfig::smart_drop`], or
/// [`DreamConfig::full`], then pass the scheduler to a
/// [`dream_sim::SimulationBuilder`].
///
/// # Decision-path structure
///
/// Each invocation computes the two accelerator-independent unit scores
/// once per ready task ([`ScoreContext::task_terms`]), combines them with
/// the static per-(layer, accelerator) tables precomputed by
/// [`dream_sim::WorkloadSet::build`], and resolves the assignment with a
/// sort-once greedy matching ([`crate::greedy_assign`]) whose equal-score
/// ties break deterministically by lowest (task index, accelerator
/// index). All intermediate vectors are reusable scratch held on the
/// scheduler.
#[derive(Debug)]
pub struct DreamScheduler {
    config: DreamConfig,
    name: String,
    adaptivity: AdaptivityEngine,
    drop_engine: FrameDropEngine,
    supernet_switches: u64,
    scratch: Scratch,
    timing: Option<StageTimings>,
    /// Records explaining the last invocation's chosen assignments,
    /// populated only when the view asks
    /// ([`SystemView::wants_decision_records`]) and drained by the engine
    /// via [`Scheduler::take_decision_records`].
    decision_records: Vec<DecisionRecord>,
}

impl DreamScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: DreamConfig) -> Self {
        let name = config.variant_name().to_string();
        let adaptivity = AdaptivityEngine::new(config.adaptivity.clone(), config.params);
        let drop_engine = FrameDropEngine::new(
            config.drop_window,
            config.max_drops_per_window,
            config.slack_floor_ns,
        );
        DreamScheduler {
            config,
            name,
            adaptivity,
            drop_engine,
            supernet_switches: 0,
            scratch: Scratch::default(),
            timing: None,
            decision_records: Vec::new(),
        }
    }

    /// Starts recording per-stage wall-clock timings (see
    /// [`StageTimings`]). Timing never influences decisions; it adds two
    /// `Instant` reads per stage, so benches keep it off for headline
    /// numbers and on for the stage breakdown.
    pub fn enable_stage_timing(&mut self) {
        self.timing = Some(StageTimings::default());
    }

    /// The per-stage timings accumulated so far, if enabled.
    pub fn stage_timings(&self) -> Option<StageTimings> {
        self.timing
    }

    /// The configuration in use.
    pub fn config(&self) -> &DreamConfig {
        &self.config
    }

    /// The (α, β) pair the scheduler would use right now.
    pub fn current_params(&self) -> ScoreParams {
        if self.config.online_adaptation {
            self.adaptivity.params()
        } else {
            self.config.params
        }
    }

    /// The online adaptivity engine (inspect its tuning history).
    pub fn adaptivity(&self) -> &AdaptivityEngine {
        &self.adaptivity
    }

    /// Frames dropped so far.
    pub fn total_drops(&self) -> u64 {
        self.drop_engine.total_drops()
    }

    /// Supernet variant switches issued so far.
    pub fn supernet_switches(&self) -> u64 {
        self.supernet_switches
    }

    /// The platform's effective parallelism: capacity weighted by peak
    /// throughput. Platform-static, so `schedule` computes it at most once
    /// per invocation (lazily, on the first supernet candidate).
    fn effective_parallelism(view: &SystemView<'_>) -> f64 {
        let peak_max = view
            .platform()
            .accelerators()
            .iter()
            .map(dream_cost::AcceleratorConfig::peak_macs_per_ns)
            .fold(0.0f64, f64::max); // detlint: allow(float-fold) -- max-reduce, not a sum: order-independent for finite inputs
        canonical_sum(
            view.platform()
                .accelerators()
                .iter()
                .map(|a| a.peak_macs_per_ns() / peak_max),
        )
    }

    /// Supernet switching (§4.5.1): pick the heaviest variant whose
    /// remaining work fits the task's slack after accounting for the other
    /// ready work competing for the same accelerators; fall back to the
    /// lightest when nothing fits.
    ///
    /// The caller has already established that `node` is `task`'s node,
    /// is a supernet, and that the task has not started — `schedule` is
    /// the single place that filter lives.
    fn choose_variant(
        &self,
        task: &Task,
        node: &dream_sim::NodeInfo,
        view: &SystemView<'_>,
        n_effective: f64,
    ) -> VariantId {
        let slack = task.slack_ns(view.now());
        let variants = node.variant_count();
        if slack <= 0.0 {
            return VariantId(variants - 1);
        }
        // Expected queueing delay: the remaining work of every *other*
        // active task (ready or running), spread over the platform's
        // effective parallelism. Small sub-accelerators contribute less
        // than a full unit — a 1K array retires work at half the rate of a
        // 2K one, so capacity is weighted by peak throughput.
        let other_work: f64 = canonical_sum(
            view.tasks()
                .filter(|t| t.id() != task.id())
                .map(|t| t.to_go_avg_ns(view.workload())),
        );
        // Only the fraction of queued work that actually precedes this
        // task's layers delays it; the weight is calibrated so the fit
        // threshold sits inside the observed steady-state load
        // distribution — per-decision load variance then produces the
        // paper's Figure 14 behaviour: mostly "Original" under light load,
        // shifting toward lighter variants as cascades saturate.
        const QUEUE_WEIGHT: f64 = 0.88;
        let queue_delay = QUEUE_WEIGHT * other_work / n_effective.max(1.0);
        for v in 0..variants {
            let to_go = node.variant_to_go_ns(VariantId(v), view.workload());
            debug_assert_eq!(
                to_go.to_bits(),
                canonical_sum(
                    node.variant_layers(VariantId(v))
                        .iter()
                        .map(|&l| view.workload().avg_latency_ns(l)),
                )
                .to_bits()
            );
            if queue_delay + to_go * self.config.supernet_safety <= slack {
                return VariantId(v);
            }
        }
        VariantId(variants - 1)
    }
}

impl Scheduler for DreamScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> SchedulerCapabilities {
        SchedulerCapabilities {
            cascade: true,
            concurrent: true,
            realtime: true,
            task_dynamicity: true,
            model_dynamicity: true,
            energy_aware: true,
            heterogeneity_aware: true,
        }
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        #[allow(clippy::disallowed_methods)]
        // opt-in stage timing instrumentation; never feeds a decision
        let t_enter = self.timing.is_some().then(Instant::now); // detlint: allow(wall-clock) -- opt-in stage timing instrumentation; never feeds a decision
        if self.config.online_adaptation {
            self.adaptivity.tick(view.now());
        }
        let params = self.current_params();
        let ctx = ScoreContext::from_view(view, self.config.slack_floor_ns);
        let mut decision = Decision::reuse(&mut self.scratch.decision);

        // 1. Supernet switching (§4.5.1): every waiting supernet inference
        //    that has not started yet re-evaluates its variant against the
        //    current load, so an overloaded system lightens queued requests
        //    *before* they become hopeless (Figure 6). Switched ids land in
        //    ready-index (= ascending id) order, so the scratch list stays
        //    sorted for the binary-search membership test below.
        self.scratch.switched.clear();
        if self.config.supernet_switching {
            let mut n_effective: Option<f64> = None;
            for task in view.ready_tasks() {
                debug_assert_eq!(
                    view.workload().model_index(task.key()),
                    Some(task.model_index())
                );
                let node = view.workload().node_at(task.model_index());
                if !node.is_supernet() || task.started() {
                    continue;
                }
                let n_eff = *n_effective.get_or_insert_with(|| Self::effective_parallelism(view));
                let variant = self.choose_variant(task, node, view, n_eff);
                if variant != task.variant() {
                    decision.variant_switches.push((task.id(), variant));
                    self.supernet_switches += 1;
                    self.scratch.switched.push(task.id());
                }
            }
        }

        // 2. Smart frame drop (§4.2.1) — at most one victim per invocation.
        //    A task just lightened by a variant switch gets a chance to
        //    make its deadline before being considered for dropping.
        let mut dropped: Option<TaskId> = None;
        if self.config.smart_drop {
            if let Some(victim) = self.drop_engine.evaluate(view) {
                if self.scratch.switched.binary_search(&victim.task).is_err() {
                    let key = view
                        .task(victim.task)
                        .expect("drop victims come from the view")
                        .key();
                    self.drop_engine.record_drop(key);
                    decision.drops.push(victim.task);
                    dropped = Some(victim.task);
                }
            }
        }

        // 3. MapScore table over (ready task, idle accelerator) pairs
        //    (Figure 4's MapScore engine). The accelerator-independent
        //    terms are computed once per task; each cell is then a couple
        //    of precomputed-table loads and multiply-adds.
        #[allow(clippy::disallowed_methods)]
        // opt-in stage timing instrumentation; never feeds a decision
        let t_score = self.timing.is_some().then(Instant::now); // detlint: allow(wall-clock) -- opt-in stage timing instrumentation; never feeds a decision
        let scratch = &mut self.scratch;
        scratch.ready.clear();
        scratch.ready.extend(
            view.ready_ids()
                .iter()
                .copied()
                .filter(|&id| Some(id) != dropped),
        );
        let idle_ids = view.idle_ids();
        if scratch.ready.is_empty() || idle_ids.is_empty() {
            if let (Some(timing), Some(t0), Some(t1)) = (self.timing.as_mut(), t_enter, t_score) {
                timing.invocations += 1;
                timing.other_ns += (t1 - t0).as_nanos() as u64;
                timing.score_build_ns += t1.elapsed().as_nanos() as u64;
            }
            return decision;
        }
        scratch.candidates.clear();
        // The view serves the ready tasks through their slots, in the
        // order of `scratch.ready`, so no row needs an id lookup.
        let rows = view.ready_tasks().filter(|t| Some(t.id()) != dropped);
        for (ti, task) in rows.enumerate() {
            debug_assert_eq!(scratch.ready[ti], task.id());
            let terms = ctx.task_terms(task);
            for (ai, &aid) in idle_ids.iter().enumerate() {
                let acc = view.acc(aid);
                scratch.candidates.push(Candidate {
                    score: ctx.map_score_with(terms, task, acc, params).value,
                    task: ti as u32,
                    acc: ai as u32,
                });
            }
        }

        // 4. Greedy maximum-score matching (the job assignment & dispatch
        //    engine): sort the candidates once and dispatch in order; ties
        //    resolve by lowest (task, acc) index (see `crate::matching`).
        #[allow(clippy::disallowed_methods)]
        // opt-in stage timing instrumentation; never feeds a decision
        let t_match = self.timing.is_some().then(Instant::now); // detlint: allow(wall-clock) -- opt-in stage timing instrumentation; never feeds a decision
        scratch.used_tasks.clear();
        scratch.used_tasks.resize(scratch.ready.len(), false);
        scratch.used_accs.clear();
        scratch.used_accs.resize(idle_ids.len(), false);
        let ready = &scratch.ready;
        greedy_assign(
            &mut scratch.candidates,
            &mut scratch.used_tasks,
            &mut scratch.used_accs,
            |ti, ai| {
                decision.assignments.push(Assignment::single(
                    ready[ti as usize],
                    idle_ids[ai as usize],
                ));
            },
        );

        // 5. Decision records (flight-recorder introspection): recompute
        //    the MapScore breakdown for the *chosen* pairs only — O(matches)
        //    extra float work on already-cached tables, requested by the
        //    view only while a trace is recording, and never feeding back
        //    into any decision (the assignments above are already final).
        if view.wants_decision_records() {
            for a in &decision.assignments {
                let task = view.task(a.task).expect("assignments come from the view");
                let acc = view.acc(a.accs[0]);
                let score = ctx.map_score(task, acc, params);
                let b = score.breakdown;
                self.decision_records.push(DecisionRecord {
                    task: a.task.0,
                    acc: a.accs[0].0 as u32,
                    score: score.value,
                    terms: [
                        b.urgency,
                        b.lat_pref,
                        b.starvation,
                        b.pref_energy,
                        b.cost_switch,
                        b.energy,
                    ],
                });
            }
        }
        if let (Some(timing), Some(t0), Some(t1), Some(t2)) =
            (self.timing.as_mut(), t_enter, t_score, t_match)
        {
            timing.invocations += 1;
            timing.other_ns += (t1 - t0).as_nanos() as u64;
            timing.score_build_ns += (t2 - t1).as_nanos() as u64;
            timing.matching_ns += t2.elapsed().as_nanos() as u64;
        }
        decision
    }

    fn on_task_event(&mut self, event: &TaskEvent) {
        if let TaskEventKind::Released = event.kind {
            self.drop_engine.on_released(event.key);
        }
        if self.config.online_adaptation {
            self.adaptivity.on_task_event(event);
        }
    }

    fn recycle(&mut self, decision: Decision) {
        self.scratch.decision = decision;
    }

    fn take_decision_records(&mut self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.decision_records)
    }

    fn on_phase_start(&mut self, _phase: usize, model_names: &[&'static str]) {
        if self.config.online_adaptation {
            self.adaptivity
                .on_phase_start(dream_sim::SimTime::ZERO, model_names);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_cost::{Platform, PlatformPreset};
    use dream_models::{CascadeProbability, Scenario, ScenarioKind};
    use dream_sim::{Metrics, Millis, SimulationBuilder};

    fn run(
        config: DreamConfig,
        kind: ScenarioKind,
        preset: PlatformPreset,
        ms: u64,
    ) -> (Metrics, DreamScheduler) {
        let platform = Platform::preset(preset);
        let scenario = Scenario::new(kind, CascadeProbability::default_paper());
        let mut sched = DreamScheduler::new(config);
        let m = SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(ms))
            .seed(17)
            .run(&mut sched)
            .unwrap()
            .into_metrics();
        (m, sched)
    }

    #[test]
    fn dream_runs_cleanly_on_every_scenario() {
        for kind in ScenarioKind::all() {
            let (m, _) = run(
                DreamConfig::full(),
                kind,
                PlatformPreset::Hetero4kWs1Os2,
                400,
            );
            assert_eq!(m.invalid_decisions, 0, "{kind}");
            assert!(m.layer_executions > 0, "{kind}");
        }
    }

    #[test]
    fn smart_drop_respects_rate_cap() {
        let (m, sched) = run(
            DreamConfig::smart_drop(),
            ScenarioKind::ArSocial,
            PlatformPreset::Hetero4kWs1Os2,
            1500,
        );
        // Under the overloaded drone scenario drops should occur…
        assert!(sched.total_drops() > 0, "expected drops under overload");
        // …but never beyond the 2-in-10 cap per model.
        for (_, s) in m.models() {
            assert!(
                s.dropped as f64 <= 0.25 * s.released.max(1) as f64 + 2.0,
                "{}: {} drops of {}",
                s.model_name,
                s.dropped,
                s.released
            );
        }
        assert_eq!(m.invalid_decisions, 0);
    }

    #[test]
    fn mapscore_config_never_drops_or_switches() {
        let (m, sched) = run(
            DreamConfig::mapscore(),
            ScenarioKind::DroneIndoor,
            PlatformPreset::Hetero4kWs1Os2,
            600,
        );
        assert_eq!(sched.total_drops(), 0);
        assert_eq!(sched.supernet_switches(), 0);
        for (_, s) in m.models() {
            assert_eq!(s.dropped, 0, "{}", s.model_name);
        }
    }

    #[test]
    fn supernet_switching_uses_lighter_variants_under_load() {
        let variant_histogram = |p: f64| {
            let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
            let scenario =
                Scenario::new(ScenarioKind::ArSocial, CascadeProbability::new(p).unwrap());
            let mut sched = DreamScheduler::new(DreamConfig::full());
            let m = SimulationBuilder::new(platform, scenario)
                .duration(Millis::new(1500))
                .seed(17)
                .run(&mut sched)
                .unwrap()
                .into_metrics();
            let hist = m
                .models()
                .find(|(_, s)| s.model_name == "Once-for-All")
                .map(|(_, s)| s.variant_runs.clone())
                .expect("AR_Social deploys the OFA supernet");
            hist
        };
        let light_load = variant_histogram(0.5);
        let heavy_load = variant_histogram(0.99);
        assert_eq!(light_load.len(), 4);
        let lighter_heavy: u64 = heavy_load.iter().skip(1).sum();
        assert!(
            lighter_heavy > 0,
            "heavy load should deploy lighter variants: {heavy_load:?}"
        );
        // Figure 14's shape: the Original share shrinks as load grows.
        let orig_share = |h: &Vec<u64>| h[0] as f64 / h.iter().sum::<u64>().max(1) as f64;
        assert!(
            orig_share(&heavy_load) < orig_share(&light_load) + 1e-9,
            "light {light_load:?} heavy {heavy_load:?}"
        );
    }

    #[test]
    fn supernet_sticks_to_original_when_resources_abound() {
        let (m, _) = run(
            DreamConfig::full(),
            ScenarioKind::ArSocial,
            PlatformPreset::Homo8kWs2,
            1000,
        );
        let ofa = m
            .models()
            .find(|(_, s)| s.model_name == "Once-for-All")
            .map(|(_, s)| s.variant_runs.clone())
            .unwrap();
        let original = ofa[0];
        let lighter: u64 = ofa.iter().skip(1).sum();
        assert!(
            original >= lighter,
            "8K should mostly run the original: {ofa:?}"
        );
    }

    #[test]
    fn dream_beats_ignoring_heterogeneity_on_energy() {
        // With β > 0 the energy score steers layers toward energy-cheap
        // accelerators; β = 0 ignores them. Compare normalised energy.
        let mut eco = DreamConfig::mapscore();
        eco.params = ScoreParams::new(0.5, 1.5).unwrap();
        let mut agnostic = DreamConfig::mapscore();
        agnostic.params = ScoreParams::new(0.5, 0.0).unwrap();
        let (m_eco, _) = {
            let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
            let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
            let mut s = DreamScheduler::new(eco);
            (
                SimulationBuilder::new(platform, scenario)
                    .duration(Millis::new(1000))
                    .seed(5)
                    .run(&mut s)
                    .unwrap()
                    .into_metrics(),
                s,
            )
        };
        let (m_agn, _) = {
            let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
            let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
            let mut s = DreamScheduler::new(agnostic);
            (
                SimulationBuilder::new(platform, scenario)
                    .duration(Millis::new(1000))
                    .seed(5)
                    .run(&mut s)
                    .unwrap()
                    .into_metrics(),
                s,
            )
        };
        assert!(
            m_eco.overall_normalized_energy() < m_agn.overall_normalized_energy() * 1.02,
            "eco {} vs agnostic {}",
            m_eco.overall_normalized_energy(),
            m_agn.overall_normalized_energy()
        );
    }

    #[test]
    fn capabilities_cover_all_table1_columns() {
        let s = DreamScheduler::new(DreamConfig::full());
        let c = s.capabilities();
        assert!(
            c.cascade
                && c.concurrent
                && c.realtime
                && c.task_dynamicity
                && c.model_dynamicity
                && c.energy_aware
                && c.heterogeneity_aware
        );
        assert_eq!(s.name(), "DREAM-Full");
    }

    #[test]
    fn online_adaptation_tunes_on_boot() {
        let mut config = DreamConfig::full().with_online_adaptation();
        config.adaptivity.eval_window = dream_sim::SimTime::from(Millis::new(40));
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let scenario = Scenario::new(ScenarioKind::ArSocial, CascadeProbability::default_paper());
        let mut sched = DreamScheduler::new(config);
        SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(1800))
            .seed(2)
            .run(&mut sched)
            .unwrap();
        assert_eq!(sched.adaptivity().episodes(), 1);
        assert!(
            !sched.adaptivity().history().is_empty(),
            "candidates should have been evaluated online"
        );
    }
}
