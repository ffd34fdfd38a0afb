use dream_cost::{CostBackend, Platform};
use dream_sim::{AccState, SimTime, Task, WorkloadSet};

use crate::ScoreParams;

/// The four unit scores plus the context-switch term behind one MapScore
/// value (Algorithm 1 lines 7–13), exposed for inspection and tests
/// (C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreBreakdown {
    /// `ToGo / Slack` (line 7).
    pub urgency: f64,
    /// `Σᵢ lat(next, i) / lat(next, acc)` (line 8).
    pub lat_pref: f64,
    /// `Tqueue / mean-latency(next)` (line 9).
    pub starvation: f64,
    /// `Σᵢ E(next, i) / E(next, acc)` (line 11).
    pub pref_energy: f64,
    /// `CswitchEnergy / EstEnergy(next, acc)` (line 10).
    pub cost_switch: f64,
    /// `pref_energy − cost_switch` (lines 12–13).
    pub energy: f64,
}

/// A computed MapScore for one (task, accelerator) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapScore {
    /// The combined score (line 14–15):
    /// `urgency·lat_pref + α·starvation + β·energy`.
    pub value: f64,
    /// The unit scores it was combined from.
    pub breakdown: ScoreBreakdown,
}

/// The per-task half of Algorithm 1's static/dynamic split: the two unit
/// scores that depend on the task's live state (queue contents, waiting
/// time) but **not** on the accelerator. A scheduler computes them once
/// per task per decision and combines them with the per-(layer, acc)
/// tables [`WorkloadSet`] precomputed offline — turning each MapScore
/// cell into a handful of multiply-adds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTerms {
    /// `ScoreUrgency(tsk)` (line 7) — see [`ScoreContext::urgency`].
    pub urgency: f64,
    /// `ScoreStarv(tsk)` (line 9) — see [`ScoreContext::starvation`].
    pub starvation: f64,
}

/// Everything Algorithm 1 needs besides the task and accelerator:
/// the offline cost tables, the cost model (for switch costs), and the
/// current time.
#[derive(Debug, Clone, Copy)]
pub struct ScoreContext<'a> {
    /// Current time (`Tcurr`).
    pub now: SimTime,
    /// Offline latency/energy tables (`EstLatency`, `EstEnergy`) plus the
    /// precomputed static score tables (`lat_pref`, `pref_energy`,
    /// cold-switch ratios).
    pub workload: &'a WorkloadSet,
    /// The cost backend — only consulted by the from-scratch
    /// [`ScoreContext::map_score_reference`] path; the hot path reads the
    /// tables.
    pub cost: &'a dyn CostBackend,
    /// The platform (accelerator configs for reference switch costs).
    pub platform: &'a Platform,
    /// Floor applied to `Slack` so urgency stays finite past the deadline.
    pub slack_floor_ns: f64,
}

impl<'a> ScoreContext<'a> {
    /// Builds a context from a simulator view.
    pub fn from_view(view: &dream_sim::SystemView<'a>, slack_floor_ns: f64) -> Self {
        ScoreContext {
            now: view.now(),
            workload: view.workload(),
            cost: view.cost(),
            platform: view.platform(),
            slack_floor_ns,
        }
    }

    /// `ScoreUrgency(tsk) = ToGo(tsk) / Slack(tsk)` (line 7), with `Slack`
    /// floored at [`ScoreContext::slack_floor_ns`] so overdue tasks get a
    /// large-but-finite urgency.
    pub fn urgency(&self, task: &Task) -> f64 {
        let to_go = task.to_go_avg_ns(self.workload);
        let slack = task.slack_ns(self.now).max(self.slack_floor_ns);
        to_go / slack
    }

    /// `ScoreLatPref(tsk, acc)` (line 8): the inverse of this accelerator's
    /// share of the summed latency of the task's next layer. Higher is
    /// better; 1.0 means "as good as the sum of everyone" (impossible),
    /// `N` means uniform. Served from the table
    /// [`WorkloadSet::build`] precomputed.
    ///
    /// Returns 0 for tasks with an empty queue (cannot happen for live
    /// tasks).
    pub fn latency_preference(&self, task: &Task, acc: dream_cost::AcceleratorId) -> f64 {
        let Some(next) = task.next_layer() else {
            return 0.0;
        };
        self.workload.lat_pref(next.layer, acc)
    }

    /// `ScoreStarv(tsk) = Tqueue / mean-latency(next)` (line 9): how many
    /// "fair service quanta" the task has waited.
    pub fn starvation(&self, task: &Task) -> f64 {
        let Some(next) = task.next_layer() else {
            return 0.0;
        };
        let t_queue = self.now.saturating_sub(task.last_completion()).as_ns_f64();
        t_queue / self.workload.avg_latency_ns(next.layer)
    }

    /// `PrefEnergy` and `Cost_switch` (lines 10–11), served from the
    /// precomputed tables. The switch term is zero when the accelerator
    /// last ran this very task; for a cold accelerator (nothing to flush)
    /// it is the precomputed cold ratio; otherwise the only online input
    /// is the departing task's flush volume.
    pub fn energy_terms(&self, task: &Task, acc: &AccState) -> (f64, f64) {
        let Some(next) = task.next_layer() else {
            return (0.0, 0.0);
        };
        let ws = self.workload;
        let pref = ws.pref_energy(next.layer, acc.id());
        let cost_switch = if acc.last_task() == Some(task.id()) {
            0.0
        } else if acc.last_output_bytes() == 0 {
            ws.cold_switch_ratio(next.layer, acc.id())
        } else {
            // Identical operation sequence to SwitchFactors::cost
            // followed by the ratio — see map_score_reference.
            let bytes = (ws.input_bytes(next.layer) + acc.last_output_bytes()) as f64;
            bytes * ws.switch_energy_pj_per_byte(acc.id()) / ws.energy_pj(next.layer, acc.id())
        };
        (pref, cost_switch)
    }

    /// `PrefEnergy` and `Cost_switch` recomputed from scratch through
    /// [`CostBackend::switch_cost`] — the pre-optimization arithmetic,
    /// kept as the reference the cached tables are property-tested
    /// against (bit-for-bit).
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot cost a switch on one of the
    /// platform's accelerators — impossible for any backend the workload
    /// was successfully built from, since the build resolves switch
    /// factors for every accelerator up front.
    pub fn energy_terms_reference(&self, task: &Task, acc: &AccState) -> (f64, f64) {
        let Some(next) = task.next_layer() else {
            return (0.0, 0.0);
        };
        let e_here = self.workload.energy_pj(next.layer, acc.id());
        let pref = self.workload.sum_energy_pj(next.layer) / e_here;
        let cost_switch = if acc.last_task() == Some(task.id()) {
            0.0
        } else {
            let config = self
                .platform
                .accelerator(acc.id())
                .expect("accelerator ids come from the platform");
            let sw = self
                .cost
                .switch_cost(
                    self.workload.input_bytes(next.layer),
                    acc.last_output_bytes(),
                    config,
                )
                .expect("the workload build already resolved switch factors for this accelerator");
            sw.energy_pj / e_here
        };
        (pref, cost_switch)
    }

    /// The accelerator-independent unit scores of `task`, computed once
    /// per task per decision (they walk the task's remaining-layer queue)
    /// and reused across every accelerator column by
    /// [`map_score_with`](Self::map_score_with).
    pub fn task_terms(&self, task: &Task) -> TaskTerms {
        TaskTerms {
            urgency: self.urgency(task),
            starvation: self.starvation(task),
        }
    }

    /// MapScore(tsk, acc) with the per-task terms already in hand — the
    /// allocation-free hot path: two table loads, at most one switch
    /// ratio, and three multiply-adds.
    pub fn map_score_with(
        &self,
        terms: TaskTerms,
        task: &Task,
        acc: &AccState,
        params: ScoreParams,
    ) -> MapScore {
        let lat_pref = self.latency_preference(task, acc.id());
        let (pref_energy, cost_switch) = self.energy_terms(task, acc);
        let energy = pref_energy - cost_switch;
        MapScore {
            value: terms.urgency * lat_pref
                + params.alpha() * terms.starvation
                + params.beta() * energy,
            breakdown: ScoreBreakdown {
                urgency: terms.urgency,
                lat_pref,
                starvation: terms.starvation,
                pref_energy,
                cost_switch,
                energy,
            },
        }
    }

    /// The full Algorithm 1: MapScore(tsk, acc) with weights `params`.
    pub fn map_score(&self, task: &Task, acc: &AccState, params: ScoreParams) -> MapScore {
        self.map_score_with(self.task_terms(task), task, acc, params)
    }

    /// [`map_score`](Self::map_score) recomputed entirely from scratch —
    /// every term walked through the raw tables and [`CostBackend`] with
    /// the pre-optimization operation sequence. The property tests assert
    /// this is bit-for-bit equal to the cached path across random
    /// layers, accelerators, and parameters.
    pub fn map_score_reference(
        &self,
        task: &Task,
        acc: &AccState,
        params: ScoreParams,
    ) -> MapScore {
        let urgency = self.urgency(task);
        let lat_pref = match task.next_layer() {
            Some(next) => {
                self.workload.sum_latency_ns(next.layer)
                    / self.workload.latency_ns(next.layer, acc.id())
            }
            None => 0.0,
        };
        let starvation = self.starvation(task);
        let (pref_energy, cost_switch) = self.energy_terms_reference(task, acc);
        let energy = pref_energy - cost_switch;
        MapScore {
            value: urgency * lat_pref + params.alpha() * starvation + params.beta() * energy,
            breakdown: ScoreBreakdown {
                urgency,
                lat_pref,
                starvation,
                pref_energy,
                cost_switch,
                energy,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_cost::PlatformPreset;
    use dream_models::{CascadeProbability, Scenario, ScenarioKind};
    use dream_sim::{Assignment, Decision, Millis, Scheduler, SimulationBuilder, SystemView};

    /// Captures a view mid-simulation so unit scores can be probed against
    /// live tasks.
    struct Probe {
        checked: bool,
    }

    impl Scheduler for Probe {
        fn name(&self) -> &str {
            "probe"
        }

        fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
            if !self.checked && view.task_count() >= 2 {
                self.checked = true;
                let ctx = ScoreContext::from_view(view, 1_000.0);
                let params = ScoreParams::neutral();
                for task in view.ready_tasks() {
                    // Urgency positive, finite.
                    let u = ctx.urgency(task);
                    assert!(u.is_finite() && u >= 0.0, "urgency {u}");
                    // Preference: sum over accs of 1/latpref-share = 1, so
                    // each latpref ≥ 1 and their reciprocals sum to 1.
                    let mut recip = 0.0;
                    for acc in view.accs() {
                        let lp = ctx.latency_preference(task, acc.id());
                        assert!(lp >= 1.0, "lat_pref {lp} < 1");
                        recip += 1.0 / lp;
                        let ms = ctx.map_score(task, acc, params);
                        assert!(ms.value.is_finite());
                        assert_eq!(
                            ms.breakdown.energy,
                            ms.breakdown.pref_energy - ms.breakdown.cost_switch
                        );
                    }
                    assert!((recip - 1.0).abs() < 1e-9, "recip sum {recip}");
                    // Starvation at release time is 0 and grows with time.
                    assert!(ctx.starvation(task) >= 0.0);
                }
            }
            // Greedy assignment to keep the simulation moving.
            let mut d = Decision::none();
            let mut idle: Vec<_> = view.idle_accs().map(|a| a.id()).collect();
            for t in view.ready_tasks() {
                let Some(acc) = idle.pop() else { break };
                d.assignments.push(Assignment::single(t.id(), acc));
            }
            d
        }
    }

    #[test]
    fn unit_scores_hold_invariants_on_live_tasks() {
        let platform = dream_cost::Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let scenario = Scenario::new(ScenarioKind::VrGaming, CascadeProbability::default_paper());
        let mut probe = Probe { checked: false };
        SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(200))
            .seed(3)
            .run(&mut probe)
            .unwrap();
        assert!(probe.checked, "the probe never saw two concurrent tasks");
    }

    /// A scheduler that records score structure for a heavy + light task
    /// pair to verify the starvation score favours waiting light layers.
    struct StarvationProbe {
        saw_growth: bool,
        last: f64,
    }

    impl Scheduler for StarvationProbe {
        fn name(&self) -> &str {
            "starv-probe"
        }

        fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
            let ctx = ScoreContext::from_view(view, 1_000.0);
            // Never schedule the KWS task; watch its starvation grow.
            let mut d = Decision::none();
            let mut idle: Vec<_> = view.idle_accs().map(|a| a.id()).collect();
            for t in view.ready_tasks() {
                let name = view.workload().node(t.key()).model_name();
                if name == "KWS_res8" {
                    let s = ctx.starvation(t);
                    if s > self.last && self.last > 0.0 {
                        self.saw_growth = true;
                    }
                    self.last = s;
                    continue;
                }
                let Some(acc) = idle.pop() else { break };
                d.assignments.push(Assignment::single(t.id(), acc));
            }
            d
        }
    }

    #[test]
    fn starvation_grows_while_a_task_waits() {
        let platform = dream_cost::Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let mut probe = StarvationProbe {
            saw_growth: false,
            last: 0.0,
        };
        SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(300))
            .seed(1)
            .run(&mut probe)
            .unwrap();
        assert!(probe.saw_growth);
    }

    /// Urgency must explode (but stay finite) when a task passes its
    /// deadline.
    struct OverdueProbe {
        seen_overdue: bool,
    }

    impl Scheduler for OverdueProbe {
        fn name(&self) -> &str {
            "overdue-probe"
        }

        fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
            let ctx = ScoreContext::from_view(view, 1_000.0);
            for t in view.ready_tasks() {
                if t.slack_ns(view.now()) < 0.0 {
                    let u = ctx.urgency(t);
                    assert!(u.is_finite() && u > 100.0, "overdue urgency {u}");
                    self.seen_overdue = true;
                }
            }
            // Deliberately idle: let deadlines pass.
            Decision::none()
        }
    }

    #[test]
    fn overdue_tasks_get_large_finite_urgency() {
        let platform = dream_cost::Platform::preset(PlatformPreset::Homo4kWs2);
        let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let mut probe = OverdueProbe {
            seen_overdue: false,
        };
        SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(200))
            .seed(1)
            .run(&mut probe)
            .unwrap();
        assert!(probe.seen_overdue);
    }

    #[test]
    fn energy_terms_penalize_context_switch() {
        // Construct two identical accelerators; run one layer of task A on
        // acc0; task B then pays a switch on acc0 but not on acc... (acc1
        // is also cold — last_output_bytes 0 — so the switch term is the
        // incoming fetch only). We verify cost_switch > 0 for a cold start
        // with non-zero input bytes, and that MapScore decreases in it.
        struct SwitchProbe {
            done: bool,
        }
        impl Scheduler for SwitchProbe {
            fn name(&self) -> &str {
                "switch-probe"
            }
            fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
                if !self.done {
                    if let Some(task) = view.ready_tasks().next() {
                        let ctx = ScoreContext::from_view(view, 1_000.0);
                        let acc = &view.accs()[0];
                        let (pref, sw) = ctx.energy_terms(task, acc);
                        assert!(pref > 0.0);
                        assert!(sw > 0.0, "cold fetch should cost energy");
                        let with = ctx.map_score(task, acc, ScoreParams::neutral());
                        assert!(with.breakdown.energy < pref);
                        self.done = true;
                    }
                }
                Decision::none()
            }
        }
        let platform = dream_cost::Platform::preset(PlatformPreset::Homo4kWs2);
        let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let mut probe = SwitchProbe { done: false };
        SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(80))
            .run(&mut probe)
            .unwrap();
        assert!(probe.done);
    }

    #[test]
    fn alpha_beta_scale_their_terms() {
        struct WeightProbe {
            done: bool,
        }
        impl Scheduler for WeightProbe {
            fn name(&self) -> &str {
                "weight-probe"
            }
            fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
                if !self.done {
                    if let Some(task) = view.ready_tasks().next() {
                        let ctx = ScoreContext::from_view(view, 1_000.0);
                        let acc = &view.accs()[0];
                        let zero = ctx
                            .map_score(task, acc, ScoreParams::new(0.0, 0.0).unwrap())
                            .value;
                        let b2 = ctx
                            .map_score(task, acc, ScoreParams::new(0.0, 2.0).unwrap())
                            .value;
                        let bd = ctx.map_score(task, acc, ScoreParams::neutral()).breakdown;
                        assert!((zero - bd.urgency * bd.lat_pref).abs() < 1e-9);
                        assert!((b2 - zero - 2.0 * bd.energy).abs() < 1e-9);
                        self.done = true;
                    }
                }
                Decision::none()
            }
        }
        let platform = dream_cost::Platform::preset(PlatformPreset::Homo4kWs2);
        let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let mut probe = WeightProbe { done: false };
        SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(80))
            .run(&mut probe)
            .unwrap();
        assert!(probe.done);
    }
}
