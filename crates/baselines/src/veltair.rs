use std::collections::BTreeMap;

use dream_cost::AcceleratorId;
use dream_sim::{
    Assignment, Decision, Scheduler, SchedulerCapabilities, SimTime, SystemView, TaskEvent,
    TaskEventKind, TaskId,
};

/// Veltair-style scheduler (Liu et al., ASPLOS'22): adaptive threshold-based
/// **layer-block** scheduling.
///
/// Veltair observed that per-layer scheduling causes resource-allocation
/// conflicts while per-model scheduling wastes flexibility, and grouped
/// consecutive layers into blocks whose size adapts to the contention
/// level. We reproduce the scheduling policy on sub-accelerators:
///
/// * a task picks up a *block* of consecutive layers whose summed mean
///   latency reaches the adaptive threshold
///   `base_threshold · (1 + active_tasks / 4)` — more contention, larger
///   blocks, fewer conflicts;
/// * a block executes entirely on one accelerator; block starts are
///   deadline-ordered (Veltair serves latency-critical tenants first);
/// * accelerators are treated as interchangeable (the original targets a
///   homogeneous CPU cluster), so blocks go to the first idle accelerator
///   in round-robin order and energy is never considered.
#[derive(Debug)]
pub struct VeltairScheduler {
    base_threshold_ns: f64,
    /// Task → (accelerator owning its current block, layers left in block).
    blocks: BTreeMap<TaskId, (AcceleratorId, usize)>,
    rr_cursor: usize,
    /// Reusable idle list, continued-block list and EDF queue.
    idle: Vec<AcceleratorId>,
    continued: Vec<TaskId>,
    queue: Vec<(SimTime, TaskId)>,
}

impl VeltairScheduler {
    /// Creates the scheduler with the default 400 µs base block threshold.
    pub fn new() -> Self {
        Self::with_threshold_us(400)
    }

    /// Creates the scheduler with an explicit base block threshold.
    pub fn with_threshold_us(us: u64) -> Self {
        VeltairScheduler {
            base_threshold_ns: us as f64 * 1_000.0,
            blocks: BTreeMap::new(),
            rr_cursor: 0,
            idle: Vec::new(),
            continued: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// How many upcoming layers of `task` form the next block under the
    /// current adaptive threshold.
    // detlint: canonical-fold -- early-exit prefix scan in queue order; not a whole-collection sum, so canonical_sum cannot express it
    fn block_len(&self, view: &SystemView<'_>, task: &dream_sim::Task) -> usize {
        let threshold = self.base_threshold_ns * (1.0 + view.task_count() as f64 / 4.0);
        let mut acc = 0.0;
        let mut n = 0;
        for q in task.remaining() {
            acc += view.workload().avg_latency_ns(q.layer);
            n += 1;
            if acc >= threshold {
                break;
            }
        }
        n.max(1)
    }
}

impl Default for VeltairScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for VeltairScheduler {
    fn name(&self) -> &str {
        "Veltair"
    }

    fn capabilities(&self) -> SchedulerCapabilities {
        SchedulerCapabilities {
            cascade: true,
            concurrent: true,
            realtime: true,
            task_dynamicity: false,
            model_dynamicity: false,
            energy_aware: false,
            heterogeneity_aware: false,
        }
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let mut decision = Decision::none();
        self.schedule_into(view, &mut decision);
        decision
    }

    fn schedule_into(&mut self, view: &SystemView<'_>, decision: &mut Decision) {
        self.idle.clear();
        self.idle.extend_from_slice(view.idle_ids());

        // 1. Continue blocks in flight whose accelerator is free again.
        self.continued.clear();
        for (&task_id, &(acc, left)) in &self.blocks {
            if left == 0 {
                continue;
            }
            let Some(task) = view.task(task_id) else {
                continue;
            };
            if task.is_ready() && self.idle.contains(&acc) {
                decision.assignments.push(Assignment::single(task_id, acc));
                self.idle.retain(|&a| a != acc);
                self.continued.push(task_id);
            }
        }
        for t in &self.continued {
            if let Some(e) = self.blocks.get_mut(t) {
                e.1 -= 1;
            }
        }
        self.blocks.retain(|_, &mut (_, left)| left > 0);

        // 2. Start new blocks in EDF order on the remaining idle
        //    accelerators (round-robin). Ids are unique, so the EDF
        //    order is total.
        self.queue.clear();
        self.queue.extend(
            view.ready_tasks()
                .filter(|t| !self.blocks.contains_key(&t.id()))
                .filter(|t| !self.continued.contains(&t.id()))
                .map(|t| (t.deadline(), t.id())),
        );
        self.queue.sort_unstable();
        for &(_, id) in &self.queue {
            if self.idle.is_empty() {
                break;
            }
            let acc = self.idle.remove(self.rr_cursor % self.idle.len());
            self.rr_cursor = self.rr_cursor.wrapping_add(1);
            let task = view.task(id).expect("ready ids are live");
            let len = self.block_len(view, task);
            decision.assignments.push(Assignment::single(id, acc));
            if len > 1 {
                self.blocks.insert(id, (acc, len - 1));
            }
        }
    }

    fn on_task_event(&mut self, event: &TaskEvent) {
        match event.kind {
            TaskEventKind::Completed { .. } | TaskEventKind::Dropped | TaskEventKind::Flushed => {
                self.blocks.remove(&event.task);
            }
            TaskEventKind::Released => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_cost::{Platform, PlatformPreset};
    use dream_models::{CascadeProbability, Scenario, ScenarioKind};
    use dream_sim::{Millis, SimulationBuilder};

    fn run(kind: ScenarioKind, ms: u64) -> dream_sim::Metrics {
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let scenario = Scenario::new(kind, CascadeProbability::default_paper());
        let mut s = VeltairScheduler::new();
        SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(ms))
            .seed(5)
            .run(&mut s)
            .unwrap()
            .into_metrics()
    }

    #[test]
    fn veltair_runs_all_scenarios() {
        for kind in ScenarioKind::all() {
            let m = run(kind, 400);
            assert_eq!(m.invalid_decisions, 0, "{kind}");
            assert!(m.layer_executions > 0, "{kind}");
        }
    }

    #[test]
    fn larger_blocks_reduce_context_switches() {
        let run_with = |us: u64| {
            let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
            let scenario =
                Scenario::new(ScenarioKind::ArSocial, CascadeProbability::default_paper());
            let mut s = VeltairScheduler::with_threshold_us(us);
            SimulationBuilder::new(platform, scenario)
                .duration(Millis::new(800))
                .seed(5)
                .run(&mut s)
                .unwrap()
                .into_metrics()
        };
        let tiny = run_with(1); // degenerates to per-layer scheduling
        let blocked = run_with(400);
        assert!(
            blocked.context_switches < tiny.context_switches,
            "blocked {} vs per-layer {}",
            blocked.context_switches,
            tiny.context_switches
        );
    }

    #[test]
    fn block_threshold_is_configurable() {
        let a = VeltairScheduler::with_threshold_us(100);
        let b = VeltairScheduler::with_threshold_us(1_000);
        assert!(a.base_threshold_ns < b.base_threshold_ns);
    }
}
