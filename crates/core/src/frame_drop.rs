use std::collections::BTreeMap;
use std::collections::VecDeque;

use dream_sim::{ModelKey, SystemView, Task, TaskId};

/// The outcome of a frame-drop evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropDecision {
    /// The victim task.
    pub task: TaskId,
    /// Its `minimum_to_go / slack` ratio (the selection key — highest
    /// among all candidates).
    pub ratio: f64,
}

/// The smart frame drop engine (§4.2.1).
///
/// A frame is dropped only when **all four** conditions hold:
///
/// 1. *Deadline-violation likelihood*: its best-case remaining time
///    (`minimum_to_go`: every certain layer on its best accelerator, no
///    context switches) already exceeds its slack.
/// 2. *Multi-model violation*: at least one **other** active job is also
///    expected to violate — dropping is pointless when nobody else
///    benefits.
/// 3. *Dependency-free*: only models at the end of their cascade chain may
///    be dropped (dropping a parent would implicitly drop its children).
/// 4. *Rate cap*: at most `max_drops` drops over the last `window` released
///    frames of that model (default 2-in-10 = the paper's 20% cap).
///
/// Among all candidates the engine picks the one with the largest
/// `minimum_to_go / slack`, i.e. the most hopeless frame.
///
/// The evaluation screens tasks with a bound fixed offline per variant
/// plan ([`Task::min_to_go_bound_ns`], never below `minimum_to_go`): a
/// task whose bound is within its slack cannot meet Condition 1, so its
/// `minimum_to_go` is not read. With fewer than two live tasks Condition
/// 2 cannot hold, so nothing is read.
/// The screen is not a fifth condition: it skips only tasks the four
/// conditions would reject, and the violator count and the victim are
/// exactly the unscreened walk's.
#[derive(Debug, Clone)]
pub struct FrameDropEngine {
    window: u64,
    max_drops: usize,
    slack_floor_ns: f64,
    /// Per model: total frames released so far.
    releases: BTreeMap<ModelKey, u64>,
    /// Per model: release counters at which past drops happened (pruned as
    /// they age out of the window).
    drops: BTreeMap<ModelKey, VecDeque<u64>>,
    total_drops: u64,
}

impl FrameDropEngine {
    /// Creates an engine with the given rate cap.
    pub fn new(window: usize, max_drops: usize, slack_floor_ns: f64) -> Self {
        FrameDropEngine {
            window: window.max(1) as u64,
            max_drops,
            slack_floor_ns: slack_floor_ns.max(1.0),
            releases: BTreeMap::new(),
            drops: BTreeMap::new(),
            total_drops: 0,
        }
    }

    /// Records a released frame for `key` (drives the rate-cap window).
    pub fn on_released(&mut self, key: ModelKey) {
        *self.releases.entry(key).or_insert(0) += 1;
    }

    /// Whether `key` still has drop budget in its current window.
    pub fn budget_available(&self, key: ModelKey) -> bool {
        let released = self.releases.get(&key).copied().unwrap_or(0);
        let in_window = self
            .drops
            .get(&key)
            .map(|d| {
                d.iter()
                    .filter(|&&at| released.saturating_sub(at) < self.window)
                    .count()
            })
            .unwrap_or(0);
        in_window < self.max_drops
    }

    /// Records an executed drop for `key`.
    pub fn record_drop(&mut self, key: ModelKey) {
        let released = self.releases.get(&key).copied().unwrap_or(0);
        let d = self.drops.entry(key).or_default();
        d.push_back(released);
        while let Some(&front) = d.front() {
            if released.saturating_sub(front) >= self.window {
                d.pop_front();
            } else {
                break;
            }
        }
        self.total_drops += 1;
    }

    /// Total drops executed.
    pub fn total_drops(&self) -> u64 {
        self.total_drops
    }

    /// The screen: a task whose bound is within its slack has
    /// `minimum_to_go <= bound <= slack`, so it is no violator.
    #[inline]
    pub(crate) fn screens_out(task: &Task, slack: f64) -> bool {
        task.min_to_go_bound_ns() <= slack
    }

    /// Evaluates the four conditions against the current system state and
    /// returns the victim, if any. At most one frame is dropped per
    /// scheduling invocation (the paper drops "the frame with the highest
    /// ratio … if exists").
    pub fn evaluate(&self, view: &SystemView<'_>) -> Option<DropDecision> {
        // Condition 2 needs two violators among the live tasks.
        if view.task_count() < 2 {
            return None;
        }
        // Condition 1 applied over *all* active jobs to find expected
        // violators (Condition 2 needs them too).
        let mut violators = 0usize;
        let mut best: Option<DropDecision> = None;
        for task in view.tasks() {
            let slack = task.slack_ns(view.now());
            if Self::screens_out(task, slack) {
                continue;
            }
            let min_to_go = task.min_to_go_ns(view.workload());
            let is_violator = min_to_go > slack;
            if !is_violator {
                continue;
            }
            violators += 1;
            // Candidate filtering: ready (the engine cannot abort a
            // running layer), leaf model (Condition 3), budget (Condition
            // 4).
            if !task.is_ready() {
                continue;
            }
            debug_assert_eq!(
                view.workload().model_index(task.key()),
                Some(task.model_index())
            );
            let node = view.workload().node_at(task.model_index());
            if !node.is_leaf() {
                continue;
            }
            if !self.budget_available(task.key()) {
                continue;
            }
            let ratio = min_to_go / slack.max(self.slack_floor_ns);
            if best.map(|b| ratio > b.ratio).unwrap_or(true) {
                best = Some(DropDecision {
                    task: task.id(),
                    ratio,
                });
            }
        }
        // Condition 2: more than one active job expected to violate.
        if violators < 2 {
            return None;
        }
        best
    }
}

#[cfg(test)]
impl FrameDropEngine {
    /// The reference walk [`evaluate`](Self::evaluate) must equal: Condition 1
    /// read from every live task's `minimum_to_go`, unscreened.
    pub(crate) fn evaluate_unscreened(&self, view: &SystemView<'_>) -> Option<DropDecision> {
        let mut violators = 0usize;
        let mut best: Option<DropDecision> = None;
        for task in view.tasks() {
            let slack = task.slack_ns(view.now());
            let min_to_go = task.min_to_go_ns(view.workload());
            let is_violator = min_to_go > slack;
            if !is_violator {
                continue;
            }
            violators += 1;
            if !task.is_ready()
                || !view.workload().node_at(task.model_index()).is_leaf()
                || !self.budget_available(task.key())
            {
                continue;
            }
            let ratio = min_to_go / slack.max(self.slack_floor_ns);
            if best.map(|b| ratio > b.ratio).unwrap_or(true) {
                best = Some(DropDecision {
                    task: task.id(),
                    ratio,
                });
            }
        }
        if violators < 2 {
            return None;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_models::{NodeId, PipelineId};

    fn key(n: usize) -> ModelKey {
        ModelKey {
            phase: 0,
            pipeline: PipelineId(0),
            node: NodeId(n),
        }
    }

    #[test]
    fn budget_caps_drops_per_window() {
        let mut e = FrameDropEngine::new(10, 2, 1_000.0);
        let k = key(0);
        for _ in 0..10 {
            e.on_released(k);
        }
        assert!(e.budget_available(k));
        e.record_drop(k);
        assert!(e.budget_available(k));
        e.record_drop(k);
        assert!(!e.budget_available(k), "2 drops in 10 frames exhausts");
        // Ten more releases age the drops out.
        for _ in 0..10 {
            e.on_released(k);
        }
        assert!(e.budget_available(k));
        assert_eq!(e.total_drops(), 2);
    }

    #[test]
    fn budget_is_per_model() {
        let mut e = FrameDropEngine::new(10, 1, 1_000.0);
        e.on_released(key(0));
        e.on_released(key(1));
        e.record_drop(key(0));
        assert!(!e.budget_available(key(0)));
        assert!(e.budget_available(key(1)));
    }

    #[test]
    fn fresh_model_has_budget() {
        let e = FrameDropEngine::new(10, 2, 1_000.0);
        assert!(e.budget_available(key(7)));
    }
}
