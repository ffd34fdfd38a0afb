//! Spans the benchmark wraps around calls into the scheduler layer.
//!
//! [`Timed`] delegates every [`Scheduler`] method to the wrapped policy
//! and times `schedule` and `on_task_event` with one `Instant` pair each.
//! It never touches the view or the decision beyond reading them, so a
//! wrapped run makes the same decisions as an unwrapped one (the
//! `wrapper` test and the benchmark's own fingerprint check prove it).
//! [`span_cost`] measures what an empty span costs, so self times can be
//! corrected for the probe.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dream_baselines::{FcfsScheduler, PlanariaScheduler, VeltairScheduler};
use dream_core::{DreamScheduler, StageTimings};
use dream_sim::{
    Decision, DecisionRecord, Scheduler, SchedulerCapabilities, SystemView, TaskEvent,
};

/// A scheduler the wrapper can time. DREAM also reports its own
/// per-stage split (score build, matching, other) when asked to record
/// it; the baselines have none.
pub trait Timeable: Scheduler {
    /// The policy's per-stage wall-clock split, if it records one.
    fn stage_timings(&self) -> Option<StageTimings> {
        None
    }
}

impl Timeable for FcfsScheduler {}
impl Timeable for VeltairScheduler {}
impl Timeable for PlanariaScheduler {}

impl Timeable for DreamScheduler {
    fn stage_timings(&self) -> Option<StageTimings> {
        DreamScheduler::stage_timings(self)
    }
}

/// What the wrapper saw across one or more runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// `schedule` calls.
    pub decisions: u64,
    /// Wall time inside `schedule`, span overhead included.
    pub decision_ns: u64,
    /// Decisions that assigned no layer.
    pub empty: u64,
    /// Ready tasks summed over decisions.
    pub ready_sum: u64,
    /// `on_task_event` calls.
    pub task_events: u64,
    /// Wall time inside `on_task_event`, span overhead included.
    pub task_event_ns: u64,
    /// Frames the decisions dropped.
    pub drops: u64,
    /// Supernet variant switches the decisions issued.
    pub switches: u64,
    /// DREAM's own stage split, when recorded.
    pub stages: Option<StageTimings>,
}

impl SchedStats {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &SchedStats) {
        self.decisions += other.decisions;
        self.decision_ns += other.decision_ns;
        self.empty += other.empty;
        self.ready_sum += other.ready_sum;
        self.task_events += other.task_events;
        self.task_event_ns += other.task_event_ns;
        self.drops += other.drops;
        self.switches += other.switches;
        if let Some(s) = other.stages {
            let t = self.stages.get_or_insert_with(StageTimings::default);
            t.invocations += s.invocations;
            t.score_build_ns += s.score_build_ns;
            t.matching_ns += s.matching_ns;
            t.other_ns += s.other_ns;
        }
    }

    /// Spans recorded (decisions plus task events).
    pub fn spans(&self) -> u64 {
        self.decisions + self.task_events
    }

    /// Wall time inside the scheduler, span overhead included.
    pub fn span_ns(&self) -> u64 {
        self.decision_ns + self.task_event_ns
    }
}

/// The timing wrapper. Owned directly for batch runs; a live session
/// owns its scheduler, so [`Timed::publishing`] merges the stats into a
/// shared sink when the session drops it.
pub struct Timed {
    inner: Box<dyn Timeable>,
    stats: SchedStats,
    sink: Option<Arc<Mutex<SchedStats>>>,
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Timeable>) -> Self {
        Timed {
            inner,
            stats: SchedStats::default(),
            sink: None,
        }
    }

    /// Wraps `inner` and merges its stats into `sink` when dropped.
    pub fn publishing(inner: Box<dyn Timeable>, sink: Arc<Mutex<SchedStats>>) -> Self {
        Timed {
            inner,
            stats: SchedStats::default(),
            sink: Some(sink),
        }
    }

    /// The stats so far, with the inner policy's stage split.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            stages: self.inner.stage_timings(),
            ..self.stats
        }
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> SchedulerCapabilities {
        self.inner.capabilities()
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let ready = view.ready_count() as u64;
        let t0 = Instant::now();
        let decision = self.inner.schedule(view);
        let ns = t0.elapsed().as_nanos() as u64;
        let s = &mut self.stats;
        s.decisions += 1;
        s.decision_ns += ns;
        s.ready_sum += ready;
        s.empty += u64::from(decision.assignments.is_empty());
        s.drops += decision.drops.len() as u64;
        s.switches += decision.variant_switches.len() as u64;
        decision
    }

    fn on_task_event(&mut self, event: &TaskEvent) {
        let t0 = Instant::now();
        self.inner.on_task_event(event);
        self.stats.task_event_ns += t0.elapsed().as_nanos() as u64;
        self.stats.task_events += 1;
    }

    fn on_phase_start(&mut self, phase: usize, model_names: &[&'static str]) {
        self.inner.on_phase_start(phase, model_names);
    }

    fn take_decision_records(&mut self) -> Vec<DecisionRecord> {
        self.inner.take_decision_records()
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            let stats = self.stats();
            // A poisoned sink means the reader already panicked; there is
            // nothing useful to publish to.
            if let Ok(mut shared) = sink.lock() {
                shared.merge(&stats);
            }
        }
    }
}

/// What an empty span costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// Mean duration an empty span reports, ns.
    pub measured_ns: f64,
    /// Mean wall time one empty span adds to the run, ns.
    pub wall_ns: f64,
}

impl SpanCost {
    /// Measures empty spans: the median of five loops of 100k spans.
    pub fn measure() -> SpanCost {
        const SPANS: u32 = 100_000;
        let mut samples: Vec<SpanCost> = (0..5)
            .map(|_| {
                let mut total = 0u64;
                let start = Instant::now();
                for _ in 0..SPANS {
                    let t0 = Instant::now();
                    black_box(());
                    total += black_box(t0.elapsed().as_nanos() as u64);
                }
                let wall = start.elapsed().as_nanos() as f64;
                SpanCost {
                    measured_ns: total as f64 / f64::from(SPANS),
                    wall_ns: wall / f64::from(SPANS),
                }
            })
            .collect();
        samples.sort_by(|a, b| a.wall_ns.total_cmp(&b.wall_ns));
        samples[samples.len() / 2]
    }

    /// Scheduler self time per decision, corrected for the span.
    pub fn per_decision_ns(&self, stats: &SchedStats) -> f64 {
        if stats.decisions == 0 {
            return 0.0;
        }
        (stats.decision_ns as f64 / stats.decisions as f64 - self.measured_ns).max(0.0)
    }

    /// Task-event self time per event, corrected for the span.
    pub fn per_task_event_ns(&self, stats: &SchedStats) -> f64 {
        if stats.task_events == 0 {
            return 0.0;
        }
        (stats.task_event_ns as f64 / stats.task_events as f64 - self.measured_ns).max(0.0)
    }

    /// Engine self time out of `wall_ns` of stepping that enclosed the
    /// scheduler spans in `stats`: the wall time minus what the spans
    /// measured, minus the part of each span's cost they did not measure.
    pub fn engine_self_ns(&self, wall_ns: f64, stats: &SchedStats) -> f64 {
        let spans = stats.spans() as f64;
        (wall_ns - stats.span_ns() as f64 - spans * (self.wall_ns - self.measured_ns)).max(0.0)
    }
}
