//! Planaria memoises each multi-member gang's per-layer latency for the
//! length of a run. These tests pin what the memo must not change: a
//! scheduler reused across runs decides exactly like a fresh one, a cost
//! backend that cannot cost a gang still leaves Planaria on one
//! accelerator, and a live hot-swap (which appends layers) is served
//! without a panic and replays bit-identically.

use std::sync::Arc;

use dream::prelude::*;
use dream_baselines::PlanariaScheduler;
use dream_cost::{CostBackend, TableBackend};
use dream_models::{NodeId, PipelineId, ScenarioKind};
use dream_sim::live::DEFAULT_HORIZON_CAP_NS;
use dream_sim::{Decision, Scheduler, SystemView, TaskEvent};

const HORIZON_MS: u64 = 400;
const PRESET: PlatformPreset = PlatformPreset::Hetero4kWs1Os2;

fn builder(kind: ScenarioKind) -> SimulationBuilder {
    let scenario = Scenario::new(kind, CascadeProbability::default_paper());
    SimulationBuilder::new(Platform::preset(PRESET), scenario).duration(Millis::new(HORIZON_MS))
}

fn fingerprint(b: SimulationBuilder, sched: &mut dyn Scheduler) -> u64 {
    b.run(sched)
        .expect("simulation runs")
        .into_metrics()
        .fingerprint()
}

/// A memo that outlived its run would hand the next run latencies of
/// another workload's layers (ids are per-workload) or of another
/// backend's costing.
#[test]
fn reused_scheduler_matches_fresh_ones_across_scenarios() {
    let mut reused = PlanariaScheduler::new();
    for round in 0..2 {
        for kind in ScenarioKind::all() {
            let seed = 3 + round;
            let fresh = fingerprint(builder(kind).seed(seed), &mut PlanariaScheduler::new());
            let again = fingerprint(builder(kind).seed(seed), &mut reused);
            assert_eq!(
                fresh, again,
                "{kind} seed {seed}: a reused Planaria decided differently from a fresh one"
            );
        }
    }
}

/// A reused scheduler must also forget a backend between runs: the same
/// scenario under the analytical model, then under a gang-less table.
#[test]
fn reused_scheduler_forgets_the_previous_backend() {
    let kind = ScenarioKind::DroneIndoor;
    let table = gangless_table_for(kind);
    let mut reused = PlanariaScheduler::new();
    fingerprint(builder(kind).seed(1), &mut reused);
    let after = fingerprint(
        builder(kind).seed(1).cost_backend(Arc::clone(&table)),
        &mut reused,
    );
    let fresh = fingerprint(
        builder(kind).seed(1).cost_backend(table),
        &mut PlanariaScheduler::new(),
    );
    assert_eq!(after, fresh);
}

/// The table export of the analytical model for `kind`'s layers, with
/// every gang row stripped: the backend can cost single accelerators
/// only.
fn gangless_table_for(kind: ScenarioKind) -> Arc<dyn CostBackend> {
    let ws = builder(kind).build_workload().expect("workload builds");
    let table = TableBackend::derive(
        "gangless",
        &CostModel::paper_default(),
        &Platform::preset(PRESET),
        ws.layers(),
    )
    .expect("analytical backend exports cleanly");
    let csv: String = table
        .to_csv_string()
        .lines()
        .filter(|line| !line.starts_with("gang,"))
        .flat_map(|line| [line, "\n"])
        .collect();
    let gangless = TableBackend::from_csv_str(&csv).expect("a gang-less table loads");
    assert_eq!(gangless.gang_entry_count(), 0);
    Arc::new(gangless)
}

/// Wraps a scheduler and records the widest gang it ever assigned.
struct WidestGang<S> {
    inner: S,
    widest: usize,
}

impl<S: Scheduler> Scheduler for WidestGang<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let mut decision = Decision::none();
        self.schedule_into(view, &mut decision);
        decision
    }

    fn schedule_into(&mut self, view: &SystemView<'_>, out: &mut Decision) {
        self.inner.schedule_into(view, out);
        for a in &out.assignments {
            self.widest = self.widest.max(a.accs.len());
        }
    }

    fn on_task_event(&mut self, event: &TaskEvent) {
        self.inner.on_task_event(event);
    }

    fn on_phase_start(&mut self, phase: usize, names: &[&'static str]) {
        self.inner.on_phase_start(phase, names);
    }
}

#[test]
fn gangless_table_falls_back_to_one_accelerator() {
    let kind = ScenarioKind::DroneIndoor;
    let mut analytical = WidestGang {
        inner: PlanariaScheduler::new(),
        widest: 0,
    };
    let m = builder(kind).seed(2).run(&mut analytical).unwrap();
    assert!(
        analytical.widest > 1,
        "the analytical run must form gangs for this test to mean anything"
    );
    assert_eq!(m.metrics().invalid_decisions, 0);

    let mut gangless = WidestGang {
        inner: PlanariaScheduler::new(),
        widest: 0,
    };
    let m = builder(kind)
        .seed(2)
        .cost_backend(gangless_table_for(kind))
        .run(&mut gangless)
        .unwrap();
    assert_eq!(gangless.widest, 1, "no gang row, so no gang");
    assert_eq!(m.metrics().invalid_decisions, 0);
    assert!(m.metrics().layer_executions > 0);
}

/// Admits every root of `phase` at its nominal frame rate over
/// `[from, until)`, stepping the session as it goes.
fn admit_periodic(s: &mut LiveSession, phase: usize, from: SimTime, until: SimTime) {
    let mut frames: Vec<(SimTime, PipelineId, NodeId)> = Vec::new();
    for n in s.workload().nodes() {
        if n.key().phase != phase || n.parent().is_some() {
            continue;
        }
        let mut at = from;
        while at < until {
            frames.push((at, n.key().pipeline, n.key().node));
            at += n.period();
        }
    }
    frames.sort();
    for (i, &(at, pipeline, node)) in frames.iter().enumerate() {
        s.apply(SessionInput::Admit { pipeline, node, at }).unwrap();
        if i % 16 == 0 {
            s.step_until(at);
        }
    }
}

/// A hot-swap appends the new scenario's layers to the workload, so the
/// layer ids Planaria sees grow mid-run; the memo must grow with them.
/// Both scenarios form gangs at nominal load.
#[test]
fn live_hot_swap_grows_the_gang_table() {
    let scenario = |kind| Scenario::new(kind, CascadeProbability::default_paper());
    let mut s = SimulationBuilder::new(Platform::preset(PRESET), scenario(ScenarioKind::ArSocial))
        .duration(SimTime::from_ns(DEFAULT_HORIZON_CAP_NS))
        .seed(9)
        .start_live(Box::new(PlanariaScheduler::new()))
        .unwrap();
    let layers_before = s.workload().layer_count();
    let ms = |v| SimTime::from(Millis::new(v));
    admit_periodic(&mut s, 0, SimTime::ZERO, ms(200));
    s.step_until(ms(200));
    let swap = SessionInput::Swap {
        at: s.next_stamp(),
        scenario: Box::new(scenario(ScenarioKind::DroneOutdoor)),
    };
    let boundary = s.apply(swap).unwrap().at;
    assert!(s.workload().layer_count() > layers_before);
    admit_periodic(&mut s, 1, boundary, boundary + ms(200));
    let (live, record) = s.finish().unwrap();
    assert!(live.metrics().layer_executions > 0);
    let batch = record.replay(&mut PlanariaScheduler::new()).unwrap();
    assert_eq!(
        live.metrics().fingerprint(),
        batch.metrics().fingerprint(),
        "a hot-swapped Planaria session must replay bit-identically"
    );
}
