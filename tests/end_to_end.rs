//! Cross-crate integration tests: every scheduler × every scenario on real
//! platforms, exercising the full pipeline from model zoo to UXCost.

use dream::prelude::*;
use dream::sim::TaskEventKind;

fn platforms() -> [Platform; 2] {
    [
        Platform::preset(PlatformPreset::Hetero4kWs1Os2),
        Platform::preset(PlatformPreset::Homo8kOs2),
    ]
}

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(FcfsScheduler::new()),
        Box::new(StaticScheduler::new()),
        Box::new(EdfScheduler::new()),
        Box::new(VeltairScheduler::new()),
        Box::new(PlanariaScheduler::new()),
        Box::new(DreamScheduler::new(DreamConfig::mapscore())),
        Box::new(DreamScheduler::new(DreamConfig::smart_drop())),
        Box::new(DreamScheduler::new(DreamConfig::full())),
    ]
}

#[test]
fn every_scheduler_runs_every_scenario_cleanly() {
    for platform in platforms() {
        for kind in ScenarioKind::all() {
            for mut scheduler in schedulers() {
                let scenario = Scenario::new(kind, CascadeProbability::default());
                let metrics = SimulationBuilder::new(platform.clone(), scenario)
                    .duration(Millis::new(300))
                    .seed(5)
                    .run(scheduler.as_mut())
                    .unwrap()
                    .into_metrics();
                assert_eq!(
                    metrics.invalid_decisions,
                    0,
                    "{} produced invalid decisions on {kind}",
                    scheduler.name()
                );
                assert!(metrics.layer_executions > 0, "{kind} executed nothing");
            }
        }
    }
}

#[test]
fn simulations_are_bit_deterministic() {
    for _ in 0..2 {
        let run = || {
            let mut s = DreamScheduler::new(DreamConfig::full());
            let scenario = Scenario::vr_gaming(CascadeProbability::default());
            SimulationBuilder::new(Platform::preset(PlatformPreset::Hetero4kOs1Ws2), scenario)
                .duration(Millis::new(500))
                .seed(77)
                .run(&mut s)
                .unwrap()
                .into_metrics()
        };
        let a = run();
        let b = run();
        assert_eq!(a.layer_executions, b.layer_executions);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.context_switches, b.context_switches);
        let ea: f64 = a.models().map(|(_, s)| s.energy_pj).sum();
        let eb: f64 = b.models().map(|(_, s)| s.energy_pj).sum();
        assert_eq!(ea, eb, "energy must be bit-identical");
        assert_eq!(
            UxCostReport::from_metrics(&a).uxcost(),
            UxCostReport::from_metrics(&b).uxcost()
        );
    }
}

#[test]
fn workload_realization_is_scheduler_independent() {
    // The realized workload (which cascades fired, which blocks skipped)
    // must be identical under different schedulers with the same seed —
    // GNMT's released-frame count is a direct witness of cascade draws.
    let released_gnmt = |scheduler: &mut dyn Scheduler| {
        let scenario = Scenario::ar_call(CascadeProbability::default());
        let metrics = SimulationBuilder::new(Platform::preset(PlatformPreset::Homo4kWs2), scenario)
            .duration(Millis::new(1_000))
            .seed(9)
            .run(scheduler)
            .unwrap()
            .into_metrics();
        let released = metrics
            .models()
            .find(|(_, s)| s.model_name == "GNMT")
            .map(|(_, s)| s.released + s.censored)
            .unwrap();
        released
    };
    let mut fcfs = FcfsScheduler::new();
    let mut edf = EdfScheduler::new();
    let mut dream = DreamScheduler::new(DreamConfig::mapscore());
    let a = released_gnmt(&mut fcfs);
    let b = released_gnmt(&mut edf);
    let c = released_gnmt(&mut dream);
    assert_eq!(a, b);
    assert_eq!(b, c);
}

#[test]
fn frame_accounting_matches_fps_contracts() {
    let scenario = Scenario::drone_outdoor();
    let mut s = EdfScheduler::new();
    let metrics = SimulationBuilder::new(Platform::preset(PlatformPreset::Homo8kWs2), scenario)
        .duration(Millis::new(2_000))
        .seed(3)
        .run(&mut s)
        .unwrap()
        .into_metrics();
    for (_, stats) in metrics.models() {
        // Counted frames are those whose deadline lies inside the 2 s
        // horizon: fps·2s minus one boundary frame.
        let expected = (stats.fps * 2.0) as u64;
        assert!(
            stats.released + stats.censored >= expected - 1
                && stats.released + stats.censored <= expected + 1,
            "{}: released {} censored {} vs expected {expected}",
            stats.model_name,
            stats.released,
            stats.censored
        );
        // Outcome partition: everything released is on-time, late, dropped,
        // flushed, or still in flight at the horizon.
        assert!(
            stats.completed_on_time + stats.completed_late + stats.dropped <= stats.released,
            "{}: outcome counts exceed releases",
            stats.model_name
        );
    }
}

#[test]
fn dream_beats_naive_baselines_on_stressed_platform() {
    let uxcost = |scheduler: &mut dyn Scheduler| {
        let mut acc = 0.0;
        for seed in [21, 22] {
            let scenario = Scenario::ar_social(CascadeProbability::default());
            let metrics =
                SimulationBuilder::new(Platform::preset(PlatformPreset::Hetero4kOs1Ws2), scenario)
                    .duration(Millis::new(1_500))
                    .seed(seed)
                    .run(scheduler)
                    .unwrap()
                    .into_metrics();
            acc += UxCostReport::from_metrics(&metrics).uxcost() / 2.0;
        }
        acc
    };
    // Untuned DREAM (α = β = 1) against the weakest baselines; the tuned
    // comparisons against FCFS/Veltair/Planaria live in the Figure 7 bench
    // (per-cell offline tuning is too slow for a unit test, and the paper
    // itself reports that fixed parameters forfeit about half of DREAM's
    // advantage — Figure 9).
    let mut dream = DreamScheduler::new(DreamConfig::full());
    let mut statik = StaticScheduler::new();
    let mut veltair = VeltairScheduler::new();
    let d = uxcost(&mut dream);
    let st = uxcost(&mut statik);
    let v = uxcost(&mut veltair);
    assert!(d < st, "DREAM {d} should beat Static {st}");
    assert!(d < v, "DREAM {d} should beat Veltair {v}");
}

#[test]
fn phase_switch_flushes_and_notifies() {
    struct Watcher {
        inner: DreamScheduler,
        flushes: u64,
        phases: Vec<usize>,
    }
    impl Scheduler for Watcher {
        fn name(&self) -> &str {
            "watcher"
        }
        fn schedule(&mut self, view: &dream::sim::SystemView<'_>) -> dream::sim::Decision {
            self.inner.schedule(view)
        }
        fn schedule_into(
            &mut self,
            view: &dream::sim::SystemView<'_>,
            out: &mut dream::sim::Decision,
        ) {
            self.inner.schedule_into(view, out);
        }
        fn on_task_event(&mut self, event: &dream::sim::TaskEvent) {
            if matches!(event.kind, TaskEventKind::Flushed) {
                self.flushes += 1;
            }
            self.inner.on_task_event(event);
        }
        fn on_phase_start(&mut self, phase: usize, names: &[&'static str]) {
            self.phases.push(phase);
            self.inner.on_phase_start(phase, names);
        }
    }
    let mut w = Watcher {
        inner: DreamScheduler::new(DreamConfig::full()),
        flushes: 0,
        phases: Vec::new(),
    };
    let metrics = SimulationBuilder::new(
        Platform::preset(PlatformPreset::Hetero4kWs1Os2),
        Scenario::vr_gaming(CascadeProbability::default()),
    )
    .add_phase(
        Millis::new(400),
        Scenario::ar_call(CascadeProbability::default()),
    )
    .duration(Millis::new(800))
    .seed(13)
    .run(&mut w)
    .unwrap()
    .into_metrics();
    assert_eq!(w.phases, vec![0, 1]);
    // Phase-1 models ran.
    assert!(metrics
        .models()
        .any(|(k, s)| k.phase == 1 && s.completed_on_time > 0 && s.model_name == "SkipNet"));
    // In-flight VR work at the boundary was flushed (usually > 0; at
    // minimum the counter is consistent with metrics).
    let flushed_in_metrics: u64 = metrics.models().map(|(_, s)| s.flushed).sum();
    assert_eq!(w.flushes, flushed_in_metrics);
}

#[test]
fn eight_k_platforms_are_comfortable() {
    // Figure 8(c): with abundant resources every DREAM variant behaves the
    // same and violations vanish.
    for config in [DreamConfig::mapscore(), DreamConfig::full()] {
        let mut s = DreamScheduler::new(config);
        let metrics = SimulationBuilder::new(
            Platform::preset(PlatformPreset::Homo8kWs2),
            Scenario::drone_indoor(),
        )
        .duration(Millis::new(1_000))
        .seed(31)
        .run(&mut s)
        .unwrap()
        .into_metrics();
        assert!(
            metrics.mean_violation_rate() < 0.01,
            "8K should meet essentially all deadlines"
        );
        assert_eq!(s.total_drops(), 0);
    }
}
