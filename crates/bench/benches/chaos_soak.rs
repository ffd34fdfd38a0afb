//! Chaos soak: a fleet of live sessions driven under seeded fault
//! storms, proving graceful degradation at scale.
//!
//! 64 full-scheduler sessions are stepped round-robin on one shard
//! ([`dream_sim::MultiSession`]), each fed its root pipelines at their
//! native periods while a per-session [`FaultPlan::storm`] injects
//! stalls, slowdowns, and permanent failures *through the live
//! `LiveSession::apply` seam* as `SessionInput::Fault`s (the same path
//! the serve runtime's `fault` wire command takes). The acceptance bar:
//!
//! * **no panics** — the fleet survives every storm, including sessions
//!   whose accelerators all die;
//! * **bounded backlog** — the shared event queue never balloons;
//! * **bit-identical replay** — every session's record, storms and all,
//!   replays through the batch `FaultPlan` path to the same fingerprint;
//! * **degradation is measured** — `deadline_miss_under_faults`
//!   (fingerprint-excluded) is reported for DREAM vs the baselines on
//!   identical storms.

// Benchmarks measure wall time by definition; exempt from the
// workspace determinism lint on wall-clock reads.
#![allow(clippy::disallowed_methods)]
use std::time::Instant;

use dream_baselines::{FcfsScheduler, PlanariaScheduler};
use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_sim::{
    FaultEvent, FaultPlan, LiveError, Millis, Scheduler, SessionInput, SimTime, SimulationBuilder,
    StormConfig,
};

const SESSIONS: usize = 64;
const HORIZON_MS: u64 = 200;
const SEED_BASE: u64 = 9_000;
const MAX_EVENT_BACKLOG: usize = 200_000;

/// The per-session storm, time-sorted for incremental live admission
/// (the generator emits per-accelerator timelines).
fn storm_for(session: usize, accs: usize, horizon: SimTime) -> Vec<FaultEvent> {
    let plan = FaultPlan::storm(
        SEED_BASE + session as u64,
        accs,
        horizon,
        StormConfig::default(),
    );
    let mut events = plan.events().to_vec();
    events.sort_by_key(|e| (e.at, e.acc.0));
    events
}

struct FleetOutcome {
    misses_under_faults: u64,
    faults_injected: u64,
    fault_requeues: u64,
    max_backlog: usize,
    wall_s: f64,
}

/// Drives the whole fleet under storms with `make` schedulers, verifies
/// bit-identical replay of every record, and returns the degradation
/// counters.
fn run_fleet(name: &str, make: &dyn Fn(usize) -> Box<dyn Scheduler>) -> FleetOutcome {
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let accs = platform.len();
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let horizon = SimTime::from(Millis::new(HORIZON_MS));
    let start = Instant::now();
    let mut multi = SimulationBuilder::new(platform, scenario)
        .seed(SEED_BASE)
        .duration(SimTime::from(Millis::new(HORIZON_MS + 100)))
        .start_multi(SESSIONS, make)
        .expect("chaos soak config is valid");
    let roots: Vec<(dream_sim::ModelKey, u64)> = multi
        .workload()
        .nodes()
        .filter(|n| n.key().phase == 0 && n.parent().is_none())
        .map(|n| (n.key(), n.period().as_ns()))
        .collect();
    let storms: Vec<Vec<FaultEvent>> = (0..SESSIONS).map(|s| storm_for(s, accs, horizon)).collect();
    let mut next_fault = vec![0usize; SESSIONS];
    let mut next_arrival: Vec<Vec<u64>> = (0..SESSIONS)
        .map(|s| vec![s as u64 * 1_000; roots.len()])
        .collect();

    let slice = SimTime::from(Millis::new(10));
    let mut frontier = SimTime::ZERO;
    let mut max_backlog = 0usize;
    while frontier < horizon {
        let end = (frontier + slice).min(horizon);
        for s in 0..SESSIONS {
            for (r, stamp) in next_arrival[s].iter_mut().enumerate() {
                let (key, period) = roots[r];
                while *stamp < end.as_ns() {
                    let admit = SessionInput::Admit {
                        pipeline: key.pipeline,
                        node: key.node,
                        at: SimTime::from_ns(*stamp),
                    };
                    multi
                        .session_mut(s)
                        .apply(admit)
                        .expect("soak admission is valid");
                    *stamp += period;
                }
            }
            // Inject this slice's storm window through the live seam.
            while next_fault[s] < storms[s].len() && storms[s][next_fault[s]].at < end {
                let fault = SessionInput::Fault(Box::new(storms[s][next_fault[s]]));
                match multi.session_mut(s).apply(fault) {
                    Ok(_) | Err(LiveError::PastHorizon { .. }) => {}
                    Err(e) => panic!("fault admission failed: {e}"),
                }
                next_fault[s] += 1;
            }
        }
        multi.step_until(end);
        max_backlog = max_backlog.max(multi.event_queue_depth());
        frontier = end;
    }
    let outcomes = multi.finish().expect("chaos soak sessions finish");
    let wall_s = start.elapsed().as_secs_f64();

    // Every faulted record must replay bit-identically through the
    // batch FaultPlan path.
    for (i, (outcome, record)) in outcomes.iter().enumerate() {
        let mut fresh = make(i);
        let batch = record
            .replay(fresh.as_mut())
            .expect("faulted record replays");
        assert_eq!(
            outcome.metrics().fingerprint(),
            batch.metrics().fingerprint(),
            "{name} session {i} must replay bit-identically under its storm"
        );
        assert_eq!(outcome.final_time(), batch.final_time());
    }

    FleetOutcome {
        misses_under_faults: outcomes
            .iter()
            .map(|(o, _)| o.metrics().deadline_miss_under_faults)
            .sum(),
        faults_injected: outcomes
            .iter()
            .map(|(o, _)| o.metrics().faults_injected)
            .sum(),
        fault_requeues: outcomes
            .iter()
            .map(|(o, _)| o.metrics().fault_requeues)
            .sum(),
        max_backlog,
        wall_s,
    }
}

type MakeScheduler = Box<dyn Fn(usize) -> Box<dyn Scheduler>>;

fn main() {
    let fleets: Vec<(&str, MakeScheduler)> = vec![
        (
            "DREAM",
            Box::new(|_| Box::new(DreamScheduler::new(DreamConfig::full())) as Box<dyn Scheduler>),
        ),
        (
            "FCFS",
            Box::new(|_| Box::new(FcfsScheduler::new()) as Box<dyn Scheduler>),
        ),
        (
            "Planaria",
            Box::new(|_| Box::new(PlanariaScheduler::new()) as Box<dyn Scheduler>),
        ),
    ];

    println!(
        "chaos soak: {SESSIONS} sessions × {HORIZON_MS} ms, seeded storms \
         (seed base {SEED_BASE}), identical faults per scheduler"
    );
    for (name, make) in &fleets {
        let fleet = run_fleet(name, make.as_ref());
        println!(
            "  {name:>8}: {} faults injected, {} requeues, \
             deadline_miss_under_faults {}, max event backlog {}, {:.2} s wall",
            fleet.faults_injected,
            fleet.fault_requeues,
            fleet.misses_under_faults,
            fleet.max_backlog,
            fleet.wall_s,
        );
        assert!(
            fleet.faults_injected > 0,
            "{name}: storms must actually inject faults"
        );
        assert!(
            fleet.max_backlog <= MAX_EVENT_BACKLOG,
            "{name}: event backlog must stay bounded under chaos \
             ({} > {MAX_EVENT_BACKLOG})",
            fleet.max_backlog
        );
    }
    println!(
        "chaos_soak ok: no panics, backlog bounded, every session replayed \
         bit-identically under its storm"
    );
}
