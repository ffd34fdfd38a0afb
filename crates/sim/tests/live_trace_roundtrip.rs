//! Live-session trace round trips: a session's recorded `ArrivalTrace`
//! survives CSV serialization — record → save → load → replay is
//! bit-identical to replaying the in-memory trace (and to the live run
//! itself) — including arrivals that land exactly on phase-boundary,
//! drain, and horizon instants.

use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_sim::live::DEFAULT_HORIZON_CAP_NS;
use dream_sim::{
    Applied, ArrivalTrace, Assignment, Decision, LiveError, LiveSession, ModelKey, Scheduler,
    SessionInput, SimTime, SimulationBuilder, SystemView,
};

#[derive(Default)]
struct Greedy;
impl Scheduler for Greedy {
    fn name(&self) -> &str {
        "greedy"
    }
    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let mut d = Decision::none();
        let mut ready: Vec<_> = view.ready_tasks().collect();
        ready.sort_by_key(|t| (t.deadline(), t.id()));
        let mut idle: Vec<_> = view.idle_accs().map(|a| a.id()).collect();
        for t in ready {
            let Some(acc) = idle.pop() else { break };
            d.assignments.push(Assignment::single(t.id(), acc));
        }
        d
    }
}

fn scenario(kind: ScenarioKind) -> Scenario {
    Scenario::new(kind, CascadeProbability::default_paper())
}

fn admit(s: &mut LiveSession, k: ModelKey, at: SimTime) -> Result<Applied, LiveError> {
    s.apply(SessionInput::Admit {
        pipeline: k.pipeline,
        node: k.node,
        at,
    })
}

fn start_session(seed: u64) -> LiveSession {
    SimulationBuilder::new(
        Platform::preset(PlatformPreset::Hetero4kWs1Os2),
        scenario(ScenarioKind::ArCall),
    )
    .duration(SimTime::from_ns(DEFAULT_HORIZON_CAP_NS))
    .seed(seed)
    .start_live(Box::new(Greedy))
    .unwrap()
}

/// Admits a spread of traffic, hot-swaps once (so the trace contains
/// arrivals landing *exactly on* the phase-boundary instant via the
/// transition-window clamp), and drains.
fn run_live(seed: u64) -> (u64, dream_sim::LiveSessionRecord) {
    let mut s = start_session(seed);
    let keys: Vec<_> = s
        .workload()
        .nodes()
        .filter(|n| n.key().phase == 0 && n.parent().is_none())
        .map(|n| n.key())
        .collect();
    let mut t = 0u64;
    for i in 0..90u64 {
        let k = keys[(i % keys.len() as u64) as usize];
        t += 800_000 + seed * 1_000 + (i % 5) * 90_000;
        admit(&mut s, k, SimTime::from_ns(t)).unwrap();
        if i % 20 == 0 {
            s.step_until(SimTime::from_ns(t));
        }
    }
    s.step_until(SimTime::from_ns(t));
    let swap = SessionInput::Swap {
        at: s.next_stamp(),
        scenario: Box::new(scenario(ScenarioKind::ArSocial)),
    };
    let boundary = s.apply(swap).unwrap().at;
    let new_keys: Vec<_> = s
        .workload()
        .nodes()
        .filter(|n| n.key().phase == 1 && n.parent().is_none())
        .map(|n| n.key())
        .collect();
    // Stamps before the boundary clamp *onto* it: these arrivals land
    // exactly on the phase-start instant.
    let next = s.next_stamp();
    let clamped = admit(&mut s, new_keys[0], next).unwrap();
    assert_eq!(
        clamped.at, boundary,
        "transition stamps clamp to the boundary"
    );
    for i in 0..60u64 {
        let k = new_keys[(i % new_keys.len() as u64) as usize];
        admit(&mut s, k, boundary + SimTime::from_ns(i * 600_000)).unwrap();
    }
    let (outcome, record) = s.finish().unwrap();
    (outcome.metrics().fingerprint(), record)
}

/// The boundary of every swap the record logged.
fn swaps(record: &dream_sim::LiveSessionRecord) -> Vec<SimTime> {
    record
        .inputs()
        .iter()
        .filter_map(|i| match i {
            SessionInput::Swap { at, .. } => Some(*at),
            _ => None,
        })
        .collect()
}

#[test]
fn recorded_live_trace_round_trips_through_csv() {
    for seed in [3, 17] {
        let (live_fp, record) = run_live(seed);

        // Direct replay of the in-memory trace.
        let direct = record.replay(&mut Greedy).unwrap();
        assert_eq!(direct.metrics().fingerprint(), live_fp);

        // record → save CSV → load → replay.
        let dir = std::env::temp_dir().join(format!("dream-live-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("session-{seed}.csv"));
        std::fs::write(&path, record.trace().to_csv()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let loaded = ArrivalTrace::parse("live-session", &text).unwrap();
        assert_eq!(loaded, record.trace(), "CSV round trip is lossless");
        assert_eq!(loaded.digest(), record.trace().digest());
        let reloaded = record.replay_trace(loaded, &mut Greedy).unwrap();
        assert_eq!(
            reloaded.metrics().fingerprint(),
            direct.metrics().fingerprint(),
            "seed {seed}: loaded-CSV replay must equal in-memory replay"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}

/// Arrivals at exactly the drain/horizon instant are censored by
/// construction (PR 2 boundary semantics): appending one to the saved
/// CSV neither fails validation nor changes the replayed metrics.
#[test]
fn arrival_exactly_at_horizon_is_ignored_on_replay() {
    let (live_fp, record) = run_live(23);
    let horizon = record.horizon();
    let trace = record.trace();
    let mut csv = trace.to_csv();
    // The recorded trace never contains an at-horizon entry…
    assert!(trace
        .keys()
        .all(|k| trace.times(k).iter().all(|&t| t < horizon)));
    // …but a log captured externally may: the last phase's roots, stamped
    // exactly at the horizon instant.
    let last_phase = swaps(&record).len();
    csv.push_str(&format!("{},{last_phase},0,0\n", horizon.as_ns()));
    let loaded = ArrivalTrace::parse("with-horizon-entry", &csv).unwrap();
    assert_eq!(loaded.len(), trace.len() + 1);
    let replayed = record.replay_trace(loaded, &mut Greedy).unwrap();
    assert_eq!(
        replayed.metrics().fingerprint(),
        live_fp,
        "an at-horizon arrival must censor naturally, not perturb metrics"
    );
}

/// An arrival landing exactly on a phase-flush (swap-boundary) instant
/// belongs to the *new* phase and replays losslessly — the half-open
/// `[start, end)` windows make the instant unambiguous.
#[test]
fn boundary_instant_arrivals_replay_losslessly() {
    let (live_fp, record) = run_live(41);
    let boundary = swaps(&record)[0];
    let trace = record.trace();
    let at_boundary: usize = trace
        .keys()
        .filter(|k| k.phase == 1)
        .map(|k| trace.times(k).iter().filter(|&&t| t == boundary).count())
        .sum();
    assert!(
        at_boundary >= 1,
        "the session admitted arrivals exactly on the boundary instant"
    );
    let direct = record.replay(&mut Greedy).unwrap();
    assert_eq!(direct.metrics().fingerprint(), live_fp);
}
