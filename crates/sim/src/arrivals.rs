//! The arrival seam: pluggable sources of root-frame releases.
//!
//! Stage 1a of the engine asks an [`ArrivalSource`] *when* each root
//! model's frames arrive instead of hard-coding the `now + period`
//! recurrence. Three sources ship with the crate:
//!
//! * [`PeriodicArrivals`] — the paper's fixed-FPS pipelines (the default;
//!   bit-identical metrics to the pre-seam engine);
//! * [`PoissonArrivals`] / [`MmppArrivals`] — open-loop stochastic
//!   streams whose inter-arrival draws come from the counter-based
//!   [`DeterministicCoin`], so a seed fully determines the stream and two
//!   schedulers face the identical realized traffic;
//! * [`TraceArrivals`] — replay of a recorded [`ArrivalTrace`]
//!   (`Vec<(SimTime, ModelKey)>` under the hood, with a text/CSV loader).
//!
//! Regardless of the source, a frame's relative deadline stays the node's
//! period (the model's timing contract), and the engine's censoring rules
//! are unchanged: frames arrive strictly before their phase end and the
//! horizon, and a frame is *counted* iff its deadline falls at or before
//! both boundaries.
//!
//! # Trace file format
//!
//! One arrival per line, `arrival_ns,phase,pipeline,node` (all unsigned
//! integers); `#` starts a comment and blank lines are ignored:
//!
//! ```text
//! # time_ns,phase,pipeline,node
//! 0,0,0,0
//! 33333333,0,1,0
//! ```
//!
//! Entries must target root nodes of the workload and lie inside the
//! declared phase's window; entries at or beyond the simulation horizon
//! are ignored (censored by construction). Within a key, entries replay
//! in time order and are numbered `frame = 0, 1, 2, …`, which is the
//! coordinate the [`DeterministicCoin`] uses for cascade/skip/exit draws —
//! so a periodic trace realizes exactly the same workload as the built-in
//! periodic generator.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use dream_models::{NodeId, PipelineId};

use crate::determ::DeterministicCoin;
use crate::workload::{ModelKey, NodeInfo, Phase, WorkloadSet};
use crate::{SimError, SimTime};

/// Coin-gate namespace for inter-arrival draws (cascade/skip/exit draws
/// use 0, 1000+, and 2000+; see `engine::dynamics`).
const GATE_ARRIVAL: u64 = 3_000;
/// Coin-gate namespace for MMPP burst-state flips.
const GATE_ARRIVAL_STATE: u64 = 4_000;

/// A pluggable stream of root-frame arrival times — the seam between the
/// staged executor and the traffic model.
///
/// The engine calls [`first_arrival`](ArrivalSource::first_arrival) once
/// per root node when its phase starts, then
/// [`next_arrival`](ArrivalSource::next_arrival) after each released
/// frame. Returning `None` ends the node's stream; times at/after the
/// phase end or the horizon are discarded by the engine, which also stops
/// the recurrence. Sources must never return a time earlier than the
/// frame they follow.
///
/// Implementations that randomize must draw through the provided
/// [`DeterministicCoin`] (or otherwise be a pure function of the seed) so
/// that every scheduler faces the identical arrival stream. `Send` so
/// configured simulations can move across threads.
pub trait ArrivalSource: std::fmt::Debug + Send {
    /// Display name for run labels and diagnostics.
    fn name(&self) -> &str;

    /// Checks the source against the resolved workload before the run
    /// starts (e.g. trace keys must name root nodes).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTrace`] (or another variant) describing
    /// the inconsistency.
    fn validate(&self, ws: &WorkloadSet, horizon: SimTime) -> Result<(), SimError> {
        let _ = (ws, horizon);
        Ok(())
    }

    /// The arrival time of `node`'s frame 0 within `phase`, or `None` for
    /// an empty stream. Must be at or after `phase.start()`.
    fn first_arrival(
        &mut self,
        node: &NodeInfo,
        phase: &Phase,
        coin: &DeterministicCoin,
    ) -> Option<SimTime>;

    /// The arrival following frame `frame` of `node`, which arrived at
    /// `prev`. Must be at or after `prev`.
    fn next_arrival(
        &mut self,
        node: &NodeInfo,
        phase: &Phase,
        frame: u64,
        prev: SimTime,
        coin: &DeterministicCoin,
    ) -> Option<SimTime>;
}

/// The default fixed-FPS generator: frame 0 at the phase start, then one
/// frame per period — DREAM's periodic pipelines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeriodicArrivals;

impl ArrivalSource for PeriodicArrivals {
    fn name(&self) -> &str {
        "periodic"
    }

    fn first_arrival(
        &mut self,
        _node: &NodeInfo,
        phase: &Phase,
        _coin: &DeterministicCoin,
    ) -> Option<SimTime> {
        Some(phase.start())
    }

    fn next_arrival(
        &mut self,
        node: &NodeInfo,
        _phase: &Phase,
        _frame: u64,
        prev: SimTime,
        _coin: &DeterministicCoin,
    ) -> Option<SimTime> {
        Some(prev + node.period())
    }
}

/// Draws an exponential inter-arrival with the given mean, at least 1 ns
/// so streams always advance.
fn exp_interarrival(
    node: &NodeInfo,
    frame: u64,
    mean_ns: f64,
    coin: &DeterministicCoin,
) -> SimTime {
    let key = node.key();
    let u = coin.uniform(key.coin_channel(), key.node.0, frame, GATE_ARRIVAL);
    // Inverse-CDF sampling; 1 - u is in (0, 1] so ln is finite.
    let dt = -mean_ns * (1.0 - u).ln();
    SimTime::from_ns_f64(dt.max(1.0))
}

/// An open-loop Poisson stream per root node. `intensity` scales the
/// node's nominal rate: the mean inter-arrival time is
/// `period / intensity`, so `1.0` offers the periodic load in
/// expectation, `2.0` doubles it.
///
/// Frame 0 arrives one draw after the phase start (the process starts
/// empty). Draws are pure functions of `(seed, node, frame)`, so the
/// realized stream is identical for every scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    intensity: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson source with the given intensity multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not finite and positive.
    pub fn new(intensity: f64) -> Self {
        Self::try_new(intensity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) for parameters from outside the program.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidArrivals`] if `intensity` is not finite and
    /// positive.
    pub fn try_new(intensity: f64) -> Result<Self, SimError> {
        if !(intensity.is_finite() && intensity > 0.0) {
            return Err(SimError::InvalidArrivals {
                reason: format!("intensity must be positive, got {intensity}"),
            });
        }
        Ok(PoissonArrivals { intensity })
    }

    /// The intensity multiplier.
    pub fn intensity(&self) -> f64 {
        self.intensity
    }

    fn mean_ns(&self, node: &NodeInfo) -> f64 {
        node.period().as_ns_f64() / self.intensity
    }
}

impl ArrivalSource for PoissonArrivals {
    fn name(&self) -> &str {
        "poisson"
    }

    fn first_arrival(
        &mut self,
        node: &NodeInfo,
        phase: &Phase,
        coin: &DeterministicCoin,
    ) -> Option<SimTime> {
        Some(phase.start() + exp_interarrival(node, 0, self.mean_ns(node), coin))
    }

    fn next_arrival(
        &mut self,
        node: &NodeInfo,
        _phase: &Phase,
        frame: u64,
        prev: SimTime,
        coin: &DeterministicCoin,
    ) -> Option<SimTime> {
        Some(prev + exp_interarrival(node, frame + 1, self.mean_ns(node), coin))
    }
}

/// A two-state Markov-modulated Poisson process per root node: traffic
/// alternates between a *calm* and a *burst* intensity (both multipliers
/// of the node's nominal rate, as in [`PoissonArrivals`]). Before each
/// draw the state flips with the configured probability, so bursts have
/// geometrically distributed lengths.
///
/// State transitions and inter-arrivals both come from the counter-based
/// coin; the per-node state is re-derived frame by frame, so the stream
/// is still a pure function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct MmppArrivals {
    calm: f64,
    burst: f64,
    p_enter: f64,
    p_exit: f64,
    bursting: BTreeMap<ModelKey, bool>,
}

impl MmppArrivals {
    /// Creates a bursty source: `calm`/`burst` intensity multipliers and
    /// the per-frame probabilities of entering/leaving a burst.
    ///
    /// # Panics
    ///
    /// Panics if an intensity is not positive or a probability is outside
    /// `[0, 1]`.
    pub fn new(calm: f64, burst: f64, p_enter: f64, p_exit: f64) -> Self {
        Self::try_new(calm, burst, p_enter, p_exit).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) for parameters from outside the program.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidArrivals`] if an intensity is not positive or a
    /// probability is outside `[0, 1]`.
    pub fn try_new(calm: f64, burst: f64, p_enter: f64, p_exit: f64) -> Result<Self, SimError> {
        if !(calm.is_finite() && calm > 0.0 && burst.is_finite() && burst > 0.0) {
            return Err(SimError::InvalidArrivals {
                reason: format!("MMPP intensities must be positive, got {calm}/{burst}"),
            });
        }
        if !((0.0..=1.0).contains(&p_enter) && (0.0..=1.0).contains(&p_exit)) {
            return Err(SimError::InvalidArrivals {
                reason: format!(
                    "MMPP switch probabilities must be in [0, 1], got {p_enter}/{p_exit}"
                ),
            });
        }
        Ok(MmppArrivals {
            calm,
            burst,
            p_enter,
            p_exit,
            bursting: BTreeMap::new(),
        })
    }

    fn draw(&mut self, node: &NodeInfo, frame: u64, coin: &DeterministicCoin) -> SimTime {
        let key = node.key();
        let state = self.bursting.entry(key).or_insert(false);
        let p_flip = if *state { self.p_exit } else { self.p_enter };
        if coin.decide(
            key.coin_channel(),
            key.node.0,
            frame,
            GATE_ARRIVAL_STATE,
            p_flip,
        ) {
            *state = !*state;
        }
        let intensity = if *state { self.burst } else { self.calm };
        exp_interarrival(node, frame, node.period().as_ns_f64() / intensity, coin)
    }
}

impl ArrivalSource for MmppArrivals {
    fn name(&self) -> &str {
        "mmpp"
    }

    fn first_arrival(
        &mut self,
        node: &NodeInfo,
        phase: &Phase,
        coin: &DeterministicCoin,
    ) -> Option<SimTime> {
        let dt = self.draw(node, 0, coin);
        Some(phase.start() + dt)
    }

    fn next_arrival(
        &mut self,
        node: &NodeInfo,
        _phase: &Phase,
        frame: u64,
        prev: SimTime,
        coin: &DeterministicCoin,
    ) -> Option<SimTime> {
        let dt = self.draw(node, frame + 1, coin);
        Some(prev + dt)
    }
}

/// A recorded arrival stream: per root node, the times its frames arrive.
///
/// See the [module docs](self) for the text format and replay semantics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArrivalTrace {
    name: String,
    per_key: BTreeMap<ModelKey, Vec<SimTime>>,
}

impl ArrivalTrace {
    /// Builds a trace from `(time, key)` events. Events are grouped by
    /// key and sorted by time within each key.
    pub fn from_events(name: impl Into<String>, events: Vec<(SimTime, ModelKey)>) -> Self {
        let mut per_key: BTreeMap<ModelKey, Vec<SimTime>> = BTreeMap::new();
        for (t, key) in events {
            per_key.entry(key).or_default().push(t);
        }
        for times in per_key.values_mut() {
            times.sort_unstable();
        }
        ArrivalTrace {
            name: name.into(),
            per_key,
        }
    }

    /// Parses the text/CSV form (`arrival_ns,phase,pipeline,node` per
    /// line, `#` comments).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTrace`] naming the offending line.
    pub fn parse(name: impl Into<String>, text: &str) -> Result<Self, SimError> {
        let mut events = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split(',').map(str::trim);
            let mut field = |what: &str| {
                fields
                    .next()
                    .and_then(|f| f.parse::<u64>().ok())
                    .ok_or_else(|| SimError::InvalidTrace {
                        reason: format!("line {}: missing/invalid {what}: {line:?}", lineno + 1),
                    })
            };
            let t = field("arrival_ns")?;
            let phase = field("phase")?;
            let pipeline = field("pipeline")?;
            let node = field("node")?;
            if fields.next().is_some() {
                return Err(SimError::InvalidTrace {
                    reason: format!("line {}: too many fields: {line:?}", lineno + 1),
                });
            }
            events.push((
                SimTime::from_ns(t),
                ModelKey {
                    phase: phase as usize,
                    pipeline: PipelineId(pipeline as usize),
                    node: NodeId(node as usize),
                },
            ));
        }
        Ok(Self::from_events(name, events))
    }

    /// Renders the text/CSV form: all entries, globally time-ordered.
    pub fn to_csv(&self) -> String {
        let mut events: Vec<(SimTime, ModelKey)> = self
            .per_key
            .iter()
            .flat_map(|(&key, times)| times.iter().map(move |&t| (t, key)))
            .collect();
        events.sort_unstable();
        let mut out = String::from("# arrival_ns,phase,pipeline,node\n");
        for (t, key) in events {
            let _ = writeln!(
                out,
                "{},{},{},{}",
                t.as_ns(),
                key.phase,
                key.pipeline.0,
                key.node.0
            );
        }
        out
    }

    /// Materializes any [`ArrivalSource`] into a trace by replaying the
    /// engine's recurrence offline: per phase, per root node, arrivals
    /// strictly before the phase end and `horizon`. Replaying the result
    /// through [`TraceArrivals`] with the same `seed` reproduces the
    /// source's stream exactly.
    pub fn record(
        name: impl Into<String>,
        ws: &WorkloadSet,
        horizon: SimTime,
        seed: u64,
        source: &mut dyn ArrivalSource,
    ) -> Self {
        let coin = DeterministicCoin::new(seed);
        let mut events = Vec::new();
        for (phase_idx, phase) in ws.phases().iter().enumerate() {
            let roots: Vec<ModelKey> = ws
                .nodes()
                .filter(|n| n.key().phase == phase_idx && n.parent().is_none())
                .map(NodeInfo::key)
                .collect();
            for key in roots {
                let node = ws.node(key);
                let stop = phase.end().min(horizon);
                let mut frame = 0u64;
                let mut t = match source.first_arrival(node, phase, &coin) {
                    Some(t) if t >= phase.start() && t < stop => t,
                    _ => continue,
                };
                loop {
                    events.push((t, key));
                    t = match source.next_arrival(node, phase, frame, t, &coin) {
                        Some(next) if next >= t && next < stop => next,
                        _ => break,
                    };
                    frame += 1;
                }
            }
        }
        Self::from_events(name, events)
    }

    /// The trace's name (used in labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of arrivals.
    pub fn len(&self) -> usize {
        self.per_key.values().map(Vec::len).sum()
    }

    /// Whether the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.per_key.is_empty()
    }

    /// The arrival times recorded for `key`.
    pub fn times(&self, key: ModelKey) -> &[SimTime] {
        self.per_key.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The keys with at least one arrival, ascending.
    pub fn keys(&self) -> impl Iterator<Item = ModelKey> + '_ {
        self.per_key.keys().copied()
    }

    /// A deterministic digest of every entry (for labels and dedup).
    pub fn digest(&self) -> u64 {
        let mut h = crate::Fnv64::new();
        for (key, times) in &self.per_key {
            h.mix(key.phase as u64);
            h.mix(key.pipeline.0 as u64);
            h.mix(key.node.0 as u64);
            for t in times {
                h.mix(t.as_ns());
            }
        }
        h.finish()
    }
}

/// Replays an [`ArrivalTrace`]: each key's entries release in time order,
/// numbered `frame = 0, 1, 2, …`.
#[derive(Debug, Clone)]
pub struct TraceArrivals {
    trace: Arc<ArrivalTrace>,
    cursor: BTreeMap<ModelKey, usize>,
}

impl TraceArrivals {
    /// Creates a replay source over `trace`.
    pub fn new(trace: impl Into<Arc<ArrivalTrace>>) -> Self {
        TraceArrivals {
            trace: trace.into(),
            cursor: BTreeMap::new(),
        }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &ArrivalTrace {
        &self.trace
    }
}

impl ArrivalSource for TraceArrivals {
    fn name(&self) -> &str {
        "trace"
    }

    fn validate(&self, ws: &WorkloadSet, horizon: SimTime) -> Result<(), SimError> {
        for (&key, times) in &self.trace.per_key {
            let Some(phase) = ws.phases().get(key.phase) else {
                return Err(SimError::InvalidTrace {
                    reason: format!("trace entry for {key} names a nonexistent phase"),
                });
            };
            let node =
                ws.nodes()
                    .find(|n| n.key() == key)
                    .ok_or_else(|| SimError::InvalidTrace {
                        reason: format!("trace entry for {key} names a nonexistent model"),
                    })?;
            if node.parent().is_some() {
                return Err(SimError::InvalidTrace {
                    reason: format!(
                        "trace entry for {key} targets a cascade child; only root \
                         nodes have externally driven arrivals"
                    ),
                });
            }
            for &t in times {
                // Entries at/after the horizon are legal (they censor
                // naturally), but an entry outside its declared phase
                // window is a construction error.
                if t < horizon && (t < phase.start() || t >= phase.end()) {
                    return Err(SimError::InvalidTrace {
                        reason: format!(
                            "trace entry for {key} at {t} lies outside its phase \
                             window [{}, {})",
                            phase.start(),
                            phase.end()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn first_arrival(
        &mut self,
        node: &NodeInfo,
        phase: &Phase,
        _coin: &DeterministicCoin,
    ) -> Option<SimTime> {
        let key = node.key();
        let times = self.trace.per_key.get(&key)?;
        let start = times.partition_point(|&t| t < phase.start());
        self.cursor.insert(key, start + 1);
        times.get(start).copied()
    }

    fn next_arrival(
        &mut self,
        node: &NodeInfo,
        _phase: &Phase,
        _frame: u64,
        _prev: SimTime,
        _coin: &DeterministicCoin,
    ) -> Option<SimTime> {
        let key = node.key();
        let times = self.trace.per_key.get(&key)?;
        let cursor = self.cursor.entry(key).or_insert(0);
        let t = times.get(*cursor).copied();
        *cursor += 1;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(phase: usize, pipeline: usize, node: usize) -> ModelKey {
        ModelKey {
            phase,
            pipeline: PipelineId(pipeline),
            node: NodeId(node),
        }
    }

    #[test]
    fn parse_roundtrips_through_csv() {
        let text = "# demo\n0,0,0,0\n500,0,1,0\n\n250,0,0,0\n";
        let trace = ArrivalTrace::parse("demo", text).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(
            trace.times(key(0, 0, 0)),
            &[SimTime::ZERO, SimTime::from_ns(250)]
        );
        let reparsed = ArrivalTrace::parse("demo", &trace.to_csv()).unwrap();
        assert_eq!(trace, reparsed);
        assert_eq!(trace.digest(), reparsed.digest());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in ["abc,0,0,0", "1,2,3", "1,2,3,4,5", "-1,0,0,0"] {
            let err = ArrivalTrace::parse("bad", bad).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidTrace { .. }),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn from_events_sorts_within_keys() {
        let k = key(0, 0, 0);
        let trace = ArrivalTrace::from_events(
            "t",
            vec![
                (SimTime::from_ns(9), k),
                (SimTime::from_ns(3), k),
                (SimTime::from_ns(6), k),
            ],
        );
        assert_eq!(
            trace.times(k),
            &[
                SimTime::from_ns(3),
                SimTime::from_ns(6),
                SimTime::from_ns(9)
            ]
        );
        assert_eq!(trace.keys().collect::<Vec<_>>(), vec![k]);
    }

    #[test]
    fn digest_distinguishes_traces() {
        let a = ArrivalTrace::from_events("a", vec![(SimTime::from_ns(1), key(0, 0, 0))]);
        let b = ArrivalTrace::from_events("b", vec![(SimTime::from_ns(2), key(0, 0, 0))]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn poisson_rejects_bad_intensity() {
        let r = std::panic::catch_unwind(|| PoissonArrivals::new(0.0));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| MmppArrivals::new(1.0, 2.0, 1.5, 0.1));
        assert!(r.is_err());
    }
}
