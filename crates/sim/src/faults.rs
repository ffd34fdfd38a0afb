//! Deterministic fault injection: replayable per-accelerator fault plans.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s — transient
//! stalls (the accelerator is unavailable for a window), permanent
//! failures, and slowdowns (a latency multiplier over a window) — that the
//! engine turns into canonical-rank events on the same queue as arrivals
//! and completions. A fault schedule is therefore *just another replayable
//! input*: the same plan under the same seed reproduces the same degraded
//! run bit-for-bit, so every failure scenario is auditable from its trace.
//!
//! Plans are built from events ([`FaultPlan::from_events`],
//! [`FaultPlan::push`]) or drawn by [`FaultPlan::storm`], a
//! randomized-but-seeded storm from the counter-based
//! [`DeterministicCoin`] (gate namespace `5000+`, after the
//! cascade/skip/exit/arrival namespaces). [`FaultEvent::check`] is the
//! one validity rule every admission path applies.
//!
//! **Order is identity.** An event's position in the plan is its tie-break
//! key inside the event queue, so two plans with the same events in a
//! different order are different plans. Live-applied faults (see
//! [`SessionInput::Fault`](crate::SessionInput::Fault)) append after any
//! installed plan so batch replay reconstructs identical tie keys.

use dream_cost::AcceleratorId;

use crate::determ::DeterministicCoin;
use crate::{SimError, SimTime};

/// Coin-gate namespace for fault-storm draws (cascade/skip/exit use 0,
/// 1000+, 2000+; arrival draws use 3000+/4000+; see `engine::dynamics`
/// and `arrivals`).
const GATE_FAULT: u64 = 5_000;

/// What goes wrong with an accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The accelerator is unavailable for new dispatches for `duration`.
    /// In-flight work finishes; the accelerator rejoins the idle pool when
    /// the stall window closes.
    Stall {
        /// How long the accelerator stays unavailable.
        duration: SimTime,
    },
    /// The accelerator fails permanently: in-flight work on it is aborted
    /// and requeued, and it never rejoins the idle pool.
    Fail,
    /// Layers dispatched to the accelerator run `factor` times slower for
    /// `duration`. Does not mask the accelerator; concurrent slowdowns
    /// compound multiplicatively.
    Slowdown {
        /// Latency multiplier, `>= 1`.
        factor: f64,
        /// How long the slowdown window lasts.
        duration: SimTime,
    },
}

impl FaultKind {
    /// The window length for windowed faults (`None` for [`FaultKind::Fail`],
    /// which is permanent).
    pub fn duration(&self) -> Option<SimTime> {
        match self {
            FaultKind::Stall { duration } | FaultKind::Slowdown { duration, .. } => Some(*duration),
            FaultKind::Fail => None,
        }
    }

    /// Checks the fault's own parameters: a windowed fault needs a
    /// non-empty window and a slowdown a finite factor `>= 1`. A
    /// zero-length window's start and end land on the same instant and
    /// the end ranks first, so the window would never close and the
    /// accelerator would stay stalled or slowed for the rest of the run;
    /// a NaN factor would poison every dispatch latency it scales.
    /// Returns the reason the fault is invalid.
    pub fn check(&self) -> Result<(), String> {
        if self.duration() == Some(SimTime::ZERO) {
            return Err("fault window duration must be > 0".into());
        }
        match *self {
            FaultKind::Slowdown { factor, .. } if !factor.is_finite() || factor < 1.0 => {
                Err(format!("factor {factor} must be finite and >= 1"))
            }
            _ => Ok(()),
        }
    }
}

/// One fault: what happens to which accelerator, when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault begins.
    pub at: SimTime,
    /// The accelerator it strikes.
    pub acc: AcceleratorId,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Checks the event against a platform width: the accelerator index
    /// must be in range and the kind valid ([`FaultKind::check`]). This
    /// is the one fault validity rule: [`FaultPlan::validate`], a live
    /// session's fault input and the serve crate's wire path all apply
    /// it. Returns the reason the event is invalid.
    pub fn check(&self, acc_count: usize) -> Result<(), String> {
        if self.acc.0 >= acc_count {
            return Err(format!(
                "accelerator {} out of range (platform has {acc_count})",
                self.acc.0
            ));
        }
        self.kind.check()
    }
}

/// Randomized-but-seeded storm shape for [`FaultPlan::storm`].
///
/// The horizon is divided into `slot`-wide windows; per accelerator and
/// window the coin decides independently whether a stall, a slowdown, or a
/// permanent failure begins inside it (offsets, durations, and slowdown
/// factors are further uniform draws). All draws are pure functions of
/// `(seed, acc, slot, gate)`, so the storm is fully determined by its
/// seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormConfig {
    /// Draw-window width.
    pub slot: SimTime,
    /// Per-(acc, slot) probability that a stall begins in the slot.
    pub p_stall: f64,
    /// Per-(acc, slot) probability that a slowdown begins in the slot.
    pub p_slowdown: f64,
    /// Per-(acc, slot) probability of permanent failure (first hit wins;
    /// a failed accelerator draws no further faults).
    pub p_fail: f64,
    /// Slowdown factors are drawn uniformly from `[1, max_factor]`.
    pub max_factor: f64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            slot: SimTime::from_ns(10_000_000),
            p_stall: 0.10,
            p_slowdown: 0.10,
            p_fail: 0.01,
            max_factor: 4.0,
        }
    }
}

/// An ordered, replayable schedule of accelerator faults.
///
/// See the [module docs](self) for sources and ordering semantics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from events, preserving their order (order is the
    /// queue tie-break identity — see the [module docs](self)).
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Appends one fault, returning its plan index.
    pub fn push(&mut self, event: FaultEvent) -> usize {
        self.events.push(event);
        self.events.len() - 1
    }

    /// The events in plan order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event against a platform width with
    /// [`FaultEvent::check`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFault`] describing the first offending
    /// entry.
    pub fn validate(&self, acc_count: usize) -> Result<(), SimError> {
        for (idx, ev) in self.events.iter().enumerate() {
            ev.check(acc_count)
                .map_err(|reason| SimError::InvalidFault {
                    reason: format!("fault {idx}: {reason}"),
                })?;
        }
        Ok(())
    }

    /// Draws a seeded fault storm over `acc_count` accelerators and
    /// `[0, horizon)`. Same seed, same storm — see [`StormConfig`].
    pub fn storm(seed: u64, acc_count: usize, horizon: SimTime, cfg: StormConfig) -> Self {
        let coin = DeterministicCoin::new(seed);
        let slot_ns = cfg.slot.as_ns().max(1);
        let slots = horizon.as_ns().div_ceil(slot_ns);
        let mut events = Vec::new();
        for acc in 0..acc_count {
            'slots: for s in 0..slots {
                let base = s * slot_ns;
                let offset = |gate: u64| {
                    let u = coin.uniform(acc, 0, s, GATE_FAULT + gate);
                    SimTime::from_ns(base + (u * slot_ns as f64) as u64).min(horizon)
                };
                if coin.decide(acc, 0, s, GATE_FAULT, cfg.p_fail) {
                    let at = offset(1);
                    if at < horizon {
                        events.push(FaultEvent {
                            at,
                            acc: AcceleratorId(acc),
                            kind: FaultKind::Fail,
                        });
                    }
                    // A failed accelerator draws no further faults.
                    break 'slots;
                }
                if coin.decide(acc, 0, s, GATE_FAULT + 2, cfg.p_stall) {
                    let at = offset(3);
                    let u = coin.uniform(acc, 0, s, GATE_FAULT + 4);
                    let dur = SimTime::from_ns(((u * slot_ns as f64) as u64).max(1));
                    if at < horizon {
                        events.push(FaultEvent {
                            at,
                            acc: AcceleratorId(acc),
                            kind: FaultKind::Stall { duration: dur },
                        });
                    }
                }
                if coin.decide(acc, 0, s, GATE_FAULT + 5, cfg.p_slowdown) {
                    let at = offset(6);
                    let u_dur = coin.uniform(acc, 0, s, GATE_FAULT + 7);
                    let dur = SimTime::from_ns(((u_dur * slot_ns as f64) as u64).max(1));
                    let u_f = coin.uniform(acc, 0, s, GATE_FAULT + 8);
                    let factor = 1.0 + u_f * (cfg.max_factor - 1.0).max(0.0);
                    if at < horizon {
                        events.push(FaultEvent {
                            at,
                            acc: AcceleratorId(acc),
                            kind: FaultKind::Slowdown {
                                factor,
                                duration: dur,
                            },
                        });
                    }
                }
            }
        }
        FaultPlan { events }
    }
}

/// Per-accelerator fault state the engine carries while a plan (or live
/// fault admissions) are installed. `None` on the engine means the fault
/// seam is completely inert.
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    accs: Vec<AccFaultState>,
}

/// One accelerator's live fault state.
#[derive(Debug, Clone, Default)]
pub(crate) struct AccFaultState {
    /// Permanently failed (never unmasks).
    pub(crate) failed: bool,
    /// Number of open stall windows (masked while > 0).
    pub(crate) stall_depth: u32,
    /// Active slowdowns as `(plan index, factor)` in activation order —
    /// the canonical multiplication order for compounding.
    pub(crate) slow: Vec<(usize, f64)>,
}

impl AccFaultState {
    /// Whether the accelerator is currently excluded from dispatch.
    pub(crate) fn masked(&self) -> bool {
        self.failed || self.stall_depth > 0
    }
}

impl FaultRuntime {
    pub(crate) fn new(plan: FaultPlan, acc_count: usize) -> Self {
        FaultRuntime {
            plan,
            accs: vec![AccFaultState::default(); acc_count],
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn event(&self, idx: usize) -> FaultEvent {
        self.plan.events[idx]
    }

    /// Appends a live-admitted fault, returning its plan index (the queue
    /// tie-break key batch replay will reconstruct).
    pub(crate) fn push_live(&mut self, event: FaultEvent) -> usize {
        self.plan.push(event)
    }

    pub(crate) fn acc(&self, acc: AcceleratorId) -> &AccFaultState {
        &self.accs[acc.0]
    }

    pub(crate) fn acc_mut(&mut self, acc: AcceleratorId) -> &mut AccFaultState {
        &mut self.accs[acc.0]
    }

    /// Whether any fault is in effect right now (drives the
    /// `deadline_miss_under_faults` attribution).
    pub(crate) fn any_active(&self) -> bool {
        self.accs
            .iter()
            .any(|a| a.failed || a.stall_depth > 0 || !a.slow.is_empty())
    }

    /// The latency multiplier a gang dispatch pays: per accelerator the
    /// product of its active slowdown factors in activation order, and the
    /// gang runs at its slowest member. Exactly `1.0` when no slowdown is
    /// active, so callers can skip the rescale entirely.
    pub(crate) fn gang_slow_factor(&self, accs: &[AcceleratorId]) -> f64 {
        let mut worst = 1.0f64;
        for &acc in accs {
            let mut product = 1.0f64;
            for &(_, factor) in &self.accs[acc.0].slow {
                product *= factor;
            }
            if product > worst {
                worst = product;
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_is_seed_deterministic() {
        let cfg = StormConfig::default();
        let horizon = SimTime::from_ns(100_000_000);
        let a = FaultPlan::storm(7, 4, horizon, cfg);
        let b = FaultPlan::storm(7, 4, horizon, cfg);
        assert_eq!(a, b);
        let c = FaultPlan::storm(8, 4, horizon, cfg);
        assert_ne!(a, c, "seeds should decorrelate");
        assert!(
            !a.is_empty(),
            "default storm over 4 accs should draw faults"
        );
        for ev in a.events() {
            assert!(ev.at < horizon);
            assert!(ev.acc.0 < 4);
            if let FaultKind::Slowdown { factor, .. } = ev.kind {
                assert!((1.0..=4.0).contains(&factor));
            }
        }
    }

    #[test]
    fn failed_accelerator_draws_no_further_faults() {
        let cfg = StormConfig {
            p_fail: 1.0,
            ..StormConfig::default()
        };
        let plan = FaultPlan::storm(1, 3, SimTime::from_ns(100_000_000), cfg);
        assert_eq!(plan.len(), 3, "one permanent failure per accelerator");
        assert!(plan
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::Fail)));
    }

    #[test]
    fn validate_checks_range_and_factors() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            at: SimTime::ZERO,
            acc: AcceleratorId(3),
            kind: FaultKind::Fail,
        });
        assert!(plan.validate(4).is_ok());
        assert_eq!(
            plan.validate(3),
            Err(SimError::InvalidFault {
                reason: "fault 0: accelerator 3 out of range (platform has 3)".into()
            })
        );
        plan.push(FaultEvent {
            at: SimTime::ZERO,
            acc: AcceleratorId(0),
            kind: FaultKind::Slowdown {
                factor: 0.5,
                duration: SimTime::from_ns(1),
            },
        });
        assert_eq!(
            plan.validate(4),
            Err(SimError::InvalidFault {
                reason: "fault 1: factor 0.5 must be finite and >= 1".into()
            })
        );
        let slow = |factor: f64, ns: u64| FaultKind::Slowdown {
            factor,
            duration: SimTime::from_ns(ns),
        };
        // Degenerate factors would poison every latency they scale, and
        // a zero-length window would never close.
        for (kind, reason) in [
            (slow(0.5, 5), "factor 0.5 must be finite and >= 1"),
            (slow(f64::NAN, 5), "factor NaN must be finite and >= 1"),
            (slow(f64::INFINITY, 5), "factor inf must be finite and >= 1"),
            (
                FaultKind::Stall {
                    duration: SimTime::ZERO,
                },
                "fault window duration must be > 0",
            ),
            (slow(2.0, 0), "fault window duration must be > 0"),
        ] {
            assert_eq!(kind.check(), Err(reason.to_string()), "{kind:?}");
            let event = FaultEvent {
                at: SimTime::ZERO,
                acc: AcceleratorId(0),
                kind,
            };
            assert_eq!(event.check(4), Err(reason.to_string()), "{kind:?}");
        }
        assert_eq!(slow(2.0, 5).check(), Ok(()));
        assert_eq!(FaultKind::Fail.check(), Ok(()));
    }

    #[test]
    fn gang_slow_factor_compounds_and_takes_worst() {
        let mut rt = FaultRuntime::new(FaultPlan::new(), 3);
        assert_eq!(
            rt.gang_slow_factor(&[AcceleratorId(0), AcceleratorId(1)]),
            1.0
        );
        rt.acc_mut(AcceleratorId(0)).slow.push((0, 2.0));
        rt.acc_mut(AcceleratorId(0)).slow.push((1, 3.0));
        rt.acc_mut(AcceleratorId(1)).slow.push((2, 4.0));
        assert_eq!(rt.gang_slow_factor(&[AcceleratorId(0)]), 6.0);
        assert_eq!(
            rt.gang_slow_factor(&[AcceleratorId(0), AcceleratorId(1)]),
            6.0
        );
        assert_eq!(
            rt.gang_slow_factor(&[AcceleratorId(1), AcceleratorId(2)]),
            4.0
        );
        assert!(rt.any_active());
    }
}
