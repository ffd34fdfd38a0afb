//! The DREAM scheduler — the paper's primary contribution.
//!
//! DREAM drives every dispatch decision from **MapScore** (Algorithm 1), a
//! per-(task, accelerator) score combining four unit metrics:
//!
//! * **Urgency** — predicted remaining work over remaining time to deadline;
//! * **Latency preference** — how much this accelerator likes the task's
//!   next layer, relative to all accelerators;
//! * **Starvation** — queue time over the layer's mean latency, protecting
//!   light layers from being starved by heavy ones;
//! * **Energy** — energy preference minus the context-switch energy cost.
//!
//! Starvation and energy are weighted by the tunable parameters **α** and
//! **β**, which DREAM optimises against **UXCost** (Algorithm 2) — the
//! paper's EDP-analogue for real-time workloads: the product of the summed
//! per-model deadline-violation rates and summed normalised energies.
//!
//! On top of score-driven dispatch, the full scheduler adds the paper's
//! §4 engines:
//!
//! * [`FrameDropEngine`] — the *smart frame drop* (§4.2.1): proactively
//!   drops a frame when its best-case remaining time already exceeds its
//!   slack, but only when that relieves other expected violators, only for
//!   dependency-free (leaf) models, and under a per-model drop-rate cap;
//! * supernet switching (§4.5.1) — dispatching a lighter weight-sharing
//!   variant when the heaviest cannot meet its deadline;
//! * [`AdaptivityEngine`] (§4.4) — detects workload changes and re-tunes
//!   (α, β) online using the radius-shrinking search of §3.6, without
//!   blocking dispatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptivity;
mod frame_drop;
mod matching;
mod optimizer;
mod params;
mod scheduler;
mod score;
mod uxcost;

pub use adaptivity::{AdaptivityConfig, AdaptivityEngine};
pub use frame_drop::{DropDecision, FrameDropEngine};
pub use matching::{greedy_assign, keep_best, Candidate};
pub use optimizer::{ObjectiveKind, OptimizationTrace, OptimizerStep, ParamOptimizer};
pub use params::{DreamConfig, ParamError, ScoreParams};
pub use scheduler::{DreamScheduler, StageTimings};
pub use score::{MapScore, ScoreBreakdown, ScoreContext, TaskTerms};
pub use uxcost::{uxcost_of, ModelCostRow, UxCostReport};
