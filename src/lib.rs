//! # DREAM — a dynamic scheduler for dynamic real-time multi-model ML workloads
//!
//! This crate is the facade of a full reproduction of *DREAM: A Dynamic
//! Scheduler for Dynamic Real-time Multi-model ML Workloads* (ASPLOS 2023).
//! It re-exports the building blocks:
//!
//! * [`models`] — layer-level descriptions of the fourteen workload networks,
//!   their dynamic control structure (supernets, early exits, layer skipping),
//!   and the five industry-derived RTMM scenarios of the paper's Table 3.
//! * [`cost`] — an analytical accelerator cost model (weight-stationary and
//!   output-stationary dataflows) standing in for MAESTRO, plus the eight
//!   hardware platforms of Table 2.
//! * [`sim`] — a deterministic discrete-event simulator of a multi-accelerator
//!   system executing RTMM workloads under a pluggable scheduler. The engine
//!   is a *staged executor* split across an `engine/` module tree —
//!   `arrivals` (phase starts, frame releases), `completion` (layer
//!   finishes), `dynamics` (cascade/skip/exit gates), `dispatch` (decision
//!   validation + start), and `accounting` (metrics) — over a slab-backed
//!   task arena and a binary-heap event queue. Schedulers receive a
//!   borrowed, incrementally-maintained [`sim::SystemView`] with indexed
//!   accessors for ready tasks, accelerator occupancy, and slack; nothing
//!   is reconstructed per event.
//! * [`core`] — the DREAM scheduler itself: MapScore (Algorithm 1), UXCost
//!   (Algorithm 2), the smart frame-drop engine, the adaptivity engine with
//!   online α/β tuning, and supernet switching.
//! * [`baselines`] — FCFS, a static offline scheduler, and Veltair- and
//!   Planaria-style schedulers used as comparison points in the paper.
//! * [`serve`] — the live serving runtime: bounded channel/TCP/Unix-socket
//!   ingress with explicit admission policies feeds a long-running
//!   [`sim::LiveSession`] (incremental engine stepping, scenario hot-swap,
//!   graceful drain) and publishes live metrics snapshots. Every admitted
//!   arrival is recorded, and a session's batch replay is bit-identical —
//!   live serving *is* the simulator, fed incrementally.
//! * `dream-bench` (dev-only) — the experiment harness. Its
//!   `ExperimentGrid` fans whole (scheduler × scenario × platform × seed)
//!   figure grids out across a thread pool with deterministic, seed-keyed
//!   aggregation: the same grid produces bit-identical metrics for 1 and
//!   N worker threads.
//!
//! # Quickstart
//!
//! ```
//! use dream::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Hardware: 4K PEs split as one weight-stationary and two
//! // output-stationary sub-accelerators (Table 2, row "1 WS + 2 OS").
//! let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
//!
//! // Workload: the AR call scenario (keyword spotting -> translation,
//! // plus a SkipNet-based visual context model).
//! let scenario = Scenario::ar_call(CascadeProbability::new(0.5)?);
//!
//! // Scheduler: full DREAM (score-driven dispatch + smart frame drop +
//! // supernet switching + online parameter adaptation).
//! let mut scheduler = DreamScheduler::new(DreamConfig::full());
//!
//! let outcome = SimulationBuilder::new(platform, scenario)
//!     .duration(Millis::new(500))
//!     .seed(7)
//!     .run(&mut scheduler)?;
//!
//! let report = UxCostReport::from_metrics(outcome.metrics());
//! println!("UXCost = {:.4}", report.uxcost());
//! # Ok(())
//! # }
//! ```

pub use dream_baselines as baselines;
pub use dream_core as core;
pub use dream_cost as cost;
pub use dream_models as models;
pub use dream_serve as serve;
pub use dream_sim as sim;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use dream_baselines::{
        EdfScheduler, FcfsScheduler, PlanariaScheduler, StaticScheduler, VeltairScheduler,
    };
    pub use dream_core::{
        DreamConfig, DreamScheduler, ObjectiveKind, ParamOptimizer, ScoreParams, UxCostReport,
    };
    pub use dream_cost::{
        AcceleratorConfig, CostBackend, CostModel, Dataflow, Platform, PlatformPreset, TableBackend,
    };
    pub use dream_models::{
        CascadeProbability, Model, ModelGraph, NodeId, PipelineId, Scenario, ScenarioKind,
    };
    pub use dream_sim::{
        ArrivalSource, ArrivalTrace, LiveSession, LiveSessionRecord, Metrics, Millis, MmppArrivals,
        PeriodicArrivals, PoissonArrivals, Scheduler, SessionInput, SimOutcome, SimTime,
        SimulationBuilder, TraceArrivals,
    };
}
