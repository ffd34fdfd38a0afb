//! `dream-serve` — a live, long-running serving runtime that feeds the
//! DREAM engine from real event sources.
//!
//! Every other entry point in this workspace resolves its whole arrival
//! horizon up front and replays it through the batch simulator. This
//! crate serves the *online* problem the paper actually poses: requests
//! arrive as they happen (in-process [`ChannelClient`]s, TCP or
//! Unix-socket peers speaking the framed [wire protocol](wire), one
//! version, checked at the handshake), scenarios shift mid-session, and
//! the scheduler decides with no knowledge of the future.
//!
//! # Architecture
//!
//! ```text
//! ChannelClient ─┐                       ┌─ MetricsSnapshot (watch)
//! tcp listener ──┤→ bounded Ingress ─→ ServeEngine ─→ LiveSession (dream-sim)
//! unix listener ─┘   (admission policy)  │  tick loop      │
//!                                        └─ SessionReport ←┘ (drain)
//! ```
//!
//! * The **ingress** ([`ingress`]) is a bounded queue with an explicit
//!   [`AdmissionPolicy`] — block (backpressure), shed-oldest, or
//!   reject — and per-source funnel accounting (submitted / admitted /
//!   clamped / shed / rejected), the live counterpart of the batch
//!   engine's released-vs-censored boundary semantics.
//! * The **serving loop** ([`ServeEngine`]) wakes every tick, stamps
//!   drained requests onto the virtual clock ([`clock`]), admits them
//!   into a [`dream_sim::LiveSession`], applies control commands
//!   (scenario hot-swap, drain), steps the engine to the frontier, and
//!   publishes [`MetricsSnapshot`]s over a watch channel ([`watch`]).
//! * Every admitted arrival is **recorded**: a finished session returns a
//!   [`dream_sim::LiveSessionRecord`] whose batch replay produces
//!   bit-identical `Metrics` — live serving is the simulator fed
//!   incrementally, not an approximation of it (asserted end-to-end in
//!   `tests/replay_equivalence.rs`).
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use dream_models::{CascadeProbability, PipelineId, NodeId, Scenario, ScenarioKind};
//! use dream_cost::{Platform, PlatformPreset};
//! use dream_serve::{ServeConfig, ServeEngine};
//!
//! let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
//! let config = ServeConfig::new(Platform::preset(PlatformPreset::Hetero4kWs1Os2), scenario);
//! # fn scheduler() -> Box<dyn dream_sim::Scheduler> { unimplemented!() }
//! let (engine, handle) = ServeEngine::new(config, scheduler()).unwrap();
//! let server = std::thread::spawn(move || engine.run());
//! let client = handle.client("app");
//! client.submit(PipelineId(0), NodeId(0)).unwrap();
//! handle.drain();
//! let report = server.join().unwrap().unwrap();
//! assert!(report.record.trace().len() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod clock;
mod engine;
pub mod ingress;
pub mod server;
pub mod watch;
pub mod wire;

pub use client::{ClientError, WireClient};
pub use clock::{ManualClock, ServeClock, WallClock};
pub use engine::{
    MetricsSnapshot, ServeConfig, ServeEngine, ServeHandle, SessionReport, StageProfile,
};
pub use ingress::{AdmissionPolicy, ChannelClient, SourceId, SourceStats, SubmitError};
pub use server::{
    listen_tcp, listen_tcp_with_runner, listen_unix, listen_unix_with_runner, CellRunner,
    SocketServer,
};
pub use watch::{watch_channel, WatchReceiver, WatchSender};
pub use wire::{
    parse_scenario_kind, validate_fault, CellOutcome, ErrorCode, Reply, Request, WireError,
    WireSnapshot, PROTOCOL_VERSION,
};
