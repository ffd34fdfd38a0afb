//! Analytical accelerator cost model for the DREAM reproduction.
//!
//! The paper feeds DREAM per-(layer, accelerator) latency and energy
//! estimates produced offline by MAESTRO. This crate is the stand-in: an
//! analytical model of spatial DNN accelerators with weight-stationary
//! (NVDLA-inspired) and output-stationary (ShiDianNao-inspired) dataflows.
//!
//! The model captures exactly the effects the scheduler cares about:
//!
//! * **PE-array utilisation** depends on how a layer's parallelism matches
//!   the dataflow's spatial mapping (depthwise convolutions under-utilise a
//!   weight-stationary array; tiny feature maps under-utilise an
//!   output-stationary one), so heterogeneous platforms genuinely prefer
//!   different accelerators for different layers.
//! * **Roofline latency**: compute time vs. DRAM streaming time, whichever
//!   dominates — GEMV-shaped layers (GNMT) become bandwidth-bound.
//! * **Dataflow-dependent SRAM traffic** drives the energy asymmetry
//!   between dataflows (weight re-fetch for output-stationary arrays,
//!   input re-fetch and partial-sum spills for weight-stationary ones).
//! * **Context-switch cost**: flushing the outgoing model's activations and
//!   fetching the incoming model's working set through DRAM.
//!
//! Absolute numbers are calibrated, not validated against RTL — see
//! `DESIGN.md` §1 for why this preserves the paper's conclusions (the
//! scheduler consumes only *relative* costs).
//!
//! # Pluggable backends
//!
//! Cost *consumers* (the simulator's offline tables, the schedulers'
//! on-demand gang queries) go through the [`CostBackend`] trait rather
//! than the concrete model:
//!
//! * [`CostModel`] — the analytical model above, the default backend.
//! * [`TableBackend`] — a table-driven backend that answers every query
//!   from a per-(layer, accelerator) table loaded from CSV (the MAESTRO
//!   import path). [`TableBackend::derive`] exports such a table
//!   from any backend, so the analytical model bootstraps its own import
//!   fixtures.
//!
//! The contract (see [`backend`]): a backend is a pure function of its
//! calibration, [`CostBackend::calibration_digest`] changes whenever any
//! answer could, and context-switch costs cross the seam as per-byte
//! [`SwitchFactors`] combined by one shared formula — which is why a
//! table exported from the analytical backend and re-imported reproduces
//! it **bit-for-bit** (`tests/backend_conformance.rs` proves it per cell,
//! `tests/backend_fingerprint.rs` at the workspace root proves it on
//! end-to-end simulation metrics).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel;
pub mod backend;
mod error;
mod estimate;
mod params;
mod platform;
pub mod table;

pub use accel::{AcceleratorConfig, AcceleratorId, Dataflow};
pub use backend::{CostBackend, SwitchFactors};
pub use error::CostError;
pub use estimate::{CostModel, LayerCost, SwitchCost};
pub use params::CostParams;
pub use platform::{Platform, PlatformPreset};
pub use table::{layer_signature, TableBackend};
