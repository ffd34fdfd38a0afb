//! One benchmark for the DREAM reproduction: the paper's scheduler grid,
//! the same grid under overload, and live framed serving. See the
//! README next to this crate for the workloads, the metrics and how to
//! run it.
//!
//! Every layer is timed from outside, by spans this crate wraps around
//! calls into each layer's public functions; nothing is added inside the
//! program.

// A benchmark measures wall time by definition.
#![allow(clippy::disallowed_methods)]
#![warn(missing_docs)]

pub mod grid;
pub mod report;
pub mod serve;
pub mod stats;
pub mod timed;
