//! The framed wire protocol spoken over TCP/Unix-socket ingress.
//!
//! A connect-time handshake (magic + version; both sides must speak
//! [`PROTOCOL_VERSION`]), then length-framed binary messages with typed
//! ser/de: submissions, control commands, snapshot queries and grid-cell
//! job dispatch ([`Request`] / [`Reply`]). Layout and layering live in
//! the submodules: [`framed`] (handshake + length framing), [`ser`]
//! (encoding), [`de`] (total, typed decoding).
//!
//! Grid cells travel as opaque byte strings: this crate frames them but
//! does not know their format. `dream-bench` owns it (`RunSpec::encode`
//! and `RunSpec::decode`, built on [`ser::FrameWriter`] and
//! [`de::FrameReader`]) and validates every cell it decodes, so a cell
//! this layer accepts can still be refused by the runner.
//!
//! Decoding is total: no input — wild bytes or over-length frames —
//! panics, and every malformed message maps to exactly one typed error
//! (which the server funnels into `rejected_invalid`, exactly once).
//! Fault commands are *validated* at decode time with the simulator's
//! one fault rule ([`FaultKind::check`]): zero-duration stall/slowdown
//! windows and non-finite or `< 1` slowdown factors are rejected before
//! they can become windows that never close (the accelerator would stay
//! stalled or slowed for the rest of the run) or NaN-propagating fault
//! events.

use dream_cost::AcceleratorId;
use dream_models::{NodeId, PipelineId, ScenarioKind};
use dream_sim::{FaultKind, SimTime};

pub mod de;
pub mod framed;
pub mod ser;

/// The one framed protocol version this build speaks. A hello
/// carrying any other version fails the handshake with
/// [`framed::FrameError::UnsupportedVersion`].
///
/// Version 4 ships each `RunCells` cell as a global grid index plus an
/// opaque, length-prefixed byte string, where version 3 laid the cell's
/// fields out inline. A version-3 peer would misread every cell, so it
/// is refused like any other version. (Version 3 introduced the log2 ×
/// 8 sub-bucket snapshot histogram that version 4 keeps.)
pub const PROTOCOL_VERSION: u16 = 4;

/// Why a well-formed request was refused for its content: an unknown
/// scenario, an out-of-range cascade, or a degenerate or misdirected
/// fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The scenario name matches no [`ScenarioKind`].
    UnknownScenario(String),
    /// The cascade probability is outside its legal range.
    InvalidCascade(String),
    /// A fault the simulator's rule refuses: a zero-duration window, a
    /// non-finite or `< 1` slowdown factor ([`FaultKind::check`]) or an
    /// accelerator the served platform lacks
    /// ([`FaultEvent::check`](dream_sim::FaultEvent::check)). Carries the
    /// rule's reason.
    InvalidFault(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownScenario(name) => write!(f, "unknown scenario {name:?}"),
            WireError::InvalidCascade(reason) => write!(f, "invalid cascade: {reason}"),
            WireError::InvalidFault(reason) => f.write_str(reason),
        }
    }
}

impl std::error::Error for WireError {}

/// Parses a scenario name (case-insensitive paper naming).
pub fn parse_scenario_kind(name: &str) -> Option<ScenarioKind> {
    ScenarioKind::all()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
}

// ---------------------------------------------------------------------------
// Typed messages
// ---------------------------------------------------------------------------

/// Frame tags, one byte leading every payload. Requests use the low
/// range, replies the high range, so a frame read off the wrong
/// direction of the stream can never alias.
pub(crate) mod tag {
    pub const PING: u8 = 0x01;
    pub const SUBMIT: u8 = 0x02;
    pub const SWAP: u8 = 0x03;
    pub const FAULT: u8 = 0x04;
    pub const DRAIN: u8 = 0x05;
    pub const SNAPSHOT: u8 = 0x06;
    pub const RUN_CELLS: u8 = 0x07;

    pub const OK: u8 = 0x81;
    pub const ERROR: u8 = 0x82;
    pub const SNAPSHOT_REPLY: u8 = 0x83;
    pub const CELLS_DONE: u8 = 0x84;

    pub const FAULT_FAIL: u8 = 0;
    pub const FAULT_STALL: u8 = 1;
    pub const FAULT_SLOW: u8 = 2;
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered with [`Reply::Ok`].
    Ping,
    /// Submit one inference request.
    Submit {
        /// Target pipeline.
        pipeline: PipelineId,
        /// Target root node.
        node: NodeId,
        /// Optional explicit virtual arrival instant.
        at: Option<SimTime>,
    },
    /// Hot-swap the served scenario.
    Swap {
        /// Scenario name (paper naming, case-insensitive).
        scenario: String,
        /// Cascade probability.
        cascade: f64,
    },
    /// Inject a fault (validated by [`FaultKind::check`] at decode time).
    Fault {
        /// The targeted accelerator.
        acc: AcceleratorId,
        /// What happens to it.
        kind: FaultKind,
        /// Optional explicit virtual instant.
        at: Option<SimTime>,
    },
    /// Begin a graceful drain.
    Drain,
    /// Ask for the latest published metrics snapshot.
    Snapshot,
    /// Run a batch of experiment-grid cells and reply with their
    /// seed-keyed outcomes ([`Reply::CellsDone`]). Served only by
    /// worker nodes configured with a cell runner.
    RunCells {
        /// Whether each outcome should carry its recorded arrival
        /// trace (CSV) for merged-trace auditing.
        record_traces: bool,
        /// The cells to run: each cell's global grid index (its merge
        /// identity) and its encoded spec, opaque to this crate.
        cells: Vec<(u64, Vec<u8>)>,
    },
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The request was executed.
    Ok,
    /// The request was refused.
    Error {
        /// Machine-readable refusal class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The latest metrics snapshot.
    Snapshot(WireSnapshot),
    /// Outcomes of a [`Request::RunCells`] batch, in the order the
    /// cells were sent.
    CellsDone {
        /// One outcome per requested cell.
        outcomes: Vec<CellOutcome>,
    },
}

/// Machine-readable refusal classes carried by [`Reply::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame failed to decode.
    Malformed,
    /// The server does not serve this request (e.g. `RunCells` without
    /// a cell runner).
    Unsupported,
    /// The request decoded but its parameters are invalid.
    Invalid,
    /// The ingress queue is full (reject admission policy).
    Full,
    /// The session is draining or finished.
    Closed,
    /// Nothing to report yet (e.g. no snapshot published).
    Unavailable,
}

impl ErrorCode {
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::Invalid => 3,
            ErrorCode::Full => 4,
            ErrorCode::Closed => 5,
            ErrorCode::Unavailable => 6,
        }
    }

    pub(crate) fn from_u8(raw: u8) -> Option<Self> {
        Some(match raw {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::Invalid,
            4 => ErrorCode::Full,
            5 => ErrorCode::Closed,
            6 => ErrorCode::Unavailable,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Invalid => "invalid",
            ErrorCode::Full => "full",
            ErrorCode::Closed => "closed",
            ErrorCode::Unavailable => "unavailable",
        };
        f.write_str(name)
    }
}

/// The live counters a [`Reply::Snapshot`] carries — the wire face of
/// [`MetricsSnapshot`](crate::MetricsSnapshot), reduced to what a
/// coordinator aggregates across workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Serving ticks elapsed.
    pub tick: u64,
    /// The engine's current virtual instant, ns.
    pub now_ns: u64,
    /// The admission frontier, ns.
    pub frontier_ns: u64,
    /// The phase requests currently target.
    pub phase: u64,
    /// Whether a drain is in progress.
    pub draining: bool,
    /// Requests waiting in the ingress queue.
    pub ingress_backlog: u64,
    /// Events pending in the engine's queue.
    pub event_backlog: u64,
    /// Total arrivals admitted so far.
    pub admitted: u64,
    /// Total requests shed from the bounded queue.
    pub shed: u64,
    /// Total requests rejected (capacity, invalid, or closed).
    pub rejected: u64,
    /// `Metrics::fingerprint` of the cumulative counters at snapshot
    /// time — what a distributed audit compares against a replay.
    pub fingerprint: u64,
    /// Total faults injected so far.
    pub faults_injected: u64,
    /// Tasks aborted and requeued by faults.
    pub fault_requeues: u64,
    /// Deadline misses recorded while any fault window was active.
    pub deadline_miss_under_faults: u64,
    /// Sparse pooled sojourn histogram: `(bucket index, count)` pairs
    /// for non-empty sub-buckets, in ascending bucket order — the wire
    /// form of `dream_sim::Histogram::sparse`. Mergeable across workers
    /// via `Histogram::from_sparse` + `merge`.
    pub sojourn_hist: Vec<(u32, u64)>,
}

/// What a worker reports back for one executed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The cell's global grid index, as the request sent it.
    pub index: u64,
    /// `Metrics::fingerprint()` of the cell's full metrics.
    pub fingerprint: u64,
    /// UXCost (Algorithm 2).
    pub uxcost: f64,
    /// Mean raw violation rate in `[0, 1]`.
    pub mean_violation_rate: f64,
    /// Mean normalised energy in `[0, 1]`.
    pub mean_norm_energy: f64,
    /// The cell's recorded arrival trace (CSV), when the batch asked
    /// for traces; empty otherwise.
    pub trace_csv: String,
}

#[cfg(test)]
mod tests {
    use super::de::DecodeError;
    use super::*;

    fn decode_fault(kind: FaultKind) -> Result<Request, DecodeError> {
        Request::decode(
            &Request::Fault {
                acc: AcceleratorId(0),
                kind,
                at: None,
            }
            .encode(),
        )
    }

    fn refused(reason: &str) -> Result<Request, DecodeError> {
        Err(DecodeError::Fault(WireError::InvalidFault(reason.into())))
    }

    #[test]
    fn rejects_degenerate_fault_windows_with_typed_errors() {
        // Zero-duration windows would never close; both fault kinds
        // that carry a window refuse them.
        assert_eq!(
            decode_fault(FaultKind::Stall {
                duration: SimTime::from_ns(0)
            }),
            refused("fault window duration must be > 0")
        );
        assert_eq!(
            decode_fault(FaultKind::Slowdown {
                factor: 2.0,
                duration: SimTime::from_ns(0)
            }),
            refused("fault window duration must be > 0")
        );
        // Degenerate factors are refused with the factor in the reason.
        assert_eq!(
            decode_fault(FaultKind::Slowdown {
                factor: 0.5,
                duration: SimTime::from_ns(5)
            }),
            refused("factor 0.5 must be finite and >= 1")
        );
        assert_eq!(
            decode_fault(FaultKind::Slowdown {
                factor: f64::NAN,
                duration: SimTime::from_ns(5)
            }),
            refused("factor NaN must be finite and >= 1")
        );
        assert_eq!(
            decode_fault(FaultKind::Slowdown {
                factor: f64::INFINITY,
                duration: SimTime::from_ns(5)
            }),
            refused("factor inf must be finite and >= 1")
        );
        // Sound faults decode back to what was sent.
        for kind in [
            FaultKind::Slowdown {
                factor: 2.0,
                duration: SimTime::from_ns(5),
            },
            FaultKind::Fail,
        ] {
            assert_eq!(
                decode_fault(kind),
                Ok(Request::Fault {
                    acc: AcceleratorId(0),
                    kind,
                    at: None
                })
            );
        }
    }
}
