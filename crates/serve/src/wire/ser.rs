//! Encoding of messages into frame payloads.
//!
//! The format is deliberately boring: every integer is little-endian
//! fixed width, `f64` travels as its `to_bits` u64 (bit-exact — NaN
//! payloads and signed zeros survive the trip, which the replay
//! fingerprints require), strings are `u32 LE` length + UTF-8 bytes,
//! `Option<u64>` is a one-byte presence tag then the value, and `Vec`
//! is a `u32 LE` count then the elements. No varints, no alignment, no
//! implicit defaults: what [`de`](crate::wire::de) reads is exactly
//! what this module wrote, byte for byte.

use dream_sim::FaultKind;

use super::{tag, CellArrival, CellDreamVariant, CellOutcome, CellScheduler, CellSpec};
use super::{Reply, Request, WireSnapshot};

/// An append-only payload builder.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Starts a payload with its message tag.
    pub fn new(tag: u8) -> Self {
        Self { buf: vec![tag] }
    }

    /// Consumes the writer, yielding the payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16 LE`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32 LE`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64 LE`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its bit pattern (`u64 LE`).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as `0`/`1`.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a string: `u32 LE` byte length + UTF-8 bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends an `Option<u64>`: presence byte then the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_u8(0),
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
        }
    }
}

fn put_fault(w: &mut FrameWriter, kind: &FaultKind) {
    match *kind {
        FaultKind::Fail => w.put_u8(tag::FAULT_FAIL),
        FaultKind::Stall { duration } => {
            w.put_u8(tag::FAULT_STALL);
            w.put_u64(duration.as_ns());
        }
        FaultKind::Slowdown { factor, duration } => {
            w.put_u8(tag::FAULT_SLOW);
            w.put_u64(duration.as_ns());
            w.put_f64(factor);
        }
    }
}

fn put_scheduler(w: &mut FrameWriter, s: &CellScheduler) {
    match *s {
        CellScheduler::Fcfs => w.put_u8(tag::SCHED_FCFS),
        CellScheduler::Static => w.put_u8(tag::SCHED_STATIC),
        CellScheduler::Edf => w.put_u8(tag::SCHED_EDF),
        CellScheduler::Veltair => w.put_u8(tag::SCHED_VELTAIR),
        CellScheduler::Planaria => w.put_u8(tag::SCHED_PLANARIA),
        CellScheduler::DreamFixed {
            variant,
            alpha,
            beta,
        } => {
            w.put_u8(tag::SCHED_DREAM_FIXED);
            put_variant(w, variant);
            w.put_f64(alpha);
            w.put_f64(beta);
        }
        CellScheduler::DreamTuned { variant } => {
            w.put_u8(tag::SCHED_DREAM_TUNED);
            put_variant(w, variant);
        }
    }
}

fn put_variant(w: &mut FrameWriter, v: CellDreamVariant) {
    w.put_u8(match v {
        CellDreamVariant::MapScore => tag::VARIANT_MAPSCORE,
        CellDreamVariant::SmartDrop => tag::VARIANT_SMARTDROP,
        CellDreamVariant::Full => tag::VARIANT_FULL,
    });
}

fn put_arrival(w: &mut FrameWriter, a: &CellArrival) {
    match *a {
        CellArrival::Periodic => w.put_u8(tag::ARRIVAL_PERIODIC),
        CellArrival::Poisson { intensity } => {
            w.put_u8(tag::ARRIVAL_POISSON);
            w.put_f64(intensity);
        }
        CellArrival::Mmpp {
            calm,
            burst,
            p_enter,
            p_exit,
        } => {
            w.put_u8(tag::ARRIVAL_MMPP);
            w.put_f64(calm);
            w.put_f64(burst);
            w.put_f64(p_enter);
            w.put_f64(p_exit);
        }
    }
}

fn put_cell_spec(w: &mut FrameWriter, c: &CellSpec) {
    w.put_u64(c.index);
    put_scheduler(w, &c.scheduler);
    w.put_str(&c.scenario);
    w.put_str(&c.preset);
    w.put_f64(c.cascade);
    w.put_u64(c.duration_ms);
    w.put_u64(c.seed);
    put_arrival(w, &c.arrival);
}

fn put_cell_outcome(w: &mut FrameWriter, o: &CellOutcome) {
    w.put_u64(o.index);
    w.put_u64(o.fingerprint);
    w.put_f64(o.uxcost);
    w.put_f64(o.mean_violation_rate);
    w.put_f64(o.mean_norm_energy);
    w.put_str(&o.trace_csv);
}

impl Request {
    /// Encodes this request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Ping => FrameWriter::new(tag::PING).finish(),
            Request::Submit { pipeline, node, at } => {
                let mut w = FrameWriter::new(tag::SUBMIT);
                w.put_u64(pipeline.0 as u64);
                w.put_u64(node.0 as u64);
                w.put_opt_u64(at.map(|t| t.as_ns()));
                w.finish()
            }
            Request::Swap { scenario, cascade } => {
                let mut w = FrameWriter::new(tag::SWAP);
                w.put_str(scenario);
                w.put_f64(*cascade);
                w.finish()
            }
            Request::Fault { acc, kind, at } => {
                let mut w = FrameWriter::new(tag::FAULT);
                w.put_u64(acc.0 as u64);
                put_fault(&mut w, kind);
                w.put_opt_u64(at.map(|t| t.as_ns()));
                w.finish()
            }
            Request::Drain => FrameWriter::new(tag::DRAIN).finish(),
            Request::Snapshot => FrameWriter::new(tag::SNAPSHOT).finish(),
            Request::RunCells {
                record_traces,
                cells,
            } => {
                let mut w = FrameWriter::new(tag::RUN_CELLS);
                w.put_bool(*record_traces);
                w.put_u32(cells.len() as u32);
                for cell in cells {
                    put_cell_spec(&mut w, cell);
                }
                w.finish()
            }
        }
    }
}

impl Reply {
    /// Forwards to [`encode`](Self::encode). The only version a
    /// handshake can negotiate is
    /// [`PROTOCOL_VERSION`](crate::wire::PROTOCOL_VERSION); this stays
    /// only until the next benchmark change moves its caller onto
    /// `encode` and deletes it.
    #[doc(hidden)]
    pub fn encode_versioned(&self, _version: u16) -> Vec<u8> {
        self.encode()
    }

    /// Encodes this reply into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Reply::Ok => FrameWriter::new(tag::OK).finish(),
            Reply::Error { code, message } => {
                let mut w = FrameWriter::new(tag::ERROR);
                w.put_u8(code.as_u8());
                w.put_str(message);
                w.finish()
            }
            Reply::Snapshot(s) => {
                let mut w = FrameWriter::new(tag::SNAPSHOT_REPLY);
                put_snapshot(&mut w, s);
                w.finish()
            }
            Reply::CellsDone { outcomes } => {
                let mut w = FrameWriter::new(tag::CELLS_DONE);
                w.put_u32(outcomes.len() as u32);
                for outcome in outcomes {
                    put_cell_outcome(&mut w, outcome);
                }
                w.finish()
            }
        }
    }
}

fn put_snapshot(w: &mut FrameWriter, s: &WireSnapshot) {
    w.put_u64(s.tick);
    w.put_u64(s.now_ns);
    w.put_u64(s.frontier_ns);
    w.put_u64(s.phase);
    w.put_bool(s.draining);
    w.put_u64(s.ingress_backlog);
    w.put_u64(s.event_backlog);
    w.put_u64(s.admitted);
    w.put_u64(s.shed);
    w.put_u64(s.rejected);
    w.put_u64(s.fingerprint);
    w.put_u64(s.faults_injected);
    w.put_u64(s.fault_requeues);
    w.put_u64(s.deadline_miss_under_faults);
    w.put_u32(s.sojourn_hist.len() as u32);
    for &(bucket, count) in &s.sojourn_hist {
        w.put_u32(bucket);
        w.put_u64(count);
    }
}
