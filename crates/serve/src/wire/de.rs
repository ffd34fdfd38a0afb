//! Total, typed decoding of frame payloads.
//!
//! Decoding never panics and never trusts a length it hasn't checked
//! against the bytes actually present: every read is bounds-checked,
//! every tag is matched exhaustively, and a payload must be consumed
//! *exactly* — trailing bytes are an error, not slack. Fault requests
//! are additionally validated with [`FaultKind::check`] at decode time,
//! so degenerate fault parameters come back as typed errors.

use dream_cost::AcceleratorId;
use dream_models::{NodeId, PipelineId};
use dream_sim::{FaultKind, SimTime};

use super::{tag, CellOutcome, ErrorCode, Reply, Request, WireError, WireSnapshot};

/// Why a frame payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the message did.
    Truncated,
    /// The message ended before the payload did.
    Trailing {
        /// Unconsumed byte count.
        extra: usize,
    },
    /// An enum tag outside its legal range.
    BadTag {
        /// Which field carried it.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field that is not valid UTF-8.
    BadUtf8,
    /// A collection or string whose declared length is implausible for
    /// the bytes present.
    Overlong,
    /// The message decoded structurally but its fault parameters are
    /// invalid (see [`FaultKind::check`]).
    Fault(WireError),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            DecodeError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::Overlong => write!(f, "declared length exceeds payload"),
            DecodeError::Fault(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over one frame payload.
#[derive(Debug)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Wraps a payload for reading.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts full consumption — the final step of every decode.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Trailing`].
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(DecodeError::Trailing { extra }),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`].
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32 LE`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64 LE`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern (bit-exact).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`].
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool (`0`/`1`; anything else is a bad tag).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] / [`DecodeError::BadTag`].
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a string: `u32 LE` length + UTF-8 bytes. The length is
    /// checked against the remaining payload *before* allocating.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Overlong`] / [`DecodeError::BadUtf8`] /
    /// [`DecodeError::Truncated`].
    pub fn str(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a byte string: `u32 LE` length + the bytes, borrowed from
    /// the payload. The length is checked against the remaining payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Overlong`] / [`DecodeError::Truncated`].
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(DecodeError::Overlong);
        }
        self.take(len)
    }

    /// Reads an `Option<u64>`: presence byte then the value.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] / [`DecodeError::BadTag`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            tag => Err(DecodeError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

fn read_fault(r: &mut FrameReader<'_>) -> Result<FaultKind, DecodeError> {
    match r.u8()? {
        tag::FAULT_FAIL => Ok(FaultKind::Fail),
        tag::FAULT_STALL => Ok(FaultKind::Stall {
            duration: SimTime::from_ns(r.u64()?),
        }),
        tag::FAULT_SLOW => {
            let duration = SimTime::from_ns(r.u64()?);
            let factor = r.f64()?;
            Ok(FaultKind::Slowdown { factor, duration })
        }
        tag => Err(DecodeError::BadTag {
            what: "fault kind",
            tag,
        }),
    }
}

fn read_cell_outcome(r: &mut FrameReader<'_>) -> Result<CellOutcome, DecodeError> {
    Ok(CellOutcome {
        index: r.u64()?,
        fingerprint: r.u64()?,
        uxcost: r.f64()?,
        mean_violation_rate: r.f64()?,
        mean_norm_energy: r.f64()?,
        trace_csv: r.str()?,
    })
}

/// Reads a collection count, sanity-bounded by the bytes present (each
/// element needs at least `min_elem_bytes`).
fn read_count(r: &mut FrameReader<'_>, min_elem_bytes: usize) -> Result<usize, DecodeError> {
    let count = r.u32()? as usize;
    if count.saturating_mul(min_elem_bytes) > r.remaining() {
        return Err(DecodeError::Overlong);
    }
    Ok(count)
}

impl Request {
    /// Decodes a request frame payload. Total: any byte soup yields a
    /// typed error, never a panic.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`]; [`DecodeError::Fault`] carries the shared
    /// fault-validation error.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = FrameReader::new(payload);
        let req = match r.u8()? {
            tag::PING => Request::Ping,
            tag::SUBMIT => Request::Submit {
                pipeline: PipelineId(r.u64()? as usize),
                node: NodeId(r.u64()? as usize),
                at: r.opt_u64()?.map(SimTime::from_ns),
            },
            tag::SWAP => Request::Swap {
                scenario: r.str()?,
                cascade: r.f64()?,
            },
            tag::FAULT => {
                let acc = AcceleratorId(r.u64()? as usize);
                let kind = read_fault(&mut r)?;
                kind.check()
                    .map_err(|reason| DecodeError::Fault(WireError::InvalidFault(reason)))?;
                Request::Fault {
                    acc,
                    kind,
                    at: r.opt_u64()?.map(SimTime::from_ns),
                }
            }
            tag::DRAIN => Request::Drain,
            tag::SNAPSHOT => Request::Snapshot,
            tag::RUN_CELLS => {
                let record_traces = r.bool()?;
                // A cell is at least its index and its byte-string length.
                let count = read_count(&mut r, 12)?;
                let mut cells = Vec::with_capacity(count);
                for _ in 0..count {
                    cells.push((r.u64()?, r.bytes()?.to_vec()));
                }
                Request::RunCells {
                    record_traces,
                    cells,
                }
            }
            tag => {
                return Err(DecodeError::BadTag {
                    what: "request",
                    tag,
                })
            }
        };
        r.expect_end()?;
        Ok(req)
    }
}

impl Reply {
    /// Decodes a reply frame payload at the newest protocol generation.
    /// Total, like [`Request::decode`].
    ///
    /// # Errors
    ///
    /// A [`DecodeError`].
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = FrameReader::new(payload);
        let reply = match r.u8()? {
            tag::OK => Reply::Ok,
            tag::ERROR => {
                let raw = r.u8()?;
                let code = ErrorCode::from_u8(raw).ok_or(DecodeError::BadTag {
                    what: "error code",
                    tag: raw,
                })?;
                Reply::Error {
                    code,
                    message: r.str()?,
                }
            }
            tag::SNAPSHOT_REPLY => Reply::Snapshot(read_snapshot(&mut r)?),
            tag::CELLS_DONE => {
                // A minimal CellOutcome is 44 bytes.
                let count = read_count(&mut r, 44)?;
                let mut outcomes = Vec::with_capacity(count);
                for _ in 0..count {
                    outcomes.push(read_cell_outcome(&mut r)?);
                }
                Reply::CellsDone { outcomes }
            }
            tag => return Err(DecodeError::BadTag { what: "reply", tag }),
        };
        r.expect_end()?;
        Ok(reply)
    }

    /// Forwards to [`decode`](Self::decode). The only version a
    /// handshake can negotiate is
    /// [`PROTOCOL_VERSION`](crate::wire::PROTOCOL_VERSION); this stays
    /// only until the next benchmark change moves its caller onto
    /// `decode` and deletes it.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`].
    #[doc(hidden)]
    pub fn decode_versioned(payload: &[u8], _version: u16) -> Result<Self, DecodeError> {
        Self::decode(payload)
    }
}

fn read_snapshot(r: &mut FrameReader<'_>) -> Result<WireSnapshot, DecodeError> {
    Ok(WireSnapshot {
        tick: r.u64()?,
        now_ns: r.u64()?,
        frontier_ns: r.u64()?,
        phase: r.u64()?,
        draining: r.bool()?,
        ingress_backlog: r.u64()?,
        event_backlog: r.u64()?,
        admitted: r.u64()?,
        shed: r.u64()?,
        rejected: r.u64()?,
        fingerprint: r.u64()?,
        faults_injected: r.u64()?,
        fault_requeues: r.u64()?,
        deadline_miss_under_faults: r.u64()?,
        sojourn_hist: read_sparse_hist(r)?,
    })
}

fn read_sparse_hist(r: &mut FrameReader<'_>) -> Result<Vec<(u32, u64)>, DecodeError> {
    // Each sparse bucket is 12 bytes on the wire.
    let count = read_count(r, 12)?;
    let mut hist = Vec::with_capacity(count);
    for _ in 0..count {
        hist.push((r.u32()?, r.u64()?));
    }
    Ok(hist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert_eq!(
            Request::decode(&payload),
            Err(DecodeError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn degenerate_faults_rejected_at_decode_time() {
        // Hand-encode a zero-duration stall: the shared validator must
        // refuse it even though the bytes are structurally fine.
        let mut w = super::super::ser::FrameWriter::new(tag::FAULT);
        w.put_u64(0);
        w.put_u8(tag::FAULT_STALL);
        w.put_u64(0);
        w.put_u8(0); // at = None
        assert_eq!(
            Request::decode(&w.finish()),
            Err(DecodeError::Fault(WireError::InvalidFault(
                "fault window duration must be > 0".into()
            )))
        );

        let mut w = super::super::ser::FrameWriter::new(tag::FAULT);
        w.put_u64(3);
        w.put_u8(tag::FAULT_SLOW);
        w.put_u64(500);
        w.put_f64(f64::NAN);
        w.put_u8(0);
        assert_eq!(
            Request::decode(&w.finish()),
            Err(DecodeError::Fault(WireError::InvalidFault(
                "factor NaN must be finite and >= 1".into()
            )))
        );
    }

    #[test]
    fn hostile_collection_counts_are_bounded() {
        // RUN_CELLS claiming u32::MAX cells in a tiny payload must fail
        // on the count check, not attempt a giant allocation.
        let mut w = super::super::ser::FrameWriter::new(tag::RUN_CELLS);
        w.put_bool(false);
        w.put_u32(u32::MAX);
        assert_eq!(Request::decode(&w.finish()), Err(DecodeError::Overlong));
        // So must one cell claiming more bytes than the payload holds.
        let mut w = super::super::ser::FrameWriter::new(tag::RUN_CELLS);
        w.put_bool(false);
        w.put_u32(1);
        w.put_u64(0);
        w.put_u32(u32::MAX);
        assert_eq!(Request::decode(&w.finish()), Err(DecodeError::Overlong));
    }
}
