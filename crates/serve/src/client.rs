//! A typed client for the wire protocol.
//!
//! [`WireClient`] dials a serve node over TCP or a Unix socket,
//! performs the handshake (magic + version; both sides must speak
//! [`PROTOCOL_VERSION`]), and exposes one method per protocol verb.
//! Every request gets exactly one reply frame, in order, so requests
//! can also be pipelined ([`WireClient::submit_batch`]) without
//! ambiguity.
//!
//! Every frame leaves in one write, TCP connections set `TCP_NODELAY`,
//! and replies are read through a buffer, so a request costs one send
//! and no timer wait on either side.

use std::io::{BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

use dream_cost::AcceleratorId;
use dream_models::{NodeId, PipelineId};
use dream_sim::{FaultKind, SimTime};

use crate::wire::de::DecodeError;
use crate::wire::framed::{
    negotiate, push_frame, read_frame, read_hello, write_frame, write_hello, CLIENT_MAGIC,
    SERVER_MAGIC,
};
use crate::wire::{CellOutcome, ErrorCode, Reply, Request, WireSnapshot, PROTOCOL_VERSION};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(std::io::Error),
    /// A reply frame failed to decode.
    Decode(DecodeError),
    /// The server answered with an error reply.
    Server {
        /// Machine-readable refusal class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a structurally valid reply of the wrong
    /// kind for the request that was sent.
    UnexpectedReply(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Decode(e) => write!(f, "bad reply frame: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::UnexpectedReply(expected) => {
                write!(f, "unexpected reply kind (wanted {expected})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// A connected, handshaken peer.
pub struct WireClient {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl WireClient {
    /// Dials a TCP serve node, sets `TCP_NODELAY`, and handshakes.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures as [`ClientError::Io`].
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Self::handshake(Box::new(stream), Box::new(writer))
    }

    /// Dials a Unix-domain serve node and handshakes.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures as [`ClientError::Io`].
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Self, ClientError> {
        let stream = UnixStream::connect(path)?;
        let writer = stream.try_clone()?;
        Self::handshake(Box::new(stream), Box::new(writer))
    }

    fn handshake(
        reader: Box<dyn Read + Send>,
        mut writer: Box<dyn Write + Send>,
    ) -> Result<Self, ClientError> {
        let mut reader = BufReader::new(reader);
        write_hello(&mut writer, CLIENT_MAGIC, PROTOCOL_VERSION)?;
        let theirs = read_hello(&mut reader, SERVER_MAGIC, &[])?;
        negotiate(PROTOCOL_VERSION, theirs).map_err(std::io::Error::from)?;
        Ok(Self { reader, writer })
    }

    /// Sends one request and awaits its reply (error replies come back
    /// as `Ok(Reply::Error { .. })` — use the typed verbs for automatic
    /// error mapping).
    ///
    /// # Errors
    ///
    /// Transport and decode failures.
    pub fn request(&mut self, request: &Request) -> Result<Reply, ClientError> {
        write_frame(&mut self.writer, &request.encode())?;
        let payload = read_frame(&mut self.reader)?;
        Ok(Reply::decode(&payload)?)
    }

    fn expect_ok(&mut self, request: &Request) -> Result<(), ClientError> {
        match self.request(request)? {
            Reply::Ok => Ok(()),
            Reply::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedReply("ok")),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Transport, decode, and server failures.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Ping)
    }

    /// Submits one request arriving "now".
    ///
    /// # Errors
    ///
    /// Transport, decode, and server failures ([`ErrorCode::Full`] /
    /// [`ErrorCode::Closed`] on admission refusal).
    pub fn submit(&mut self, pipeline: PipelineId, node: NodeId) -> Result<(), ClientError> {
        self.expect_ok(&Request::Submit {
            pipeline,
            node,
            at: None,
        })
    }

    /// Submits one request with an explicit virtual arrival instant.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_at(
        &mut self,
        pipeline: PipelineId,
        node: NodeId,
        at: SimTime,
    ) -> Result<(), ClientError> {
        self.expect_ok(&Request::Submit {
            pipeline,
            node,
            at: Some(at),
        })
    }

    /// Pipelines a batch of submissions: all request frames go out in
    /// one write before any reply is read (one round trip instead of
    /// N), then the replies are collected in order.
    ///
    /// # Errors
    ///
    /// Transport and decode failures; per-request refusals come back in
    /// the result vector.
    pub fn submit_batch(
        &mut self,
        batch: &[(PipelineId, NodeId, Option<SimTime>)],
    ) -> Result<Vec<Result<(), ClientError>>, ClientError> {
        let mut frames = Vec::new();
        for &(pipeline, node, at) in batch {
            let request = Request::Submit { pipeline, node, at };
            push_frame(&mut frames, &request.encode()).map_err(std::io::Error::from)?;
        }
        self.writer.write_all(&frames)?;
        self.writer.flush()?;
        let mut results = Vec::with_capacity(batch.len());
        for _ in batch {
            let payload = read_frame(&mut self.reader)?;
            results.push(match Reply::decode(&payload)? {
                Reply::Ok => Ok(()),
                Reply::Error { code, message } => Err(ClientError::Server { code, message }),
                _ => Err(ClientError::UnexpectedReply("ok")),
            });
        }
        Ok(results)
    }

    /// Hot-swaps the served scenario.
    ///
    /// # Errors
    ///
    /// Transport, decode, and server failures.
    pub fn swap(&mut self, scenario: &str, cascade: f64) -> Result<(), ClientError> {
        self.expect_ok(&Request::Swap {
            scenario: scenario.to_string(),
            cascade,
        })
    }

    /// Injects a fault (validated server-side like every fault).
    ///
    /// # Errors
    ///
    /// Transport, decode, and server failures.
    pub fn fault(
        &mut self,
        acc: AcceleratorId,
        kind: FaultKind,
        at: Option<SimTime>,
    ) -> Result<(), ClientError> {
        self.expect_ok(&Request::Fault { acc, kind, at })
    }

    /// Begins a graceful drain.
    ///
    /// # Errors
    ///
    /// Transport, decode, and server failures.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Drain)
    }

    /// Fetches the latest published metrics snapshot.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Unavailable`] (as [`ClientError::Server`]) when
    /// nothing has been published yet, plus transport/decode failures.
    pub fn snapshot(&mut self) -> Result<WireSnapshot, ClientError> {
        match self.request(&Request::Snapshot)? {
            Reply::Snapshot(snapshot) => Ok(snapshot),
            Reply::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedReply("snapshot")),
        }
    }

    /// Runs a batch of experiment-grid cells on the peer (a worker node
    /// started with a cell runner) and returns their outcomes. Each cell
    /// is its global grid index and its encoded spec.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Unsupported`] when the peer has no runner,
    /// [`ErrorCode::Invalid`] when its runner refuses the batch, plus
    /// transport/decode/server failures.
    pub fn run_cells(
        &mut self,
        cells: Vec<(u64, Vec<u8>)>,
        record_traces: bool,
    ) -> Result<Vec<CellOutcome>, ClientError> {
        match self.request(&Request::RunCells {
            record_traces,
            cells,
        })? {
            Reply::CellsDone { outcomes } => Ok(outcomes),
            Reply::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedReply("cells_done")),
        }
    }
}
