//! Socket ingress: TCP and Unix-domain listeners that translate the
//! [framed wire protocol](crate::wire) into ingress submissions.
//!
//! Each accepted connection registers its own ingress source (so the
//! admission funnel is attributable per peer) and is served by a thread
//! that reads the client hello, answers with its own, and then returns
//! one reply frame per request frame. A peer whose first byte is not
//! [`MAGIC_SENTINEL`] (`0xD7`) is
//! closed at once, without a reply; a peer whose hello carries a version
//! other than [`PROTOCOL_VERSION`] gets the server's hello and is then
//! closed.
//!
//! Listeners block in `accept()`; [`SocketServer::shutdown`] (or drop)
//! sets the stop flag and wakes the loop with one connection of its own.
//! Every connection preserves the funnel identity `submitted == admitted +
//! shed + rejected_* + backlog`: a bad, truncated or other-version hello
//! and every malformed frame — including a truncated final frame at peer
//! disconnect — is accounted as exactly one `rejected_invalid`. A peer
//! that closes before its first byte, or is cut off by server shutdown,
//! counts nothing.
//!
//! Accepted TCP sockets set `TCP_NODELAY`: a reply leaves at once
//! instead of waiting for the peer's next frame to carry an ACK back.
//! Frames are read through a buffer and replies batched, flushing
//! whenever the buffered input holds no complete next frame, so a
//! pipelined burst is answered in one write and no reply waits behind a
//! blocking read.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dream_models::{CascadeProbability, Scenario};
use dream_sim::{FaultEvent, SimTime};

use crate::engine::ServeHandle;
use crate::ingress::SubmitError;
use crate::wire::framed::{
    self, holds_frame, push_frame, read_exact_with, read_frame_with, write_hello, ExactRead,
    FrameRead, CLIENT_MAGIC, MAGIC_SENTINEL, SERVER_MAGIC,
};
use crate::wire::{
    de::DecodeError, parse_scenario_kind, CellOutcome, ErrorCode, Reply, Request, WireError,
    WireSnapshot, PROTOCOL_VERSION,
};

const READ_POLL: Duration = Duration::from_millis(100);

/// How long [`SocketServer::shutdown`] waits for its wake-up connection
/// before it detaches the accept thread instead.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Transient `accept()` failures (EMFILE, ECONNABORTED, EINTR, …) are
/// retried with exponential backoff; only this many *consecutive*
/// failures tear the listener down. Any successful accept resets the
/// count.
const ACCEPT_MAX_CONSECUTIVE_FAILURES: u32 = 16;

/// Backoff after the `n`-th consecutive accept failure: doubles from
/// 50 ms, capped at 1.6 s, so a transient EMFILE storm is ridden out
/// without spinning and without giving up the listener.
fn accept_backoff(consecutive_failures: u32) -> Duration {
    Duration::from_millis(50) * 2u32.pow(consecutive_failures.min(5))
}

/// Executes wire-shipped experiment-grid cells on behalf of a
/// [`Request::RunCells`] batch. Implemented by `dream-bench`'s grid
/// runner, which owns the cell format: this crate hands it each cell's
/// global index and encoded bytes unread. Servers without a runner
/// answer `RunCells` with [`ErrorCode::Unsupported`].
pub trait CellRunner: Send + Sync {
    /// Decodes and runs every `(index, cell)` pair and returns their
    /// outcomes in the same order.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the batch cannot run (undecodable
    /// bytes, unknown scenario or preset name, invalid parameters, …).
    /// The server answers [`ErrorCode::Invalid`] and counts one
    /// `rejected_invalid` per refused batch.
    fn run_cells(
        &self,
        cells: &[(u64, Vec<u8>)],
        record_traces: bool,
    ) -> Result<Vec<CellOutcome>, String>;
}

/// Where [`SocketServer::shutdown`] connects to wake its accept loop.
enum WakeAddr {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

/// A running socket listener; dropping it stops the accept loop (open
/// connections drain on their own once the peer closes or the session
/// ends).
pub struct SocketServer {
    stop: Arc<AtomicBool>,
    wake: WakeAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl SocketServer {
    /// Stops accepting new connections and joins the accept loop.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(thread) = self.accept_thread.take() else {
            return;
        };
        // The loop is blocked in accept(): one connection wakes it to see
        // the flag. If that connect fails, detach rather than hang.
        let woke = thread.is_finished()
            || match &self.wake {
                WakeAddr::Tcp(addr) => TcpStream::connect_timeout(addr, WAKE_TIMEOUT).is_ok(),
                WakeAddr::Unix(path) => UnixStream::connect(path).is_ok(),
            };
        if woke {
            let _ = thread.join();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

/// Starts a TCP listener feeding `handle`. Binds `addr` (use port 0 for
/// an ephemeral port) and returns the bound address plus the server
/// guard.
///
/// # Errors
///
/// Propagates bind errors, and the OS refusing the accept thread.
pub fn listen_tcp(
    handle: &ServeHandle,
    addr: impl ToSocketAddrs,
) -> std::io::Result<(SocketAddr, SocketServer)> {
    listen_tcp_with_runner(handle, addr, None)
}

/// [`listen_tcp`] with a [`CellRunner`] so the node can execute
/// wire-shipped experiment-grid cells (a *worker* node).
///
/// # Errors
///
/// Propagates bind errors, and the OS refusing the accept thread.
pub fn listen_tcp_with_runner(
    handle: &ServeHandle,
    addr: impl ToSocketAddrs,
    runner: Option<Arc<dyn CellRunner>>,
) -> std::io::Result<(SocketAddr, SocketServer)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let mut wake = local;
    if local.ip().is_unspecified() {
        wake.set_ip(match local {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let server = spawn_accept_loop(WakeAddr::Tcp(wake), handle, runner, move || {
        let (stream, peer) = listener.accept()?;
        Ok((TcpTransport(stream), format!("tcp:{peer}")))
    })?;
    Ok((local, server))
}

/// Starts a Unix-domain-socket listener feeding `handle` at `path`
/// (removed first if it exists).
///
/// # Errors
///
/// Propagates bind errors, and the OS refusing the accept thread.
pub fn listen_unix(handle: &ServeHandle, path: impl AsRef<Path>) -> std::io::Result<SocketServer> {
    listen_unix_with_runner(handle, path, None)
}

/// [`listen_unix`] with a [`CellRunner`] so the node can execute
/// wire-shipped experiment-grid cells (a *worker* node).
///
/// # Errors
///
/// Propagates bind errors, and the OS refusing the accept thread.
pub fn listen_unix_with_runner(
    handle: &ServeHandle,
    path: impl AsRef<Path>,
    runner: Option<Arc<dyn CellRunner>>,
) -> std::io::Result<SocketServer> {
    let path = path.as_ref();
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let label_base = path.display().to_string();
    let mut conn = 0usize;
    spawn_accept_loop(
        WakeAddr::Unix(path.to_path_buf()),
        handle,
        runner,
        move || {
            let (stream, _) = listener.accept()?;
            conn += 1;
            Ok((UnixTransport(stream), format!("unix:{label_base}#{conn}")))
        },
    )
}

/// Runs `accept` (blocking) on its own thread, serving each connection
/// on a thread of its own, until the stop flag is seen after a wake-up
/// or too many consecutive accept failures. A connection whose thread
/// the OS refuses is dropped, and accepting goes on.
///
/// # Errors
///
/// The OS refused the accept thread itself.
fn spawn_accept_loop<T: Transport + Send + 'static>(
    wake: WakeAddr,
    handle: &ServeHandle,
    runner: Option<Arc<dyn CellRunner>>,
    mut accept: impl FnMut() -> std::io::Result<(T, String)> + Send + 'static,
) -> std::io::Result<SocketServer> {
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let handle = handle.clone();
    let accept_thread = std::thread::Builder::new().spawn(move || {
        let mut failures = 0u32;
        while !accept_stop.load(Ordering::SeqCst) {
            let accepted = accept();
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((transport, label)) => {
                    failures = 0;
                    let handle = handle.clone();
                    let stop = Arc::clone(&accept_stop);
                    let runner = runner.clone();
                    // A refused thread drops the closure, and with it the
                    // connection.
                    let _ = std::thread::Builder::new().spawn(move || {
                        serve_connection(transport, &handle, label, &stop, runner);
                    });
                }
                Err(_) => {
                    failures += 1;
                    if failures >= ACCEPT_MAX_CONSECUTIVE_FAILURES {
                        break;
                    }
                    std::thread::sleep(accept_backoff(failures));
                }
            }
        }
    })?;
    Ok(SocketServer {
        stop,
        wake,
        accept_thread: Some(accept_thread),
    })
}

/// The two stream flavors, unified just enough for one connection loop.
trait Transport {
    fn split(self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)>;
    /// Sets the read-poll timeout (and, on TCP, `TCP_NODELAY`).
    fn configure(&self) -> std::io::Result<()>;
}

struct TcpTransport(TcpStream);

impl Transport for TcpTransport {
    fn split(self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let writer = self.0.try_clone()?;
        Ok((Box::new(self.0), Box::new(writer)))
    }

    fn configure(&self) -> std::io::Result<()> {
        self.0.set_nodelay(true)?;
        self.0.set_read_timeout(Some(READ_POLL))
    }
}

struct UnixTransport(UnixStream);

impl Transport for UnixTransport {
    fn split(self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let writer = self.0.try_clone()?;
        Ok((Box::new(self.0), Box::new(writer)))
    }

    fn configure(&self) -> std::io::Result<()> {
        self.0.set_read_timeout(Some(READ_POLL))
    }
}

fn serve_connection<T: Transport>(
    transport: T,
    handle: &ServeHandle,
    label: String,
    stop: &AtomicBool,
    runner: Option<Arc<dyn CellRunner>>,
) {
    let Ok((reader, writer)) = transport.configure().and_then(|()| transport.split()) else {
        return;
    };
    let client = handle.client(label);
    serve_framed(
        BufReader::new(reader),
        writer,
        handle,
        &client,
        stop,
        runner,
    );
    // Every exit records exactly one disconnect against the source.
    client.ingress.record_disconnect(client.source);
}

/// The framed-protocol loop: handshake, then one reply frame per
/// request frame, in order (pipelining-safe).
///
/// Replies are buffered and flushed whenever the buffered input holds no
/// complete next frame (and before every exit): a pipelined burst gets
/// its replies in one write, and no reply waits behind a blocking read.
/// A buffered reply does wait while the next buffered request executes,
/// so a `RunCells` pipelined behind other requests holds their replies
/// until its cells finish.
fn serve_framed(
    mut reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    handle: &ServeHandle,
    client: &crate::ingress::ChannelClient,
    stop: &AtomicBool,
    runner: Option<Arc<dyn CellRunner>>,
) {
    // Read the client hello. A peer that closes before its first byte,
    // or is cut off by shutdown, caused nothing to account.
    let mut hello = [0u8; 6];
    let mut keep_going = || !stop.load(Ordering::SeqCst);
    match read_exact_with(&mut reader, &mut hello[..1], true, &mut keep_going) {
        Ok(ExactRead::Done) => {}
        Ok(ExactRead::Eof | ExactRead::Stopped) | Err(_) => return,
    }
    // The sentinel alone marks a framed peer, so any other opener is
    // refused at once instead of waiting for bytes it may never send. A
    // truncated hello or a wrong magic is one malformed opener.
    let opened = hello[0] == MAGIC_SENTINEL
        && match read_exact_with(&mut reader, &mut hello[1..], false, &mut keep_going) {
            Ok(ExactRead::Done) => hello[..4] == CLIENT_MAGIC,
            Ok(ExactRead::Stopped) => return,
            Ok(ExactRead::Eof) | Err(_) => false,
        };
    if !opened {
        client.ingress.record_wire_invalid(client.source);
        return;
    }
    let theirs = u16::from_le_bytes([hello[4], hello[5]]);
    let mut writer = BufWriter::new(writer);
    // Our hello goes out either way: it tells a refused peer which
    // version we speak, so it draws the same conclusion.
    let hello_sent = write_hello(&mut writer, SERVER_MAGIC, PROTOCOL_VERSION).is_ok();
    if framed::negotiate(PROTOCOL_VERSION, theirs).is_err() {
        // A hello with any other version is one malformed opener.
        client.ingress.record_wire_invalid(client.source);
        return;
    }
    if !hello_sent {
        return;
    }
    let mut snapshots = handle.snapshots();
    let mut frame = Vec::new();
    let mut queue = |writer: &mut BufWriter<_>, reply: Reply| {
        frame.clear();
        push_frame(&mut frame, &reply.encode())?;
        writer.write_all(&frame)
    };
    loop {
        let payload = match read_frame_with(&mut reader, &mut keep_going) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Eof | FrameRead::Stopped) => break,
            Err(e) => {
                // Framing violations (oversize/zero frames, truncation
                // mid-frame) are malformed input from the peer: account
                // one rejected_invalid, try to say why, and hang up.
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                ) {
                    client.ingress.record_wire_invalid(client.source);
                    let reply = Reply::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    };
                    let _ = queue(&mut writer, reply);
                }
                break;
            }
        };
        let reply = match Request::decode(&payload) {
            Ok(request) => execute(request, handle, client, &mut snapshots, runner.as_deref()),
            Err(DecodeError::Fault(err)) => {
                // Structurally fine, semantically degenerate fault
                // parameters: refused like any other invalid request.
                client.ingress.record_wire_invalid(client.source);
                Reply::Error {
                    code: ErrorCode::Invalid,
                    message: err.to_string(),
                }
            }
            Err(err) => {
                client.ingress.record_wire_invalid(client.source);
                Reply::Error {
                    code: ErrorCode::Malformed,
                    message: err.to_string(),
                }
            }
        };
        if queue(&mut writer, reply).is_err()
            || (!holds_frame(reader.buffer()) && writer.flush().is_err())
        {
            break;
        }
    }
    let _ = writer.flush();
}

/// Executes one decoded request against the engine.
fn execute(
    request: Request,
    handle: &ServeHandle,
    client: &crate::ingress::ChannelClient,
    snapshots: &mut crate::watch::WatchReceiver<crate::engine::MetricsSnapshot>,
    runner: Option<&dyn CellRunner>,
) -> Reply {
    match request {
        Request::Ping => Reply::Ok,
        Request::Submit { pipeline, node, at } => {
            let result = match at {
                Some(at) => client.submit_at(pipeline, node, at),
                None => client.submit(pipeline, node),
            };
            match result {
                Ok(()) => Reply::Ok,
                Err(SubmitError::Full) => Reply::Error {
                    code: ErrorCode::Full,
                    message: "queue full".into(),
                },
                Err(SubmitError::Closed) => Reply::Error {
                    code: ErrorCode::Closed,
                    message: "session closed".into(),
                },
            }
        }
        Request::Swap { scenario, cascade } => {
            let Some(kind) = parse_scenario_kind(&scenario) else {
                client.ingress.record_wire_invalid(client.source);
                return Reply::Error {
                    code: ErrorCode::Invalid,
                    message: WireError::UnknownScenario(scenario).to_string(),
                };
            };
            let cascade = match CascadeProbability::new(cascade) {
                Ok(c) => c,
                Err(e) => {
                    client.ingress.record_wire_invalid(client.source);
                    return Reply::Error {
                        code: ErrorCode::Invalid,
                        message: WireError::InvalidCascade(e.to_string()).to_string(),
                    };
                }
            };
            handle.swap(Scenario::new(kind, cascade));
            Reply::Ok
        }
        Request::Fault { acc, kind, at } => {
            let event = FaultEvent {
                at: at.unwrap_or(SimTime::ZERO),
                acc,
                kind,
            };
            if let Err(reason) = event.check(handle.accelerators) {
                client.ingress.record_wire_invalid(client.source);
                return Reply::Error {
                    code: ErrorCode::Invalid,
                    message: WireError::InvalidFault(reason).to_string(),
                };
            }
            handle.fault(acc, kind, at);
            Reply::Ok
        }
        Request::Drain => {
            handle.drain();
            Reply::Ok
        }
        Request::Snapshot => match snapshots.latest() {
            Some(snap) => Reply::Snapshot(WireSnapshot {
                tick: snap.tick,
                now_ns: snap.now.as_ns(),
                frontier_ns: snap.frontier.as_ns(),
                phase: snap.phase as u64,
                draining: snap.draining,
                ingress_backlog: snap.ingress_backlog as u64,
                event_backlog: snap.event_backlog as u64,
                admitted: snap.admitted,
                shed: snap.shed,
                rejected: snap.rejected,
                fingerprint: snap.metrics.fingerprint(),
                faults_injected: snap.metrics.faults_injected,
                fault_requeues: snap.metrics.fault_requeues,
                deadline_miss_under_faults: snap.metrics.deadline_miss_under_faults,
                sojourn_hist: snap.sojourn_hist.sparse(),
            }),
            None => Reply::Error {
                code: ErrorCode::Unavailable,
                message: "no snapshot published yet".into(),
            },
        },
        Request::RunCells {
            record_traces,
            cells,
        } => match runner {
            None => Reply::Error {
                code: ErrorCode::Unsupported,
                message: "this node has no cell runner".into(),
            },
            Some(runner) => match runner.run_cells(&cells, record_traces) {
                Ok(outcomes) => Reply::CellsDone { outcomes },
                Err(message) => {
                    client.ingress.record_wire_invalid(client.source);
                    Reply::Error {
                        code: ErrorCode::Invalid,
                        message,
                    }
                }
            },
        },
    }
}
