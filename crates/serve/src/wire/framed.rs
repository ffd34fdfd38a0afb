//! Length framing and connect-time handshake for the wire protocol.
//!
//! A connection opens with a fixed 6-byte hello in each direction:
//!
//! ```text
//! client → server: D7 44 52 4D  vv vv      ("×DRM" + u16 LE version)
//! server → client: D7 64 72 6D  vv vv      ("×drm" + u16 LE version)
//! ```
//!
//! Both hellos must carry [`PROTOCOL_VERSION`](crate::wire::PROTOCOL_VERSION);
//! any other version aborts the connection ([`negotiate`]). The leading
//! [`MAGIC_SENTINEL`] byte (`0xD7`, outside ASCII) is checked on its own
//! first: a peer opening with any other byte is not speaking this
//! protocol and is closed at once.
//!
//! After the handshake, every message is one frame:
//!
//! ```text
//! [u32 LE payload length][payload bytes]
//! ```
//!
//! The payload's first byte is a message tag (see `wire::tag`); the
//! rest is the tag-specific body (see [`ser`](crate::wire::ser) /
//! [`de`](crate::wire::de)). Frames longer than [`MAX_FRAME_BYTES`]
//! are rejected without buffering. Framing is transport-neutral: the
//! same functions run over TCP and Unix sockets, and the reader side
//! tolerates `WouldBlock`/`TimedOut` poll timeouts by accumulating
//! partial frames across calls, so servers keep their stop-flag
//! responsiveness. The writer side sends every frame in one write
//! ([`write_frame`], or [`push_frame`] to batch several).

use std::io::{self, Read, Write};

/// First byte of every hello. The server checks it before reading the
/// rest, so a peer opening with any other byte (a text command, say) is
/// refused without waiting for a full hello.
pub const MAGIC_SENTINEL: u8 = 0xD7;

/// The 4-byte magic opening a client hello.
pub const CLIENT_MAGIC: [u8; 4] = [MAGIC_SENTINEL, b'D', b'R', b'M'];

/// The 4-byte magic opening a server hello.
pub const SERVER_MAGIC: [u8; 4] = [MAGIC_SENTINEL, b'd', b'r', b'm'];

/// Hard cap on one frame's payload, bytes. Large enough for a
/// `CellsDone` reply carrying recorded traces; small enough that a
/// hostile length prefix cannot balloon the connection buffer.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Bytes a frame read allocates before any payload arrives. A larger
/// declared length grows the buffer geometrically as bytes come in, so a
/// length prefix alone cannot make a connection allocate
/// [`MAX_FRAME_BYTES`]; a frame of at most this size takes one
/// allocation.
pub const FRAME_READ_CHUNK: usize = 64 << 10;

/// A framing-layer failure (beneath message decoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer's hello did not start with the expected magic.
    BadMagic([u8; 4]),
    /// The peer's hello carried a version other than ours.
    UnsupportedVersion {
        /// The version the peer's hello carried.
        theirs: u16,
    },
    /// A frame's length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLong {
        /// The declared payload length.
        len: u64,
    },
    /// The stream ended mid-hello or mid-frame.
    Truncated,
    /// A zero-length frame (every payload carries at least a tag).
    Empty,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(magic) => write!(f, "bad hello magic {magic:02x?}"),
            FrameError::UnsupportedVersion { theirs } => {
                write!(f, "peer protocol version {theirs} unsupported")
            }
            FrameError::TooLong { len } => {
                write!(f, "frame too long ({len} bytes, max {MAX_FRAME_BYTES})")
            }
            FrameError::Truncated => write!(f, "stream truncated mid-frame"),
            FrameError::Empty => write!(f, "empty frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(err: FrameError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, err)
    }
}

/// Checks the peer's hello version: both sides speak `ours`, so any
/// other version is refused.
///
/// # Errors
///
/// [`FrameError::UnsupportedVersion`] when `theirs != ours`.
pub fn negotiate(ours: u16, theirs: u16) -> Result<u16, FrameError> {
    if theirs != ours {
        return Err(FrameError::UnsupportedVersion { theirs });
    }
    Ok(ours)
}

/// Encodes a hello (either direction) into its 6 wire bytes.
pub fn hello_bytes(magic: [u8; 4], version: u16) -> [u8; 6] {
    let v = version.to_le_bytes();
    [magic[0], magic[1], magic[2], magic[3], v[0], v[1]]
}

/// Writes one hello.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_hello(w: &mut dyn Write, magic: [u8; 4], version: u16) -> io::Result<()> {
    w.write_all(&hello_bytes(magic, version))?;
    w.flush()
}

/// Reads and validates one hello, returning the peer's version. Pass
/// any hello bytes the caller already read (e.g. the sentinel byte) in
/// `consumed`.
///
/// # Errors
///
/// [`FrameError::BadMagic`] / [`FrameError::Truncated`] as
/// `InvalidData`/`UnexpectedEof` I/O errors, plus transport errors.
pub fn read_hello(r: &mut dyn Read, magic: [u8; 4], consumed: &[u8]) -> io::Result<u16> {
    debug_assert!(consumed.len() <= 6);
    let mut hello = [0u8; 6];
    hello[..consumed.len()].copy_from_slice(consumed);
    r.read_exact(&mut hello[consumed.len()..])
        .map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => {
                io::Error::new(io::ErrorKind::UnexpectedEof, FrameError::Truncated)
            }
            _ => e,
        })?;
    if hello[..4] != magic {
        let mut got = [0u8; 4];
        got.copy_from_slice(&hello[..4]);
        return Err(FrameError::BadMagic(got).into());
    }
    Ok(u16::from_le_bytes([hello[4], hello[5]]))
}

/// Appends one frame, `[u32 LE len][payload]`, to `out`. Nothing is
/// appended when the payload is refused.
///
/// # Errors
///
/// [`FrameError::TooLong`] / [`FrameError::Empty`].
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), FrameError> {
    if payload.is_empty() {
        return Err(FrameError::Empty);
    }
    if payload.len() > MAX_FRAME_BYTES {
        return Err(FrameError::TooLong {
            len: payload.len() as u64,
        });
    }
    out.reserve(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Writes one frame, `[u32 LE len][payload]`, with a single
/// `write_all`, then flushes. Length and payload leave in one segment,
/// so neither Nagle's algorithm on this side nor delayed ACK on the
/// peer can hold the payload behind an unacknowledged length prefix.
///
/// # Errors
///
/// [`FrameError::TooLong`] / [`FrameError::Empty`] as `InvalidData`,
/// plus transport errors.
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    push_frame(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Whether `buffered` starts with a whole frame, so the next
/// [`read_frame_with`] over it completes without touching the
/// transport.
pub(crate) fn holds_frame(buffered: &[u8]) -> bool {
    buffered
        .first_chunk::<4>()
        .is_some_and(|len| buffered.len() - 4 >= u32::from_le_bytes(*len) as usize)
}

/// Outcome of one [`read_frame_with`] call.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the stream at a frame boundary.
    Eof,
    /// `keep_going` went false while waiting (server shutdown).
    Stopped,
}

/// Reads one frame, tolerating read-timeout polls: on
/// `WouldBlock`/`TimedOut`/`Interrupted` the partial bytes already read
/// are kept and `keep_going` is consulted before retrying, so a server
/// honouring a stop flag never blocks forever and never tears a frame.
///
/// Clean EOF is only legal *between* frames; EOF inside a length prefix
/// or payload is [`FrameError::Truncated`].
///
/// # Errors
///
/// Framing violations as `InvalidData`, truncation as `UnexpectedEof`,
/// plus transport errors.
pub fn read_frame_with(
    r: &mut dyn Read,
    keep_going: &mut dyn FnMut() -> bool,
) -> io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    match read_exact_with(r, &mut len_buf, true, keep_going)? {
        ExactRead::Done => {}
        ExactRead::Eof => return Ok(FrameRead::Eof),
        ExactRead::Stopped => return Ok(FrameRead::Stopped),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(FrameError::Empty.into());
    }
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLong { len: len as u64 }.into());
    }
    let mut payload = vec![0u8; len.min(FRAME_READ_CHUNK)];
    let mut filled = 0;
    loop {
        match read_exact_with(r, &mut payload[filled..], false, keep_going)? {
            ExactRead::Done if payload.len() == len => return Ok(FrameRead::Frame(payload)),
            ExactRead::Done => {
                filled = payload.len();
                payload.resize((2 * filled).min(len), 0);
            }
            ExactRead::Eof => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    FrameError::Truncated,
                ))
            }
            ExactRead::Stopped => return Ok(FrameRead::Stopped),
        }
    }
}

/// Blocking convenience for clients: reads one frame or errors (EOF at
/// a boundary is `UnexpectedEof` here — clients always expect a reply).
///
/// # Errors
///
/// As [`read_frame_with`], with boundary EOF mapped to `UnexpectedEof`.
pub fn read_frame(r: &mut dyn Read) -> io::Result<Vec<u8>> {
    match read_frame_with(r, &mut || true)? {
        FrameRead::Frame(payload) => Ok(payload),
        FrameRead::Eof | FrameRead::Stopped => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed while awaiting a frame",
        )),
    }
}

/// A read that gave up on a poll timeout or a signal: nothing is lost,
/// the caller may check its stop flag and retry.
fn is_poll(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

pub(crate) enum ExactRead {
    Done,
    Eof,
    Stopped,
}

/// `read_exact` that survives poll timeouts and reports boundary EOF
/// (only when `eof_ok_at_start` and no byte has been consumed yet).
pub(crate) fn read_exact_with(
    r: &mut dyn Read,
    buf: &mut [u8],
    eof_ok_at_start: bool,
    keep_going: &mut dyn FnMut() -> bool,
) -> io::Result<ExactRead> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok_at_start {
                    return Ok(ExactRead::Eof);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    FrameError::Truncated,
                ));
            }
            Ok(n) => filled += n,
            Err(e) if is_poll(&e) => {
                if !keep_going() {
                    return Ok(ExactRead::Stopped);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(ExactRead::Done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn hello_round_trips_both_directions() {
        let bytes = hello_bytes(CLIENT_MAGIC, 1);
        assert_eq!(bytes, [0xD7, 0x44, 0x52, 0x4D, 0x01, 0x00]);
        let mut r = Cursor::new(bytes.to_vec());
        assert_eq!(read_hello(&mut r, CLIENT_MAGIC, &[]).unwrap(), 1);

        // A caller that already read the sentinel resumes the hello
        // mid-way.
        let mut r = Cursor::new(bytes[1..].to_vec());
        assert_eq!(
            read_hello(&mut r, CLIENT_MAGIC, &[MAGIC_SENTINEL]).unwrap(),
            1
        );

        let sbytes = hello_bytes(SERVER_MAGIC, 7);
        assert_eq!(sbytes, [0xD7, 0x64, 0x72, 0x6D, 0x07, 0x00]);
        let mut r = Cursor::new(sbytes.to_vec());
        assert_eq!(read_hello(&mut r, SERVER_MAGIC, &[]).unwrap(), 7);
    }

    #[test]
    fn hello_rejects_bad_magic_and_truncation() {
        let mut r = Cursor::new(vec![0xD7, b'X', b'R', b'M', 1, 0]);
        let err = read_hello(&mut r, CLIENT_MAGIC, &[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut r = Cursor::new(vec![0xD7, b'D']);
        let err = read_hello(&mut r, CLIENT_MAGIC, &[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn negotiation_accepts_only_the_same_version() {
        use crate::wire::PROTOCOL_VERSION;
        assert_eq!(negotiate(PROTOCOL_VERSION, PROTOCOL_VERSION), Ok(4));
        for theirs in [0, 1, 2, 3, 5, u16::MAX] {
            assert_eq!(
                negotiate(PROTOCOL_VERSION, theirs),
                Err(FrameError::UnsupportedVersion { theirs })
            );
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0x01]).unwrap();
        write_frame(&mut buf, b"hello world").unwrap();
        assert_eq!(&buf[..5], &[1, 0, 0, 0, 0x01]);
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), vec![0x01]);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello world".to_vec());
        match read_frame_with(&mut r, &mut || true).unwrap() {
            FrameRead::Eof => {}
            other => panic!("expected boundary EOF, got {other:?}"),
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        // Counts `write` calls (what reaches the socket as a syscall) and
        // keeps the bytes, so the layout is checked on the same writes.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting::default();
        write_frame(&mut w, &[0x01]).unwrap();
        assert_eq!(w.writes, 1);
        write_frame(&mut w, b"hello world").unwrap();
        assert_eq!(w.writes, 2);
        let mut expected = vec![1, 0, 0, 0, 0x01, 11, 0, 0, 0];
        expected.extend_from_slice(b"hello world");
        assert_eq!(w.bytes, expected);

        // Refused frames write nothing.
        assert!(write_frame(&mut w, &[]).is_err());
        assert_eq!(w.writes, 2);
    }

    #[test]
    fn holds_frame_needs_the_whole_payload() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"abc").unwrap();
        assert!(holds_frame(&buf));
        for cut in 0..buf.len() {
            assert!(!holds_frame(&buf[..cut]), "prefix of {cut} bytes");
        }
        buf.extend_from_slice(&[9, 0]);
        assert!(holds_frame(&buf));
    }

    #[test]
    fn oversize_and_torn_frames_are_rejected() {
        // Hostile length prefix: rejected before any payload allocation.
        let mut r = Cursor::new(((MAX_FRAME_BYTES as u32) + 1).to_le_bytes().to_vec());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Zero-length frame.
        let mut r = Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(read_frame(&mut r).is_err());

        // EOF mid-payload.
        let mut bytes = 8u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut r = Cursor::new(bytes);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // EOF mid-length-prefix.
        let mut r = Cursor::new(vec![5u8, 0]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Oversize writes are refused locally too.
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
        assert!(write_frame(&mut Vec::new(), &[]).is_err());
    }

    #[test]
    fn stop_flag_interrupts_a_waiting_read() {
        // A reader that always times out: the frame reader must consult
        // keep_going and come back with Stopped instead of spinning.
        struct AlwaysTimeout;
        impl Read for AlwaysTimeout {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "poll"))
            }
        }
        let mut polls = 0;
        let out = read_frame_with(&mut AlwaysTimeout, &mut || {
            polls += 1;
            polls < 3
        })
        .unwrap();
        assert!(matches!(out, FrameRead::Stopped));
        assert_eq!(polls, 3);
    }
}
