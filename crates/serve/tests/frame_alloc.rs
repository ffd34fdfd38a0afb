//! Allocation bounds of the frame reader.
//!
//! A counting global allocator wraps the system one and tracks live
//! bytes and their peak. A peer that declares a [`MAX_FRAME_BYTES`]
//! frame and then sends a few bytes must not make the reader allocate
//! the declared length: the buffer starts at [`FRAME_READ_CHUNK`] and
//! grows only as payload bytes arrive. Frames of every size still read
//! back byte-exact, and one no larger than the chunk takes a single
//! allocation.
//!
//! The counters are per thread (`tests/support/counting_alloc.rs`), so
//! each test measures only its own work.

use std::io::{Cursor, ErrorKind};

use dream_serve::wire::framed::{read_frame, write_frame, FRAME_READ_CHUNK, MAX_FRAME_BYTES};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::measured;

#[test]
fn a_declared_length_alone_does_not_allocate_the_frame() {
    let mut bytes = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0xAB; 10]);
    let mut peer = Cursor::new(bytes);

    let (result, peak, _) = measured(|| read_frame(&mut peer));

    let err = result.expect_err("a torn frame is an error");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        peak <= 2 * FRAME_READ_CHUNK,
        "reading 10 bytes of a {MAX_FRAME_BYTES}-byte frame peaked at {peak} bytes"
    );
}

#[test]
fn frames_of_every_size_read_back_byte_exact() {
    for len in [1, FRAME_READ_CHUNK, FRAME_READ_CHUNK + 1, MAX_FRAME_BYTES] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut peer = Cursor::new(wire);

        let (read, _, allocations) = measured(|| read_frame(&mut peer).unwrap());

        assert!(read == payload, "{len}-byte frame changed in transit");
        if len <= FRAME_READ_CHUNK {
            assert_eq!(allocations, 1, "{len}-byte frame");
        }
    }
}
