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
//! The tests share the global counters, so each holds [`SERIAL`] while
//! it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Cursor, ErrorKind};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use dream_serve::wire::framed::{read_frame, write_frame, FRAME_READ_CHUNK, MAX_FRAME_BYTES};

/// Tracks live bytes, their peak and the allocation count, then defers
/// to [`System`].
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomics that neither allocate nor touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a fresh block beside the old one, as a moving
        // realloc holds both for a moment.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// Holds the counters for one test; a failed test does not fail the next.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns its result, the peak live bytes above the
/// starting level, and the number of allocations it made.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (out, peak, ALLOCATIONS.load(Ordering::Relaxed) - allocations)
}

#[test]
fn a_declared_length_alone_does_not_allocate_the_frame() {
    let _serial = serial();
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
    let _serial = serial();
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
