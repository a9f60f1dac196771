//! A frame header is untrusted input: a peer can claim up to
//! `MAX_FRAME_LEN` bytes and then send far fewer. The reader must fail
//! typed when the stream ends, having allocated about what arrived —
//! not the claimed length. A counting global allocator measures it; the
//! file holds one test so no other test allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ccindex_wire::{read_frame, MAGIC, MAX_FRAME_LEN, VERSION};
use mmdb::{MmdbError, TransportFault};

/// Bytes requested from the allocator (allocations plus the new size
/// of every reallocation), and the largest single request.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn record(size: usize) {
        REQUESTED.fetch_add(size, Ordering::SeqCst);
        LARGEST.fetch_max(size, Ordering::SeqCst);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters have no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: forwarded with the caller's layout, per `GlobalAlloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn oversized_claim_then_eof_fails_typed_without_allocating_the_claim() {
    let sent = 1024usize;
    let mut stream = Vec::new();
    stream.extend_from_slice(&MAGIC);
    stream.extend_from_slice(&VERSION.to_le_bytes());
    stream.extend_from_slice(&0u32.to_le_bytes()); // trace length
    stream.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes()); // payload length
    stream.extend_from_slice(&0u32.to_le_bytes()); // crc
    stream.extend(std::iter::repeat_n(0xA5u8, sent));

    REQUESTED.store(0, Ordering::SeqCst);
    LARGEST.store(0, Ordering::SeqCst);
    let result = read_frame(&mut &stream[..], "peer");
    let requested = REQUESTED.load(Ordering::SeqCst);
    let largest = LARGEST.load(Ordering::SeqCst);

    match result {
        Err(MmdbError::Transport {
            fault: TransportFault::Io,
            endpoint,
            detail,
            ..
        }) => {
            assert_eq!(endpoint, "peer");
            assert!(detail.contains("payload"), "{detail}");
            assert!(
                detail.contains(&format!("{sent} of {MAX_FRAME_LEN}")),
                "{detail}"
            );
        }
        other => panic!("expected a typed Io transport error, got {other:?}"),
    }
    // The claim is 256 MiB; the read may reserve a small fixed buffer
    // and grow it by what arrived, nothing close to the claim.
    assert!(
        requested < MAX_FRAME_LEN / 256,
        "read requested {requested} bytes for a {sent}-byte stream"
    );
    assert!(
        largest < MAX_FRAME_LEN / 256,
        "largest allocation {largest} bytes"
    );
}
