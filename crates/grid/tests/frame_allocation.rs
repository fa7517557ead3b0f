//! A frame header alone buys a peer no memory.
//!
//! A length word may declare up to `MAX_FRAME_LEN` (1 GiB) of payload,
//! and anyone who can dial `ugc broker serve` gets its acceptor to read
//! one: `recv_hello` runs on every connection before the peer has proved
//! anything. The reader must allocate for the bytes that arrive, not for
//! the bytes a header promises. This binary records the largest single
//! request the process makes of the allocator and checks that a bare
//! header declaring a gigabyte keeps it under a mebibyte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use ugc_grid::wire::{read_frame, recv_hello};
use ugc_grid::GridError;

/// The system allocator, recording the largest size it is asked for.
struct LargestRequest;

/// The largest size requested since the last [`reset`].
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    LARGEST.fetch_max(size, Ordering::SeqCst);
}

fn reset() {
    LARGEST.store(0, Ordering::SeqCst);
}

// SAFETY: every method passes its arguments to `System` unchanged, so the
// caller's `GlobalAlloc` contract is the one `System` relies on; the
// record is a statistic and touches no allocated memory. `alloc_zeroed`
// and `realloc` are forwarded too, so a gigabyte request is recorded and
// refused nothing, but never falls back to an `alloc` plus a write of
// every byte.
#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; this one records sizes and forwards to System"
)]
unsafe impl GlobalAlloc for LargestRequest {
    #[expect(
        unsafe_code,
        reason = "forwards the caller's layout to System.alloc unchanged"
    )]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    #[expect(
        unsafe_code,
        reason = "forwards the caller's layout to System.alloc_zeroed unchanged"
    )]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    #[expect(
        unsafe_code,
        reason = "forwards the caller's pointer, layout and size to System.realloc unchanged"
    )]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    #[expect(
        unsafe_code,
        reason = "forwards the caller's pointer and layout to System.dealloc unchanged"
    )]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// One test, so no other test's allocations land between a reset and
/// its reading.
#[test]
fn a_bare_header_declaring_a_gigabyte_allocates_little() {
    const MIB: usize = 1 << 20;
    const GIB: u64 = 1 << 30;

    // A data frame declaring 1 GiB, and nothing after the header.
    reset();
    let torn = read_frame(&mut &[0x00, 0x00, 0x00, 0x40][..]);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert_eq!(
        torn,
        Err(GridError::TornFrame {
            expected: GIB,
            got: 0
        })
    );
    assert!(largest < MIB, "read_frame asked for {largest} bytes");

    // The same as a control frame: a dialer's hello.
    reset();
    let torn = recv_hello(&mut &[0x00, 0x00, 0x00, 0xC0][..]);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert_eq!(
        torn,
        Err(GridError::TornFrame {
            expected: GIB,
            got: 0
        })
    );
    assert!(largest < MIB, "recv_hello asked for {largest} bytes");

    // A frame that does arrive in full still reads back whole, across
    // several growth steps.
    let payload: Vec<u8> = (0..200_000u32).map(|i| i as u8).collect();
    let mut wire = u32::try_from(payload.len())
        .expect("fits")
        .to_le_bytes()
        .to_vec();
    wire.extend_from_slice(&payload[..150_001]);
    assert_eq!(
        read_frame(&mut &wire[..]),
        Err(GridError::TornFrame {
            expected: 200_000,
            got: 150_001
        })
    );
    wire.extend_from_slice(&payload[150_001..]);
    assert_eq!(
        read_frame(&mut &wire[..]),
        Ok(Some(ugc_grid::wire::Frame::Data(payload)))
    );
}
