//! A decoded error frees what it decoded.
//!
//! Error strings reach the supervisor from outside the process: from a
//! journal on `--resume`, and from a remote participant's `SlotReport`,
//! which the broker forwards uninspected. Decoding must own them, not
//! pin them for the life of the process, or a hostile joiner could grow
//! the supervisor by a frame's worth of memory per report. This binary
//! counts every byte the process allocates and frees, and checks that
//! dropping decoded reports gives all of it back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::sync::atomic::{AtomicIsize, Ordering};
use uncheatable_grid::core::{SchemeError, SlotReport};
use uncheatable_grid::grid::{CostReport, GridError};

/// The system allocator, counting the bytes it holds.
struct Counting;

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

fn size(layout: Layout) -> isize {
    isize::try_from(layout.size()).unwrap_or(isize::MAX)
}

// SAFETY: both methods pass their arguments to `System` unchanged, so
// the caller's `GlobalAlloc` contract is the one `System` relies on;
// the counter is a statistic and touches no allocated memory.
#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; this one counts and forwards to System"
)]
unsafe impl GlobalAlloc for Counting {
    #[expect(
        unsafe_code,
        reason = "forwards the caller's layout to System.alloc unchanged"
    )]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(size(layout), Ordering::SeqCst);
        }
        ptr
    }

    #[expect(
        unsafe_code,
        reason = "forwards the caller's pointer and layout to System.dealloc unchanged"
    )]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(size(layout), Ordering::SeqCst);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn decoded_error_strings_are_freed() {
    const MIB: usize = 1 << 20;
    let long = |fill: &str, len: usize| -> Cow<'static, str> { Cow::Owned(fill.repeat(len)) };
    // Every error field that carries a string: 1 MiB of them per report.
    let errors = [
        SchemeError::InvalidConfig {
            reason: long("r", MIB),
        },
        SchemeError::MalformedPayload {
            what: long("w", MIB),
        },
        SchemeError::UnexpectedMessage {
            expected: long("e", MIB / 2),
            got: long("g", MIB / 2),
        },
        SchemeError::Grid(GridError::UnexpectedEof {
            context: long("c", MIB),
        }),
    ];
    let frames: Vec<Vec<u8>> = (0u64..)
        .zip(errors)
        .map(|(slot, error)| {
            SlotReport {
                slot,
                costs: CostReport::default(),
                outcome: Err(error),
            }
            .encode()
        })
        .collect();
    // One decode first, so nothing allocated once per process counts.
    drop(SlotReport::decode(&frames[0]));

    let baseline = LIVE.load(Ordering::SeqCst);
    let reports: Vec<SlotReport> = frames
        .iter()
        .cycle()
        .take(64)
        .map(|frame| SlotReport::decode(frame).expect("a well-formed report decodes"))
        .collect();
    let held = LIVE.load(Ordering::SeqCst) - baseline;
    assert!(
        held >= 64 * 1024 * 1024,
        "64 decoded reports hold their strings, yet only {held} bytes are live"
    );
    drop(reports);
    let kept = LIVE.load(Ordering::SeqCst) - baseline;
    assert!(
        kept < 64 * 1024,
        "{kept} bytes of decoded error strings outlived their reports"
    );
}

#[test]
fn a_found_flag_other_than_0_or_1_is_refused() {
    // A report's last byte is its `found` flag; 2 must not decode as 1.
    let mut frame = SlotReport {
        slot: 0,
        costs: CostReport::default(),
        outcome: Ok(true),
    }
    .encode();
    assert_eq!(frame.last(), Some(&1));
    *frame.last_mut().expect("a report is not empty") = 2;
    match SlotReport::decode(&frame) {
        Err(SchemeError::Journal { reason }) => {
            assert!(reason.contains("flag 2 is not 0 or 1"), "{reason}");
        }
        other => panic!("a found flag of 2 must be refused, got {other:?}"),
    }
}
