//! One line per determinism rule. A line marked `// fires: <lint>` must
//! raise that lint as an error, and no other line may raise anything:
//! the unmarked twins are the compliant forms.

use rand::SeedableRng as _;

pub mod codec;

pub fn violations() {
    let _ = std::time::Instant::now(); // fires: clippy::disallowed_methods
    let _ = std::time::SystemTime::now(); // fires: clippy::disallowed_methods
    let _: Option<std::collections::HashMap<u8, u8>> = None; // fires: clippy::disallowed_types
    let _: Option<std::collections::HashSet<u8>> = None; // fires: clippy::disallowed_types
    let _: Option<std::collections::hash_map::RandomState> = None; // fires: clippy::disallowed_types
    let _ = rand::thread_rng(); // fires: clippy::disallowed_methods
    let _: u64 = rand::random(); // fires: clippy::disallowed_methods
    let _ = rand::rngs::StdRng::from_entropy(); // fires: clippy::disallowed_methods
    let _: Option<rand::rngs::OsRng> = None; // fires: clippy::disallowed_types
    let _: Option<rand::rngs::ThreadRng> = None; // fires: clippy::disallowed_types
    let _ = std::thread::current(); // fires: clippy::disallowed_methods
    let _: Option<std::thread::ThreadId> = None; // fires: clippy::disallowed_types
    let _ = std::thread::available_parallelism(); // fires: clippy::disallowed_methods
}

pub fn read(x: &u8) -> u8 {
    unsafe { std::ptr::read(x) } // fires: unsafe_code
}

#[allow(dead_code, reason = "an allow is refused even with a reason")] // fires: clippy::allow_attributes
fn allowed() {}

#[expect(dead_code)] // fires: clippy::allow_attributes_without_reason
fn reasonless() {}

#[expect(dead_code, reason = "nothing here is dead")] // fires: unfulfilled_lint_expectations
pub fn unfulfilled() {}

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the compliant twin: every call and type above, excused"
)]
pub fn excused() {
    let _ = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    let _: Option<std::collections::HashMap<u8, u8>> = None;
    let _: Option<std::collections::HashSet<u8>> = None;
    let _: Option<std::collections::hash_map::RandomState> = None;
    let _ = rand::thread_rng();
    let _: u64 = rand::random();
    let _ = rand::rngs::StdRng::from_entropy();
    let _: Option<rand::rngs::OsRng> = None;
    let _: Option<rand::rngs::ThreadRng> = None;
    let _ = std::thread::current();
    let _: Option<std::thread::ThreadId> = None;
    let _ = std::thread::available_parallelism();
}

#[expect(unsafe_code, reason = "the compliant twin: an excused unsafe block")]
pub fn read_excused(x: &u8) -> u8 {
    unsafe { std::ptr::read(x) }
}

#[expect(dead_code, reason = "the compliant twin: an expect that is fulfilled")]
fn fulfilled() {}
