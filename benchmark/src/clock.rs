//! Every reading of the machine the benchmark takes: wall time, process
//! CPU time, peak resident memory, and the host-calibration loop that
//! tells a slow host phase from a slow program.

use std::time::{Duration, Instant};

/// A point in wall time.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(Instant);

/// Now. The single wall-clock read of the package.
#[must_use]
pub fn now() -> Stamp {
    // ugc-lint: allow(wall-clock): the benchmark's one clock; readings are reported, never fed back into a campaign
    Stamp(Instant::now())
}

impl Stamp {
    /// Time from `self` to now.
    #[must_use]
    pub fn elapsed(self) -> Duration {
        now().0.duration_since(self.0)
    }

    /// Nanoseconds from `origin` to `self` (0 if `self` is earlier).
    #[must_use]
    pub fn nanos_since(self, origin: Stamp) -> u64 {
        u64::try_from(self.0.saturating_duration_since(origin.0).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Runs `f` and returns its result with the time it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds as a float, for reporting.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`: `USER_HZ`, which Linux fixes at 100 on every
/// architecture it exports to user space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time this process has used, in seconds: every
/// thread, the ones that have ended too.
///
/// # Errors
///
/// `/proc/self/stat` missing or not in the form Linux documents.
pub fn process_cpu_seconds() -> Result<f64, String> {
    let read = || {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name (field 2) may contain spaces; fields are
        // counted from the closing parenthesis.
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_ascii_whitespace().skip(11);
        let utime: f64 = fields.next()?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some((utime + stime) / USER_HZ)
    };
    read().ok_or_else(|| "cannot read CPU time from /proc/self/stat".to_string())
}

/// Peak resident set size of this process (`VmHWM`) in MB.
///
/// # Errors
///
/// `/proc/self/status` missing or without a `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let read = || {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    };
    read().ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_string())
}

/// Rounds each thread of [`host_capacity_ms`] runs: about 7 ms alone.
const CAPACITY_ROUNDS: u32 = 2_000_000;

/// What [`host_capacity_ms`] read with three threads on the quiet
/// two-vCPU host the baseline was taken on. Host-adjusted times are
/// scaled to this reading, so they are times on that host at its best.
pub const CAPACITY_REFERENCE_MS: f64 = 10.0;

/// How much CPU the host is giving this process right now: the wall time,
/// in ms, for `threads` threads to each finish a fixed piece of integer
/// work (eight independent multiply-rotate chains, so a busy sibling
/// hyperthread shows). The loop is the benchmark's own, touches no memory
/// and calls no library code, so a change in it is a change in the host,
/// not in the program under test.
#[must_use]
pub fn host_capacity_ms(threads: usize) -> f64 {
    let work = || {
        let mut x = std::hint::black_box([0x9e37_79b9_7f4a_7c15_u64, 3, 5, 7, 11, 13, 17, 19]);
        for _ in 0..CAPACITY_ROUNDS {
            for v in &mut x {
                *v = v.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(23) ^ (*v >> 9);
            }
        }
        std::hint::black_box(x);
    };
    let ((), took) = time(|| {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(work);
            }
        });
    });
    ms(took)
}

/// Rounds of the calibration loop: about 10 ms of dependent integer work.
const CALIB_ROUNDS: u64 = 4_000_000;

/// Times a fixed, dependent integer loop owned by the benchmark and
/// returns nanoseconds per round. It touches no memory and calls no
/// library code, so a change in it is a change in the host, not in the
/// program under test.
#[must_use]
pub fn host_calibration_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (x, took) = time(|| {
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
            for _ in 0..CALIB_ROUNDS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        });
        std::hint::black_box(x);
        best = best.min(took.as_secs_f64() * 1e9 / CALIB_ROUNDS as f64);
    }
    best
}
