//! Screeners: the output filter `S(x, f(x))` of Section 2.1.
//!
//! The screener decides which results are "of interest" and therefore
//! reported to the supervisor — the reason the naive sampling scheme's
//! `O(n)` result upload is so wasteful, and CBS's `O(m log n)` such an
//! improvement. Its run-time is assumed negligible next to `f`.

use core::fmt;

/// A result deemed interesting by a screener: the input and the screener's
/// report string `s = S(x; f(x))`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScreenReport {
    /// The input `x` whose result was interesting.
    pub input: u64,
    /// The report payload (typically the encoded `f(x)` or a summary).
    pub payload: Vec<u8>,
}

impl fmt::Display for ScreenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "x={} payload={}",
            self.input,
            ugc_hash::hex::encode(&self.payload)
        )
    }
}

/// The screener program `S`.
pub trait Screener: Send + Sync {
    /// Returns the report for `(x, f(x))` if the result is interesting,
    /// `None` otherwise.
    fn screen(&self, x: u64, fx: &[u8]) -> Option<ScreenReport>;
}

/// Reports a result iff it byte-equals a target value — the screener for
/// search problems (password cracking, ringer detection).
///
/// # Examples
///
/// ```
/// use ugc_task::{MatchScreener, Screener};
///
/// let s = MatchScreener::new(vec![1, 2, 3]);
/// assert!(s.screen(9, &[1, 2, 3]).is_some());
/// assert!(s.screen(9, &[1, 2, 4]).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchScreener {
    target: Vec<u8>,
}

impl MatchScreener {
    /// Screens for results equal to `target`.
    #[must_use]
    pub fn new(target: Vec<u8>) -> Self {
        MatchScreener { target }
    }

    /// The target value being searched for.
    #[must_use]
    pub fn target(&self) -> &[u8] {
        &self.target
    }
}

impl Screener for MatchScreener {
    fn screen(&self, x: u64, fx: &[u8]) -> Option<ScreenReport> {
        (fx == self.target.as_slice()).then(|| ScreenReport {
            input: x,
            payload: fx.to_vec(),
        })
    }
}

/// Reports results whose leading 8 bytes, read little-endian as `f64`,
/// exceed (or fall below) a threshold — the screener shape for signal
/// SNR peaks and docking energies.
///
/// # Examples
///
/// ```
/// use ugc_task::{Screener, ThresholdScreener};
///
/// let s = ThresholdScreener::above(5.0);
/// assert!(s.screen(0, &7.5f64.to_le_bytes()).is_some());
/// assert!(s.screen(0, &3.0f64.to_le_bytes()).is_none());
/// let s = ThresholdScreener::below(-10.0);
/// assert!(s.screen(0, &(-12.0f64).to_le_bytes()).is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdScreener {
    threshold: f64,
    above: bool,
}

impl ThresholdScreener {
    /// Reports values strictly greater than `threshold`.
    #[must_use]
    pub fn above(threshold: f64) -> Self {
        ThresholdScreener {
            threshold,
            above: true,
        }
    }

    /// Reports values strictly less than `threshold`.
    #[must_use]
    pub fn below(threshold: f64) -> Self {
        ThresholdScreener {
            threshold,
            above: false,
        }
    }

    /// Decodes the screened scalar from a result prefix.
    fn value_of(fx: &[u8]) -> Option<f64> {
        if fx.len() < 8 {
            return None;
        }
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&fx[..8]);
        Some(f64::from_le_bytes(buf))
    }
}

impl Screener for ThresholdScreener {
    fn screen(&self, x: u64, fx: &[u8]) -> Option<ScreenReport> {
        let value = Self::value_of(fx)?;
        let interesting = if self.above {
            value > self.threshold
        } else {
            value < self.threshold
        };
        interesting.then(|| ScreenReport {
            input: x,
            payload: fx.to_vec(),
        })
    }
}

/// Reports every result — degenerates CBS into naive sampling's upload
/// behaviour; useful as a baseline in communication experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcceptAllScreener;

impl Screener for AcceptAllScreener {
    fn screen(&self, x: u64, fx: &[u8]) -> Option<ScreenReport> {
        Some(ScreenReport {
            input: x,
            payload: fx.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_screener_exact_only() {
        let s = MatchScreener::new(vec![0xAA, 0xBB]);
        assert!(s.screen(1, &[0xAA, 0xBB]).is_some());
        assert!(s.screen(1, &[0xAA, 0xBB, 0x00]).is_none());
        assert!(s.screen(1, &[0xAA]).is_none());
        assert_eq!(s.target(), &[0xAA, 0xBB]);
    }

    #[test]
    fn threshold_above_and_below() {
        let above = ThresholdScreener::above(1.0);
        assert!(above.screen(0, &2.0f64.to_le_bytes()).is_some());
        assert!(above.screen(0, &1.0f64.to_le_bytes()).is_none());
        let below = ThresholdScreener::below(1.0);
        assert!(below.screen(0, &0.5f64.to_le_bytes()).is_some());
        assert!(below.screen(0, &1.0f64.to_le_bytes()).is_none());
    }

    #[test]
    fn threshold_ignores_short_results() {
        let s = ThresholdScreener::above(0.0);
        assert!(s.screen(0, &[1, 2, 3]).is_none());
    }

    #[test]
    fn threshold_reads_prefix_of_wider_results() {
        let s = ThresholdScreener::above(0.0);
        let mut fx = 3.5f64.to_le_bytes().to_vec();
        fx.extend_from_slice(&[9, 9, 9, 9]);
        let report = s.screen(4, &fx).unwrap();
        assert_eq!(report.input, 4);
        assert_eq!(report.payload, fx);
    }

    #[test]
    fn accept_all_reports_everything() {
        let s = AcceptAllScreener;
        for x in 0..10 {
            assert!(s.screen(x, &[x as u8]).is_some());
        }
    }

    #[test]
    fn report_display() {
        let r = ScreenReport {
            input: 3,
            payload: vec![0xde, 0xad],
        };
        assert_eq!(r.to_string(), "x=3 payload=dead");
    }
}
