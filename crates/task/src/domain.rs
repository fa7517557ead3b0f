//! Input domains `D = {x_1, …, x_n}` and their partitioning.

use core::fmt;

/// Error type for domain construction and partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainError {
    /// Domains must contain at least one input.
    Empty,
    /// `start + len` overflowed the `u64` input space.
    Overflow {
        /// Requested start of the range.
        start: u64,
        /// Requested length of the range.
        len: u64,
    },
    /// A partition into zero parts was requested.
    ZeroParts,
    /// An index was outside the domain.
    IndexOutOfRange {
        /// The requested index.
        index: u64,
        /// The domain size.
        len: u64,
    },
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DomainError::Empty => write!(f, "domain must contain at least one input"),
            DomainError::Overflow { start, len } => {
                write!(f, "domain [{start}, {start}+{len}) overflows u64")
            }
            DomainError::ZeroParts => write!(f, "cannot partition into zero parts"),
            DomainError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for domain of size {len}")
            }
        }
    }
}

impl std::error::Error for DomainError {}

/// A contiguous domain of inputs `[start, start + len)`.
///
/// The CBS protocol addresses inputs by *index* `i ∈ [0, n)`; the domain
/// maps indices to actual input values. Contiguity matches how real grid
/// projects (SETI work units, key-search ranges) carve up their spaces, and
/// keeps assignment messages `O(1)` in size.
///
/// # Examples
///
/// ```
/// use ugc_task::Domain;
///
/// let d = Domain::new(1000, 10);
/// assert_eq!(d.len(), 10);
/// assert_eq!(d.input(3)?, 1003);
/// let parts = d.split(3)?;
/// assert_eq!(parts.len(), 3);
/// assert_eq!(parts.iter().map(|p| p.len()).sum::<u64>(), 10);
/// # Ok::<(), ugc_task::DomainError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Domain {
    start: u64,
    len: u64,
}

impl Domain {
    /// Creates the domain `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or if the range overflows; use
    /// [`try_new`](Self::try_new) for fallible construction.
    #[must_use]
    pub fn new(start: u64, len: u64) -> Self {
        Self::try_new(start, len).expect("invalid domain")
    }

    /// Fallible constructor for the domain `[start, start + len)`.
    ///
    /// # Errors
    ///
    /// * [`DomainError::Empty`] if `len == 0`.
    /// * [`DomainError::Overflow`] if `start + len > u64::MAX`.
    pub fn try_new(start: u64, len: u64) -> Result<Self, DomainError> {
        if len == 0 {
            return Err(DomainError::Empty);
        }
        if start.checked_add(len).is_none() {
            return Err(DomainError::Overflow { start, len });
        }
        Ok(Domain { start, len })
    }

    /// First input value.
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Number of inputs `n = |D|`.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Domains are never empty; this exists for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Maps index `i` to the input value `x_i`.
    ///
    /// # Errors
    ///
    /// [`DomainError::IndexOutOfRange`] if `index ≥ len`.
    pub fn input(&self, index: u64) -> Result<u64, DomainError> {
        if index >= self.len {
            return Err(DomainError::IndexOutOfRange {
                index,
                len: self.len,
            });
        }
        Ok(self.start + index)
    }

    /// Whether `value` lies in this domain.
    #[must_use]
    pub fn contains(&self, value: u64) -> bool {
        value >= self.start && value - self.start < self.len
    }

    /// Iterates over the input values.
    pub fn inputs(&self) -> impl Iterator<Item = u64> + '_ {
        self.start..self.start + self.len
    }

    /// Splits into `parts` contiguous sub-domains whose sizes differ by at
    /// most one, in input order — the supervisor's task partition of
    /// Section 2.1. Fewer parts come back when there are fewer inputs.
    ///
    /// # Errors
    ///
    /// * [`DomainError::ZeroParts`] if `parts == 0`.
    pub fn split(&self, parts: u64) -> Result<Vec<Domain>, DomainError> {
        if parts == 0 {
            return Err(DomainError::ZeroParts);
        }
        let parts = parts.min(self.len);
        let base = self.len / parts;
        let extra = self.len % parts;
        let mut out = Vec::with_capacity(parts as usize);
        let mut cursor = self.start;
        for i in 0..parts {
            let size = base + u64::from(i < extra);
            out.push(Domain {
                start: cursor,
                len: size,
            });
            cursor += size;
        }
        Ok(out)
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.start + self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert_eq!(Domain::try_new(5, 0).unwrap_err(), DomainError::Empty);
    }

    #[test]
    fn rejects_overflow() {
        assert_eq!(
            Domain::try_new(u64::MAX, 2).unwrap_err(),
            DomainError::Overflow {
                start: u64::MAX,
                len: 2
            }
        );
    }

    #[test]
    fn allows_full_tail() {
        let d = Domain::try_new(u64::MAX - 3, 3).unwrap();
        assert_eq!(d.input(2).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn input_mapping() {
        let d = Domain::new(100, 5);
        assert_eq!(d.input(0).unwrap(), 100);
        assert_eq!(d.input(4).unwrap(), 104);
        assert_eq!(
            d.input(5).unwrap_err(),
            DomainError::IndexOutOfRange { index: 5, len: 5 }
        );
    }

    #[test]
    fn contains_bounds() {
        let d = Domain::new(10, 3);
        assert!(!d.contains(9));
        assert!(d.contains(10));
        assert!(d.contains(12));
        assert!(!d.contains(13));
    }

    #[test]
    fn inputs_iterator_matches_len() {
        let d = Domain::new(7, 9);
        let all: Vec<u64> = d.inputs().collect();
        assert_eq!(all.len(), 9);
        assert_eq!(all[0], 7);
        assert_eq!(*all.last().unwrap(), 15);
    }

    #[test]
    fn split_covers_disjointly() {
        let d = Domain::new(0, 10);
        let parts = d.split(3).unwrap();
        let sizes: Vec<u64> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let mut cursor = 0;
        for p in parts.iter() {
            assert_eq!(p.start(), cursor);
            cursor += p.len();
        }
        assert_eq!(cursor, 10);
    }

    #[test]
    fn split_more_parts_than_inputs_caps() {
        let d = Domain::new(0, 3);
        let parts = d.split(10).unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn split_zero_parts_rejected() {
        assert_eq!(
            Domain::new(0, 4).split(0).unwrap_err(),
            DomainError::ZeroParts
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Domain::new(5, 10).to_string(), "[5, 15)");
        assert_eq!(
            DomainError::IndexOutOfRange { index: 3, len: 2 }.to_string(),
            "index 3 out of range for domain of size 2"
        );
    }

    #[test]
    fn partition_into_iter() {
        let d = Domain::new(0, 6);
        assert_eq!(
            d.split(2).unwrap(),
            vec![Domain::new(0, 3), Domain::new(3, 3)]
        );
    }
}
