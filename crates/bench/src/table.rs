//! A minimal aligned-column table printer for experiment binaries.

use core::fmt;

/// An aligned text table, printed by the figure-regeneration binaries so
/// their output reads like the paper's tables.
///
/// # Examples
///
/// ```
/// let mut t = ugc_bench::Table::new(["r", "m (q=0)", "m (q=0.5)"]);
/// t.push(["0.5", "14", "33"]);
/// let rendered = t.to_string();
/// assert!(rendered.contains("0.5"));
/// assert!(rendered.lines().count() >= 3); // header, rule, row
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (cell, width) in cells.iter().zip(&widths) {
                if !first {
                    write!(f, "  ")?;
                }
                first = false;
                write!(f, "{cell:>width$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["a", "bb"]);
        t.push(["100", "2"]);
        t.push(["1", "200"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines share the same display width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{s}");
    }

    #[test]
    fn tracks_row_count() {
        let mut t = Table::new(["x"]);
        assert!(t.is_empty());
        t.push(["1"]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.push(["only one"]);
    }

    #[test]
    fn header_only_table_renders() {
        let t = Table::new(["col"]);
        let s = t.to_string();
        assert!(s.contains("col"));
        assert_eq!(s.lines().count(), 2);
    }
}
