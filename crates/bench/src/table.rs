//! Plain-text table rendering for experiment output.

use std::fmt;

/// A simple aligned table with a title, printable to stdout and easy to
/// paste into Markdown.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table.
    pub fn new<S: Into<String>>(title: S, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; shorter rows are padded with blanks.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are headers.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            row.len() <= self.headers.len(),
            "row has more cells than headers"
        );
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            line.push_str(&format!("| {h:<w$} "));
        }
        line.push('|');
        writeln!(f, "{line}")?;
        let mut sep = String::new();
        for w in &widths {
            sep.push_str(&format!("|{}", "-".repeat(w + 2)));
        }
        sep.push('|');
        writeln!(f, "{sep}")?;
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                line.push_str(&format!("| {cell:<w$} "));
            }
            line.push('|');
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(["1", "2", "3"]);
        t.row(["wide-cell", "x"]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| long-header |"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "more cells")]
    fn rejects_oversized_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(["1", "2"]);
    }
}
