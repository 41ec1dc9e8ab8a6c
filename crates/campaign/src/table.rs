//! Result tables: the textual "figures" the harness regenerates, and the
//! campaign CLI's per-cell summary, in one right-aligned layout.

use std::fmt::Write as _;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free text.
    Text(String),
    /// Unsigned integer.
    UInt(u64),
    /// Float rendered with the given number of decimals.
    Float(f64, usize),
}

impl Cell {
    /// Text shorthand.
    pub fn text(s: impl Into<String>) -> Self {
        Cell::Text(s.into())
    }

    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::UInt(v) => v.to_string(),
            Cell::Float(v, d) => format!("{v:.*}", d),
        }
    }

    fn csv(&self) -> String {
        match self {
            Cell::Text(s) => csv_field(s),
            _ => self.render(),
        }
    }
}

/// Quotes a CSV field that holds a comma, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::UInt(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Text(v)
    }
}

/// A result table: an experiment's, with an id matching the experiment
/// index in `docs/PAPER_MAP.md`, or a campaign's.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table id (`T1`, `F3`, `A2`, …, or `campaign <name>`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Footnotes: paper expectation, fitted exponents, caveats.
    pub notes: Vec<String>,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (each the same length as `columns`).
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            notes: Vec::new(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn columns<I, S>(mut self, cols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.columns = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the column count.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(cells);
    }

    /// Appends a footnote.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  * {note}");
        }
        out
    }

    /// Renders RFC-4180-ish CSV (header row + data rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self.columns.iter().map(|c| csv_field(c)).collect();
        let _ = writeln!(out, "{}", header.join(","));
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(Cell::csv).collect();
            let _ = writeln!(out, "{}", line.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T0", "demo").columns(["name", "n", "x"]);
        t.row(vec![
            Cell::text("alpha"),
            Cell::UInt(12),
            Cell::Float(1.5, 2),
        ]);
        t.row(vec![Cell::text("b"), Cell::UInt(3), Cell::Float(0.25, 2)]);
        t.note("a footnote");
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        assert!(s.contains("== T0 — demo =="));
        assert!(s.contains("alpha"));
        assert!(s.contains("* a footnote"));
        // Numbers are right-aligned under headers.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].ends_with('x'));
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("T0", "demo").columns(["a", "b"]);
        t.row(vec![Cell::text("x,y"), Cell::text("say \"hi\"")]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn float_decimals() {
        assert_eq!(Cell::Float(1.23456, 3).render(), "1.235");
        assert_eq!(Cell::Float(2.0, 0).render(), "2");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("T0", "demo").columns(["a", "b"]);
        t.row(vec![Cell::UInt(1)]);
    }
}
