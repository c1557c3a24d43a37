//! The machine-checkable half of every analysis: a typed [`Table`].
//!
//! An [`Analysis`](crate::Analysis) first *computes* a `Table` — ids,
//! column headers and typed cells — and only then *renders* it to HTML or
//! ANSI. Keeping the two steps apart is what makes reports testable: the
//! property suites compare tables and rendered bytes independently, and
//! the determinism contract (same inputs ⇒ byte-identical report) reduces
//! to "cell formatting is a pure function".

/// One typed table cell. Rendering is locale-free and deterministic:
/// [`Cell::Fixed`] always prints exactly `decimals` fraction digits.
///
/// ```
/// use seacma_report::Cell;
///
/// assert_eq!(Cell::text("Lottery/Gift").render(), "Lottery/Gift");
/// assert_eq!(Cell::UInt(108).render(), "108");
/// assert_eq!(Cell::fixed(7.25, 1).render(), "7.2");
/// assert_eq!(Cell::fixed(0.0, 2).render(), "0.00");
/// assert_eq!(Cell::Absent.render(), "-");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A verbatim string.
    Text(String),
    /// A non-negative integer.
    UInt(u64),
    /// A float rendered with a fixed number of fraction digits.
    Fixed {
        /// The value.
        value: f64,
        /// Fraction digits printed (`{:.N}` formatting).
        decimals: u8,
    },
    /// A number the row does not have (a total over percentages, a
    /// domain count for unattributed ads). Renders `-`.
    Absent,
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Self {
        Cell::Text(s.into())
    }

    /// A fixed-precision float cell.
    pub fn fixed(value: f64, decimals: u8) -> Self {
        Cell::Fixed { value, decimals }
    }

    /// Renders the cell to its canonical string form.
    pub fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::UInt(n) => n.to_string(),
            Cell::Fixed { value, decimals } => format!("{value:.*}", usize::from(*decimals)),
            Cell::Absent => "-".to_string(),
        }
    }

    /// Whether the cell holds, or stands in for, a number (right-aligned
    /// in HTML).
    pub fn is_numeric(&self) -> bool {
        !matches!(self, Cell::Text(_))
    }
}

/// A computed analysis table: a stable id, a human title, column headers
/// and typed rows. Row arity is enforced at push time, so renderers never
/// see ragged data.
///
/// ```
/// use seacma_report::{Cell, Table};
///
/// let mut t = Table::new("demo", "Demo", &["campaign", "domains"]);
/// t.push([Cell::text("fake-av"), Cell::UInt(17)]);
/// assert_eq!(t.rows().len(), 1);
/// assert_eq!(t.rows()[0][1].render(), "17");
/// assert_eq!((t.id(), t.title()), ("demo", "Demo"));
/// assert_eq!(t.columns(), ["campaign", "domains"]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    id: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given id, title and column headers.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table's stable identifier (doubles as the HTML section id).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The human-readable title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows pushed so far.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Appends a row. Panics if the arity does not match the headers —
    /// a programming error in the analysis, not a data condition.
    pub fn push(&mut self, row: impl Into<Vec<Cell>>) {
        let row = row.into();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "table {:?}: row arity {} != {} columns",
            self.id,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Finishes an analysis's table: one without rows gets the canonical
    /// "(no data)" row — the marker in the first column, [`Cell::Absent`]
    /// in every other — so reports over partial inputs stay byte-stable
    /// and grep-able instead of showing an empty grid.
    pub fn or_no_data(mut self) -> Self {
        if self.rows.is_empty() {
            let mut row = vec![Cell::text("(no data)")];
            row.resize(self.columns.len(), Cell::Absent);
            self.rows.push(row);
        }
        self
    }

    /// Renders the table as an aligned plain-text grid: every line the
    /// same width in characters, cells left-aligned (the ANSI layer styles
    /// these same lines; tests and docs paste them verbatim).
    pub fn render_text(&self) -> String {
        let rows: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(Cell::render).collect()).collect();
        let mut widths: Vec<usize> = self.columns.iter().map(|h| h.chars().count()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut sep = String::from("+");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('+');
        }
        sep.push('\n');
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(&widths) {
                s.push_str(&format!(" {cell:<w$} |"));
            }
            s.push('\n');
            s
        };
        let mut out = sep.clone();
        out.push_str(&line(&self.columns));
        out.push_str(&sep);
        for row in &rows {
            out.push_str(&line(row));
        }
        out.push_str(&sep);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rendering_is_stable() {
        assert_eq!(Cell::fixed(1.0 / 3.0, 3).render(), "0.333");
        assert_eq!(Cell::fixed(99.999, 1).render(), "100.0");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn ragged_rows_are_rejected() {
        let mut t = Table::new("x", "X", &["a", "b"]);
        t.push([Cell::UInt(1)]);
    }

    #[test]
    fn text_table_alignment() {
        let mut t = Table::new("a", "A", &["A", "Bee"]);
        t.push([Cell::UInt(1), Cell::UInt(2)]);
        t.push([Cell::text("θθθ"), Cell::Absent]);
        let out = t.render_text();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6);
        let width = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == width), "ragged table:\n{out}");
        assert!(out.contains("| θθθ | -"), "{out}");
    }

    #[test]
    fn text_render_aligns() {
        let mut t = Table::new("a", "A", &["name", "count"]);
        t.push([Cell::text("x"), Cell::UInt(12345)]);
        let out = t.render_text();
        assert!(out.contains("| name"), "{out}");
        assert!(out.contains("12345"), "{out}");
    }
}
