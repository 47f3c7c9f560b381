//! Minimal monospace table renderer shared by every hand-rolled text
//! table in the workspace: the trace summary, the runtime counter
//! display, the tuner candidate listing, and the metrics run report.
//!
//! Columns are declared once with an alignment; widths are computed from
//! the widest cell (header included), so callers never hard-code field
//! widths. Besides cell rows a table can carry full-width *lines*
//! (warnings, footnotes) that are emitted verbatim under the preceding
//! row — the trace summary uses these for dropped-span notices.

/// Horizontal alignment of one column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right (names, labels).
    Left,
    /// Pad on the left (numbers).
    Right,
}

enum Row {
    Cells(Vec<String>),
    Line(String),
}

/// A column-aligned text table.
pub struct TextTable {
    indent: String,
    gap: String,
    header: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Row>,
}

impl TextTable {
    /// A table with the given `(header, alignment)` columns.
    pub fn new(columns: &[(&str, Align)]) -> Self {
        TextTable {
            indent: String::new(),
            gap: " ".to_string(),
            header: columns.iter().map(|(h, _)| h.to_string()).collect(),
            aligns: columns.iter().map(|&(_, a)| a).collect(),
            rows: Vec::new(),
        }
    }

    /// Prefix every rendered line with `indent`.
    pub fn indent(mut self, indent: &str) -> Self {
        self.indent = indent.to_string();
        self
    }

    /// Separate columns with `gap` instead of a single space.
    pub fn gap(mut self, gap: &str) -> Self {
        self.gap = gap.to_string();
        self
    }

    /// Append one row of cells. Missing trailing cells render empty; extra
    /// cells are a caller bug and panic.
    pub fn row<I>(&mut self, cells: I)
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(cells.len() <= self.header.len(), "row wider than the declared columns");
        self.rows.push(Row::Cells(cells));
    }

    /// Append a full-width verbatim line (warning, footnote). It is
    /// indented like the rows but ignores the column grid.
    pub fn line(&mut self, text: impl Into<String>) {
        self.rows.push(Row::Line(text.into()));
    }

    /// True when no rows or lines have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render header plus rows, one `\n`-terminated line each.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            if let Row::Cells(cells) = row {
                for (i, c) in cells.iter().enumerate() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        self.push_cells(&mut out, &self.header, &widths);
        for row in &self.rows {
            match row {
                Row::Cells(cells) => self.push_cells(&mut out, cells, &widths),
                Row::Line(text) => {
                    out.push_str(&self.indent);
                    out.push_str(text);
                    out.push('\n');
                }
            }
        }
        out
    }

    fn push_cells(&self, out: &mut String, cells: &[String], widths: &[usize]) {
        out.push_str(&self.indent);
        let last = widths.len() - 1;
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            let text = match self.aligns[i] {
                Align::Left => format!("{cell:<w$}"),
                Align::Right => format!("{cell:>w$}"),
            };
            if i < last {
                out.push_str(&text);
                out.push_str(&self.gap);
            } else {
                // No trailing padding after the final column.
                out.push_str(text.trim_end());
            }
        }
        // Rows shorter than the column set would otherwise leave padding
        // from the intermediate columns dangling at the end of the line.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_align_and_autosize() {
        let mut t = TextTable::new(&[("name", Align::Left), ("n", Align::Right)]);
        t.row(["alpha", "5"]);
        t.row(["b", "1234"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines, vec!["name     n", "alpha    5", "b     1234"]);
    }

    #[test]
    fn lines_are_verbatim_and_indent_applies() {
        let mut t = TextTable::new(&[("a", Align::Left)]).indent("  ");
        t.row(["x"]);
        t.line("(note)");
        let s = t.render();
        assert_eq!(s, "  a\n  x\n  (note)\n");
    }

    #[test]
    fn gap_replaces_the_column_separator() {
        let mut t = TextTable::new(&[("a", Align::Right), ("bb", Align::Right)]).gap("  ");
        t.row(["123", "4"]);
        assert_eq!(t.render(), "  a  bb\n123   4\n");
    }

    #[test]
    fn short_rows_pad_with_empty_cells() {
        let mut t = TextTable::new(&[("a", Align::Left), ("b", Align::Right)]);
        t.row(["only"]);
        let s = t.render();
        assert!(s.contains("only"));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "row wider")]
    fn wide_rows_panic() {
        let mut t = TextTable::new(&[("a", Align::Left)]);
        t.row(["x", "y"]);
    }
}
