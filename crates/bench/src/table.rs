//! The experiments binary's tables: a titled, footnoted grid rendered
//! through [`TextTable`], plus its JSON form.

use hpf_core::trace::json::escape;
use hpf_core::trace::{Align, TextTable};

/// A printable table: header plus rows of strings.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form footnotes.
    pub notes: Vec<String>,
}

impl Table {
    /// New table with a title and headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a footnote.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Render as a JSON object (hand-rolled: the build environment has no
    /// serde, and the schema is four flat fields).
    pub fn to_json(&self) -> String {
        let string = |s: &String| format!("\"{}\"", escape(s));
        let arr = |xs: &[String]| -> String {
            let items: Vec<String> = xs.iter().map(string).collect();
            format!("[{}]", items.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        format!(
            "{{\"title\": {}, \"header\": {}, \"rows\": [{}], \"notes\": {}}}",
            string(&self.title),
            arr(&self.header),
            rows.join(", "),
            arr(&self.notes)
        )
    }

    /// Render with aligned columns: the title, the right-aligned grid
    /// with a rule under its header, then the footnotes.
    pub fn render(&self) -> String {
        let columns: Vec<(&str, Align)> =
            self.header.iter().map(|h| (h.as_str(), Align::Right)).collect();
        let mut grid = TextTable::new(&columns).gap("  ");
        for row in &self.rows {
            grid.row(row);
        }
        let grid = grid.render();
        let (header, rows) = grid.split_once('\n').expect("a rendered grid has a header line");
        let rule = "-".repeat(header.chars().count());
        let mut out = format!("## {}\n{header}\n{rule}\n{rows}", self.title);
        for n in &self.notes {
            out.push_str(&format!("  * {n}\n"));
        }
        out
    }
}

/// Render a slice of tables as a JSON array.
pub fn tables_to_json(tables: &[Table]) -> String {
    let items: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
    format!("[{}]", items.join(",\n"))
}

/// Format a milliseconds value compactly.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["123".into(), "x".into()]);
        t.row(vec!["4".into(), "wider".into()]);
        t.note("a note");
        assert_eq!(
            t.render(),
            "## demo\n  a   bbbb\n----------\n123      x\n  4  wider\n  * a note\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(123.4), "123");
        assert_eq!(ms(12.34), "12.34");
        assert_eq!(ms(0.1234), "0.1234");
    }
}
