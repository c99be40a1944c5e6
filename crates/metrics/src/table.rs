//! Plain-text tables matching the paper's figure series.

/// A printable table: a header row plus data rows, column-aligned.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[impl AsRef<str>]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.as_ref().to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (c, cell) in r.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for c in 0..cols {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", cells[c], w = widths[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Fig X", &["a", "long-col"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "2000".into()]);
        let s = t.render();
        assert!(s.starts_with("# Fig X\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1].len(), lines[3].len(), "rows aligned with header");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        Table::new("t", &["a"]).row(&["1".into(), "2".into()]);
    }
}
