//! Table and CSV output for the `paper` subcommands.

use std::fmt::Display;
use std::io;
use std::path::Path;

/// A simple fixed-width text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<H: Display>(headers: &[H]) -> Table {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<C: Display>(&mut self, cells: &[C]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align numbers, left-align first column.
                if i == 0 {
                    line.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", c, w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Print a table with a title banner.
pub fn print_table(title: &str, table: &Table) {
    println!("\n== {title} ==\n{}", table.render());
}

/// Write rows as CSV.
pub fn write_csv(
    path: impl AsRef<Path>,
    headers: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        assert_eq!(row.len(), headers.len(), "CSV row width mismatch");
        writeln!(f, "{}", row.join(","))?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".to_string(), "1".to_string()]);
        t.row(&["long-name".to_string(), "123".to_string()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].ends_with("123"));
    }
}
