//! Fixed-width table rendering for experiment output.

/// A simple fixed-width table renderer.
///
/// ```
/// use optimstore_bench::table::Table;
/// let mut t = Table::new(&["model", "params"]);
/// t.row(&["bert-large".into(), "0.34 B".into()]);
/// let s = t.render();
/// assert!(s.contains("bert-large"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a byte count with an adaptive binary unit.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

/// Formats a rate in SI giga/mega units.
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} G/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M/s", per_sec / 1e6)
    } else {
        format!("{per_sec:.0} /s")
    }
}

/// Formats seconds with an adaptive unit.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}

/// Renders a horizontal ASCII bar chart: one row per `(label, value)`,
/// bars scaled to the maximum value over `width` cells.
///
/// ```
/// use optimstore_bench::table::bar_chart;
/// let s = bar_chart(&[("a".into(), 2.0), ("b".into(), 4.0)], 20, "s");
/// assert!(s.contains("a"));
/// assert!(s.lines().count() == 2);
/// ```
pub fn bar_chart(rows: &[(String, f64)], width: usize, unit: &str) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let cells = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$}  {:<width$}  {value:.3} {unit}\n",
            "#".repeat(cells.max(if *value > 0.0 { 1 } else { 0 })),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // Column 2 starts at the same offset in header and row.
        let h_off = lines[0].find("long-header").unwrap();
        let r_off = lines[2].find('1').unwrap();
        assert_eq!(h_off, r_off);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn wrong_arity_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let s = bar_chart(&[("short".into(), 1.0), ("long-label".into(), 4.0)], 8, "s");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        // The max row fills the width; the 1/4 row gets 2 cells.
        assert!(lines[1].contains("########"));
        assert!(lines[0].contains("##") && !lines[0].contains("###"));
        // Zero-max degrades gracefully.
        let z = bar_chart(&[("x".into(), 0.0)], 8, "");
        assert!(z.lines().count() == 1);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert!(fmt_bytes(3 * 1024 * 1024 * 1024).contains("GiB"));
        assert_eq!(fmt_rate(2.5e9), "2.50 G/s");
        assert_eq!(fmt_rate(3.2e6), "3.20 M/s");
        assert_eq!(fmt_secs(2.0), "2.000 s");
        assert_eq!(fmt_secs(0.0025), "2.500 ms");
        assert_eq!(fmt_secs(2.5e-6), "2.500 us");
    }
}
