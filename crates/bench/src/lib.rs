//! # congest-bench — the experiment harness
//!
//! One binary per experiment (`exp_e1_sampling` … `exp_e11_theorem9`,
//! `exp_resilience`, `exp_profile`; DESIGN.md §5 says which claim each
//! one holds up), each regenerating the series its theorem predicts and
//! printing a markdown table of model quantities — the same on any host
//! and at any pool width. Wall-clock numbers are `benchmark/`'s.
//!
//! Run e.g. `cargo run --release -p congest-bench --bin exp_e3_broadcast`.
//! What each binary printed at the last commit that meant to change it is
//! `golden/<bin>.md`; `check_golden.sh` (CI's `experiments` lane) runs all
//! thirteen and diffs them, `check_golden.sh --bless` re-records.

use std::fmt::Write as _;

/// A minimal markdown table builder for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as github-flavored markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "\n### {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {c:>w$} |", w = w);
            }
            line
        };
        let _ = writeln!(s, "{}", fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<w$}|", "", w = w + 2);
        }
        let _ = writeln!(s, "{sep}");
        for row in &self.rows {
            let _ = writeln!(s, "{}", fmt_row(row, &widths));
        }
        s
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float tersely.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// `⌈log₂ n⌉` helper used across experiments.
pub fn log2_ceil(n: usize) -> u32 {
    (n.max(1) as f64).log2().ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let out = t.render();
        assert!(out.contains("### demo"));
        assert!(out.contains("| a | bb |"));
        assert!(out.contains("| 1 |  2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(123.4), "123");
        assert_eq!(f(1.5), "1.50");
        assert_eq!(f(0.1234), "0.1234");
    }
}
