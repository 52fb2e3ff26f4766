//! ASCII table rendering and CSV output for the harness binaries.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Renders an ASCII table with right-aligned cells.
pub fn render(headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+{}", "-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {h:>width$} ", width = widths[i]);
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(out, "| {cell:>width$} ", width = widths[i]);
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Formats seconds to three significant figures, never fewer than the
/// paper's two decimals: `232.51`, `1.50`, `0.00312`, `0.00`. A time below
/// a hundredth of a second keeps its leading digits instead of reading
/// `0.00`.
pub fn fmt_seconds(s: f64) -> String {
    let decimals = if s.is_finite() && s != 0.0 {
        // The place of the leading digit: 0 for 1.x, −3 for 0.00x.
        let lead = s.abs().log10().floor() as i32;
        (2 - lead).max(2) as usize
    } else {
        2
    };
    format!("{s:.decimals$}")
}

/// Writes a CSV file under `results/`, creating the directory as needed.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<f64>]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let file = std::fs::File::create(path)?;
    kcv_data::csv::write_table(io::BufWriter::new(file), headers, rows)
}

/// Parses `--flag value` style arguments: returns the value following
/// `name`, if present.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses a numeric `--flag value`, falling back to `default`.
pub fn arg_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    arg_value(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// True when a bare `--flag` is present.
pub fn arg_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let t = render(
            &["n".into(), "time".into()],
            &[
                vec!["100".into(), "0.05".into()],
                vec!["20000".into(), "232.51".into()],
            ],
        );
        assert!(t.contains("| 20000 | 232.51 |"));
        assert!(t.contains("|     n |   time |"));
    }

    #[test]
    fn fmt_seconds_three_significant_figures() {
        assert_eq!(fmt_seconds(232.509), "232.51");
        assert_eq!(fmt_seconds(0.0), "0.00");
        assert_eq!(fmt_seconds(1.5), "1.50");
        assert_eq!(fmt_seconds(0.05), "0.0500");
        assert_eq!(fmt_seconds(0.00312), "0.00312");
        assert_eq!(fmt_seconds(0.000999), "0.000999");
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--max-n", "5000", "--full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_parse(&args, "--max-n", 0usize), 5000);
        assert_eq!(arg_parse(&args, "--reps", 3usize), 3);
        assert!(arg_flag(&args, "--full"));
        assert!(!arg_flag(&args, "--quick"));
    }
}
