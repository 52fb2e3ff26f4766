//! Minimal CSV output for result tables — enough for the benchmark
//! harness, with no external dependency.

use std::fmt::Write as _;
use std::io::{self, Write};

/// Writes a generic numeric table: header row plus rows of f64 columns.
pub fn write_table<W: Write>(mut out: W, header: &[&str], rows: &[Vec<f64>]) -> io::Result<()> {
    out.write_all(header.join(",").as_bytes())?;
    out.write_all(b"\n")?;
    let mut line = String::new();
    for row in rows {
        line.clear();
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "{v}");
        }
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_writer_formats_rows() {
        let mut buf = Vec::new();
        write_table(
            &mut buf,
            &["n", "time"],
            &[vec![100.0, 0.5], vec![200.0, 1.25]],
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "n,time\n100,0.5\n200,1.25\n");
    }
}
