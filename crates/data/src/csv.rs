//! Minimal CSV I/O for regression samples and result tables — enough for
//! the example binaries and the benchmark harness, with no external
//! dependency.

use crate::dgp::Sample;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Writes a sample as a two-column `x,y` CSV with a header.
pub fn write_sample<W: Write>(mut out: W, sample: &Sample) -> io::Result<()> {
    out.write_all(b"x,y\n")?;
    let mut line = String::new();
    for (x, y) in sample.x.iter().zip(&sample.y) {
        line.clear();
        // 17 significant digits round-trips f64 exactly.
        let _ = writeln!(line, "{x:.17e},{y:.17e}");
        out.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Writes a sample to a file path.
pub fn write_sample_file<P: AsRef<Path>>(path: P, sample: &Sample) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_sample(io::BufWriter::new(file), sample)
}

/// Reads a two-column `x,y` CSV (header optional).
pub fn read_sample<R: BufRead>(input: R) -> io::Result<Sample> {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut parts = trimmed.split(',');
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(bad_line(lineno, trimmed));
        };
        match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
            (Ok(xv), Ok(yv)) => {
                x.push(xv);
                y.push(yv);
            }
            _ if lineno == 0 => continue, // header
            _ => return Err(bad_line(lineno, trimmed)),
        }
    }
    Ok(Sample { x, y })
}

/// Reads a sample from a file path.
pub fn read_sample_file<P: AsRef<Path>>(path: P) -> io::Result<Sample> {
    let file = std::fs::File::open(path)?;
    read_sample(io::BufReader::new(file))
}

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

fn bad_line(lineno: usize, content: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed CSV at line {}: {content:?}", lineno + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgp::{Dgp, PaperDgp};

    #[test]
    fn sample_round_trips_exactly() {
        let sample = PaperDgp.sample(100, 5);
        let mut buf = Vec::new();
        write_sample(&mut buf, &sample).unwrap();
        let back = read_sample(io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(sample, back);
    }

    #[test]
    fn reader_accepts_headerless_input() {
        let input = "1.0,2.0\n3.0,4.0\n";
        let s = read_sample(io::BufReader::new(input.as_bytes())).unwrap();
        assert_eq!(s.x, vec![1.0, 3.0]);
        assert_eq!(s.y, vec![2.0, 4.0]);
    }

    #[test]
    fn reader_skips_blank_lines() {
        let input = "x,y\n1.0,2.0\n\n3.0,4.0\n";
        let s = read_sample(io::BufReader::new(input.as_bytes())).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn reader_rejects_garbage_after_header() {
        let input = "x,y\n1.0,2.0\nnot,numbers\n";
        assert!(read_sample(io::BufReader::new(input.as_bytes())).is_err());
        let input = "justonecolumn\n";
        assert!(read_sample(io::BufReader::new(input.as_bytes())).is_err());
    }

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

    #[test]
    fn file_round_trip() {
        let sample = PaperDgp.sample(10, 9);
        let dir = std::env::temp_dir().join("kcv_data_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        write_sample_file(&path, &sample).unwrap();
        let back = read_sample_file(&path).unwrap();
        assert_eq!(sample, back);
        let _ = std::fs::remove_file(path);
    }
}
