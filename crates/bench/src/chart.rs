//! A minimal ASCII line chart for the Figure 1 reproduction: run time (log
//! y) against sample size (log x), one mark per program.

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The mark character used for this series.
    pub mark: char,
    /// `(x, y)` points; `y ≤ 0` points are clamped to the axis floor.
    pub points: Vec<(f64, f64)>,
}

/// Renders series on a log-log grid of `width × height` characters.
pub fn render_loglog(series: &[Series], width: usize, height: usize) -> String {
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let floor_y = 1e-6;
    let lx = |v: f64| v.max(1.0).log10();
    let ly = |v: f64| v.max(floor_y).log10();
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &all {
        x0 = x0.min(lx(x));
        x1 = x1.max(lx(x));
        y0 = y0.min(ly(y));
        y1 = y1.max(ly(y));
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in &s.points {
            let cx = (((lx(x) - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
            let cy = (((ly(y) - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            let col = cx.min(width - 1);
            grid[row][col] = s.mark;
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "run time (s), log scale [{:.2e} .. {:.2e}]\n",
        10f64.powf(y0),
        10f64.powf(y1)
    ));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        " n (log scale) [{:.0} .. {:.0}]\n",
        10f64.powf(x0),
        10f64.powf(x1)
    ));
    for s in series {
        out.push_str(&format!("  {}  {}\n", s.mark, s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_contains_marks_and_legend() {
        let series = vec![
            Series {
                label: "Sequential C".into(),
                mark: 's',
                points: vec![(100.0, 0.01), (1000.0, 0.27), (20000.0, 80.92)],
            },
            Series {
                label: "CUDA on GPU".into(),
                mark: 'g',
                points: vec![(100.0, 0.09), (1000.0, 0.24), (20000.0, 32.49)],
            },
        ];
        let chart = render_loglog(&series, 60, 20);
        assert!(chart.contains('s'));
        assert!(chart.contains('g'));
        assert!(chart.contains("Sequential C"));
        assert!(chart.lines().count() > 20);
    }

    #[test]
    fn empty_input_is_graceful() {
        assert_eq!(render_loglog(&[], 10, 5), "(no data)\n");
    }

    #[test]
    fn single_point_does_not_panic() {
        let s = vec![Series {
            label: "one".into(),
            mark: '*',
            points: vec![(50.0, 1.0)],
        }];
        let chart = render_loglog(&s, 20, 10);
        assert!(chart.contains('*'));
    }
}
