//! Plain-text raster IO: ASCII art for terminals, CSV for the harness.

use crate::firemap::FireLine;
use crate::grid::Grid;

/// Renders a fire line as ASCII art: `#` burned, `.` unburned, `o` preburn.
pub fn render_fire_line(line: &FireLine, preburn: Option<&FireLine>) -> String {
    let mut out = String::with_capacity((line.cols() + 1) * line.rows());
    for r in 0..line.rows() {
        for c in 0..line.cols() {
            let ch = if preburn.is_some_and(|p| p.is_burned(r, c)) {
                'o'
            } else if line.is_burned(r, c) {
                '#'
            } else {
                '.'
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Renders two fire lines side by side for visual comparison in examples.
pub fn render_comparison(real: &FireLine, predicted: &FireLine) -> String {
    assert!(
        real.mask().same_shape(predicted.mask()),
        "render: shape mismatch"
    );
    let mut out = String::new();
    for r in 0..real.rows() {
        for c in 0..real.cols() {
            out.push(match (real.is_burned(r, c), predicted.is_burned(r, c)) {
                (true, true) => '#',  // hit
                (true, false) => '-', // miss (under-prediction)
                (false, true) => '+', // false alarm (over-prediction)
                (false, false) => '.',
            });
        }
        out.push('\n');
    }
    out
}

/// Serialises a `Grid<f64>` as CSV (one row per line, `,` separator).
/// Non-finite values are written as `inf`.
pub fn grid_to_csv(grid: &Grid<f64>) -> String {
    let mut out = String::new();
    for r in 0..grid.rows() {
        for c in 0..grid.cols() {
            if c > 0 {
                out.push(',');
            }
            let v = grid.at(r, c);
            if v.is_finite() {
                out.push_str(&format!("{v:.6}"));
            } else {
                out.push_str("inf");
            }
        }
        out.push('\n');
    }
    out
}

/// Parses a CSV produced by [`grid_to_csv`].
///
/// # Errors
/// Returns a description of the first malformed cell or a row-length
/// mismatch.
pub fn grid_from_csv(text: &str) -> Result<Grid<f64>, String> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut row = Vec::new();
        for (col, field) in line.split(',').enumerate() {
            let f = field.trim();
            let v = if f.eq_ignore_ascii_case("inf") {
                f64::INFINITY
            } else {
                f.parse::<f64>()
                    .map_err(|e| format!("line {}, column {}: {e}", lineno + 1, col + 1))?
            };
            row.push(v);
        }
        if let Some(first) = rows.first() {
            if first.len() != row.len() {
                return Err(format!(
                    "line {}: expected {} columns, found {}",
                    lineno + 1,
                    first.len(),
                    row.len()
                ));
            }
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err("empty CSV".to_string());
    }
    let cols = rows[0].len();
    let data: Vec<f64> = rows.into_iter().flatten().collect();
    let r = data.len() / cols;
    Ok(Grid::from_vec(r, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_marks_burned_and_preburn() {
        let fl = FireLine::from_cells(2, 3, &[(0, 0), (1, 2)]);
        let pre = FireLine::from_cells(2, 3, &[(0, 1)]);
        let s = render_fire_line(&fl, Some(&pre));
        assert_eq!(s, "#o.\n..#\n");
    }

    #[test]
    fn render_comparison_classifies_cells() {
        let real = FireLine::from_cells(1, 4, &[(0, 0), (0, 1)]);
        let pred = FireLine::from_cells(1, 4, &[(0, 1), (0, 2)]);
        assert_eq!(render_comparison(&real, &pred), "-#+.\n");
    }

    #[test]
    fn grid_csv_roundtrip() {
        let g = Grid::from_vec(2, 2, vec![1.5, 0.0, f64::INFINITY, -2.25]);
        let csv = grid_to_csv(&g);
        let back = grid_from_csv(&csv).unwrap();
        assert_eq!(back.shape(), (2, 2));
        assert_eq!(back.at(0, 0), 1.5);
        assert_eq!(back.at(1, 0), f64::INFINITY);
        assert_eq!(back.at(1, 1), -2.25);
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        assert!(grid_from_csv("1,2\n3\n").is_err());
        assert!(grid_from_csv("").is_err());
        assert!(grid_from_csv("1,abc\n").is_err());
    }
}
