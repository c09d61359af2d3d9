//! Plain-text raster output: ASCII art for terminals.

use crate::firemap::FireLine;

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
    assert!(real.same_shape(predicted), "render: shape mismatch");
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
}
