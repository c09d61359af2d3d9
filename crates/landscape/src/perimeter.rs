//! Fire-front geometry: perimeter extraction and shape statistics.
//!
//! The "fire line" the ESS literature talks about is the *front* of the
//! burned region. The pipeline compares burned areas cell-wise (Eq. 3),
//! but the examples and reports also describe fronts geometrically: where
//! the perimeter runs, how long it is, how elongated the burn is — the
//! quantities a fire analyst reads off a prediction map.

use crate::firemap::FireLine;

/// Shape statistics of a burned region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeStats {
    /// Burned cell count.
    pub area_cells: usize,
    /// Number of perimeter cells (burned with ≥ 1 unburned 4-neighbour or
    /// on the map edge).
    pub perimeter_cells: usize,
    /// Burned-region centroid `(row, col)` (cell coordinates).
    pub centroid: (f64, f64),
    /// Bounding box `(min_row, min_col, max_row, max_col)`.
    pub bbox: (usize, usize, usize, usize),
    /// Isoperimetric compactness `4π·A / P²` computed on cell counts:
    /// ≈ 1 for discs, → 0 for filaments. 0 when nothing burned.
    pub compactness: f64,
    /// Bounding-box elongation: long side / short side (≥ 1).
    pub elongation: f64,
}

/// Extracts the perimeter cells of a fire line: burned cells with at least
/// one unburned 4-neighbour, or touching the map edge (the front may run
/// off-map).
pub fn perimeter_cells(line: &FireLine) -> Vec<(usize, usize)> {
    let rows = line.rows();
    let cols = line.cols();
    let mut out = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if !line.is_burned(r, c) {
                continue;
            }
            let on_edge = r == 0 || c == 0 || r == rows - 1 || c == cols - 1;
            let has_unburned_side =
                [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)]
                    .iter()
                    .any(|&(dr, dc)| {
                        let (nr, nc) = (r as isize + dr, c as isize + dc);
                        nr >= 0
                            && nc >= 0
                            && (nr as usize) < rows
                            && (nc as usize) < cols
                            && !line.is_burned(nr as usize, nc as usize)
                    });
            if on_edge || has_unburned_side {
                out.push((r, c));
            }
        }
    }
    out
}

/// Computes the shape statistics of a burned region.
pub fn shape_stats(line: &FireLine) -> ShapeStats {
    let burned = line.burned_cells();
    if burned.is_empty() {
        return ShapeStats {
            area_cells: 0,
            perimeter_cells: 0,
            centroid: (0.0, 0.0),
            bbox: (0, 0, 0, 0),
            compactness: 0.0,
            elongation: 1.0,
        };
    }
    let perimeter = perimeter_cells(line).len();
    let n = burned.len() as f64;
    let centroid = (
        burned.iter().map(|&(r, _)| r as f64).sum::<f64>() / n,
        burned.iter().map(|&(_, c)| c as f64).sum::<f64>() / n,
    );
    let (min_r, max_r, min_c, max_c) = burned.iter().fold(
        (usize::MAX, 0, usize::MAX, 0),
        |(r0, r1, c0, c1), &(r, c)| (r0.min(r), r1.max(r), c0.min(c), c1.max(c)),
    );
    let compactness = if perimeter == 0 {
        0.0
    } else {
        (4.0 * std::f64::consts::PI * n / (perimeter as f64 * perimeter as f64)).min(1.5)
    };
    let h = (max_r - min_r + 1) as f64;
    let w = (max_c - min_c + 1) as f64;
    let elongation = if h >= w { h / w } else { w / h };
    ShapeStats {
        area_cells: burned.len(),
        perimeter_cells: perimeter,
        centroid,
        bbox: (min_r, min_c, max_r, max_c),
        compactness,
        elongation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(n: usize, r0: usize, c0: usize, side: usize) -> FireLine {
        let cells: Vec<(usize, usize)> = (r0..r0 + side)
            .flat_map(|r| (c0..c0 + side).map(move |c| (r, c)))
            .collect();
        FireLine::from_cells(n, n, &cells)
    }

    #[test]
    fn solid_square_perimeter_is_ring() {
        let fl = square(10, 3, 3, 4);
        let peri = perimeter_cells(&fl);
        // 4×4 block: 16 cells, interior 2×2 = 4 → perimeter 12.
        assert_eq!(peri.len(), 12);
        assert!(!peri.contains(&(4, 4)));
        assert!(peri.contains(&(3, 3)));
    }

    #[test]
    fn single_cell_is_its_own_perimeter() {
        let fl = FireLine::from_cells(5, 5, &[(2, 2)]);
        assert_eq!(perimeter_cells(&fl), vec![(2, 2)]);
    }

    #[test]
    fn map_edge_counts_as_front() {
        // A burned column hugging the left edge: all its cells border the
        // edge, so all are perimeter even where vertically surrounded.
        let cells: Vec<(usize, usize)> = (0..5).map(|r| (r, 0)).collect();
        let fl = FireLine::from_cells(5, 5, &cells);
        assert_eq!(perimeter_cells(&fl).len(), 5);
    }

    #[test]
    fn stats_of_square() {
        let fl = square(12, 2, 4, 4);
        let s = shape_stats(&fl);
        assert_eq!(s.area_cells, 16);
        assert_eq!(s.perimeter_cells, 12);
        assert_eq!(s.bbox, (2, 4, 5, 7));
        assert!((s.centroid.0 - 3.5).abs() < 1e-12);
        assert!((s.centroid.1 - 5.5).abs() < 1e-12);
        assert!((s.elongation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn filament_less_compact_than_block() {
        let block = square(20, 5, 5, 6);
        let cells: Vec<(usize, usize)> = (0..18).map(|c| (10, c)).collect();
        let filament = FireLine::from_cells(20, 20, &cells);
        let sb = shape_stats(&block);
        let sf = shape_stats(&filament);
        assert!(sb.compactness > sf.compactness);
        assert!(sf.elongation > 10.0);
    }

    #[test]
    fn empty_region_degenerates() {
        let s = shape_stats(&FireLine::empty(5, 5));
        assert_eq!(s.area_cells, 0);
        assert_eq!(s.perimeter_cells, 0);
        assert_eq!(s.compactness, 0.0);
    }

    #[test]
    fn perimeter_no_larger_than_area() {
        let fl = square(9, 1, 1, 7);
        let s = shape_stats(&fl);
        assert!(s.perimeter_cells <= s.area_cells);
    }
}
