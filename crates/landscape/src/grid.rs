//! Generic row-major raster grid.

/// A dense, row-major 2-D raster of `T` values.
///
/// Rows index latitude (north → south), columns index longitude
/// (west → east), matching the convention of fireLib's demo maps. The grid
/// is the common currency of the whole workspace: terrain layers, ignition
/// maps, probability matrices and burned masks are all `Grid`s.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// Creates a grid of `rows × cols` cells, every cell set to `fill`.
    ///
    /// # Panics
    /// Panics if either dimension is zero: a degenerate raster has no
    /// meaning anywhere in the pipeline and would only defer the error.
    pub fn filled(rows: usize, cols: usize, fill: T) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![fill; rows * cols],
        }
    }

    /// Builds a grid by evaluating `f(row, col)` for every cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be non-zero");
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        assert!(rows > 0 && cols > 0, "grid dimensions must be non-zero");
        Self { rows, cols, data }
    }
}

impl<T> Grid<T> {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the grid holds no cells (never true by construction, but
    /// kept for API completeness alongside [`Grid::len`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(rows, cols)` pair, convenient for shape equality checks.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when `other` has the same shape.
    #[inline]
    pub fn same_shape<U>(&self, other: &Grid<U>) -> bool {
        self.rows == other.rows && self.cols == other.cols
    }

    /// `true` when `(row, col)` lies inside the raster.
    #[inline]
    pub fn in_bounds(&self, row: isize, col: isize) -> bool {
        row >= 0 && col >= 0 && (row as usize) < self.rows && (col as usize) < self.cols
    }

    /// Borrow the cell at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> &T {
        &self.data[row * self.cols + col]
    }

    /// Mutably borrow the cell at `(row, col)`.
    #[inline]
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut T {
        &mut self.data[row * self.cols + col]
    }

    /// Overwrite the cell at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        self.data[row * self.cols + col] = value;
    }

    /// Borrow the raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the raw row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterate over `((row, col), &value)` in row-major order.
    pub fn iter_cells(&self) -> impl Iterator<Item = ((usize, usize), &T)> {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| ((i / cols, i % cols), v))
    }

    /// Applies `f` to every cell, producing a grid of the results.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Cells adjacent to `(row, col)` under the 8-neighbour topology, with
    /// the centre-to-centre distance factor (1 for orthogonal, √2 for
    /// diagonal neighbours) in units of the cell side length.
    pub fn neighbours8(
        &self,
        row: usize,
        col: usize,
    ) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        crate::geometry::NEIGHBOUR_OFFSETS
            .iter()
            .filter_map(move |&(dr, dc, dist)| {
                let (nr, nc) = (row as isize + dr, col as isize + dc);
                self.in_bounds(nr, nc)
                    .then_some((nr as usize, nc as usize, dist))
            })
    }
}

impl<T: Copy> Grid<T> {
    /// Copy of the cell at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> T {
        self.data[row * self.cols + col]
    }

    /// Resets every cell to `fill` without reallocating — used by the
    /// simulator scratch buffers so the hot loop never allocates.
    pub fn fill(&mut self, fill: T) {
        self.data.fill(fill);
    }
}

impl Grid<bool> {
    /// Number of `true` cells.
    pub fn count_true(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_sets_every_cell() {
        let g = Grid::filled(3, 4, 7u32);
        assert_eq!(g.shape(), (3, 4));
        assert_eq!(g.len(), 12);
        assert!(g.as_slice().iter().all(|&v| v == 7));
    }

    #[test]
    fn from_fn_row_major_order() {
        let g = Grid::from_fn(2, 3, |r, c| (r, c));
        assert_eq!(*g.get(0, 0), (0, 0));
        assert_eq!(*g.get(0, 2), (0, 2));
        assert_eq!(*g.get(1, 1), (1, 1));
        assert_eq!(g.as_slice()[3], (1, 0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = Grid::filled(0, 3, 0u8);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_length_mismatch_rejected() {
        let _ = Grid::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn corner_has_three_neighbours() {
        let g = Grid::filled(4, 4, 0u8);
        assert_eq!(g.neighbours8(0, 0).count(), 3);
        assert_eq!(g.neighbours8(3, 3).count(), 3);
    }

    #[test]
    fn edge_has_five_neighbours_interior_eight() {
        let g = Grid::filled(4, 4, 0u8);
        assert_eq!(g.neighbours8(0, 2).count(), 5);
        assert_eq!(g.neighbours8(2, 2).count(), 8);
    }

    #[test]
    fn diagonal_neighbours_carry_sqrt2() {
        let g = Grid::filled(3, 3, 0u8);
        let diag: Vec<_> = g
            .neighbours8(1, 1)
            .filter(|&(r, c, _)| r != 1 && c != 1)
            .collect();
        assert_eq!(diag.len(), 4);
        for (_, _, d) in diag {
            assert!((d - std::f64::consts::SQRT_2).abs() < 1e-12);
        }
    }

    #[test]
    fn map_preserves_shape() {
        let g = Grid::from_fn(3, 2, |r, c| r + c);
        let doubled = g.map(|v| v * 2);
        assert_eq!(doubled.shape(), (3, 2));
        assert_eq!(*doubled.get(2, 1), 6);
    }

    #[test]
    fn fill_resets_in_place() {
        let mut g = Grid::from_fn(2, 2, |r, c| (r * 2 + c) as f64);
        g.fill(0.0);
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }
}
