//! [`RowMatrix`] — the flat, row-major `f64` store both dense batches of
//! the Optimization Stage flow through, under the two names their callers
//! use: [`GenomeMatrix`] (an evaluation batch) and [`BehaviourMatrix`]
//! (a set of behaviour descriptors).
//!
//! Storing such a set as `Vec<Vec<f64>>` costs one heap allocation per
//! row and scatters the rows across the heap; a flat `Vec<f64>` with a
//! fixed row width keeps the whole set in one contiguous block.
//!
//! * **Genomes.** The engines still submit nested rows through
//!   [`crate::BatchEvaluator::evaluate`]; the `ess` crate's
//!   `SharedScenarioPool` flattens them into this type once per batch, so
//!   the pool carries **one** allocation per batch (or per fused
//!   mega-batch) and workers slice their row straight out of it.
//! * **Behaviours.** The novelty computation of Eq. (1) is a dense kNN
//!   problem over the `noveltySet` (population ∪ offspring ∪ archive):
//!   batch scoring streams the block cache-line by cache-line and
//!   rebuilding the set each generation reuses one buffer. The
//!   [`crate::novelty::NoveltyArchive`] maintains its descriptors in this
//!   layout incrementally, and [`crate::knn::PreparedIndex`] scores
//!   directly against it.

/// A batch of genomes, one per row.
pub type GenomeMatrix = RowMatrix;

/// A set of behaviour descriptors, one per row.
pub type BehaviourMatrix = RowMatrix;

/// A dense row-major matrix: `len` rows of a fixed `dim` width in one
/// contiguous `Vec<f64>`.
///
/// The dimension is fixed by the first row pushed (or up front via
/// [`RowMatrix::with_dim`]); every later row must match it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowMatrix {
    data: Vec<f64>,
    dim: usize,
}

impl RowMatrix {
    /// An empty matrix whose dimension is inferred from the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty matrix with the row width fixed up front.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    pub fn with_dim(dim: usize) -> Self {
        assert!(dim > 0, "row dimension must be positive");
        Self {
            data: Vec::new(),
            dim,
        }
    }

    /// Row width (0 while empty with no fixed dimension).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// `true` when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reserves room for `rows` additional rows (no-op until the
    /// dimension is known).
    pub fn reserve_rows(&mut self, rows: usize) {
        if self.dim > 0 {
            self.data.reserve(rows * self.dim);
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics on a row-width mismatch or an empty row.
    pub fn push(&mut self, row: &[f64]) {
        self.set_dim(row.len());
        self.data.extend_from_slice(row);
    }

    /// Starts a new row and returns the writable slice for it — the
    /// allocation-free way to build a row in place (used by
    /// `BehaviourSpace::describe_into`-style writers).
    ///
    /// # Panics
    /// Panics on a row-width mismatch or `dim == 0`.
    pub fn push_uninit(&mut self, dim: usize) -> &mut [f64] {
        self.set_dim(dim);
        let start = self.data.len();
        self.data.resize(start + dim, 0.0);
        &mut self.data[start..]
    }

    /// Overwrites row `index`.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds or the width mismatches.
    pub fn set_row(&mut self, index: usize, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        let start = index * self.dim;
        self.data[start..start + self.dim].copy_from_slice(row);
    }

    /// Row `index` as a slice.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds.
    pub fn row(&self, index: usize) -> &[f64] {
        let start = index * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Iterates the rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Appends every row of `other` with one bulk copy.
    ///
    /// # Panics
    /// Panics when the dimensions differ (an empty `other` always works).
    pub fn extend_from(&mut self, other: &RowMatrix) {
        if other.is_empty() {
            return;
        }
        self.set_dim(other.dim);
        self.data.extend_from_slice(&other.data);
    }

    /// Clears the rows, keeping the allocation and the dimension — the
    /// per-batch / per-generation reuse entry point.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The flat row-major storage.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Builds a matrix from nested rows — the once-per-batch flattening.
    ///
    /// # Panics
    /// Panics on ragged rows.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        let mut m = Self::new();
        for row in rows {
            m.push(row.as_ref());
        }
        m
    }

    /// The nested-rows projection: the reference shape the kNN and
    /// archive tests compare the flat matrix against.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }

    fn set_dim(&mut self, dim: usize) {
        assert!(dim > 0, "rows cannot be empty");
        if self.dim == 0 {
            self.dim = dim;
        } else {
            assert_eq!(dim, self.dim, "row dimension mismatch");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_row_round_trip() {
        let mut m = RowMatrix::new();
        m.push(&[1.0, 2.0]);
        m.push(&[3.0, 4.0]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.to_rows(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    fn rows_iterator_matches_indexing() {
        let m = RowMatrix::from_rows(&[[0.1], [0.2], [0.3]]);
        let collected: Vec<&[f64]> = m.rows().collect();
        assert_eq!(collected.len(), 3);
        for (i, row) in collected.iter().enumerate() {
            assert_eq!(*row, m.row(i));
        }
    }

    #[test]
    fn set_row_overwrites_in_place() {
        let mut m = RowMatrix::from_rows(&[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]);
        m.set_row(1, &[9.0, 9.0]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.row(0), &[1.0, 1.0]);
        assert_eq!(m.row(1), &[9.0, 9.0]);
        assert_eq!(m.row(2), &[3.0, 3.0]);
    }

    #[test]
    fn clear_keeps_dim_and_capacity() {
        let mut m = RowMatrix::with_dim(3);
        m.push(&[1.0, 2.0, 3.0]);
        let cap = m.data.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.dim(), 3);
        assert_eq!(m.data.capacity(), cap);
    }

    #[test]
    fn reserve_rows_preallocates() {
        let mut m = RowMatrix::with_dim(4);
        m.reserve_rows(10);
        assert!(m.data.capacity() >= 40);
        RowMatrix::new().reserve_rows(10); // dimension unknown: no-op
    }

    #[test]
    fn extend_from_is_a_bulk_append() {
        let mut a = RowMatrix::from_rows(&[[1.0], [2.0]]);
        let b = RowMatrix::from_rows(&[[3.0], [4.0]]);
        a.extend_from(&b);
        assert_eq!(a.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
        a.extend_from(&RowMatrix::new()); // empty other: no-op
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn push_uninit_exposes_writable_row() {
        let mut m = RowMatrix::new();
        m.push_uninit(2).copy_from_slice(&[5.0, 6.0]);
        assert_eq!(m.row(0), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn ragged_rows_rejected() {
        let mut m = RowMatrix::new();
        m.push(&[1.0, 2.0]);
        m.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "rows cannot be empty")]
    fn empty_row_rejected() {
        let mut m = RowMatrix::new();
        m.push(&[]);
    }
}
