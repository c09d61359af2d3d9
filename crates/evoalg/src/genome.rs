//! [`GenomeMatrix`] — the flat, structure-of-arrays store for genome
//! batches, mirroring [`crate::behaviour::BehaviourMatrix`] on the genome
//! path.
//!
//! Every evaluation batch a metaheuristic submits is a dense set of
//! fixed-width genome rows. Storing the batch as `Vec<Vec<f64>>` costs one
//! heap allocation per genome and scatters the rows across the heap; a
//! flat `Vec<f64>` with a fixed row width keeps the whole batch in one
//! contiguous block, so a shared evaluation pool can carry **one**
//! allocation per batch (or per fused mega-batch) and workers slice their
//! row straight out of it. The engines still submit nested rows through
//! [`crate::BatchEvaluator::evaluate`]; the `ess` crate's
//! `SharedScenarioPool` flattens them into this type once per batch.

/// A dense row-major matrix of genomes: `len` rows of a fixed `dim` width
/// in one contiguous `Vec<f64>`.
///
/// The dimension is fixed by the first row pushed (or up front via
/// [`GenomeMatrix::with_dim`]); every later row must match it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenomeMatrix {
    data: Vec<f64>,
    dim: usize,
}

impl GenomeMatrix {
    /// An empty matrix whose dimension is inferred from the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty matrix with the row width fixed up front.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    pub fn with_dim(dim: usize) -> Self {
        assert!(dim > 0, "genome dimension must be positive");
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

    /// Appends one genome row.
    ///
    /// # Panics
    /// Panics on a row-width mismatch or an empty row.
    pub fn push(&mut self, row: &[f64]) {
        self.set_dim(row.len());
        self.data.extend_from_slice(row);
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
    pub fn extend_from(&mut self, other: &GenomeMatrix) {
        if other.is_empty() {
            return;
        }
        self.set_dim(other.dim);
        self.data.extend_from_slice(&other.data);
    }

    /// Clears the rows, keeping the allocation and the dimension — the
    /// per-batch reuse entry point.
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

    fn set_dim(&mut self, dim: usize) {
        assert!(dim > 0, "genomes cannot be empty");
        if self.dim == 0 {
            self.dim = dim;
        } else {
            assert_eq!(dim, self.dim, "genome dimension mismatch");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_row_round_trip() {
        let mut m = GenomeMatrix::new();
        m.push(&[1.0, 2.0]);
        m.push(&[3.0, 4.0]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn rows_iterator_matches_indexing() {
        let m = GenomeMatrix::from_rows(&[[0.1], [0.2], [0.3]]);
        let collected: Vec<&[f64]> = m.rows().collect();
        assert_eq!(collected.len(), 3);
        for (i, row) in collected.iter().enumerate() {
            assert_eq!(*row, m.row(i));
        }
    }

    #[test]
    fn extend_from_is_a_bulk_append() {
        let mut a = GenomeMatrix::from_rows(&[[1.0], [2.0]]);
        let b = GenomeMatrix::from_rows(&[[3.0], [4.0]]);
        a.extend_from(&b);
        assert_eq!(a.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
        a.extend_from(&GenomeMatrix::new()); // empty other: no-op
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn clear_keeps_dim_and_capacity() {
        let mut m = GenomeMatrix::with_dim(3);
        m.push(&[1.0, 2.0, 3.0]);
        let cap = m.data.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.dim(), 3);
        assert_eq!(m.data.capacity(), cap);
    }

    #[test]
    fn reserve_rows_preallocates() {
        let mut m = GenomeMatrix::with_dim(4);
        m.reserve_rows(10);
        assert!(m.data.capacity() >= 40);
        GenomeMatrix::new().reserve_rows(10); // dimension unknown: no-op
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn ragged_rows_rejected() {
        let mut m = GenomeMatrix::new();
        m.push(&[1.0, 2.0]);
        m.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_row_rejected() {
        let mut m = GenomeMatrix::new();
        m.push(&[]);
    }
}
