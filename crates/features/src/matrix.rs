//! A simple row-major matrix of feature values (rows = time frames, columns = feature
//! dimensions).

/// A time × feature matrix shared by all extractors in this crate.
///
/// # Example
///
/// ```
/// use ispot_features::FeatureMatrix;
///
/// let mut m = FeatureMatrix::zeros(2, 3);
/// m.set(1, 2, 5.0);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.num_rows(), 2);
/// assert_eq!(m.num_cols(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl FeatureMatrix {
    /// Creates a matrix of zeros with `rows` time frames and `cols` feature dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        FeatureMatrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for r in &rows {
            assert_eq!(r.len(), n_cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        FeatureMatrix {
            data,
            rows: n_rows,
            cols: n_cols,
        }
    }

    /// Number of time frames (rows).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of feature dimensions (columns).
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Returns true if the matrix holds no values.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = value;
    }

    /// Returns row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row index out of range");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterates over rows in time order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// Returns the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flattens the matrix into a row-major vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the per-column mean over all rows (empty if the matrix has no rows).
    pub fn column_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (c, m) in means.iter_mut().enumerate() {
                *m += self.get(r, c);
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Returns the per-column standard deviation over all rows.
    pub fn column_stds(&self) -> Vec<f64> {
        let means = self.column_means();
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut vars = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (c, v) in vars.iter_mut().enumerate() {
                let d = self.get(r, c) - means[c];
                *v += d * d;
            }
        }
        vars.iter().map(|v| (v / self.rows as f64).sqrt()).collect()
    }

    /// Normalizes every column to zero mean and unit variance in place (columns with
    /// zero variance are left centred but unscaled).
    pub fn standardize(&mut self) {
        let means = self.column_means();
        let stds = self.column_stds();
        for r in 0..self.rows {
            for c in 0..self.cols {
                let mut v = self.get(r, c) - means[c];
                if stds[c] > 1e-12 {
                    v /= stds[c];
                }
                self.set(r, c, v);
            }
        }
    }

    /// Applies the natural logarithm with a small floor to every element
    /// (log-compression of power features).
    pub fn log_compress(&mut self, floor: f64) {
        for v in &mut self.data {
            *v = (*v).max(floor).ln();
        }
    }

    /// Appends the columns of `other` to every row (horizontal concatenation).
    ///
    /// # Panics
    ///
    /// Panics if the two matrices have different numbers of rows.
    pub fn hstack(&self, other: &FeatureMatrix) -> FeatureMatrix {
        assert_eq!(self.rows, other.rows, "row counts must match");
        let mut rows = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let mut row = self.row(r).to_vec();
            row.extend_from_slice(other.row(r));
            rows.push(row);
        }
        FeatureMatrix::from_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = FeatureMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.num_cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn inconsistent_rows_panic() {
        FeatureMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn column_statistics() {
        let m = FeatureMatrix::from_rows(vec![vec![1.0, 10.0], vec![3.0, 10.0]]);
        assert_eq!(m.column_means(), vec![2.0, 10.0]);
        assert_eq!(m.column_stds(), vec![1.0, 0.0]);
    }

    #[test]
    fn standardize_gives_zero_mean_unit_variance() {
        let mut m = FeatureMatrix::from_rows(vec![
            vec![1.0, 5.0],
            vec![2.0, 7.0],
            vec![3.0, 9.0],
            vec![4.0, 11.0],
        ]);
        m.standardize();
        let means = m.column_means();
        let stds = m.column_stds();
        for c in 0..2 {
            assert!(means[c].abs() < 1e-12);
            assert!((stds[c] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn log_compress_floors_small_values() {
        let mut m = FeatureMatrix::from_rows(vec![vec![0.0, 1.0]]);
        m.log_compress(1e-10);
        assert!((m.get(0, 0) - (1e-10f64).ln()).abs() < 1e-12);
        assert!(m.get(0, 1).abs() < 1e-12);
    }

    #[test]
    fn hstack_concatenates_columns() {
        let a = FeatureMatrix::from_rows(vec![vec![1.0], vec![2.0]]);
        let b = FeatureMatrix::from_rows(vec![vec![3.0, 4.0], vec![5.0, 6.0]]);
        let c = a.hstack(&b);
        assert_eq!(c.num_cols(), 3);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn zeros_and_set() {
        let mut m = FeatureMatrix::zeros(3, 2);
        assert!(m.iter_rows().all(|r| r.iter().all(|&v| v == 0.0)));
        m.set(2, 1, 7.0);
        assert_eq!(m.get(2, 1), 7.0);
        assert_eq!(m.as_slice().len(), 6);
    }
}
