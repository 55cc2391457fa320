//! A row-major `f64` matrix with the operations the MLP needs.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64`.
///
/// Rows are the batch dimension throughout this crate: an input batch of
/// `n` examples with `d` features is an `n × d` matrix.
///
/// ```
/// use spear_nn::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
/// let c = a.matmul(&b);
/// assert_eq!(c.as_slice(), &[17.0, 39.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Matrix {
    /// An empty 0×0 matrix — the natural start state for `*_into` scratch
    /// buffers, which are reshaped on first use.
    fn default() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape does not match data length");
        Matrix { rows, cols, data }
    }

    /// A 1×n matrix from a slice (one example).
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        };
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned matrix: `out` is reshaped to
    /// `self.rows × other.cols` (reusing its existing allocation once it
    /// has reached steady-state capacity) and overwritten with the product.
    /// Same loops, same accumulation order, bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        out.rows = self.rows;
        out.cols = other.cols;
        out.data.clear();
        out.data.resize(self.rows * other.cols, 0.0);
        let n = other.cols;
        // i-k-j: per output element k ascends from 0.0 with zero entries
        // of `self` skipped, the sequence `Dense::forward_one_into` runs.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * n..(k + 1) * n];
                let crow = &mut out.data[i * n..(i + 1) * n];
                for (cv, &ov) in crow.iter_mut().zip(orow) {
                    *cv += a * ov;
                }
            }
        }
    }

    /// Column sums (used for bias gradients).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Fills the matrix with zeros.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm (for gradient clipping / diagnostics).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Reuse the same buffer for a differently shaped product: the
        // stale 2×2 contents must be fully overwritten, not accumulated.
        b.matmul_into(&a, &mut out); // 3×2 · 2×3 = 3×3
        assert_eq!(out, b.matmul(&a));
    }

    #[test]
    fn broadcast_and_column_sums() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]]);
        assert_eq!(m.column_sums(), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn map_and_fill_zero() {
        let mut a = Matrix::from_rows(&[&[6.0, 12.0]]);
        a.map_inplace(|v| v * 2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn frobenius_norm() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }
}
