//! A minimal row-major `f32` matrix with the kernels an MLP needs.
//!
//! Kernels are written cache-consciously (ikj loop order for GEMM, so the
//! inner loop streams rows of both operands) per the Rust performance
//! guidance this project follows; no unsafe, no external BLAS.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// `self · other` (ikj order).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "outer dimensions must agree");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let dot: f32 = a_row.iter().zip(b_row).map(|(a, b)| a * b).sum();
                out.set(i, j, dot);
            }
        }
        out
    }

    /// Adds `bias` to every row.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Column sums (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// In-place ReLU; returns the activation mask for backprop.
    pub fn relu_inplace(&mut self) -> Vec<bool> {
        self.data
            .iter_mut()
            .map(|v| {
                if *v > 0.0 {
                    true
                } else {
                    *v = 0.0;
                    false
                }
            })
            .collect()
    }

    /// Zeroes entries whose mask bit is false (ReLU backward).
    pub fn mask_inplace(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.data.len());
        for (v, &m) in self.data.iter_mut().zip(mask) {
            if !m {
                *v = 0.0;
            }
        }
    }

    /// Scales every entry.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small_known_product() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn t_matmul_agrees_with_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(2, 2, &[1., 2., 3., 4.]);
        let at = m(3, 2, &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(a.t_matmul(&b).as_slice(), at.matmul(&b).as_slice());
    }

    #[test]
    fn matmul_t_agrees_with_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(2, 3, &[7., 8., 9., 10., 11., 12.]);
        let bt = m(3, 2, &[7., 10., 8., 11., 9., 12.]);
        assert_eq!(a.matmul_t(&b).as_slice(), a.matmul(&bt).as_slice());
    }

    #[test]
    fn bias_and_colsums_roundtrip() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_bias(&[1.0, 2.0]);
        assert_eq!(a.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut a = m(1, 4, &[-1.0, 2.0, -3.0, 4.0]);
        let mask = a.relu_inplace();
        assert_eq!(a.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        assert_eq!(mask, vec![false, true, false, true]);
        let mut g = m(1, 4, &[10., 10., 10., 10.]);
        g.mask_inplace(&mask);
        assert_eq!(g.as_slice(), &[0., 10., 0., 10.]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let _ = a.matmul(&b);
    }
}
