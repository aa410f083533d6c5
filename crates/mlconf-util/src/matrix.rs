//! A small dense, row-major `f64` matrix.
//!
//! The Gaussian-process layer needs kernels, Cholesky factorizations, and
//! triangular solves over matrices of at most a few hundred rows (one per
//! observed trial), so a simple cache-friendly row-major `Vec<f64>` is the
//! right tool — no external linear-algebra dependency is warranted.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use mlconf_util::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = &a * &b;
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec size mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a single-column matrix from a slice.
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
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

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "mul_vec dimension mismatch");
        (0..self.rows).map(|i| dot(self.row(i), v)).collect()
    }

    /// Scales every entry by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Adds `s` to each diagonal entry in place (e.g. jitter or noise).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, s: f64) {
        assert!(self.is_square(), "add_diagonal on non-square matrix");
        for i in 0..self.rows {
            self[(i, i)] += s;
        }
    }

    /// Splits the backing row-major storage at the start of row `r`,
    /// returning the rows before `r` and the rows from `r` on.
    ///
    /// Lets triangular solves read already-computed rows while writing the
    /// current one without aliasing.
    ///
    /// # Panics
    ///
    /// Panics if `r > self.rows()`.
    pub fn split_rows_at_mut(&mut self, r: usize) -> (&mut [f64], &mut [f64]) {
        assert!(r <= self.rows, "split_rows_at_mut row {r} out of bounds");
        self.data.split_at_mut(r * self.cols)
    }

    /// Maximum absolute entry-wise difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "add shape mismatch");
        assert_eq!(self.cols, rhs.cols, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "sub shape mismatch");
        assert_eq!(self.cols, rhs.cols, "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// Matrix product, `O(n·m·k)` with an ikj loop order for locality.
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "mul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * r;
                }
            }
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            let row: Vec<String> = self.row(i).iter().map(|x| format!("{x:>10.4}")).collect();
            writeln!(f, "[{}]", row.join(" "))?;
        }
        Ok(())
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Element-wise `a + s * b`, returning a new vector.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(a: &[f64], s: f64, b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    a.iter().zip(b).map(|(x, y)| x + s * y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i3 = Matrix::identity(3);
        assert_eq!(&a * &i3, a);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 5);
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = [5.0, 6.0];
        assert_eq!(a.mul_vec(&v), vec![17.0, 39.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        let mut c = a.clone();
        c.scale(3.0);
        assert_eq!(c, Matrix::from_rows(&[&[3.0, 6.0]]));
    }

    #[test]
    fn add_diagonal_jitter() {
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(0.5);
        assert_eq!(a, Matrix::from_rows(&[&[0.5, 0.0], &[0.0, 0.5]]));
    }

    #[test]
    #[should_panic(expected = "non-square")]
    fn add_diagonal_nonsquare_panics() {
        Matrix::zeros(2, 3).add_diagonal(1.0);
    }

    #[test]
    fn row_col_access() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        Matrix::zeros(2, 2).row(2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panics() {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(axpy(&[1.0, 1.0], 2.0, &[1.0, 2.0]), vec![3.0, 5.0]);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.5, 1.0]]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn display_not_empty() {
        let s = format!("{}", Matrix::identity(2));
        assert!(s.contains("1.0000"));
    }

    #[test]
    fn split_rows_at_mut_partitions_storage() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let (head, tail) = m.split_rows_at_mut(1);
        assert_eq!(head, &[1.0, 2.0]);
        assert_eq!(tail, &[3.0, 4.0, 5.0, 6.0]);
    }
}
