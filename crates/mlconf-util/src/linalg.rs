//! Linear algebra on symmetric positive-definite systems: Cholesky
//! factorization, triangular solves, and least squares.
//!
//! This is the numerical backbone of the Gaussian-process layer. The GP fits
//! `K + σ²I = L Lᵀ` and then answers every posterior query with triangular
//! solves against `L`, so correctness here is guarded by both unit tests and
//! property tests (see `proptests` at the bottom).

use crate::matrix::Matrix;

/// Error produced when a factorization or solve fails.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix was not positive definite (reported with the pivot index
    /// where the failure occurred and the offending pivot value).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// The non-positive pivot value encountered.
        value: f64,
    },
    /// The input was not square or dimensions disagreed.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A least-squares system was singular beyond repair.
    Singular,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot, value } => {
                write!(
                    f,
                    "matrix not positive definite at pivot {pivot} (value {value})"
                )
            }
            LinalgError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            LinalgError::Singular => write!(f, "singular system"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, with solve and log-determinant helpers.
///
/// # Examples
///
/// ```
/// use mlconf_util::matrix::Matrix;
/// use mlconf_util::linalg::Cholesky;
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve_vec(&[8.0, 7.0]);
/// // Verify A x = b.
/// let b = a.mul_vec(&x);
/// assert!((b[0] - 8.0).abs() < 1e-10 && (b[1] - 7.0).abs() < 1e-10);
/// # Ok::<(), mlconf_util::linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    /// The factor. Its strict upper triangle is always zero: the
    /// factorization borrows row `k`'s upper part as scratch during step
    /// `k` and clears it before the step ends.
    l: Matrix,
}

impl Default for Cholesky {
    /// The factor of the empty matrix: storage for
    /// [`Cholesky::refactor_with_jitter`] to fill.
    fn default() -> Self {
        Cholesky {
            l: Matrix::zeros(0, 0),
        }
    }
}

fn check_square(a: &Matrix) -> Result<(), LinalgError> {
    if a.is_square() {
        Ok(())
    } else {
        Err(LinalgError::ShapeMismatch {
            detail: format!("cholesky of {}x{}", a.rows(), a.cols()),
        })
    }
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility.
    ///
    /// The factorization is right-looking: step `k` takes the square
    /// root of pivot `k`, divides column `k` by it, and subtracts
    /// `L[i][k]·L[j][k]` from every trailing entry `(i, j)`. Each entry
    /// thus receives the same subtractions, in the same ascending-`k`
    /// order, as the textbook dot-product form `a[i][j] − Σₖ L[i][k]·L[j][k]`,
    /// so `L` and the first failing pivot are bit-identical to it; but the
    /// subtractions of one step are independent of each other, so they
    /// run as contiguous vectorizable row sweeps instead of one dependent
    /// chain per entry.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] for non-square input and
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        check_square(a)?;
        let mut chol = Cholesky {
            l: Matrix::zeros(a.rows(), a.rows()),
        };
        chol.load_lower(a, None);
        chol.factor_in_place()?;
        Ok(chol)
    }

    /// Factors `a + jitter·I`, growing the jitter by ×10 on failure up to
    /// `max_tries` attempts. Returns the factorization and the jitter that
    /// succeeded.
    ///
    /// Kernel matrices are often ill-conditioned when two configurations
    /// nearly coincide; progressive jitter is the standard GP remedy.
    ///
    /// # Errors
    ///
    /// Returns the last failure if no jitter level in the schedule works.
    pub fn factor_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<(Self, f64), LinalgError> {
        let mut chol = Cholesky::default();
        let jitter = chol.refactor_with_jitter(a, initial_jitter, max_tries)?;
        Ok((chol, jitter))
    }

    /// [`Cholesky::factor_with_jitter`] into this factor's storage,
    /// which is reused when `a` has the factor's dimension. Returns the
    /// jitter that succeeded; the factor is bit-identical to the one
    /// [`Cholesky::factor_with_jitter`] returns.
    ///
    /// The hyperparameter search refactors one Gram matrix per
    /// likelihood evaluation, hundreds of times per fit, so it keeps one
    /// factor per thread and refactors it in place.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::factor_with_jitter`]. After an error the factor
    /// holds a partial factorization and must be refactored before use.
    pub fn refactor_with_jitter(
        &mut self,
        a: &Matrix,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<f64, LinalgError> {
        check_square(a)?;
        if self.l.rows() != a.rows() {
            self.l = Matrix::zeros(a.rows(), a.rows());
        }
        let mut jitter = initial_jitter;
        let mut last_err = LinalgError::Singular;
        for attempt in 0..max_tries.max(1) {
            let shift = (attempt > 0 || jitter > 0.0).then_some(jitter);
            self.load_lower(a, shift);
            match self.factor_in_place() {
                Ok(()) => return Ok(jitter),
                Err(e) => {
                    last_err = e;
                    jitter = if jitter == 0.0 { 1e-10 } else { jitter * 10.0 };
                }
            }
        }
        Err(last_err)
    }

    /// Copies the lower triangle of `a` (same dimension as the factor)
    /// into the factor, adding `shift` to the diagonal when given.
    fn load_lower(&mut self, a: &Matrix, shift: Option<f64>) {
        for i in 0..a.rows() {
            let row = &mut self.l.row_mut(i)[..=i];
            row.copy_from_slice(&a.row(i)[..=i]);
            if let Some(s) = shift {
                row[i] += s;
            }
        }
    }

    /// Right-looking factorization of the lower triangle already in
    /// `self.l` (see [`Cholesky::factor`]).
    fn factor_in_place(&mut self) -> Result<(), LinalgError> {
        let n = self.l.rows();
        for k in 0..n {
            let pivot = self.l[(k, k)];
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: k,
                    value: pivot,
                });
            }
            let d = pivot.sqrt();
            self.l[(k, k)] = d;
            for i in k + 1..n {
                let (head, tail) = self.l.split_rows_at_mut(i);
                // Row k's strict upper part collects column k, so the
                // trailing update reads it contiguously.
                let col = &mut head[k * n..(k + 1) * n];
                let row = &mut tail[..n];
                let lik = row[k] / d;
                row[k] = lik;
                col[i] = lik;
                for (x, &ljk) in row[k + 1..=i].iter_mut().zip(&col[k + 1..=i]) {
                    *x -= lik * ljk;
                }
            }
            self.l.row_mut(k)[k + 1..].fill(0.0);
        }
        Ok(())
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward then backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        self.solve_vec_into(b, &mut x);
        x
    }

    /// Allocation-free variant of [`Cholesky::solve_vec`] writing the
    /// solution into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differ from `self.dim()`.
    pub fn solve_vec_into(&self, b: &[f64], x: &mut [f64]) {
        solve_lower_into(&self.l, b, x);
        solve_upper_in_place(&self.l, x);
    }

    /// Solves `L y = b` only (forward substitution), used by GP posterior
    /// variance computations.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_lower_vec(&self, b: &[f64]) -> Vec<f64> {
        solve_lower(&self.l, b)
    }

    /// Allocation-free variant of [`Cholesky::solve_lower_vec`] writing
    /// into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `y.len()` differ from `self.dim()`.
    pub fn solve_lower_vec_into(&self, b: &[f64], y: &mut [f64]) {
        solve_lower_into(&self.l, b, y);
    }

    /// Solves `L Y = B` for all columns of `B` at once (batched forward
    /// substitution), used by batched GP posterior queries.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.dim()`.
    pub fn solve_lower_mat(&self, b: &Matrix) -> Matrix {
        solve_lower_batch(&self.l, b)
    }

    /// Extends the factorization to cover `extra` appended rows/columns
    /// of the underlying matrix in O(n²) each, instead of O(n³) for
    /// refactorizing. The grown factor is allocated once, at its final
    /// size, and this factor's rows are copied into it.
    ///
    /// `entries(i, col)` fills `col` (`dim() + i` long) with the
    /// off-diagonal entries `A[r][0..r]` of appended row `r = dim() + i`
    /// and returns its diagonal entry `A[r][r]`. Each new row of `L`
    /// follows by forward substitution (`L l_r = col`) with the same
    /// accumulation order as [`Cholesky::factor`], so the result is
    /// bit-identical to refactorizing the extended matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] at the first
    /// appended pivot that is not positive (`entries` is not called
    /// again after it).
    pub fn append(
        &self,
        extra: usize,
        mut entries: impl FnMut(usize, &mut [f64]) -> f64,
    ) -> Result<Cholesky, LinalgError> {
        let n = self.dim();
        let m = n + extra;
        let mut l = Matrix::zeros(m, m);
        for i in 0..n {
            l.row_mut(i)[..n].copy_from_slice(self.l.row(i));
        }
        for r in n..m {
            let (done, rest) = l.split_rows_at_mut(r);
            let row = &mut rest[..r];
            let diag = entries(r - n, row);
            // Entry j receives the subtractions `factor` gives entry
            // (r, j), in the same ascending order.
            for j in 0..r {
                let lj = &done[j * m..j * m + j + 1];
                let mut sum = row[j];
                for (rk, ljk) in row[..j].iter().zip(lj) {
                    sum -= rk * ljk;
                }
                row[j] = sum / lj[j];
            }
            let mut pivot = diag;
            for rk in row.iter() {
                pivot -= rk * rk;
            }
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: r,
                    value: pivot,
                });
            }
            rest[r] = pivot.sqrt();
        }
        Ok(Cholesky { l })
    }

    /// Log-determinant of `A`, i.e. `2 Σ ln L[i][i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Solves the lower-triangular system `L y = b` by forward substitution.
///
/// # Panics
///
/// Panics on shape mismatch or a zero diagonal entry.
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; l.rows()];
    solve_lower_into(l, b, &mut y);
    y
}

/// Allocation-free variant of [`solve_lower`]: writes the solution of
/// `L y = b` into `y`, which callers can reuse across many solves (the GP
/// batch-prediction hot path).
///
/// # Panics
///
/// Panics on shape mismatch or a zero diagonal entry.
pub fn solve_lower_into(l: &Matrix, b: &[f64], y: &mut [f64]) {
    let n = l.rows();
    assert_eq!(b.len(), n, "solve_lower shape mismatch");
    assert_eq!(y.len(), n, "solve_lower output length mismatch");
    for i in 0..n {
        let mut sum = b[i];
        let row = l.row(i);
        for (k, yk) in y.iter().enumerate().take(i) {
            sum -= row[k] * yk;
        }
        assert!(row[i] != 0.0, "zero diagonal in triangular solve");
        y[i] = sum / row[i];
    }
}

/// Backward substitution in place: `x` holds `y` on entry and the
/// solution of `Lᵀ x = y` (for lower-triangular `L`) on return. Entry
/// `i` is read just before it is overwritten and only solved entries
/// `k > i` feed it, so no second buffer is needed.
fn solve_upper_in_place(l: &Matrix, x: &mut [f64]) {
    let n = l.rows();
    assert_eq!(x.len(), n, "solve_upper shape mismatch");
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in i + 1..n {
            // L[k][i] is the (i,k) entry of L^T.
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
}

/// Solves `L Y = B` for all columns of `B` in one forward sweep.
///
/// Per column the arithmetic (accumulation order, operand order) matches
/// [`solve_lower`] exactly, so results are bit-identical; the batched form
/// only reorders work across columns to touch each factor row once.
///
/// # Panics
///
/// Panics on shape mismatch or a zero diagonal entry.
pub fn solve_lower_batch(l: &Matrix, b: &Matrix) -> Matrix {
    let n = l.rows();
    let m = b.cols();
    assert_eq!(b.rows(), n, "solve_lower_batch shape mismatch");
    let mut y = b.clone();
    if m == 0 {
        // No columns to solve (and `chunks_exact` needs a width).
        return y;
    }
    for i in 0..n {
        let lrow = l.row(i);
        let (done, rest) = y.split_rows_at_mut(i);
        let acc = &mut rest[..m];
        // acc[j] = b[i][j] - Σ_{k<i} L[i][k] · y[k][j], k ascending.
        for (&lik, yk) in lrow[..i].iter().zip(done.chunks_exact(m)) {
            for (a, &ykj) in acc.iter_mut().zip(yk) {
                *a -= lik * ykj;
            }
        }
        assert!(lrow[i] != 0.0, "zero diagonal in triangular solve");
        for a in acc {
            *a /= lrow[i];
        }
    }
    y
}

/// Ordinary least squares: finds `beta` minimizing `‖X·beta − y‖²` via the
/// normal equations with a small ridge term for stability.
///
/// Used by the Ernest-style parametric performance-model baseline, where
/// `X` has a handful of hand-crafted feature columns.
///
/// # Errors
///
/// Returns an error if shapes disagree or the system is singular even
/// after ridge regularization.
pub fn least_squares(x: &Matrix, y: &[f64], ridge: f64) -> Result<Vec<f64>, LinalgError> {
    if x.rows() != y.len() {
        return Err(LinalgError::ShapeMismatch {
            detail: format!("lstsq X has {} rows, y has {}", x.rows(), y.len()),
        });
    }
    if x.rows() < x.cols() {
        return Err(LinalgError::ShapeMismatch {
            detail: format!("underdetermined: {} rows < {} cols", x.rows(), x.cols()),
        });
    }
    let xt = x.transpose();
    let mut xtx = &xt * x;
    xtx.add_diagonal(ridge.max(0.0));
    let xty = xt.mul_vec(y);
    let (chol, _) =
        Cholesky::factor_with_jitter(&xtx, 0.0, 12).map_err(|_| LinalgError::Singular)?;
    Ok(chol.solve_vec(&xty))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_matrix(n: usize, seed: u64) -> Matrix {
        // Build A = B Bᵀ + n·I which is always SPD.
        use crate::rng::Pcg64;
        use rand::Rng;
        let mut rng = Pcg64::seed(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = &b * &b.transpose();
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd_matrix(6, 1);
        let chol = Cholesky::factor(&a).unwrap();
        let recon = &chol.l().clone() * &chol.l().transpose();
        assert!(a.max_abs_diff(&recon) < 1e-10);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_matrix(5, 2);
        let x_true = vec![1.0, -2.0, 0.5, 3.0, -1.5];
        let b = a.mul_vec(&x_true);
        let chol = Cholesky::factor(&a).unwrap();
        let x = chol.solve_vec(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        match Cholesky::factor(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot, .. }) => assert_eq!(pivot, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-deficient: duplicate rows.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let (chol, jitter) = Cholesky::factor_with_jitter(&a, 0.0, 15).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(chol.dim(), 2);
    }

    #[test]
    fn log_det_matches_known() {
        // det([[4,0],[0,9]]) = 36.
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
        let chol = Cholesky::factor(&a).unwrap();
        assert!((chol.log_det() - 36.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn least_squares_exact_fit() {
        // y = 2 + 3t, exactly representable.
        let t: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let x = Matrix::from_fn(10, 2, |i, j| if j == 0 { 1.0 } else { t[i] });
        let y: Vec<f64> = t.iter().map(|&ti| 2.0 + 3.0 * ti).collect();
        let beta = least_squares(&x, &y, 0.0).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-8);
        assert!((beta[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        let x = Matrix::zeros(2, 3);
        assert!(least_squares(&x, &[1.0, 2.0], 0.0).is_err());
    }

    /// Appends rows `from..to` of `a` to `chol` in one call.
    pub(super) fn append_rows(chol: &Cholesky, a: &Matrix, from: usize, to: usize) -> Cholesky {
        chol.append(to - from, |i, col| {
            let r = from + i;
            for (j, c) in col.iter_mut().enumerate() {
                *c = a[(r, j)];
            }
            a[(r, r)]
        })
        .unwrap()
    }

    #[test]
    fn append_matches_full_factor_exactly() {
        let a = spd_matrix(8, 11);
        // Factor the leading 5x5 block, then append rows 5, 6, 7 one at a
        // time and all at once; both must be bit-identical to factoring
        // all of A.
        let lead = Matrix::from_fn(5, 5, |i, j| a[(i, j)]);
        let lead = Cholesky::factor(&lead).unwrap();
        let mut one_by_one = lead.clone();
        for m in 5..8 {
            one_by_one = append_rows(&one_by_one, &a, m, m + 1);
        }
        let full = Cholesky::factor(&a).unwrap();
        assert_eq!(
            one_by_one.l(),
            full.l(),
            "incremental factor must match exactly"
        );
        assert_eq!(append_rows(&lead, &a, 5, 8).l(), full.l());
    }

    #[test]
    fn append_from_empty_builds_scalar_factor() {
        let chol = Cholesky::factor(&Matrix::zeros(0, 0)).unwrap();
        let chol = chol.append(1, |_, _| 9.0).unwrap();
        assert_eq!(chol.dim(), 1);
        assert_eq!(chol.l()[(0, 0)], 3.0);
        assert_eq!(chol.append(0, |_, _| unreachable!()).unwrap(), chol);
    }

    #[test]
    fn append_rejects_non_pd_at_the_failing_row() {
        let a = spd_matrix(4, 5);
        let chol = Cholesky::factor(&a).unwrap();
        // A non-positive appended diagonal cannot yield a positive pivot;
        // the rows after it are never asked for.
        let mut asked = Vec::new();
        let result = chol.append(3, |i, col| {
            asked.push((i, col.len()));
            col.fill(0.0);
            if i == 1 {
                0.0
            } else {
                1.0
            }
        });
        match result {
            Err(LinalgError::NotPositiveDefinite { pivot, .. }) => assert_eq!(pivot, 5),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
        assert_eq!(asked, [(0, 4), (1, 5)]);
    }

    #[test]
    fn solve_lower_mat_matches_solve_lower_vec() {
        let a = spd_matrix(6, 6);
        let b = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f64 - 4.0);
        let chol = Cholesky::factor(&a).unwrap();
        let y = chol.solve_lower_mat(&b);
        for j in 0..3 {
            let col = chol.solve_lower_vec(&b.col(j));
            for i in 0..6 {
                assert_eq!(y[(i, j)], col[i], "batched forward solve must be exact");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn spd_from_entries(n: usize, entries: Vec<f64>) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| entries[i * n + j]);
        let mut a = &b * &b.transpose();
        a.add_diagonal(n as f64 + 1.0);
        a
    }

    proptest! {
        #[test]
        fn cholesky_reconstructs_spd(
            n in 1usize..8,
            raw in proptest::collection::vec(-3.0f64..3.0, 64),
        ) {
            let a = spd_from_entries(n, raw);
            let chol = Cholesky::factor(&a).unwrap();
            let recon = &chol.l().clone() * &chol.l().transpose();
            prop_assert!(a.max_abs_diff(&recon) < 1e-8);
        }

        #[test]
        fn solve_satisfies_system(
            n in 1usize..8,
            raw in proptest::collection::vec(-3.0f64..3.0, 64),
            rhs in proptest::collection::vec(-10.0f64..10.0, 8),
        ) {
            let a = spd_from_entries(n, raw);
            let b = &rhs[..n];
            let chol = Cholesky::factor(&a).unwrap();
            let x = chol.solve_vec(b);
            let back = a.mul_vec(&x);
            for (got, want) in back.iter().zip(b) {
                prop_assert!((got - want).abs() < 1e-6, "residual too large");
            }
        }

        #[test]
        fn log_det_positive_for_diagonally_dominant(
            n in 1usize..8,
            raw in proptest::collection::vec(-1.0f64..1.0, 64),
        ) {
            let a = spd_from_entries(n, raw);
            let chol = Cholesky::factor(&a).unwrap();
            // A has diagonal entries > n, so det > 1 and log det > 0.
            prop_assert!(chol.log_det() > 0.0);
        }

        #[test]
        fn incremental_append_equals_full_refactorization(
            n in 2usize..8,
            split in 1usize..7,
            raw in proptest::collection::vec(-3.0f64..3.0, 64),
        ) {
            let split = split.min(n - 1);
            let a = spd_from_entries(n, raw);
            let lead = Matrix::from_fn(split, split, |i, j| a[(i, j)]);
            let lead = Cholesky::factor(&lead).unwrap();
            let mut chol = lead.clone();
            for m in split..n {
                chol = super::tests::append_rows(&chol, &a, m, m + 1);
            }
            let full = Cholesky::factor(&a).unwrap();
            prop_assert_eq!(chol.l(), full.l());
            let at_once = super::tests::append_rows(&lead, &a, split, n);
            prop_assert_eq!(at_once.l(), full.l());
        }

        #[test]
        fn batched_solves_match_per_column(
            n in 1usize..8,
            cols in 1usize..5,
            raw in proptest::collection::vec(-3.0f64..3.0, 64),
            rhs in proptest::collection::vec(-10.0f64..10.0, 40),
        ) {
            let a = spd_from_entries(n, raw);
            let b = Matrix::from_fn(n, cols, |i, j| rhs[i * cols + j]);
            let chol = Cholesky::factor(&a).unwrap();
            let y = chol.solve_lower_mat(&b);
            for j in 0..cols {
                let yv = chol.solve_lower_vec(&b.col(j));
                for i in 0..n {
                    prop_assert_eq!(y[(i, j)], yv[i]);
                }
            }
        }

        #[test]
        fn factor_is_bit_identical_to_the_dot_product_reference(
            n in 1usize..=64,
            kind in 0u8..3,
            seed in 0u64..1 << 40,
        ) {
            let a = reference::test_matrix(n, kind, seed);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            match (Cholesky::factor(&a), reference::factor(&a)) {
                (Ok(c), Ok(l)) => prop_assert_eq!(bits(c.l()), bits(&l)),
                (Err(e), Err(r)) => prop_assert_eq!(reference::error_bits(&e), reference::error_bits(&r)),
                (got, want) => prop_assert!(false, "factor {got:?} but reference {want:?}"),
            }
            // Refactoring storage that held another factor gives the same
            // factor and jitter as a fresh one and as the reference.
            let (mut reused, _) = Cholesky::factor_with_jitter(&reference::test_matrix(n, 0, !seed), 0.0, 12)
                .expect("an SPD matrix factors");
            let refactored = reused.refactor_with_jitter(&a, 0.0, 12);
            match (Cholesky::factor_with_jitter(&a, 0.0, 12), reference::factor_with_jitter(&a, 0.0, 12)) {
                (Ok((c, jitter)), Ok((l, want))) => {
                    prop_assert_eq!(bits(c.l()), bits(&l));
                    prop_assert_eq!(jitter.to_bits(), want.to_bits());
                    prop_assert_eq!(refactored.map(f64::to_bits), Ok(want.to_bits()));
                    prop_assert_eq!(bits(reused.l()), bits(&l));
                }
                (Err(e), Err(r)) => {
                    prop_assert_eq!(reference::error_bits(&e), reference::error_bits(&r));
                    let again = refactored.expect_err("fresh factor failed");
                    prop_assert_eq!(reference::error_bits(&again), reference::error_bits(&r));
                }
                (got, want) => prop_assert!(false, "jittered {got:?} but reference {want:?}"),
            }
        }
    }
}

/// The dot-product Cholesky the right-looking [`Cholesky::factor`]
/// replaced, kept as the reference it must match bit for bit.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::rng::Pcg64;
    use rand::Rng;

    /// Factors `a` with one dependent dot-product chain per entry.
    pub fn factor(a: &Matrix) -> Result<Matrix, LinalgError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite {
                            pivot: i,
                            value: sum,
                        });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// The jitter schedule on a fresh copy of `a` per attempt.
    pub fn factor_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<(Matrix, f64), LinalgError> {
        let mut jitter = initial_jitter;
        let mut last_err = LinalgError::Singular;
        for attempt in 0..max_tries.max(1) {
            let mut m = a.clone();
            if attempt > 0 || jitter > 0.0 {
                m.add_diagonal(jitter);
            }
            match factor(&m) {
                Ok(l) => return Ok((l, jitter)),
                Err(e) => {
                    last_err = e;
                    jitter = if jitter == 0.0 { 1e-10 } else { jitter * 10.0 };
                }
            }
        }
        Err(last_err)
    }

    /// A pivot failure as comparable bits.
    pub fn error_bits(e: &LinalgError) -> Option<(usize, u64)> {
        match e {
            LinalgError::NotPositiveDefinite { pivot, value } => Some((*pivot, value.to_bits())),
            _ => None,
        }
    }

    /// An `n × n` symmetric test matrix `B Bᵀ + shift`: `kind` 0 is SPD
    /// (small positive shift), 1 duplicates a row of `B` so the matrix is
    /// singular and needs jitter, 2 subtracts enough from the diagonal to
    /// make it indefinite at some pivot.
    pub fn test_matrix(n: usize, kind: u8, seed: u64) -> Matrix {
        let mut rng = Pcg64::seed(seed);
        let mut b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        if kind == 1 && n > 1 {
            let from = rng.gen_range(0..n);
            let to = (from + rng.gen_range(1..n)) % n;
            let row = b.row(from).to_vec();
            b.row_mut(to).copy_from_slice(&row);
        }
        let mut a = &b * &b.transpose();
        let shift = match kind {
            0 => rng.gen_range(1e-6..1.0),
            1 => 0.0,
            _ => -(10f64).powf(rng.gen_range(-3.0..1.5)),
        };
        a.add_diagonal(shift);
        a
    }
}
