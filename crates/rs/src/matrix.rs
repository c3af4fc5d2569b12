//! Dense matrices over a Galois field: the small linear-algebra kernel
//! behind generator construction and erasure decoding.
//!
//! Matrices here are tiny (at most `(m+k) × m` with `m + k ≤ 2^f`), so the
//! implementation favours clarity: row-major `Vec`, Gauss–Jordan inversion.

use lhrs_gf::GaloisField;

use crate::RsError;

/// A dense row-major matrix over the field `F`.
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix<F: GaloisField> {
    rows: usize,
    cols: usize,
    data: Vec<F::Elem>,
}

impl<F: GaloisField> std::fmt::Debug for Matrix<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix<{}> {}x{}", F::NAME, self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                write!(f, " {:?}", self.get(r, c))?;
            }
            writeln!(f, " ]")?;
        }
        Ok(())
    }
}

impl<F: GaloisField> Matrix<F> {
    /// An all-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![F::zero(); rows.saturating_mul(cols)],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m.set(i, i, F::one());
        }
        m
    }

    /// Build from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> F::Elem) -> Self {
        let mut m = Self::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// A Cauchy matrix `C[r][c] = 1 / (x_r + y_c)` with
    /// `x_r = r`, `y_c = rows + c` (all distinct, so every denominator is
    /// nonzero and every square submatrix is nonsingular).
    ///
    /// # Errors
    /// [`RsError::InvalidParameters`] if `rows + cols > 2^f`.
    pub fn cauchy(rows: usize, cols: usize) -> Result<Self, RsError> {
        if rows.saturating_add(cols) > usize::try_from(F::ORDER).unwrap_or(usize::MAX) {
            return Err(RsError::InvalidParameters {
                m: rows,
                k: cols,
                field_order: F::ORDER,
            });
        }
        let mut m = Self::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let x = F::from_usize(r);
                let y = F::from_usize(rows.saturating_add(c));
                // Distinct points imply a nonzero sum; surface the
                // impossible case as an error instead of aborting.
                let v = F::inv(F::add(x, y)).ok_or(RsError::SingularMatrix)?;
                m.set(r, c, v);
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`; out-of-range coordinates degrade to the field
    /// zero (debug builds still trap) so a bookkeeping bug in a caller
    /// corrupts one symbol instead of killing the bucket actor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> F::Elem {
        debug_assert!(r < self.rows && c < self.cols);
        self.data
            .get(r.saturating_mul(self.cols).saturating_add(c))
            .copied()
            .unwrap_or_else(F::zero)
    }

    /// Set element at `(r, c)`; out-of-range coordinates are ignored.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: F::Elem) {
        debug_assert!(r < self.rows && c < self.cols);
        let idx = r.saturating_mul(self.cols).saturating_add(c);
        if let Some(e) = self.data.get_mut(idx) {
            *e = v;
        }
    }

    /// Row `r` as a slice (empty for an out-of-range row).
    pub fn row(&self, r: usize) -> &[F::Elem] {
        let start = r.saturating_mul(self.cols);
        let end = start.saturating_add(self.cols);
        self.data.get(start..end).unwrap_or(&[])
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Errors
    /// [`RsError::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn mul(&self, rhs: &Matrix<F>) -> Result<Matrix<F>, RsError> {
        if self.cols != rhs.rows {
            return Err(RsError::DimensionMismatch);
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for c in 0..rhs.cols {
                let mut acc = F::zero();
                for t in 0..self.cols {
                    acc = F::add(acc, F::mul(self.get(r, t), rhs.get(t, c)));
                }
                out.set(r, c, acc);
            }
        }
        Ok(out)
    }

    /// Scale row `r` by `v`.
    pub fn scale_row(&mut self, r: usize, v: F::Elem) {
        for c in 0..self.cols {
            let x = self.get(r, c);
            self.set(r, c, F::mul(x, v));
        }
    }

    /// Scale column `c` by `v`.
    pub fn scale_col(&mut self, c: usize, v: F::Elem) {
        for r in 0..self.rows {
            let x = self.get(r, c);
            self.set(r, c, F::mul(x, v));
        }
    }

    /// The submatrix formed by the given rows (in the given order), keeping
    /// all columns.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix<F> {
        Matrix::from_fn(rows.len(), self.cols, |r, c| {
            self.get(rows.get(r).copied().unwrap_or(0), c)
        })
    }

    /// Inverse by Gauss–Jordan elimination with partial pivoting (any
    /// nonzero pivot works in a field).
    ///
    /// # Errors
    /// [`RsError::DimensionMismatch`] for non-square input,
    /// [`RsError::SingularMatrix`] if no inverse exists.
    pub fn inverse(&self) -> Result<Matrix<F>, RsError> {
        if self.rows != self.cols {
            return Err(RsError::DimensionMismatch);
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::<F>::identity(n);
        for col in 0..n {
            // Find a nonzero pivot at or below the diagonal.
            let pivot = (col..n)
                .find(|&r| a.get(r, col) != F::zero())
                .ok_or(RsError::SingularMatrix)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalise the pivot row (the pivot was selected nonzero, so
            // inversion cannot fail; degrade rather than abort regardless).
            let pv = F::inv(a.get(col, col)).ok_or(RsError::SingularMatrix)?;
            a.scale_row(col, pv);
            inv.scale_row(col, pv);
            // Eliminate the column everywhere else.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor == F::zero() {
                    continue;
                }
                for c in 0..n {
                    let v = F::add(a.get(r, c), F::mul(factor, a.get(col, c)));
                    a.set(r, c, v);
                    let w = F::add(inv.get(r, c), F::mul(factor, inv.get(col, c)));
                    inv.set(r, c, w);
                }
            }
        }
        Ok(inv)
    }

    /// Whether the (square) matrix is invertible.
    pub fn is_nonsingular(&self) -> bool {
        self.rows == self.cols && self.inverse().is_ok()
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            let (x, y) = (self.get(a, c), self.get(b, c));
            self.set(a, c, y);
            self.set(b, c, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhrs_gf::Gf8;

    #[test]
    fn identity_is_multiplicative_neutral() {
        let m = Matrix::<Gf8>::from_fn(3, 3, |r, c| (r * 3 + c + 1) as u8);
        let i = Matrix::<Gf8>::identity(3);
        assert_eq!(m.mul(&i).unwrap(), m);
        assert_eq!(i.mul(&m).unwrap(), m);
    }

    #[test]
    fn inverse_roundtrip_gf8() {
        let m = Matrix::<Gf8>::cauchy(5, 5).unwrap();
        let inv = m.inverse().unwrap();
        assert_eq!(m.mul(&inv).unwrap(), Matrix::<Gf8>::identity(5));
        assert_eq!(inv.mul(&m).unwrap(), Matrix::<Gf8>::identity(5));
    }

    #[test]
    fn singular_matrix_detected() {
        // Two identical rows.
        let m = Matrix::<Gf8>::from_fn(2, 2, |_, c| (c + 1) as u8);
        assert_eq!(m.inverse().unwrap_err(), RsError::SingularMatrix);
        assert!(!m.is_nonsingular());
    }

    #[test]
    fn non_square_inverse_rejected() {
        let m = Matrix::<Gf8>::zero(2, 3);
        assert_eq!(m.inverse().unwrap_err(), RsError::DimensionMismatch);
    }

    #[test]
    fn cauchy_all_square_submatrices_nonsingular_small() {
        // Exhaustively check 1x1 and 2x2 submatrices of a 4x4 Cauchy over
        // GF(2^8) — the MDS-defining property.
        let m = Matrix::<Gf8>::cauchy(4, 4).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert_ne!(m.get(r, c), 0);
            }
        }
        for r1 in 0..4 {
            for r2 in r1 + 1..4 {
                for c1 in 0..4 {
                    for c2 in c1 + 1..4 {
                        let det = Gf8::add(
                            Gf8::mul(m.get(r1, c1), m.get(r2, c2)),
                            Gf8::mul(m.get(r1, c2), m.get(r2, c1)),
                        );
                        assert_ne!(det, 0, "singular 2x2 at ({r1},{r2})x({c1},{c2})");
                    }
                }
            }
        }
    }

    #[test]
    fn cauchy_too_large_for_field_rejected() {
        assert!(matches!(
            Matrix::<Gf8>::cauchy(200, 100),
            Err(RsError::InvalidParameters { .. })
        ));
        assert!(Matrix::<Gf8>::cauchy(200, 56).is_ok()); // 256 = 2^8
    }

    #[test]
    fn select_rows_reorders() {
        let m = Matrix::<Gf8>::from_fn(3, 2, |r, c| (10 * r + c) as u8);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[20, 21]);
        assert_eq!(s.row(1), &[0, 1]);
    }

    #[test]
    fn mul_dimension_mismatch_rejected() {
        let a = Matrix::<Gf8>::zero(2, 3);
        let b = Matrix::<Gf8>::zero(2, 3);
        assert_eq!(a.mul(&b).unwrap_err(), RsError::DimensionMismatch);
    }
}
