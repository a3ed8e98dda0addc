//! Complex scalars, vectors, matrices and a complex LU solver.
//!
//! AC small-signal circuit analysis assembles a complex admittance matrix
//! `Y(jω)` and solves `Y v = i` at each frequency point; these types provide
//! exactly that, with no external dependency.

use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number with `f64` components.
///
/// # Example
///
/// ```
/// use bmf_linalg::Complex64;
///
/// let j = Complex64::I;
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((j * j).re, -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0j`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0j`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1j`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    pub fn from_re(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64 {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Magnitude `|z|` (overflow-safe via `hypot`).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex64 {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns infinities for `z = 0`, matching `f64` division semantics.
    pub fn recip(self) -> Complex64 {
        let d = self.abs_sq();
        Complex64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Whether both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_re(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}j", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}j", self.re, -self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    // Division by reciprocal multiplication is the standard complex
    // formula, not a typo for `*`.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.recip()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    fn mul(self, s: f64) -> Complex64 {
        Complex64::new(self.re * s, self.im * s)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    fn mul(self, z: Complex64) -> Complex64 {
        z * self
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    fn div(self, s: f64) -> Complex64 {
        Complex64::new(self.re / s, self.im / s)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

/// Owned dense complex vector.
///
/// # Example
///
/// ```
/// use bmf_linalg::{Complex64, CVector};
///
/// let mut v = CVector::zeros(2);
/// v[0] = Complex64::new(1.0, 1.0);
/// assert_eq!(v[0].abs_sq(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CVector {
    data: Vec<Complex64>,
}

impl CVector {
    /// Creates a zero complex vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        CVector {
            data: vec![Complex64::ZERO; n],
        }
    }

    /// Creates a complex vector by copying a slice.
    pub fn from_slice(s: &[Complex64]) -> Self {
        CVector { data: s.to_vec() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying storage.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Sets every element to `z`.
    pub fn fill(&mut self, z: Complex64) {
        self.data.fill(z);
    }

    /// Euclidean norm `sqrt(Σ |zᵢ|²)`.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt()
    }
}

impl Index<usize> for CVector {
    type Output = Complex64;
    fn index(&self, i: usize) -> &Complex64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVector {
    fn index_mut(&mut self, i: usize) -> &mut Complex64 {
        &mut self.data[i]
    }
}

/// Owned dense row-major complex matrix.
///
/// # Example
///
/// ```
/// use bmf_linalg::{CMatrix, Complex64};
///
/// let mut y = CMatrix::zeros(2, 2);
/// y[(0, 0)] += Complex64::from_re(1.0);
/// assert_eq!(y[(0, 0)].re, 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a zero complex matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` complex identity.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Sets every element to `z`.
    pub fn fill(&mut self, z: Complex64) {
        self.data.fill(z);
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `v.len() != ncols()`.
    pub fn mat_vec(&self, v: &CVector) -> Result<CVector> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "cmat_vec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = CVector::zeros(self.rows);
        for i in 0..self.rows {
            let mut s = Complex64::ZERO;
            for j in 0..self.cols {
                s += self[(i, j)] * v[j];
            }
            out[i] = s;
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

/// Complex LU factorisation with partial pivoting (pivot on magnitude).
///
/// This is the AC-analysis solver: the MNA engine factorises `Y(jω)` once
/// per frequency point and solves for the node-voltage phasors.
///
/// # Example
///
/// ```
/// use bmf_linalg::{CLu, CMatrix, CVector, Complex64};
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let mut a = CMatrix::identity(2);
/// a[(0, 1)] = Complex64::I;
/// let mut b = CVector::zeros(2);
/// b[0] = Complex64::ONE;
/// b[1] = Complex64::ONE;
/// let x = CLu::new(&a)?.solve_vec(&b)?;
/// assert!((x[1] - Complex64::ONE).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CLu {
    lu: CMatrix,
    perm: Vec<usize>,
}

impl CLu {
    /// Factorises a square complex matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`LinalgError::Singular`] when a pivot column is (numerically) zero.
    pub fn new(a: &CMatrix) -> Result<Self> {
        let mut lu = CLu::default();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Factorises `a` into this factorisation's storage, allocating only
    /// when `a` is larger than any matrix it held before. A sweep that
    /// factorises one system per frequency reuses one `CLu` this way.
    ///
    /// After an error the factorisation is unusable until the next
    /// successful `refactor`.
    ///
    /// # Errors
    ///
    /// As [`CLu::new`].
    pub fn refactor(&mut self, a: &CMatrix) -> Result<()> {
        if a.nrows() != a.ncols() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let lu = &mut self.lu;
        lu.rows = n;
        lu.cols = n;
        lu.data.clear();
        lu.data.extend_from_slice(&a.data);
        let perm = &mut self.perm;
        perm.clear();
        perm.extend(0..n);

        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 || !pivot_val.is_finite() {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            let ukk = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / ukk;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve_vec(&self, b: &CVector) -> Result<CVector> {
        let mut x = CVector::default();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into `x`, reusing its storage (resized to `dim()`).
    ///
    /// # Errors
    ///
    /// As [`CLu::solve_vec`].
    pub fn solve_into(&self, b: &CVector, x: &mut CVector) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "clu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        x.data.clear();
        x.data.extend(self.perm.iter().map(|&p| b[p]));
        for i in 1..n {
            let mut s = x[i];
            for k in 0..i {
                s -= self.lu[(i, k)] * x[k];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in (i + 1)..n {
                s -= self.lu[(i, k)] * x[k];
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < 1e-14);
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Complex64::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Complex64::new(0.5, 1.0));
    }

    #[test]
    fn scalar_assign_ops() {
        let mut z = Complex64::ONE;
        z += Complex64::I;
        assert_eq!(z, Complex64::new(1.0, 1.0));
        z -= Complex64::ONE;
        assert_eq!(z, Complex64::I);
        z *= Complex64::I;
        assert_eq!(z, Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn polar_and_phase() {
        let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
        assert!(z.re.abs() < 1e-15);
        assert!((z.im - 2.0).abs() < 1e-15);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert_eq!(Complex64::new(3.0, 4.0).abs(), 5.0);
        assert_eq!(Complex64::new(3.0, 4.0).abs_sq(), 25.0);
        assert_eq!(Complex64::new(1.0, 2.0).conj(), Complex64::new(1.0, -2.0));
        assert!(!Complex64::new(1.0, f64::NAN).is_finite());
        assert_eq!(Complex64::from(2.5), Complex64::from_re(2.5));
    }

    #[test]
    fn recip_inverts() {
        let z = Complex64::new(2.0, -3.0);
        let p = z * z.recip();
        assert!((p - Complex64::ONE).abs() < 1e-15);
    }

    #[test]
    fn display_format() {
        assert_eq!(
            format!("{}", Complex64::new(1.0, -2.0)),
            "1.000000-2.000000j"
        );
        assert!(format!("{}", Complex64::I).contains('+'));
    }

    #[test]
    fn cvector_basics() {
        let mut v = CVector::zeros(3);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        v[1] = Complex64::new(3.0, 4.0);
        assert_eq!(v.norm2(), 5.0);
        let w = CVector::from_slice(v.as_slice());
        assert_eq!(v, w);
    }

    #[test]
    fn cmatrix_mat_vec() {
        let mut m = CMatrix::zeros(2, 2);
        m[(0, 0)] = Complex64::ONE;
        m[(0, 1)] = Complex64::I;
        m[(1, 1)] = Complex64::from_re(2.0);
        let mut v = CVector::zeros(2);
        v[0] = Complex64::ONE;
        v[1] = Complex64::ONE;
        let r = m.mat_vec(&v).unwrap();
        assert_eq!(r[0], Complex64::new(1.0, 1.0));
        assert_eq!(r[1], Complex64::from_re(2.0));
        assert!(m.mat_vec(&CVector::zeros(3)).is_err());
    }

    #[test]
    fn clu_solves_complex_system() {
        // Y = [[1+j, -1], [-1, 1-j]], b = [1, 0]
        let mut y = CMatrix::zeros(2, 2);
        y[(0, 0)] = Complex64::new(1.0, 1.0);
        y[(0, 1)] = Complex64::new(-1.0, 0.0);
        y[(1, 0)] = Complex64::new(-1.0, 0.0);
        y[(1, 1)] = Complex64::new(1.0, -1.0);
        let mut b = CVector::zeros(2);
        b[0] = Complex64::ONE;
        let x = CLu::new(&y).unwrap().solve_vec(&b).unwrap();
        let r = y.mat_vec(&x).unwrap();
        assert!((r[0] - b[0]).abs() < 1e-13);
        assert!((r[1] - b[1]).abs() < 1e-13);
    }

    #[test]
    fn clu_pivots_when_needed() {
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 1)] = Complex64::ONE;
        a[(1, 0)] = Complex64::ONE;
        let mut b = CVector::zeros(2);
        b[0] = Complex64::from_re(2.0);
        b[1] = Complex64::from_re(3.0);
        let x = CLu::new(&a).unwrap().solve_vec(&b).unwrap();
        assert!((x[0] - Complex64::from_re(3.0)).abs() < 1e-14);
        assert!((x[1] - Complex64::from_re(2.0)).abs() < 1e-14);
    }

    #[test]
    fn clu_rejects_bad_input() {
        assert!(CLu::new(&CMatrix::zeros(2, 3)).is_err());
        assert!(matches!(
            CLu::new(&CMatrix::zeros(2, 2)),
            Err(LinalgError::Singular { .. })
        ));
        let lu = CLu::new(&CMatrix::identity(2)).unwrap();
        assert!(lu.solve_vec(&CVector::zeros(3)).is_err());
        assert_eq!(lu.dim(), 2);
    }

    #[test]
    fn clu_refactor_reuses_storage_bit_identically() {
        let system = |n: usize, shift: f64| {
            let mut a = CMatrix::zeros(n, n);
            let mut b = CVector::zeros(n);
            for i in 0..n {
                b[i] = Complex64::new(1.0, i as f64);
                for j in 0..n {
                    a[(i, j)] =
                        Complex64::new(((i * 7 + j * 3) % 5) as f64 - 2.0, shift * j as f64);
                }
                a[(i, i)] += Complex64::from_re(6.0);
            }
            (a, b)
        };
        let mut lu = CLu::default();
        let mut x = CVector::default();
        // Grow, shrink and refactor after a singular matrix: every result
        // must equal a fresh factorisation's bit for bit.
        for (n, shift) in [(3, 0.5), (6, 1.5), (2, -1.0), (6, 0.25)] {
            let (a, b) = system(n, shift);
            lu.refactor(&a).unwrap();
            lu.solve_into(&b, &mut x).unwrap();
            assert_eq!(x, CLu::new(&a).unwrap().solve_vec(&b).unwrap());
            assert_eq!(lu.dim(), n);
            assert!(lu.refactor(&CMatrix::zeros(n, n)).is_err());
        }
        assert!(lu.refactor(&CMatrix::zeros(2, 3)).is_err());
    }
}
