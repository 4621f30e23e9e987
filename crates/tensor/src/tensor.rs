//! Dense row-major tensors, generic over [`TensorElement`], and the
//! operations the workspace needs.

use crate::element::{TensorElement, F16};
use crate::{Result, Shape, TensorError};

/// A dense, row-major tensor over any [`TensorElement`] (`f32`, [`F16`],
/// `i8`).
///
/// The container (construction, shape bookkeeping, slicing, splitting) is
/// element-generic; the numeric kernels live on the concrete aliases —
/// [`Tensor`] (= `TensorBase<f32>`, the golden-model type every
/// functional path computes in) and the half/int8 storage forms that
/// widen into it.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorBase<E: TensorElement> {
    shape: Shape,
    data: Vec<E>,
}

/// A dense, row-major tensor of `f32` values.
///
/// This is the golden-model numeric type: all functional (value-producing)
/// execution in the workspace happens on `Tensor`s, whether the simulated
/// deployment dtype is int8 or f32.
///
/// ```
/// use mtp_tensor::{Shape, Tensor};
/// let x = Tensor::from_vec(Shape::mat(2, 2), vec![1.0, 2.0, 3.0, 4.0])?;
/// let y = x.matmul(&Tensor::eye(2));
/// assert_eq!(x, y);
/// # Ok::<(), mtp_tensor::TensorError>(())
/// ```
pub type Tensor = TensorBase<f32>;

impl<E: TensorElement> TensorBase<E> {
    /// A tensor of zeros with the given shape.
    #[must_use]
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        TensorBase { data: vec![E::ZERO; shape.len()], shape }
    }

    /// The `n x n` identity matrix.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(Shape::mat(n, n));
        for i in 0..n {
            t.data[i * n + i] = E::ONE;
        }
        t
    }

    /// Builds a matrix by evaluating `f` at each `(row, col)` index.
    #[must_use]
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut((usize, usize)) -> E) -> Self {
        let shape = shape.into();
        let (rows, cols) = (shape.rows(), shape.cols().max(1));
        let mut data = Vec::with_capacity(shape.len());
        for r in 0..rows {
            for c in 0..cols {
                data.push(f((r, c)));
            }
        }
        // Rank-3 shapes are filled as (d0, d1*d2) matrices and the base
        // tile repeats periodically: one sized copy pass, no intermediate
        // clone/truncate.
        let base_len = rows * cols;
        for idx in base_len..shape.len() {
            let v = data[idx - base_len];
            data.push(v);
        }
        TensorBase { shape, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// the element count implied by `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<E>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(TensorBase { shape, data })
    }

    /// The tensor's shape.
    #[must_use]
    pub const fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing buffer (row-major).
    #[must_use]
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Element at `(row, col)` of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> E {
        debug_assert!(row < self.shape.rows() && col < self.shape.cols());
        self.data[row * self.shape.cols() + col]
    }

    /// Sets the element at `(row, col)` of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: E) {
        let cols = self.shape.cols();
        self.data[row * cols + col] = value;
    }

    /// Borrow row `r` of a matrix as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[E] {
        let cols = self.shape.cols();
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Transposed copy of a matrix.
    #[must_use]
    pub fn transposed(&self) -> Self {
        let (m, n) = (self.shape.rows(), self.shape.cols());
        let mut out = vec![E::ZERO; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        TensorBase { shape: Shape::mat(n, m), data: out }
    }

    /// Reshapes this tensor to `shape` and zero-fills it, reusing its
    /// allocation (growing only when the new element count exceeds the
    /// current capacity). This is the setup step of the `_into`
    /// scratch-buffer kernels and of hand-rolled scratch loops.
    pub fn resize_to(&mut self, shape: impl Into<Shape>) {
        self.shape = shape.into();
        self.data.clear();
        self.data.resize(self.shape.len(), E::ZERO);
    }

    /// Like [`TensorBase::resize_to`] but skips the zero-fill when the
    /// element count is unchanged — for kernels that overwrite every
    /// output element anyway (the `_into` matmul family, the attention
    /// score scratch), where a preparatory memset on the steady-state
    /// path would be pure waste. Element values after the call are
    /// unspecified; callers **must** write every element before reading.
    pub fn resize_for_overwrite(&mut self, shape: impl Into<Shape>) {
        let shape = shape.into();
        self.shape = shape;
        if self.data.len() != shape.len() {
            self.data.clear();
            self.data.resize(shape.len(), E::ZERO);
        }
    }

    /// Makes this tensor an exact copy of `src`, reusing the existing
    /// allocation when large enough.
    pub fn copy_from(&mut self, src: &Self) {
        self.shape = src.shape;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Assigns `shape` and row-major `data` to this tensor, reusing the
    /// existing allocation when large enough (the scratch-variant
    /// companion of [`TensorBase::from_vec`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs
    /// from the element count implied by `shape`.
    pub fn assign_from_slice(&mut self, shape: impl Into<Shape>, data: &[E]) -> Result<()> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: data.len() });
        }
        self.shape = shape;
        self.data.clear();
        self.data.extend_from_slice(data);
        Ok(())
    }

    /// Splits a matrix into `parts` equal column blocks.
    ///
    /// This is the core slicing primitive of the partitioning scheme: weight
    /// matrices are scattered across chips as contiguous column (or, via
    /// [`TensorBase::split_rows`], row) slices with **no duplication**.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnevenSplit`] when `parts` does not divide the
    /// column count.
    pub fn split_cols(&self, parts: usize) -> Result<Vec<Self>> {
        let (m, n) = (self.shape.rows(), self.shape.cols());
        if parts == 0 || n % parts != 0 {
            return Err(TensorError::UnevenSplit { axis_len: n, parts });
        }
        let w = n / parts;
        let mut out = Vec::with_capacity(parts);
        for p in 0..parts {
            let mut data = Vec::with_capacity(m * w);
            for r in 0..m {
                let start = r * n + p * w;
                data.extend_from_slice(&self.data[start..start + w]);
            }
            out.push(TensorBase { shape: Shape::mat(m, w), data });
        }
        Ok(out)
    }

    /// Splits a matrix into `parts` equal row blocks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnevenSplit`] when `parts` does not divide the
    /// row count.
    pub fn split_rows(&self, parts: usize) -> Result<Vec<Self>> {
        let (m, n) = (self.shape.rows(), self.shape.cols());
        if parts == 0 || m % parts != 0 {
            return Err(TensorError::UnevenSplit { axis_len: m, parts });
        }
        let h = m / parts;
        let out = (0..parts)
            .map(|p| TensorBase {
                shape: Shape::mat(h, n),
                data: self.data[p * h * n..(p + 1) * h * n].to_vec(),
            })
            .collect();
        Ok(out)
    }

    /// Concatenates matrices along the column axis (inverse of `split_cols`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when row counts differ, and
    /// [`TensorError::LengthMismatch`] when `parts` is empty.
    pub fn concat_cols(parts: &[Self]) -> Result<Self> {
        let first = parts.first().ok_or(TensorError::LengthMismatch { expected: 1, actual: 0 })?;
        let m = first.shape.rows();
        let total: usize = {
            for p in parts {
                if p.shape.rows() != m {
                    return Err(TensorError::ShapeMismatch { left: first.shape, right: p.shape });
                }
            }
            parts.iter().map(|p| p.shape.cols()).sum()
        };
        let mut data = Vec::with_capacity(m * total);
        for r in 0..m {
            for p in parts {
                data.extend_from_slice(p.row(r));
            }
        }
        Ok(TensorBase { shape: Shape::mat(m, total), data })
    }

    /// Byte size of this tensor when stored at the given dtype (for
    /// what-if footprint accounting; use [`TensorBase::storage_bytes`] for
    /// the actual in-memory footprint of this element type).
    #[must_use]
    pub fn size_bytes(&self, dtype: crate::Dtype) -> usize {
        self.len() * dtype.size_bytes()
    }

    /// Byte size of this tensor as stored (`len * size_of::<E>()`).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.len() * E::DTYPE.size_bytes()
    }

    /// The storage dtype tag of this tensor's element type.
    #[must_use]
    pub fn dtype(&self) -> crate::Dtype {
        E::DTYPE
    }
}

impl Tensor {
    /// Matrix product `self @ rhs` with shape checking.
    ///
    /// # Panics
    ///
    /// Panics when inner dimensions disagree; use [`Tensor::try_matmul`] for
    /// a fallible variant.
    #[must_use]
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.try_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Matrix product `self @ rhs`.
    ///
    /// Dispatches to the active [`crate::backend::Backend`] (explicit AVX2
    /// kernels when the host supports them, the blocked scalar kernel
    /// otherwise). Every backend preserves the naive ascending-`k`
    /// accumulation order per output element, so results are bit-identical
    /// to [`crate::naive::matmul`] regardless of which backend ran
    /// (property-tested at the workspace root). For steady-state loops,
    /// [`Tensor::matmul_into`] reuses a caller-owned output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] when `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k) = (self.shape.rows(), self.shape.cols());
        let (k2, n) = (rhs.shape.rows(), rhs.shape.cols());
        if k != k2 {
            return Err(TensorError::MatmulMismatch { left: self.shape, right: rhs.shape });
        }
        let mut out = vec![0.0f32; m * n];
        crate::backend::active().matmul_f32(&self.data, &rhs.data, &mut out, m, k, n);
        Ok(TensorBase { shape: Shape::mat(m, n), data: out })
    }

    /// [`Tensor::try_matmul`] into a reusable output buffer: `out`'s
    /// allocation is kept whenever it is large enough, so steady-state
    /// callers (the per-token decode loop, the distributed functional
    /// executor) run allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) -> Result<()> {
        let (m, k) = (self.shape.rows(), self.shape.cols());
        let (k2, n) = (rhs.shape.rows(), rhs.shape.cols());
        if k != k2 {
            return Err(TensorError::MatmulMismatch { left: self.shape, right: rhs.shape });
        }
        out.resize_for_overwrite(Shape::mat(m, n));
        crate::backend::active().matmul_f32(&self.data, &rhs.data, &mut out.data, m, k, n);
        Ok(())
    }

    /// Matrix product with the transpose of `rhs`: `self @ rhs^T`.
    ///
    /// Dispatches to the active [`crate::backend::Backend`]; every backend
    /// keeps one independent ascending-`k` accumulator chain per output
    /// element, bit-identical to [`crate::naive::matmul_t`]. For
    /// steady-state loops, [`Tensor::matmul_t_into`] reuses a caller-owned
    /// output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] when `self.cols() != rhs.cols()`.
    pub fn try_matmul_t(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k) = (self.shape.rows(), self.shape.cols());
        let (n, k2) = (rhs.shape.rows(), rhs.shape.cols());
        if k != k2 {
            return Err(TensorError::MatmulMismatch { left: self.shape, right: rhs.shape });
        }
        let mut out = vec![0.0f32; m * n];
        crate::backend::active().matmul_t_f32(&self.data, &rhs.data, &mut out, m, k, n);
        Ok(TensorBase { shape: Shape::mat(m, n), data: out })
    }

    /// [`Tensor::try_matmul_t`] into a reusable output buffer (see
    /// [`Tensor::matmul_into`] for the scratch-buffer discipline).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] when `self.cols() != rhs.cols()`.
    pub fn matmul_t_into(&self, rhs: &Tensor, out: &mut Tensor) -> Result<()> {
        let (m, k) = (self.shape.rows(), self.shape.cols());
        let (n, k2) = (rhs.shape.rows(), rhs.shape.cols());
        if k != k2 {
            return Err(TensorError::MatmulMismatch { left: self.shape, right: rhs.shape });
        }
        out.resize_for_overwrite(Shape::mat(m, n));
        crate::backend::active().matmul_t_f32(&self.data, &rhs.data, &mut out.data, m, k, n);
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn try_add(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch { left: self.shape, right: rhs.shape });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Ok(TensorBase { shape: self.shape, data })
    }

    /// Element-wise sum into a reusable output buffer: `out = self + rhs`
    /// without allocating in steady state (the scratch-variant companion
    /// of [`Tensor::try_add`], mirroring [`Tensor::matmul_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_into(&self, rhs: &Tensor, out: &mut Tensor) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch { left: self.shape, right: rhs.shape });
        }
        out.resize_for_overwrite(self.shape);
        for ((o, a), b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a + b;
        }
        Ok(())
    }

    /// In-place element-wise accumulation `self += rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn accumulate(&mut self, rhs: &Tensor) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch { left: self.shape, right: rhs.shape });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        Ok(())
    }

    /// Scales every element by `factor`, returning a new tensor.
    #[must_use]
    pub fn scaled(&self, factor: f32) -> Tensor {
        TensorBase { shape: self.shape, data: self.data.iter().map(|v| v * factor).collect() }
    }

    /// Maximum absolute element (0 for an empty tensor).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, rhs: &Tensor) -> Result<f32> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch { left: self.shape, right: rhs.shape });
        }
        Ok(self.data.iter().zip(&rhs.data).fold(0.0f32, |m, (a, b)| m.max((a - b).abs())))
    }

    /// Returns `true` when every element differs from `rhs` by at most `tol`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn approx_eq(&self, rhs: &Tensor, tol: f32) -> Result<bool> {
        Ok(self.max_abs_diff(rhs)? <= tol)
    }

    /// Narrows every element to [`F16`] with round-to-nearest-even — the
    /// storage-compression step of a half-precision deployment.
    #[must_use]
    pub fn to_f16(&self) -> TensorBase<F16> {
        TensorBase {
            shape: self.shape,
            data: self.data.iter().map(|&v| F16::from_f32(v)).collect(),
        }
    }
}

impl TensorBase<F16> {
    /// Widens every element back to `f32` — exact (every half value is
    /// representable), so `t.to_f16().to_f32_tensor()` is the closest-half
    /// rounding of `t` and nothing more.
    #[must_use]
    pub fn to_f32_tensor(&self) -> Tensor {
        TensorBase { shape: self.shape, data: self.data.iter().map(|v| v.to_f32()).collect() }
    }

    /// Half-precision matrix product with f32 accumulation: operands widen
    /// exactly, the active backend runs the same ascending-`k` chains as
    /// the f32 matmul, and the result stays f32 (the accumulator dtype).
    /// Scalar and SIMD backends agree bit for bit; versus an f32 matmul of
    /// the unrounded operands the error is the bounded f16 representation
    /// error, asserted in the lockstep suite.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] when `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &TensorBase<F16>) -> Result<Tensor> {
        let (m, k) = (self.shape.rows(), self.shape.cols());
        let (k2, n) = (rhs.shape.rows(), rhs.shape.cols());
        if k != k2 {
            return Err(TensorError::MatmulMismatch { left: self.shape, right: rhs.shape });
        }
        let mut out = vec![0.0f32; m * n];
        crate::backend::active().matmul_f16(&self.data, &rhs.data, &mut out, m, k, n);
        Ok(TensorBase { shape: Shape::mat(m, n), data: out })
    }
}

impl<E: TensorElement> Default for TensorBase<E> {
    /// An empty `0 x 0` tensor — the idiomatic initial state for scratch
    /// buffers that [`TensorBase::resize_to`] will size on first use.
    fn default() -> Self {
        Self::zeros(Shape::mat(0, 0))
    }
}

/// One multiply-accumulate step, `acc + a*b`.
///
/// On targets compiled with hardware FMA support this fuses into a single
/// rounding (faster and slightly more accurate); elsewhere it is a plain
/// multiply-then-add. The backend kernels (scalar *and* SIMD — see
/// `vmadd` in the SIMD module, keyed on the same `cfg`), the retained
/// naive references in [`crate::naive`], and every downstream hand-rolled
/// accumulation loop go through this helper, so optimized-vs-naive
/// **bit-identity** holds under either compilation mode. (A bare
/// `f32::mul_add` without the feature gate would fall back to a slow
/// library call on non-FMA targets.)
#[inline(always)]
pub fn madd(acc: f32, a: f32, b: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

impl<E: TensorElement> std::ops::Index<(usize, usize)> for TensorBase<E> {
    type Output = E;
    fn index(&self, (r, c): (usize, usize)) -> &E {
        &self.data[r * self.shape.cols() + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, vals: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::mat(rows, cols), vals.to_vec()).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        let b = t(2, 2, &[5., 6., 7., 8.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(4, 3, &[1., 0., 1., 0., 1., 0., 2., 2., 2., 1., 1., 1.]);
        let via_t = a.try_matmul_t(&b).unwrap();
        let explicit = a.matmul(&b.transposed());
        assert_eq!(via_t, explicit);
    }

    #[test]
    fn backend_kernels_bit_match_naive_reference() {
        // Deterministic "awkward" shapes exercising unroll/panel tails (k
        // and n not multiples of the block widths). The workspace-root
        // proptest suite does the arbitrary-shape version of this.
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (2, 9, 4), (4, 4, 6), (5, 13, 3), (4, 16, 33)] {
            let a = Tensor::from_fn(Shape::mat(m, k), |(r, c)| ((r * k + c) as f32).sin());
            let b = Tensor::from_fn(Shape::mat(k, n), |(r, c)| ((r * n + c) as f32).cos());
            let bt = Tensor::from_fn(Shape::mat(n, k), |(r, c)| ((r + c * 2) as f32).sin());
            assert_eq!(
                a.try_matmul(&b).unwrap().as_slice(),
                crate::naive::matmul(&a, &b).unwrap().as_slice(),
                "matmul {m}x{k}x{n}"
            );
            assert_eq!(
                a.try_matmul_t(&bt).unwrap().as_slice(),
                crate::naive::matmul_t(&a, &bt).unwrap().as_slice(),
                "matmul_t {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn into_variants_match_and_reuse_scratch() {
        let a = Tensor::from_fn(Shape::mat(6, 8), |(r, c)| (r * 8 + c) as f32 * 0.1);
        let b = Tensor::from_fn(Shape::mat(8, 5), |(r, c)| (r + c) as f32 * 0.2);
        let bt = Tensor::from_fn(Shape::mat(5, 8), |(r, c)| (r * 2 + c) as f32 * 0.3);
        // Scratch deliberately starts with the wrong shape and stale data.
        let mut out = Tensor::from_fn(Shape::mat(9, 9), |_| 42.0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.try_matmul(&b).unwrap());
        a.matmul_t_into(&bt, &mut out).unwrap();
        assert_eq!(out, a.try_matmul_t(&bt).unwrap());
        let c = Tensor::from_fn(Shape::mat(6, 8), |_| 1.0);
        a.add_into(&c, &mut out).unwrap();
        assert_eq!(out, a.try_add(&c).unwrap());
        // Shape mismatches still error.
        assert!(a.matmul_into(&bt, &mut out).is_err());
        assert!(a.matmul_t_into(&b, &mut out).is_err());
        assert!(a.add_into(&b, &mut out).is_err());
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let src = Tensor::from_fn(Shape::mat(2, 3), |(r, c)| (r + c) as f32);
        let mut dst = Tensor::zeros(Shape::mat(8, 8));
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn from_fn_rank3_repeats_base_tile() {
        let t = Tensor::from_fn(Shape::cube(2, 2, 3), |(r, c)| (r * 2 + c) as f32);
        // Base 2x2 tile [0,1,2,3] repeated to fill 2*2*3 = 12 elements.
        assert_eq!(t.len(), 12);
        let d = t.as_slice();
        for idx in 4..12 {
            assert_eq!(d[idx], d[idx - 4], "period-4 repetition at {idx}");
        }
    }

    #[test]
    fn matmul_mismatch_errors() {
        let a = t(2, 3, &[0.; 6]);
        let b = t(2, 2, &[0.; 4]);
        assert!(matches!(a.try_matmul(&b), Err(TensorError::MatmulMismatch { .. })));
    }

    #[test]
    fn split_cols_roundtrip() {
        let a = t(2, 4, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let parts = a.split_cols(2).unwrap();
        assert_eq!(parts[0].as_slice(), &[1., 2., 5., 6.]);
        assert_eq!(parts[1].as_slice(), &[3., 4., 7., 8.]);
        assert_eq!(Tensor::concat_cols(&parts).unwrap(), a);
    }

    #[test]
    fn split_rows_roundtrip() {
        let a = t(4, 2, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let parts = a.split_rows(2).unwrap();
        assert_eq!(parts[0].as_slice(), &[1., 2., 3., 4.]);
        assert_eq!(parts[1].as_slice(), &[5., 6., 7., 8.]);
    }

    #[test]
    fn uneven_split_errors() {
        let a = t(2, 3, &[0.; 6]);
        assert!(matches!(a.split_cols(2), Err(TensorError::UnevenSplit { .. })));
        assert!(matches!(a.split_rows(0), Err(TensorError::UnevenSplit { .. })));
    }

    #[test]
    fn accumulate_and_add() {
        let mut a = t(1, 3, &[1., 2., 3.]);
        let b = t(1, 3, &[10., 20., 30.]);
        a.accumulate(&b).unwrap();
        assert_eq!(a.as_slice(), &[11., 22., 33.]);
        let c = a.try_add(&b).unwrap();
        assert_eq!(c.as_slice(), &[21., 42., 63.]);
    }

    #[test]
    fn partial_sums_equal_full_matmul() {
        // The algebraic identity the whole partitioning scheme rests on:
        // X @ W == sum_p X[:, p-th col block] @ W[p-th row block].
        let x = Tensor::from_fn(Shape::mat(3, 8), |(r, c)| (r * 8 + c) as f32 * 0.1 - 1.0);
        let w = Tensor::from_fn(Shape::mat(8, 5), |(r, c)| ((r * 5 + c) % 7) as f32 * 0.25 - 0.5);
        let full = x.matmul(&w);
        let xs = x.split_cols(4).unwrap();
        let ws = w.split_rows(4).unwrap();
        let mut acc = Tensor::zeros(Shape::mat(3, 5));
        for (xp, wp) in xs.iter().zip(&ws) {
            acc.accumulate(&xp.matmul(wp)).unwrap();
        }
        assert!(full.approx_eq(&acc, 1e-4).unwrap());
    }

    #[test]
    fn indexing_and_rows() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a[(1, 2)], 6.0);
        assert_eq!(a.at(0, 1), 2.0);
        assert_eq!(a.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn size_bytes() {
        let a = Tensor::zeros(Shape::mat(4, 4));
        assert_eq!(a.size_bytes(crate::Dtype::Int8), 16);
        assert_eq!(a.size_bytes(crate::Dtype::Float32), 64);
        assert_eq!(a.storage_bytes(), 64);
        assert_eq!(a.dtype(), crate::Dtype::Float32);
        let h = a.to_f16();
        assert_eq!(h.storage_bytes(), 32);
        assert_eq!(h.dtype(), crate::Dtype::Float16);
    }

    #[test]
    fn from_vec_length_mismatch() {
        assert!(matches!(
            Tensor::from_vec(Shape::mat(2, 2), vec![0.0; 3]),
            Err(TensorError::LengthMismatch { expected: 4, actual: 3 })
        ));
    }

    #[test]
    fn scaled() {
        let a = t(1, 3, &[1., -2., 4.]);
        assert_eq!(a.scaled(0.5).as_slice(), &[0.5, -1., 2.]);
    }

    #[test]
    fn max_abs_diff() {
        let a = t(1, 3, &[1., 2., 3.]);
        let b = t(1, 3, &[1., 2.5, 3.]);
        assert!((a.max_abs_diff(&b).unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn generic_container_works_for_f16_and_i8() {
        let eye = TensorBase::<F16>::eye(2);
        assert_eq!(eye.at(0, 0), F16::ONE);
        assert_eq!(eye.at(0, 1), F16::ZERO);
        let q = TensorBase::<i8>::from_fn(Shape::mat(2, 3), |(r, c)| (r * 3 + c) as i8);
        assert_eq!(q.row(1), &[3, 4, 5]);
        assert_eq!(q.transposed().row(1), &[1, 4]);
        assert_eq!(q.storage_bytes(), 6);
    }

    #[test]
    fn f16_tensor_roundtrip_and_matmul_error_bound() {
        let a = Tensor::from_fn(Shape::mat(4, 9), |(r, c)| ((r * 9 + c) as f32).sin() * 3.0);
        let b = Tensor::from_fn(Shape::mat(9, 5), |(r, c)| ((r * 5 + c) as f32).cos() * 2.0);
        let (ah, bh) = (a.to_f16(), b.to_f16());
        // Round-trip error is at most half an ulp per element.
        assert!(ah.to_f32_tensor().max_abs_diff(&a).unwrap() <= 3.0 * f32::powi(2.0, -11));
        let exact = a.matmul(&b);
        let half = ah.try_matmul(&bh).unwrap();
        // k terms, each |a*b| <= 6, relative error ~2^-11 per rounded
        // operand (two operands -> ~2x), plus accumulation slack.
        let bound = 9.0 * 6.0 * 2.0 * f32::powi(2.0, -11) + 1e-4;
        assert!(half.max_abs_diff(&exact).unwrap() <= bound);
        // Mismatched shapes still error.
        assert!(ah.try_matmul(&ah).is_err());
    }
}
