//! Shape bookkeeping for dense row-major tensors.

use crate::{Result, TensorError};

/// The extents of a dense, row-major tensor (rank 1..=3 in practice).
///
/// Transformer inference only needs matrices (`S x E`, `E x F`, ...) and the
/// occasional rank-3 per-head view, so `Shape` stores up to three dims in a
/// small inline array.
///
/// ```
/// use mtp_tensor::Shape;
/// let s = Shape::mat(4, 8);
/// assert_eq!(s.len(), 32);
/// assert_eq!(s.rows(), 4);
/// assert_eq!(s.cols(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; 3],
    rank: u8,
}

impl Shape {
    /// A rank-1 shape (vector) of `n` elements.
    #[must_use]
    pub const fn vec(n: usize) -> Self {
        Shape { dims: [n, 1, 1], rank: 1 }
    }

    /// A rank-2 shape (matrix) with `rows` rows and `cols` columns.
    #[must_use]
    pub const fn mat(rows: usize, cols: usize) -> Self {
        Shape { dims: [rows, cols, 1], rank: 2 }
    }

    /// A rank-3 shape, used for per-head `(heads, seq, dim)` layouts.
    #[must_use]
    pub const fn cube(d0: usize, d1: usize, d2: usize) -> Self {
        Shape { dims: [d0, d1, d2], rank: 3 }
    }

    /// Number of dimensions (1..=3).
    #[must_use]
    pub const fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Extent of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        if axis < self.rank() {
            Ok(self.dims[axis])
        } else {
            Err(TensorError::AxisOutOfRange { axis, rank: self.rank() })
        }
    }

    /// Total number of elements.
    #[must_use]
    pub const fn len(&self) -> usize {
        // All unused dims are 1, so the full product is always correct.
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// `true` when the shape holds zero elements.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows of a matrix (dimension 0).
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.dims[0]
    }

    /// Columns of a matrix (dimension 1; `1` for vectors).
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.dims[1]
    }

    /// The dims as a slice of the active rank.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank()]
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<usize> for Shape {
    fn from(n: usize) -> Self {
        Shape::vec(n)
    }
}

impl From<(usize, usize)> for Shape {
    fn from((r, c): (usize, usize)) -> Self {
        Shape::mat(r, c)
    }
}

impl From<(usize, usize, usize)> for Shape {
    fn from((a, b, c): (usize, usize, usize)) -> Self {
        Shape::cube(a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_shape() {
        let s = Shape::vec(5);
        assert_eq!(s.rank(), 1);
        assert_eq!(s.len(), 5);
        assert_eq!(s.dims(), &[5]);
        assert_eq!(s.to_string(), "[5]");
    }

    #[test]
    fn mat_shape() {
        let s = Shape::mat(3, 4);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.len(), 12);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 4);
        assert_eq!(s.to_string(), "[3x4]");
    }

    #[test]
    fn cube_shape() {
        let s = Shape::cube(2, 3, 4);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.len(), 24);
        assert_eq!(s.dim(2).unwrap(), 4);
    }

    #[test]
    fn dim_out_of_range() {
        let s = Shape::mat(3, 4);
        assert_eq!(s.dim(2), Err(TensorError::AxisOutOfRange { axis: 2, rank: 2 }));
    }

    #[test]
    fn from_tuples() {
        assert_eq!(Shape::from(7), Shape::vec(7));
        assert_eq!(Shape::from((2, 3)), Shape::mat(2, 3));
        assert_eq!(Shape::from((2, 3, 4)), Shape::cube(2, 3, 4));
    }

    #[test]
    fn empty() {
        assert!(Shape::mat(0, 4).is_empty());
        assert!(!Shape::mat(1, 4).is_empty());
    }
}
