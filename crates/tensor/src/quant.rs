//! Symmetric per-tensor int8 quantization.
//!
//! The paper deploys int8 models (via the Deeploy compiler). For the
//! simulator, what matters is the *byte footprint*; for functional
//! verification we also provide a faithful symmetric-quantization round trip
//! so the int8 pipeline can be exercised end to end.

use crate::element::TensorElement;
use crate::{Result, Shape, Tensor, TensorBase, TensorError};

/// Parameters of a symmetric linear quantizer `real = scale * q`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantization {
    /// Scale factor mapping int8 values back to reals.
    pub scale: f32,
}

impl Quantization {
    /// Chooses the scale so `max_abs` maps to 127.
    ///
    /// A zero `max_abs` yields scale 1.0 (all-zero tensor).
    #[must_use]
    pub fn for_max_abs(max_abs: f32) -> Self {
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        Quantization { scale }
    }
}

/// A quantized int8 tensor: a [`TensorBase<i8>`] container paired with its
/// per-tensor [`Quantization`].
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    values: TensorBase<i8>,
    quant: Quantization,
}

impl QTensor {
    /// Shape of the tensor.
    #[must_use]
    pub const fn shape(&self) -> Shape {
        self.values.shape()
    }

    /// The quantization parameters.
    #[must_use]
    pub const fn quantization(&self) -> Quantization {
        self.quant
    }

    /// The raw int8 values.
    #[must_use]
    pub fn as_slice(&self) -> &[i8] {
        self.values.as_slice()
    }

    /// The underlying int8 tensor container.
    #[must_use]
    pub fn tensor(&self) -> &TensorBase<i8> {
        &self.values
    }

    /// Byte footprint (one byte per element).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.values.storage_bytes()
    }

    /// Integer matrix product with `i32` accumulation, the arithmetic an MCU
    /// DSP extension performs — dispatched to the active
    /// [`crate::backend::Backend`] (exact on every backend: integer sums are
    /// order-free). Returns the `i32` accumulator matrix and the combined
    /// output scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] when inner dims disagree.
    pub fn matmul_i32(&self, rhs: &QTensor) -> Result<(Vec<i32>, Shape, f32)> {
        let (m, k) = (self.shape().rows(), self.shape().cols());
        let (k2, n) = (rhs.shape().rows(), rhs.shape().cols());
        if k != k2 {
            return Err(TensorError::MatmulMismatch { left: self.shape(), right: rhs.shape() });
        }
        let mut out = vec![0i32; m * n];
        crate::backend::active().matmul_i8_i32(
            self.values.as_slice(),
            rhs.values.as_slice(),
            &mut out,
            m,
            k,
            n,
        );
        Ok((out, Shape::mat(m, n), self.quant.scale * rhs.quant.scale))
    }
}

/// Quantizes a tensor symmetrically to int8 (scale = `max_abs / 127`).
///
/// ```
/// use mtp_tensor::{quantize_symmetric, dequantize, Shape, Tensor};
/// let t = Tensor::from_vec(Shape::vec(3), vec![-1.0, 0.5, 1.0])?;
/// let q = quantize_symmetric(&t);
/// let back = dequantize(&q);
/// assert!(t.approx_eq(&back, 1.0 / 127.0)?);
/// # Ok::<(), mtp_tensor::TensorError>(())
/// ```
#[must_use]
pub fn quantize_symmetric(t: &Tensor) -> QTensor {
    let quant = Quantization::for_max_abs(t.max_abs());
    // `i8::from_f32` rounds to nearest and saturates to the symmetric
    // [-127, 127] range the scale was chosen for.
    let data: Vec<i8> = t.as_slice().iter().map(|&v| i8::from_f32(v / quant.scale)).collect();
    let values = TensorBase::from_vec(t.shape(), data)
        .expect("element count is preserved by the per-element map");
    QTensor { values, quant }
}

/// Reconstructs the real-valued tensor from a quantized one.
#[must_use]
pub fn dequantize(q: &QTensor) -> Tensor {
    let data = q.values.as_slice().iter().map(|&v| f32::from(v) * q.quant.scale).collect();
    Tensor::from_vec(q.shape(), data).expect("shape/data consistency is a QTensor invariant")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let t = Tensor::from_fn(Shape::mat(8, 8), |(r, c)| ((r * 8 + c) as f32).sin());
        let q = quantize_symmetric(&t);
        let back = dequantize(&q);
        let step = q.quantization().scale;
        assert!(t.max_abs_diff(&back).unwrap() <= step * 0.5 + 1e-6);
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let t = Tensor::zeros(Shape::vec(4));
        let q = quantize_symmetric(&t);
        assert_eq!(q.quantization().scale, 1.0);
        assert!(q.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn extremes_map_to_127() {
        let t = Tensor::from_vec(Shape::vec(2), vec![-2.0, 2.0]).unwrap();
        let q = quantize_symmetric(&t);
        assert_eq!(q.as_slice(), &[-127, 127]);
    }

    #[test]
    fn int_matmul_matches_float_matmul_approximately() {
        let a = Tensor::from_fn(Shape::mat(3, 4), |(r, c)| (r as f32 - c as f32) * 0.3);
        let b = Tensor::from_fn(Shape::mat(4, 2), |(r, c)| (r as f32 + c as f32) * 0.2 - 0.4);
        let qa = quantize_symmetric(&a);
        let qb = quantize_symmetric(&b);
        let (acc, shape, scale) = qa.matmul_i32(&qb).unwrap();
        let approx =
            Tensor::from_vec(shape, acc.iter().map(|&v| v as f32 * scale).collect()).unwrap();
        let exact = a.matmul(&b);
        // int8 x int8 over k=4 accumulations: generous tolerance.
        assert!(exact.max_abs_diff(&approx).unwrap() < 0.05);
    }

    #[test]
    fn matmul_i32_shape_mismatch() {
        let a = quantize_symmetric(&Tensor::zeros(Shape::mat(2, 3)));
        let b = quantize_symmetric(&Tensor::zeros(Shape::mat(2, 3)));
        assert!(a.matmul_i32(&b).is_err());
    }

    #[test]
    fn size_bytes_is_element_count() {
        let q = quantize_symmetric(&Tensor::zeros(Shape::mat(5, 7)));
        assert_eq!(q.size_bytes(), 35);
        assert_eq!(q.tensor().dtype(), crate::Dtype::Int8);
    }
}
