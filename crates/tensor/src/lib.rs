//! Minimal tensor substrate for MCU transformer-inference simulation.
//!
//! This crate provides the small, dependency-light tensor types used by the
//! rest of the workspace: dense row-major [`TensorBase`] containers generic
//! over [`TensorElement`] (`f32` [`Tensor`]s, vendored IEEE-754 half [`F16`],
//! int8), quantized [`QTensor`]s of `i8` with per-tensor scale, and
//! [`Shape`] bookkeeping — plus the [`backend`] layer that dispatches the
//! hot kernels to either portable scalar code or runtime-detected AVX2, and
//! the pooled [`workspace`] allocator that keeps kernel scratch off the
//! steady-state allocation path.
//!
//! The goal is *not* to compete with ndarray: transformer inference on a
//! micro-controller uses a handful of dense 2-D operations, and keeping the
//! type surface small makes the partitioning logic in `mtp-core` easy to
//! audit. Everything is row-major `Vec`-backed and deterministic: scalar
//! and SIMD backends produce **bit-identical** f32 results (the SIMD lanes
//! preserve each output element's ascending-`k` accumulation chain), so
//! backend selection is purely a performance knob.
//!
//! # Examples
//!
//! ```
//! use mtp_tensor::{Tensor, Shape};
//!
//! let a = Tensor::from_fn(Shape::mat(2, 3), |idx| (idx.0 * 3 + idx.1) as f32);
//! let b = Tensor::eye(3);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

// `deny` rather than `forbid`: the SIMD backend module is the single
// opted-in exception (file-level `allow` with runtime feature detection
// and asserted bounds); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
mod element;
mod error;
pub mod naive;
mod quant;
mod shape;
#[cfg(target_arch = "x86_64")]
mod simd;
mod tensor;
pub mod workspace;

pub use backend::{
    active, active_kind, set_backend, simd_available, Backend, BackendKind, ScalarBackend,
};
pub use element::{TensorElement, F16};
pub use error::{Result, TensorError};
pub use quant::{dequantize, quantize_symmetric, QTensor, Quantization};
pub use shape::Shape;
#[cfg(target_arch = "x86_64")]
pub use simd::SimdBackend;
pub use tensor::{madd, Tensor, TensorBase};
pub use workspace::{
    reset_thread_workspace, thread_workspace_stats, with_scratch, with_workspace, Workspace,
    WorkspaceStats,
};

/// Numeric precision used to store a tensor when it is placed in MCU memory.
///
/// The simulator only needs the *byte width*; the functional executor always
/// computes in `f32` (with an `i32` accumulator path for the int8 pipeline
/// and exact-widening half-precision storage via [`F16`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// 8-bit signed integer (the deployment dtype used in the paper).
    Int8,
    /// 16-bit IEEE float (half-precision storage; compute still widens to
    /// `f32`).
    Float16,
    /// 32-bit IEEE float (reference/golden dtype).
    Float32,
}

impl Dtype {
    /// Size in bytes of one element of this dtype.
    ///
    /// ```
    /// assert_eq!(mtp_tensor::Dtype::Int8.size_bytes(), 1);
    /// assert_eq!(mtp_tensor::Dtype::Float16.size_bytes(), 2);
    /// assert_eq!(mtp_tensor::Dtype::Float32.size_bytes(), 4);
    /// ```
    #[must_use]
    pub const fn size_bytes(self) -> usize {
        match self {
            Dtype::Int8 => 1,
            Dtype::Float16 => 2,
            Dtype::Float32 => 4,
        }
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dtype::Int8 => write!(f, "int8"),
            Dtype::Float16 => write!(f, "f16"),
            Dtype::Float32 => write!(f, "f32"),
        }
    }
}

/// SplitMix64 (Steele et al., "Fast splittable pseudorandom number
/// generators"): the workspace's one seeded random stream, behind the
/// seeded weights and embeddings, the arrival processes, and the seeded
/// fault plans. The exact stream is part of the replayability contract:
/// one seed yields the same draws on every platform and build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting from `seed`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next uniform 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` with 53 random bits (the full `f64`
    /// mantissa), so `1 - u` is never zero.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `[0, 1)` with 24 random bits (the full `f32`
    /// mantissa).
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    #[test]
    fn first_draws_are_pinned() {
        let draws = |f: fn(&mut SplitMix64) -> u64| {
            let mut rng = SplitMix64::new(42);
            [f(&mut rng), f(&mut rng), f(&mut rng)]
        };
        assert_eq!(
            draws(SplitMix64::next_u64),
            [0xbdd7_3226_2feb_6e95, 0x28ef_e333_b266_f103, 0x4752_6757_130f_9f52]
        );
        assert_eq!(
            draws(|r| r.next_f64().to_bits()),
            [0x3fe7_bae6_44c5_fd6d, 0x3fc4_77f1_99d9_3378, 0x3fd1_d499_d5c4_c3e6]
        );
        assert_eq!(
            draws(|r| u64::from(r.next_f32().to_bits())),
            [0x3f3d_d732, 0x3e23_bf8c, 0x3e8e_a4ce]
        );
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let mut c = SplitMix64::new(2);
        let xs: Vec<f32> = (0..8).map(|_| a.next_f32()).collect();
        let ys: Vec<f32> = (0..8).map(|_| b.next_f32()).collect();
        let zs: Vec<f32> = (0..8).map(|_| c.next_f32()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn floats_cover_the_interval() {
        let mut rng = SplitMix64::new(7);
        let n = 10_000;
        let mean: f32 = (0..n).map(|_| rng.next_f32()).sum::<f32>() / n as f32;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }
}
