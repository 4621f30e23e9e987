//! Functional compute kernels and cycle-cost models for octa-core RISC-V
//! MCU clusters (Siracusa-class, GAP-like SPMD execution).
//!
//! Every kernel in this crate exists twice:
//!
//! 1. **Functionally** (in [`ops`] / [`linear`]): value-producing `f32`
//!    implementations used by the golden model and by the distributed
//!    functional executor to verify the partitioning numerically.
//! 2. **As a cost model** (in [`cost`]): a [`Kernel`] descriptor carrying
//!    only the dimensions, from which [`cost::ClusterCostModel`] derives the
//!    cycle count on an N-core SPMD cluster, including the utilization
//!    roll-off for small tiles that the paper observes on MobileBERT
//!    ("the runtime of a GEMM kernel does not scale down linearly as the
//!    overall kernel size is reduced").
//!
//! # Examples
//!
//! ```
//! use mtp_kernels::{cost::ClusterCostModel, Kernel};
//!
//! let model = ClusterCostModel::siracusa();
//! let big = model.cycles(&Kernel::gemm(16, 128, 128));
//! let small = model.cycles(&Kernel::gemm(16, 128, 16));
//! // An 8x smaller GEMM takes *more* than 1/8 the cycles: utilization drops.
//! assert!(small * 8 > big);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cost;
pub mod linear;
pub mod ops;

pub use cost::{
    CalibratedCostModel, CalibrationSample, ClusterCostModel, CostParams, CostSource, OpClass,
};
pub use linear::{gemm, gemm_bias, gemv};
pub use ops::{
    gelu, gelu_inplace, layer_norm, layer_norm_inplace, rms_norm, rms_norm_inplace,
    rope_heads_inplace, rope_inplace, silu, silu_inplace, softmax_rows, softmax_rows_inplace,
};

/// A dimension-only descriptor of one kernel invocation on a cluster.
///
/// The timing simulator schedules `Kernel`s; it never sees tensor values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Dense matrix multiply `[m x k] @ [k x n]`.
    Gemm {
        /// Output rows.
        m: usize,
        /// Inner (reduction) dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// Matrix-vector multiply `[1 x k] @ [k x n]` (autoregressive mode's
    /// dominant kernel).
    Gemv {
        /// Inner (reduction) dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// Row-wise numerically-stable softmax over a `[rows x cols]` matrix.
    Softmax {
        /// Number of independent rows.
        rows: usize,
        /// Row width.
        cols: usize,
    },
    /// Row-wise LayerNorm over a `[rows x cols]` matrix.
    LayerNorm {
        /// Number of independent rows.
        rows: usize,
        /// Row width.
        cols: usize,
    },
    /// Row-wise RMSNorm (Llama-style) over a `[rows x cols]` matrix.
    RmsNorm {
        /// Number of independent rows.
        rows: usize,
        /// Row width.
        cols: usize,
    },
    /// GELU over `n` elements.
    Gelu {
        /// Element count.
        n: usize,
    },
    /// SiLU over `n` elements.
    Silu {
        /// Element count.
        n: usize,
    },
    /// Rotary positional embedding applied to `seq` rows of width `dim`.
    Rope {
        /// Sequence positions processed.
        seq: usize,
        /// Head dimension (must be even).
        dim: usize,
    },
    /// Element-wise addition of `n` elements (residual / partial-sum
    /// accumulation during all-reduce).
    Add {
        /// Element count.
        n: usize,
    },
    /// Requantization / dtype conversion of `n` elements.
    Requant {
        /// Element count.
        n: usize,
    },
}

impl Kernel {
    /// Convenience constructor for [`Kernel::Gemm`].
    #[must_use]
    pub const fn gemm(m: usize, k: usize, n: usize) -> Self {
        Kernel::Gemm { m, k, n }
    }

    /// Convenience constructor for [`Kernel::Gemv`].
    #[must_use]
    pub const fn gemv(k: usize, n: usize) -> Self {
        Kernel::Gemv { k, n }
    }

    /// A linear layer for `seq` tokens: GEMV when `seq == 1`, GEMM otherwise.
    ///
    /// This mirrors how the deployment flow lowers `X @ W`: autoregressive
    /// single-token steps become GEMVs, prompt-mode batches become GEMMs.
    #[must_use]
    pub const fn linear(seq: usize, k: usize, n: usize) -> Self {
        if seq == 1 {
            Kernel::Gemv { k, n }
        } else {
            Kernel::Gemm { m: seq, k, n }
        }
    }

    /// Multiply-accumulate operations performed by this kernel.
    #[must_use]
    pub fn macs(&self) -> u64 {
        match *self {
            Kernel::Gemm { m, k, n } => (m * k * n) as u64,
            Kernel::Gemv { k, n } => (k * n) as u64,
            _ => 0,
        }
    }

    /// Number of output elements this kernel produces.
    #[must_use]
    pub fn output_elems(&self) -> u64 {
        match *self {
            Kernel::Gemm { m, n, .. } => (m * n) as u64,
            Kernel::Gemv { n, .. } => n as u64,
            Kernel::Softmax { rows, cols }
            | Kernel::LayerNorm { rows, cols }
            | Kernel::RmsNorm { rows, cols } => (rows * cols) as u64,
            Kernel::Gelu { n } | Kernel::Silu { n } | Kernel::Add { n } | Kernel::Requant { n } => {
                n as u64
            }
            Kernel::Rope { seq, dim } => (seq * dim) as u64,
        }
    }

    /// Bytes moved between L2 and L1 to execute this kernel (operands
    /// streamed in, results written back), assuming each operand element
    /// crosses the L2/L1 boundary once.
    #[must_use]
    pub fn l2_l1_traffic_bytes(&self, elem_bytes: usize) -> u64 {
        let eb = elem_bytes as u64;
        match *self {
            Kernel::Gemm { m, k, n } => ((m * k + k * n + m * n) as u64) * eb,
            Kernel::Gemv { k, n } => ((k + k * n + n) as u64) * eb,
            Kernel::Softmax { rows, cols }
            | Kernel::LayerNorm { rows, cols }
            | Kernel::RmsNorm { rows, cols } => 2 * ((rows * cols) as u64) * eb,
            Kernel::Gelu { n } | Kernel::Silu { n } | Kernel::Requant { n } => 2 * (n as u64) * eb,
            Kernel::Add { n } => 3 * (n as u64) * eb,
            Kernel::Rope { seq, dim } => 2 * ((seq * dim) as u64) * eb,
        }
    }

    /// A short human-readable label (used in traces).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Gemm { .. } => "gemm",
            Kernel::Gemv { .. } => "gemv",
            Kernel::Softmax { .. } => "softmax",
            Kernel::LayerNorm { .. } => "layernorm",
            Kernel::RmsNorm { .. } => "rmsnorm",
            Kernel::Gelu { .. } => "gelu",
            Kernel::Silu { .. } => "silu",
            Kernel::Rope { .. } => "rope",
            Kernel::Add { .. } => "add",
            Kernel::Requant { .. } => "requant",
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Kernel::Gemm { m, k, n } => write!(f, "gemm[{m}x{k}x{n}]"),
            Kernel::Gemv { k, n } => write!(f, "gemv[{k}x{n}]"),
            _ => write!(f, "{}[{}]", self.label(), self.output_elems()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_picks_gemv_for_single_token() {
        assert_eq!(Kernel::linear(1, 512, 512), Kernel::gemv(512, 512));
        assert_eq!(Kernel::linear(16, 512, 512), Kernel::gemm(16, 512, 512));
    }

    #[test]
    fn macs_counts() {
        assert_eq!(Kernel::gemm(2, 3, 4).macs(), 24);
        assert_eq!(Kernel::gemv(3, 4).macs(), 12);
        assert_eq!(Kernel::Softmax { rows: 2, cols: 2 }.macs(), 0);
    }

    #[test]
    fn traffic_scales_with_elem_bytes() {
        let k = Kernel::gemv(4, 4);
        assert_eq!(k.l2_l1_traffic_bytes(4), 4 * k.l2_l1_traffic_bytes(1));
    }

    #[test]
    fn display_labels() {
        assert_eq!(Kernel::gemm(1, 2, 3).to_string(), "gemm[1x2x3]");
        assert_eq!(Kernel::Gelu { n: 8 }.to_string(), "gelu[8]");
    }
}
