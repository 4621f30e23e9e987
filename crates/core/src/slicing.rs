//! Weight slicing: the zero-duplication partition of a Transformer block.

use crate::{CoreError, Result};
use mtp_model::{BlockWeights, TransformerConfig};
use mtp_tensor::{Dtype, Tensor};

/// Static description of how one model is partitioned over `n_chips`.
///
/// Head slicing requires `n_chips | H`; FFN slicing requires `n_chips | F`.
/// Nothing else is constrained — in particular `n_chips` may exceed the
/// group size of the reduction topology.
///
/// ```
/// use mtp_core::PartitionSpec;
/// use mtp_model::TransformerConfig;
///
/// let cfg = TransformerConfig::tiny_llama_42m();
/// let spec = PartitionSpec::new(&cfg, 8)?;
/// assert_eq!(spec.heads_per_chip(), 1);
/// assert_eq!(spec.ffn_per_chip(), 256);
/// # Ok::<(), mtp_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    n_chips: usize,
    n_heads: usize,
    n_kv_heads: usize,
    head_dim: usize,
    embed_dim: usize,
    ffn_dim: usize,
    dtype: Dtype,
}

impl PartitionSpec {
    /// Validates divisibility and builds the spec.
    ///
    /// # Errors
    ///
    /// - [`CoreError::NoChips`] for `n_chips == 0`;
    /// - [`CoreError::InvalidConfig`] when the config itself is broken;
    /// - [`CoreError::HeadsNotDivisible`] / [`CoreError::FfnNotDivisible`]
    ///   when the chip count does not divide the respective dimension.
    pub fn new(cfg: &TransformerConfig, n_chips: usize) -> Result<Self> {
        if n_chips == 0 {
            return Err(CoreError::NoChips);
        }
        cfg.validate().map_err(CoreError::InvalidConfig)?;
        if !cfg.n_heads.is_multiple_of(n_chips) {
            return Err(CoreError::HeadsNotDivisible { heads: cfg.n_heads, chips: n_chips });
        }
        if !cfg.n_kv_heads.is_multiple_of(n_chips) {
            // Zero-duplication K/V slicing needs whole K/V heads per chip;
            // replicating shared K/V heads would break the paper's central
            // property.
            return Err(CoreError::KvHeadsNotDivisible {
                kv_heads: cfg.n_kv_heads,
                chips: n_chips,
            });
        }
        if !cfg.ffn_dim.is_multiple_of(n_chips) {
            return Err(CoreError::FfnNotDivisible { ffn_dim: cfg.ffn_dim, chips: n_chips });
        }
        Ok(PartitionSpec {
            n_chips,
            n_heads: cfg.n_heads,
            n_kv_heads: cfg.n_kv_heads,
            head_dim: cfg.head_dim(),
            embed_dim: cfg.embed_dim,
            ffn_dim: cfg.ffn_dim,
            dtype: cfg.dtype,
        })
    }

    /// Number of chips.
    #[must_use]
    pub const fn n_chips(&self) -> usize {
        self.n_chips
    }

    /// Attention heads resident on each chip (`H / N`).
    #[must_use]
    pub const fn heads_per_chip(&self) -> usize {
        self.n_heads / self.n_chips
    }

    /// Width of each chip's query slice (`H·P / N` columns).
    #[must_use]
    pub const fn qkv_slice_width(&self) -> usize {
        self.heads_per_chip() * self.head_dim
    }

    /// Key/value heads resident on each chip (`H_kv / N`).
    #[must_use]
    pub const fn kv_heads_per_chip(&self) -> usize {
        self.n_kv_heads / self.n_chips
    }

    /// Width of each chip's K/V slice (`H_kv·P / N` columns; equals
    /// [`PartitionSpec::qkv_slice_width`] for classic multi-head
    /// attention).
    #[must_use]
    pub const fn kv_slice_width(&self) -> usize {
        self.kv_heads_per_chip() * self.head_dim
    }

    /// FFN intermediate columns per chip (`F / N`).
    #[must_use]
    pub const fn ffn_per_chip(&self) -> usize {
        self.ffn_dim / self.n_chips
    }

    /// Per-head projection width `P`.
    #[must_use]
    pub const fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Embedding dimension `E`.
    #[must_use]
    pub const fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Weight bytes of one chip's slice of one block (matrices only, at
    /// the deployment dtype). Exactly `1/N` of the full block: nothing is
    /// replicated.
    #[must_use]
    pub fn slice_bytes_per_block(&self) -> u64 {
        let e = self.embed_dim as u64;
        let w = self.qkv_slice_width() as u64;
        let kvw = self.kv_slice_width() as u64;
        let f = self.ffn_per_chip() as u64;
        let params = e * w + 2 * e * kvw + w * e + 2 * e * f;
        params * self.dtype.size_bytes() as u64
    }

    /// Per-chip KV-cache bytes at context length `s` (each chip caches only
    /// its own K/V heads' columns).
    #[must_use]
    pub fn kv_slice_bytes(&self, s: usize) -> u64 {
        (2 * s * self.kv_slice_width() * self.dtype.size_bytes()) as u64
    }
}

/// One chip's slice of a block's weights (values, for functional
/// execution).
///
/// The small normalization vectors (`gamma`/`beta`, `2·E` elements) are
/// replicated on every chip — the paper's "no weight replication" refers to
/// the `O(E^2)` matrices; the vectors are broadcast along with the block
/// input and are negligible (4 KiB at `E = 512`).
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedBlockWeights {
    /// Chip index this slice belongs to.
    pub chip: usize,
    /// `E x (H·P/N)` query projection slice.
    pub wq: Tensor,
    /// `E x (H_kv·P/N)` key projection slice.
    pub wk: Tensor,
    /// `E x (H_kv·P/N)` value projection slice.
    pub wv: Tensor,
    /// `(H·P/N) x E` output projection slice.
    pub wo: Tensor,
    /// `E x (F/N)` first FFN slice.
    pub w1: Tensor,
    /// `(F/N) x E` second FFN slice.
    pub w2: Tensor,
    /// Post-attention norm gain (replicated).
    pub norm1_gamma: Vec<f32>,
    /// Post-attention norm bias (replicated).
    pub norm1_beta: Vec<f32>,
    /// Post-FFN norm gain (replicated).
    pub norm2_gamma: Vec<f32>,
    /// Post-FFN norm bias (replicated).
    pub norm2_beta: Vec<f32>,
}

impl SlicedBlockWeights {
    /// Total matrix elements held by this chip.
    #[must_use]
    pub fn matrix_elems(&self) -> usize {
        self.wq.len()
            + self.wk.len()
            + self.wv.len()
            + self.wo.len()
            + self.w1.len()
            + self.w2.len()
    }
}

/// Splits one block's weights into `n_chips` slices following the paper's
/// scheme: Q/K/V by columns (head dimension), `W_O` by rows, `W_1` by
/// columns, `W_2` by rows.
///
/// The union of slices is an exact partition of the block — see the
/// `reconstruct_*` tests and the property tests in `tests/`.
///
/// # Errors
///
/// Returns the same divisibility errors as [`PartitionSpec::new`].
pub fn slice_block(
    weights: &BlockWeights,
    spec: &PartitionSpec,
) -> Result<Vec<SlicedBlockWeights>> {
    let n = spec.n_chips();
    let wq = weights.wq.split_cols(n)?;
    let wk = weights.wk.split_cols(n)?;
    let wv = weights.wv.split_cols(n)?;
    let wo = weights.wo.split_rows(n)?;
    let w1 = weights.w1.split_cols(n)?;
    let w2 = weights.w2.split_rows(n)?;
    let mut out = Vec::with_capacity(n);
    for (chip, ((((wq, wk), wv), wo), (w1, w2))) in
        wq.into_iter().zip(wk).zip(wv).zip(wo).zip(w1.into_iter().zip(w2)).enumerate()
    {
        out.push(SlicedBlockWeights {
            chip,
            wq,
            wk,
            wv,
            wo,
            w1,
            w2,
            norm1_gamma: weights.norm1_gamma.clone(),
            norm1_beta: weights.norm1_beta.clone(),
            norm2_gamma: weights.norm2_gamma.clone(),
            norm2_beta: weights.norm2_beta.clone(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransformerConfig {
        TransformerConfig::tiny_llama_42m()
    }

    #[test]
    fn spec_for_paper_chip_counts() {
        for n in [1usize, 2, 4, 8] {
            let s = PartitionSpec::new(&cfg(), n).unwrap();
            assert_eq!(s.heads_per_chip() * n, 8);
            assert_eq!(s.ffn_per_chip() * n, 2048);
        }
    }

    #[test]
    fn indivisible_heads_rejected() {
        assert!(matches!(
            PartitionSpec::new(&cfg(), 3),
            Err(CoreError::HeadsNotDivisible { heads: 8, chips: 3 })
        ));
    }

    #[test]
    fn zero_chips_rejected() {
        assert!(matches!(PartitionSpec::new(&cfg(), 0), Err(CoreError::NoChips)));
    }

    #[test]
    fn slice_bytes_are_exactly_one_nth() {
        let c = cfg();
        for n in [1usize, 2, 4, 8] {
            let s = PartitionSpec::new(&c, n).unwrap();
            assert_eq!(s.slice_bytes_per_block() * n as u64, c.block_weight_bytes(), "n={n}");
        }
    }

    #[test]
    fn scaled_model_allows_64_chips() {
        let c = TransformerConfig::tiny_llama_scaled_64h();
        let s = PartitionSpec::new(&c, 64).unwrap();
        assert_eq!(s.heads_per_chip(), 1);
        assert_eq!(s.qkv_slice_width(), 8);
    }

    #[test]
    fn slices_reconstruct_original() {
        let mut c = cfg();
        c.embed_dim = 32;
        c.ffn_dim = 64;
        c.n_heads = 4;
        c.n_kv_heads = 4;
        let w = BlockWeights::seeded(&c, 3);
        let spec = PartitionSpec::new(&c, 4).unwrap();
        let slices = slice_block(&w, &spec).unwrap();
        assert_eq!(slices.len(), 4);
        let wq =
            Tensor::concat_cols(&slices.iter().map(|s| s.wq.clone()).collect::<Vec<_>>()).unwrap();
        assert_eq!(wq, w.wq);
        // W_O reconstructs by row concatenation.
        let mut wo_rows = Vec::new();
        for s in &slices {
            wo_rows.extend_from_slice(s.wo.as_slice());
        }
        assert_eq!(wo_rows, w.wo.as_slice());
    }

    #[test]
    fn no_duplication_element_budget() {
        // Sum of per-chip matrix elements equals the unsliced block's: no
        // element is stored twice.
        let c = cfg();
        let w = BlockWeights::seeded(&c, 1);
        for n in [2usize, 4, 8] {
            let spec = PartitionSpec::new(&c, n).unwrap();
            let slices = slice_block(&w, &spec).unwrap();
            let total: usize = slices.iter().map(SlicedBlockWeights::matrix_elems).sum();
            assert_eq!(total, w.param_count(), "n={n}");
        }
    }

    #[test]
    fn kv_slice_bytes_scale_inversely_with_chips() {
        let s1 = PartitionSpec::new(&cfg(), 1).unwrap();
        let s8 = PartitionSpec::new(&cfg(), 8).unwrap();
        assert_eq!(s1.kv_slice_bytes(128), 8 * s8.kv_slice_bytes(128));
    }
}
