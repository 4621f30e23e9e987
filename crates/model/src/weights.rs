//! Seeded-random model weights with the paper's exact shapes.

use crate::TransformerConfig;
use mtp_tensor::{Shape, SplitMix64, Tensor};

/// All learnable tensors of one Transformer block.
///
/// Shapes follow the paper's notation: the attention projections are
/// `E x (H*P)` (with `H*P = E`), the output projection `(H*P) x E`, and
/// the FFN matrices `E x F` and `F x E`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWeights {
    /// Query projection `W_Q`, shape `E x E`.
    pub wq: Tensor,
    /// Key projection `W_K`, shape `E x kv_width` (`E x E` for MHA).
    pub wk: Tensor,
    /// Value projection `W_V`, shape `E x kv_width` (`E x E` for MHA).
    pub wv: Tensor,
    /// Output projection `W_O`, shape `E x E`.
    pub wo: Tensor,
    /// First FFN matrix `W_L1`, shape `E x F`.
    pub w1: Tensor,
    /// Second FFN matrix `W_L2`, shape `F x E`.
    pub w2: Tensor,
    /// Post-attention norm gain, length `E`.
    pub norm1_gamma: Vec<f32>,
    /// Post-attention norm bias (LayerNorm only), length `E`.
    pub norm1_beta: Vec<f32>,
    /// Post-FFN norm gain, length `E`.
    pub norm2_gamma: Vec<f32>,
    /// Post-FFN norm bias (LayerNorm only), length `E`.
    pub norm2_beta: Vec<f32>,
}

fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize, std: f32) -> Tensor {
    let data: Vec<f32> = (0..rows * cols).map(|_| (rng.next_f32() * 2.0 - 1.0) * std).collect();
    Tensor::from_vec(Shape::mat(rows, cols), data).expect("consistent length by construction")
}

impl BlockWeights {
    /// Deterministic random weights for one block of `cfg` (uniform in
    /// `±0.06`, a typical initializer scale that keeps activations in a
    /// numerically comfortable range).
    #[must_use]
    pub fn seeded(cfg: &TransformerConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let e = cfg.embed_dim;
        let f = cfg.ffn_dim;
        let kvw = cfg.kv_width();
        let std = 0.06;
        BlockWeights {
            wq: random_matrix(&mut rng, e, e, std),
            wk: random_matrix(&mut rng, e, kvw, std),
            wv: random_matrix(&mut rng, e, kvw, std),
            wo: random_matrix(&mut rng, e, e, std),
            w1: random_matrix(&mut rng, e, f, std),
            w2: random_matrix(&mut rng, f, e, std),
            norm1_gamma: vec![1.0; e],
            norm1_beta: vec![0.0; e],
            norm2_gamma: vec![1.0; e],
            norm2_beta: vec![0.0; e],
        }
    }

    /// Total parameter count in this block (matrices only, matching
    /// [`TransformerConfig::params_per_block`]).
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.wq.len()
            + self.wk.len()
            + self.wv.len()
            + self.wo.len()
            + self.w1.len()
            + self.w2.len()
    }
}

/// Weights for every block of a model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    blocks: Vec<BlockWeights>,
}

impl ModelWeights {
    /// Deterministic random weights for all `cfg.n_layers` blocks.
    #[must_use]
    pub fn seeded(cfg: &TransformerConfig, seed: u64) -> Self {
        let blocks = (0..cfg.n_layers)
            .map(|layer| BlockWeights::seeded(cfg, seed.wrapping_add(layer as u64)))
            .collect();
        ModelWeights { blocks }
    }

    /// Wraps explicit per-layer block weights (e.g. quantized variants of
    /// an existing model).
    #[must_use]
    pub fn from_blocks(blocks: Vec<BlockWeights>) -> Self {
        ModelWeights { blocks }
    }

    /// Per-block weights, in layer order.
    #[must_use]
    pub fn blocks(&self) -> &[BlockWeights] {
        &self.blocks
    }

    /// Weights of one layer.
    #[must_use]
    pub fn block(&self, layer: usize) -> &BlockWeights {
        &self.blocks[layer]
    }

    /// Number of layers.
    #[must_use]
    pub fn n_layers(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_config() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let w = BlockWeights::seeded(&cfg, 1);
        assert_eq!(w.wq.shape(), Shape::mat(512, 512));
        assert_eq!(w.w1.shape(), Shape::mat(512, 2048));
        assert_eq!(w.w2.shape(), Shape::mat(2048, 512));
        assert_eq!(w.param_count(), cfg.params_per_block());
    }

    #[test]
    fn seeding_is_deterministic() {
        let cfg = TransformerConfig::mobile_bert();
        let a = BlockWeights::seeded(&cfg, 7);
        let b = BlockWeights::seeded(&cfg, 7);
        assert_eq!(a, b);
        let c = BlockWeights::seeded(&cfg, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn model_weights_have_distinct_layers() {
        let cfg = TransformerConfig::tiny_llama_42m();
        let m = ModelWeights::seeded(&cfg, 3);
        assert_eq!(m.n_layers(), 8);
        assert_ne!(m.block(0), m.block(1));
    }

    #[test]
    fn values_bounded_by_initializer_scale() {
        let cfg = TransformerConfig::mobile_bert();
        let w = BlockWeights::seeded(&cfg, 5);
        assert!(w.wq.max_abs() <= 0.06 + 1e-6);
    }
}
